"""The compiler's output for each benchmark equals its golden byte for byte,
and the re-ingested golden QASM has the compiled circuit's distribution."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "regen_goldens.py"


def _regen_goldens():
    spec = importlib.util.spec_from_file_location("regen_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_goldens_match_compiler_output():
    assert _regen_goldens().check() is None
