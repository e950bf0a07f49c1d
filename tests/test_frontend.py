"""Lexer, parser, printer round-trips, expansion, typing, tensor flattening."""

import glob
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qbc.ast_nodes import (
    BasisLitNode, BuiltinBasisNode, CondNode, Num, PipeNode, Program,
    QubitLitNode, TensorNode, TransNode, AdjointNode, PredNode,
)
from qbc.cli import main
from qbc.diagnostics import CompileError
from qbc.expand import expand
from qbc.parser import parse
from qbc.pipeline import Options, compile_source, compile_to_circuit, front
from qbc.printer import print_program
from qbc.run import distribution

BV = open("benchmarks/bv.qw").read()


def full_front(src, dims=None):
    return expand(parse(src), dims or {})


def _qpu(prog, name):
    """The kernel of ``prog`` named ``name``, or None."""
    return next((f for f in prog.qpus if f.name == name), None)


def _classical(prog, name):
    """The classical function of ``prog`` named ``name``, or None."""
    return next((f for f in prog.classicals if f.name == name), None)


def test_parse_bv():
    prog = parse(BV)
    assert _qpu(prog, "main") is not None
    assert _classical(prog, "dot") is not None


def test_parse_error_translation_of_states():
    # '01' >> '10' parses (operands are expressions) but fails type checking.
    src = "qpu main() -> bit[2] { '01' | ('01' >> '10') | std[2].measure }"
    with pytest.raises(CompileError):
        full_front(src)


def test_empty_file_is_an_error():
    with pytest.raises(CompileError):
        parse("")


def test_a_kernel_and_a_classical_function_may_share_a_name():
    # Syntax tells their uses apart: an embed names the classical function.
    src = ("classical f(x: bit[1]) -> bit[1] { x }\n"
           "qpu f(q: qubit[1]) -> qubit[1] rev { q | std.flip }\n"
           "qpu main() -> bit[3] { '100' | (f + f.xor) | std[3].measure }\n")
    qc = compile_to_circuit(src, "shared.qw", Options())
    assert distribution(qc) == {"000": 1.0}


def test_missing_entry_kernel():
    src = "qpu helper(q: qubit[1]) -> qubit[1] rev { q | id }"
    with pytest.raises(CompileError) as e:
        expand(parse(src), {})
    assert "main" in str(e.value)


# Every arithmetic form of dimensions and angles: chained and parenthesized
# dimensions, a negated pi, a fractional and an integral angle literal, and
# an angle capture passed on to a kernel.
ARITH_FORMS = """\
qpu f[N](q: qubit[N - 1 - 1 * 2]) -> qubit[(N + 2) / 2] rev { q }
qpu rot(a: angle, q: qubit[1]) -> qubit[1] rev { q | ({'1'} >> {'1' @ a}) }
qpu main(t: angle = (1.5)) -> bit[6] {
    '0' @ (-pi / 4) + '1' @ 2 + '0000' | rot(t) + f[[8]] | std[6].measure
}
"""


@pytest.mark.parametrize("path", [
    "benchmarks/bv.qw", "benchmarks/dj.qw", "benchmarks/grover.qw",
    "benchmarks/simon.qw", "benchmarks/period.qw", "benchmarks/bell.qw",
    "benchmarks/teleport.qw", "tests/goldens/forms.qw", "arith_forms",
])
def test_print_parse_roundtrip(path):
    prog = parse(ARITH_FORMS if path == "arith_forms" else open(path).read())
    text = print_program(prog)
    again = parse(text)
    assert again == prog
    assert print_program(again) == text


def test_arith_prints_only_the_parentheses_it_needs():
    # Left-nested links print flat; a right operand at its own level, a
    # looser operand and a negated sum keep their parentheses.
    forms = ["N - 1 - 1", "N - (1 - 1)", "(N + 1) * 2", "N * (2 / 2)",
             "N + 2 * 3"]
    angles = ["-pi / 4", "-(pi / 4)", "pi - (1 - 2)", "--pi * 3 / 8"]
    src = ("qpu f[N](q: qubit[N]) -> qubit[N] rev {\n    q | ("
           + " + ".join(f"std[{d}]" for d in forms) + ") >> ("
           + " + ".join(f"std[{d}]" for d in forms) + ")\n}\n"
           "qpu main() -> bit[4] {\n    "
           + " + ".join(f"'1' @ ({a})" for a in angles)
           + " | std[4].measure\n}\n")
    prog = parse(src)
    text = print_program(prog)
    for form in forms:
        assert f"std[{form}]" in text
    for angle in angles:
        assert f"'1'@({angle})" in text
    assert parse(text) == prog


def test_expand_repeat_to_tensor():
    src = """
qpu main() -> bit[2] { '0'[2] | std[2].measure }
"""
    prog = expand(parse(src), {}).program
    body = _qpu(prog, "main").body
    assert isinstance(body, PipeNode)
    assert isinstance(body.value, TensorNode)
    assert len(body.value.parts) == 2


def test_expand_infers_dim_from_capture():
    prog = expand(parse(BV), {}).program
    main = _qpu(prog, "main")
    # Num(4) == Num(4.0), so the type is checked apart.
    assert main.ret_type.dim == Num(4)
    assert type(main.ret_type.dim.value) is int


def test_arithmetic_forms_compile():
    prog = full_front(ARITH_FORMS).program
    f = _qpu(prog, "f__N8")
    for dim in (f.params[0].type.dim, f.ret_type.dim):
        assert dim == Num(5) and type(dim.value) is int
    qc = compile_to_circuit(ARITH_FORMS, "forms.qw", Options())
    assert distribution(qc) == {"010000": 1.0}


def test_unbound_dimension_in_a_classical_body_is_a_diagnostic():
    src = ("classical c(x: bit[1]) -> bit[1] {\n    x[M]\n}\n"
           "qpu main() -> bit[2] { '00' | c.xor | std[2].measure }\n")
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert str(e.value) == "<input>:2:6: error: dimension variable M is unbound"


def test_expand_explicit_bindings_override():
    prog = expand(parse(open("benchmarks/dj.qw").read()), {"N": 6}).program
    dim = _qpu(prog, "main").ret_type.dim
    assert dim == Num(6) and type(dim.value) is int


def test_expand_conflicting_binding_errors():
    with pytest.raises(CompileError):
        expand(parse(BV), {"N": 3})  # capture '1010' forces N=4


def test_expand_unknown_binding_errors():
    with pytest.raises(CompileError):
        expand(parse(BV), {"M": 3})


def test_typecheck_linearity_double_use():
    src = """
qpu main() -> bit[2] {
    let q = '0';
    (q + q) | std[2].measure
}
"""
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert "exactly once" in str(e.value)


def test_typecheck_linearity_drop():
    src = """
qpu main() -> bit[1] {
    let q = '0';
    let r = '1';
    q | std.measure
}
"""
    with pytest.raises(CompileError):
        full_front(src)


def test_typecheck_span_mismatch():
    src = "qpu main() -> bit[2] { '00' | (std + {'0'} >> {'0'} + std) | std[2].measure }"
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert "span" in str(e.value)


def test_typecheck_normalization_identical_spans_ok():
    src = "qpu main() -> bit[2] { '00' | ({'01','10'} >> {'10','01'}) | std[2].measure }"
    full_front(src)


def test_typecheck_duplicate_eigenbits():
    src = "qpu main() -> bit[1] { '0' | ({'0','0'} >> {'0','1'}) | std.measure }"
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert "duplicate" in str(e.value)


def test_typecheck_measure_requires_full_span():
    src = "qpu main() -> bit[1] { '0' | {'0'}.measure }"
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert "span" in str(e.value)


def test_typecheck_rev_kernel_cannot_measure():
    src = """
qpu helper(q: qubit[1]) -> bit[1] rev { q | std.measure }
qpu main() -> bit[1] { '0' | helper }
"""
    with pytest.raises(CompileError):
        full_front(src)


def test_typecheck_rev_kernel_cannot_conditional():
    src = """
qpu helper(q: qubit[1]) -> qubit[1] rev { q | (id if '1' else id) }
qpu main() -> bit[1] { '0' | helper | std.measure }
"""
    with pytest.raises(CompileError):
        full_front(src)


def test_typecheck_adjoint_needs_reversible():
    src = "qpu main() -> bit[1] { '0' | ~std.measure }"
    with pytest.raises(CompileError):
        full_front(src)


def test_typecheck_deterministic_diagnostics():
    src = "qpu main() -> bit[2] { '00' | (std + {'0'} >> {'0'} + std) | std[2].measure }"
    msgs = []
    for _ in range(2):
        try:
            full_front(src)
        except CompileError as e:
            msgs.append(str(e))
    assert msgs[0] == msgs[1]


def test_mixed_prim_vector_rejected():
    src = "qpu main() -> bit[2] { '00' | ({'0p','1m'} >> {'0p','1m'}) | std[2].measure }"
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert "mixed" in str(e.value)


# Each pair is a program and its hand-canonical twin. Their adjoint,
# predicate and angle rewrites happen in the basis IR, and the circuits must
# come out identical.
TWINS = {
    "double_adjoint": (
        "qpu main() -> bit[1] { '0' | ~~(std >> pm) | pm.measure }",
        "qpu main() -> bit[1] { '0' | (std >> pm) | pm.measure }",
    ),
    "adjoint_translation": (
        "qpu main() -> bit[1] { '0' | ~(std >> pm) | std.measure }",
        "qpu main() -> bit[1] { '0' | (pm >> std) | std.measure }",
    ),
    "std_predicate": (
        "qpu main() -> bit[3] { '000' | (std[2] & (std >> pm)) | std[3].measure }",
        "qpu main() -> bit[3] { '000' | (std[2] >> std[2]) + (std >> pm) | std[3].measure }",
    ),
    "predicated_translation": (
        "qpu main() -> bit[2] { '00' | ({'1'} & (std >> {'1','0'})) | std[2].measure }",
        "qpu main() -> bit[2] { '00' | (({'1'} + std) >> ({'1'} + {'1','0'})) | std[2].measure }",
    ),
    "constant_angle": (
        "qpu main() -> bit[1] { '1'@(pi/2 + pi/2) | std.measure }",
        "qpu main() -> bit[1] { '1'@(pi) | std.measure }",
    ),
    "constant_basis_angle": (
        "qpu main() -> bit[1] { 'p' | ({'0','1'} >> {'0','1' @ (pi/4 + pi/4)}) | pm.measure }",
        "qpu main() -> bit[1] { 'p' | ({'0','1'} >> {'0','1' @ (pi/2)}) | pm.measure }",
    ),
}


@pytest.mark.parametrize("name", TWINS)
def test_twin_programs_emit_identical_circuits(name):
    src, twin = TWINS[name]
    for opt_level in (0, 1):
        for decompose in (False, True):
            opts = Options(opt_level=opt_level, decompose=decompose)
            assert (compile_source(src, "twin.qw", opts, "qcircuit-ir")
                    == compile_source(twin, "twin.qw", opts, "qcircuit-ir"))


def test_canonicalize_flattens_nested_tensors():
    src = """
qpu main() -> bit[4] {
    ('0' + ('1' + ('p' + 'm')))
        | (std >> pm) + ((pm >> std) + (std[2] >> std[2]))
        | std[2].measure + (pm.measure + pm.measure)
}
"""
    tp = front(src, "flat.qw", Options())
    body = _qpu(tp.program, "main").body
    assert [len(t.parts) for t in (body.value, *body.fns)] == [4, 3, 3]
    assert expand(tp.program, {}).fn_types == tp.fn_types
    repeated = front("qpu main() -> bit[4] { ('0' + 'p')[2] | std[4].measure }",
                     "flat.qw", Options())
    value = _qpu(repeated.program, "main").body.value
    assert [type(p) for p in value.parts] == [QubitLitNode] * 4
    ir = compile_source(open("benchmarks/period.qw").read(), "period.qw",
                        Options(), "qwerty-ir")
    packs = [line for line in ir.splitlines() if "qbpack" in line]
    assert len(packs) == 1 and packs[0].endswith(": qubit[8]")


def test_deep_pipe_compiles():
    src = "qpu main() -> bit[1] {\n    '0'\n" + "    | std.flip\n" * 800 \
        + "    | std.measure\n}\n"
    qc = compile_to_circuit(src, "deep.qw", Options())
    assert distribution(qc) == {"0": 1.0}


def _long_pipe(stages):
    return ("qpu main() -> bit[1] {\n    '0'\n" + "    | std.flip\n" * (stages - 1)
            + "    | std.measure\n}\n")


def _long_lets(bindings):
    lets = "".join(f"    let q{i} = q{i - 1} | std.flip;\n"
                   for i in range(1, bindings))
    return (f"qpu main() -> bit[1] {{\n    let q0 = '0';\n{lets}"
            f"    q{bindings - 1} | std.measure\n}}\n")


def _many_kernels(kernels):
    # main and kernels - 1 one-stage kernels, each called once from main.
    defs = "".join(f"qpu k{i}(q: qubit[1]) -> qubit[1] rev {{ q | std.flip }}\n"
                   for i in range(1, kernels))
    calls = "".join(f"    | k{i}\n" for i in range(1, kernels))
    return (f"{defs}qpu main() -> bit[1] {{\n    '0'\n{calls}"
            "    | std.measure\n}\n")


def _call_chain(kernels):
    # main and kernels - 1 kernels, each calling the adjoint of the one
    # before it; the first flips its qubit.
    defs = "".join(f"qpu k{i}(q: qubit[1]) -> qubit[1] rev {{ q | ~k{i - 1} }}\n"
                   for i in range(1, kernels - 1))
    return ("qpu k0(q: qubit[1]) -> qubit[1] rev { q | std.flip }\n" + defs
            + f"qpu main() -> bit[1] {{\n    '0' | k{kernels - 2} | std.measure\n}}\n")


# Runs `qbc run` on each file three times in one fresh interpreter, the
# runs of different files interleaved, and reports the least wall time of
# each file's runs.
_TIMER = """\
import gc, sys, time
from qbc.cli import main
best = {path: float("inf") for path in sys.argv[1:]}
for _ in range(3):
    for path in best:
        gc.collect()
        start = time.perf_counter()
        assert main(["run", path]) == 0
        best[path] = min(best[path], time.perf_counter() - start)
print(*best.values(), file=sys.stderr)
"""


@pytest.mark.parametrize("make, sizes", [
    (_long_pipe, (800, 3200)), (_long_lets, (800, 3200)),
    (_many_kernels, (200, 800)), (_call_chain, (800, 3200)),
], ids=["stages", "bindings", "kernels", "call_chain"])
def test_long_programs_run_in_near_linear_time(tmp_path, make, sizes):
    # A pipe stage, a let or a kernel in a chain of calls costs no stack
    # frame of its own, so 3200 of them compile, and compile time stays
    # near-linear in their number; a kernel is found by its name in one
    # step, and each is inlined once, so it stays near-linear in the number
    # of kernels too. A fresh interpreter times them as the
    # command runs, apart from the objects the pytest process holds.
    paths = []
    for n in sizes:
        paths.append(tmp_path / f"long{n}.qw")
        paths[-1].write_text(make(n))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    # The host is shared, and a burst of load can slow all three runs of
    # one size, so a measurement that misses the bound is taken again, up
    # to three times in all. Time quadratic in the length would give 16x.
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", _TIMER, *map(str, paths)],
                              env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "1\t1024\n" * 6  # '0' flipped an odd number of times
        short, long = map(float, proc.stderr.split())
        if long < 6 * short:
            break
    assert long < 6 * short, (short, long)


def _nested_parens(depth):
    return ("qpu main() -> bit[1] { " + "(" * depth + "'0' | std.measure"
            + ")" * depth + " }\n")


def _else_chain(elses):
    return ("qpu main() -> bit[1] {\n    let m = '1' | std.measure;\n"
            "    let q = " + "'0' if m else " * elses + "'1';\n"
            "    q | std.measure\n}\n")


def test_nesting_at_the_limit_compiles():
    qc = compile_to_circuit(_nested_parens(100), "nested.qw", Options())
    assert distribution(qc) == {"0": 1.0}


def test_else_chain_at_the_limit_parses():
    # Each else arm nests one level. (Expansion, not the parser, rejects
    # conditionals whose arms are not function values.)
    cond, arms = parse(_else_chain(100)).qpus[0].lets[1].value, 0
    while isinstance(cond, CondNode):
        cond, arms = cond.els, arms + 1
    assert arms == 100


# Chains of ``n`` links, each link a node around the chain so far. A chain's
# first link opens no level, so a chain at the top of an expression may have
# 101 links; the phase's parenthesis takes one level, leaving it 100.
CHAINS = {
    "repeats": (lambda n: "qpu main() -> bit[1] {\n    '0'" + "[1]" * n
                + " | std.measure\n}\n", 101),
    "measures": (lambda n: "qpu main() -> bit[1] {\n    '0' | std"
                 + ".measure" * n + "\n}\n", 101),
    "dimension": (lambda n: f"qpu main() -> bit[{n + 1}] {{\n    '0'[{n + 1}]"
                  f" | std[{'+'.join(['1'] * (n + 1))}].measure\n}}\n", 101),
    "phase": (lambda n: "qpu main() -> bit[1] {\n    '0' @ ("
              + "+".join(["1"] * (n + 1)) + ") | std.measure\n}\n", 100),
    "xor": (lambda n: "classical c(x: bit[1]) -> bit[1] {\n    "
            + " ^ ".join(["x"] * (n + 1)) + "\n}\n"
            "qpu main() -> bit[2] { '00' | c.xor | std[2].measure }\n", 101),
    "indices": (lambda n: "classical c(x: bit[1]) -> bit[1] {\n    x"
                + "[0]" * n + "\n}\n"
                "qpu main() -> bit[2] { '00' | c.xor | std[2].measure }\n",
                101),
}


@pytest.mark.parametrize("name", CHAINS)
def test_chains_at_the_limit_compile(name):
    make, limit = CHAINS[name]
    if name == "measures":  # parses, but a measured value is not a basis
        with pytest.raises(CompileError, match=r"\.measure applies to a basis"):
            compile_source(make(limit), "chain.qw", Options(), "qasm")
    else:
        compile_source(make(limit), "chain.qw", Options(), "qasm")
    # The printer adds no nesting level, so the chain parses back.
    prog = parse(make(limit))
    assert parse(print_program(prog)) == prog
    with pytest.raises(CompileError, match="nests deeper than 100 levels"):
        parse(make(limit + 1))


@pytest.mark.parametrize("src, where", [
    (_nested_parens(101), "1:124"),
    ("qpu f(q: qubit[1]) -> qubit[1] rev { q | std.flip }\n"
     "qpu main() -> bit[1] { '0' | " + "~" * 101 + "f | std.measure }\n",
     "2:130"),
    ("classical c(x: bit[1]) -> bit[1] { " + "(" * 101 + "x" + ")" * 101
     + " }\nqpu main() -> bit[1] { '0' | c.xor | std.measure }\n", "1:136"),
    (_else_chain(101), "3:1422"),
    (_else_chain(1200), "3:1422"),
    (CHAINS["repeats"][0](1000), "2:311"),
    (CHAINS["measures"][0](1000), "2:822"),
    (CHAINS["dimension"][0](1999), "2:224"),
    (CHAINS["phase"][0](1999), "2:213"),
    (CHAINS["xor"][0](1999), "2:411"),
    (CHAINS["indices"][0](1000), "2:309"),
], ids=["parentheses", "adjoints", "classical_parentheses", "else_chain",
        "long_else_chain", "repeat_chain", "measure_chain", "dimension_chain",
        "phase_chain", "xor_chain", "index_chain"])
def test_nesting_past_the_limit_is_a_diagnostic(src, where):
    # The diagnostic points at the token that opens the 101st level: a
    # parenthesis, a ~, an else, or the link of a chain (the 102nd link of
    # a chain at the top, the 101st of the parenthesized phase).
    with pytest.raises(CompileError) as e:
        parse(src)
    assert str(e.value) == \
        f"<input>:{where}: error: expression nests deeper than 100 levels"


def test_check_folds_basis_vector_phases(tmp_path, capsys):
    # Type checking folds every phase, so check stops where compile does.
    path = tmp_path / "phase.qw"
    path.write_text("qpu main() -> bit[1] {\n"
                    "  '0' | ({'0', '1'} >> {'0' @ (pi / 0), '1'}) | std.measure\n"
                    "}\n")
    for cmd in ("check", "compile"):
        assert main([cmd, str(path)]) == 1
        assert capsys.readouterr().err == \
            f"{path}:2:25: error: division by zero in angle\n"


@pytest.mark.parametrize("angle", ["pi + 0", "pi - 0", "pi * 0"])
def test_zero_angle_operand_folds_outside_a_division(angle):
    # Only a division by zero is an error; a 0 under another operator folds.
    src = f"qpu main() -> bit[1] {{ '1' @ ({angle}) | std.measure }}"
    qc = compile_to_circuit(src, "zero.qw", Options())
    assert distribution(qc) == {"1": 1.0}


def test_rebinding_a_consumed_qubit_compiles():
    # Uses are counted per binding: the second q is a new qubit.
    src = ("qpu main() -> bit[1] { let q = '0'; let q = q | std.flip;"
           " q | std.measure }")
    qc = compile_to_circuit(src, "rebind.qw", Options())
    assert distribution(qc) == {"1": 1.0}


@pytest.mark.parametrize("src, message", [
    ("qpu main() -> bit[2] { let q = '0'; (q + q) | std[2].measure }",
     "1:24: error: qubit 'q' used 2 times; must be used exactly once"),
    ("qpu main() -> bit[2] { let q = '0'; let q = q | std.flip;"
     " (q + q) | std[2].measure }",
     "1:37: error: qubit 'q' used 2 times; must be used exactly once"),
    ("qpu main() -> bit[1] { let q = '0'; let q = '1'; q | std.measure }",
     "1:24: error: qubit 'q' used 0 times; must be used exactly once"),
    ("qpu main() -> bit[1] { let (a: qubit[1], a: qubit[1]) = '01';"
     " a | std.measure }",
     "1:42: error: duplicate binding 'a'"),
], ids=["double_use", "double_use_of_a_rebinding", "shadowed_unused",
        "name_split_twice"])
def test_each_binding_is_used_exactly_once(src, message):
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert str(e.value) == f"<input>:{message}"


def test_conditional_branch_cannot_capture_a_qubit():
    # The walk over the branch reaches the flag of a nested conditional.
    src = ("qpu main() -> bit[1] {\n    let m = '1' | std.measure;\n"
           "    let q = '0';\n"
           "    q | ((std.flip if q else id) if m else id) | std.measure\n}\n")
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert str(e.value) == \
        "<input>:4:23: error: conditional branches cannot capture qubits"


def test_capture_angle_error_points_at_the_argument():
    src = ("qpu rot(a: angle, q: qubit[1]) -> qubit[1] rev { q | ({'1'} >> {'1' @ a}) }\n"
           "qpu main() -> bit[1] { '1' | rot(pi/0) | std.measure }\n")
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert str(e.value) == "<input>:2:34: error: division by zero in angle"


@pytest.mark.parametrize("src, message", [
    ("qpu main(s: bit[2] = '10') -> bit[2] { s }\n",
     "1:40: error: capture 's' cannot be used as a value"),
    ("qpu main(a: angle = pi) -> bit[1] { a | std.measure }\n",
     "1:37: error: capture 'a' cannot be used as a value"),
], ids=["bits", "angle"])
def test_capture_used_as_a_value_is_named(src, message):
    # A capture is baked into its instance; it only binds another capture.
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert str(e.value) == f"<input>:{message}"


@pytest.mark.parametrize("embed, message", [
    ("f[[2, 3]].sign", "2:40: error: too many dimension bindings for f"),
    ("f('1', '0').sign", "2:42: error: too many capture arguments for f"),
], ids=["dims", "captures"])
def test_embed_binds_its_arguments_like_a_kernel_call(embed, message):
    # One binding helper serves kernel calls and embeds, so an embed given
    # more bindings than its function declares is refused, not truncated.
    src = ("classical f[N](x: bit[N]) -> bit[1] { xor_reduce(x) }\n"
           f"qpu main() -> bit[2] {{ 'pp' | {embed} | pm[2].measure }}\n")
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert str(e.value) == f"<input>:{message}"


@pytest.mark.parametrize("src, where", [
    ("qpu main() -> angle { '0' | std.measure }\n", "1:15"),
    ("qpu main() -> bit[1] { let a: angle = '0'; a | std.measure }\n", "1:31"),
    ("classical c(a: angle) -> bit[1] { a }\n"
     "qpu main() -> bit[1] { 'p' | c.sign | pm.measure }\n", "1:16"),
], ids=["return", "let", "classical"])
def test_angle_type_outside_kernel_parameters_is_a_diagnostic(src, where):
    # An angle is a capture that expansion bakes away, so no value, result
    # or classical input has that type.
    with pytest.raises(CompileError) as e:
        parse(src)
    assert str(e.value) == \
        f"<input>:{where}: error: only kernel parameters may be angles"


def _shape(e):
    """A binary expression tree as nested (lhs, op, rhs) tuples."""
    if hasattr(e, "left"):
        return (_shape(e.left), e.op, _shape(e.right))
    return getattr(e, "name", None) or getattr(e, "value", None) \
        or type(e).__name__


def test_parse_binary_precedence_and_left_associativity():
    prog = parse(
        "classical c[N](x: bit[N - 1 - 1 * 2]) -> bit[1] {"
        " x[0] ^ x[1] & x[2] | x[3] ^ x[4] ^ x[5] }\n"
        "qpu main() -> bit[1] {"
        " '0' | ({'0', '1'} >> {'0', '1' @ (pi - pi / 2 / 4 + 1)})"
        " | std.measure }\n")
    c = _classical(prog, "c")
    assert _shape(c.params[0].type.dim) == (("N", "-", 1), "-", (1, "*", 2))
    x = "CIndex"
    assert _shape(c.body) == (
        (x, "^", (x, "&", x)), "|", ((x, "^", x), "^", x))
    angle = _qpu(prog, "main").body.fns[0].b_out.vectors[1].phase
    assert _shape(angle) == (
        ("Pi", "-", (("Pi", "/", 2.0), "/", 4.0)), "+", 1.0)


def test_parse_precedence_pipe_vs_trans():
    src = "qpu main() -> bit[1] { '0' | std >> pm | pm.measure }"
    prog = parse(src)
    body = _qpu(prog, "main").body
    # '|' binds loosest: '0' | (std >> pm) | pm.measure, one pipe
    assert isinstance(body, PipeNode)
    assert len(body.fns) == 2
    assert isinstance(body.fns[0], TransNode)


def test_parse_tensor_binds_tighter_than_trans():
    src = "qpu main() -> bit[2] { '00' | {'1'} + std >> {'1'} + std | std[2].measure }"
    prog = parse(src)
    stage = _qpu(prog, "main").body.fns[0]
    assert isinstance(stage, TransNode)
    assert isinstance(stage.b_in, TensorNode)


def test_parse_conditional():
    src = "qpu main(q: qubit[1]) -> qubit[1] { q | (id if '1' else id) }"
    # Parses; the flag type error surfaces at type checking, not parsing.
    prog = parse(src)
    stage = _qpu(prog, "main").body.fns[0]
    assert isinstance(stage, CondNode)


def test_position_reporting():
    src = "qpu main() -> bit[1] {\n    '0' | ({'0','0'} >> std) | std.measure\n}"
    try:
        full_front(src)
        assert False
    except CompileError as e:
        assert e.pos is not None and e.pos.line == 2


def test_errors_name_the_file_given_to_the_pipeline():
    # The stages know no file name; the pipeline names it on every error.
    with pytest.raises(CompileError) as e:
        compile_source(BV, "bv.qw", Options(), "nope")
    assert str(e.value) == "bv.qw: error: unknown emit target 'nope'"


def _zero_phases(first, second):
    return ("qpu main() -> bit[2] {\n"
            f"    ('p' + 'p') | ({{'0', '1'}} >> {{'0', '1' @ ({first})}})"
            f" + ({{'0', '1'}} >> {{'0', '1' @ ({second})}}) | std[2].measure\n"
            "}\n")


SIGNED_ZERO = _zero_phases("0.0", "-0.0")


def test_zero_phases_of_either_sign_emit_the_same_gate():
    # A zero phase of either sign is the identity, so neither translation
    # emits a phase gate, whichever sign is compiled first.
    texts = [compile_source(src, "zero.qw", Options(opt_level=level), "qasm")
             for level in (0, 1)
             for src in (_zero_phases("-0.0", "0.0"), SIGNED_ZERO)]
    assert "p(" not in texts[0]
    assert "x " not in texts[0]
    assert len(set(texts)) == 1
    # A zero phase on the input side is negated, to -0.0: still no gate.
    src = ("qpu main() -> bit[1] {\n"
           "    'p' | ({'0', '1' @ (0.0)} >> {'0', '1'}) | std.measure\n}\n")
    assert "p(" not in compile_source(src, "zero.qw", Options(opt_level=0),
                                      "qasm")


@pytest.mark.parametrize("path", sorted(glob.glob("benchmarks/*.qw")))
def test_repeated_compiles_are_byte_identical(path):
    # Synthesis state kept between compiles must not change what a later
    # compile emits, whatever was compiled in between.
    src = open(path).read()
    first = compile_source(src, path, Options(), "qasm")
    compile_source(SIGNED_ZERO, "zero.qw", Options(), "qasm")
    assert compile_source(src, path, Options(), "qasm") == first


@pytest.mark.parametrize("src, where", [
    ("qpu main[N = ²]() -> bit[N] { '0'[N] | std[N].measure }\n", "1:14"),
    ("qpu main() -> bit[1] { '1' | ({'1'} >> {'1' @ (1.²)}) "
     "| std.measure }\n", "1:50"),
], ids=["dimension_default", "float_fraction"])
def test_non_ascii_digit_is_a_diagnostic(tmp_path, capsys, src, where):
    # str.isdigit() accepts a superscript two; the lexer must not, or int()
    # and float() raise on the token.
    path = tmp_path / "digit.qw"
    path.write_text(src, encoding="utf-8")
    assert main(["compile", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"{path}:{where}: error: unexpected character '²'\n"


@pytest.mark.parametrize("angle", [
    "0.00001 * 0.1", "0.000000000000000000000000000001", "123456.789 / 7",
    "100000000000000000000000.5",
])
def test_printed_angles_compile_to_the_same_circuit(angle):
    # --emit ast writes each angle literal with positional digits, so its
    # output reads back to the same floats: repr would write 1e-05.
    src = ("qpu main() -> bit[2] {\n"
           f"    'p'[2] | ({{'1'}} & ({{'0', '1'}} >> {{'0', '1' @ ({angle})}}))"
           " | pm[2].measure\n}\n")
    text = compile_source(src, "angle.qw", Options(), "ast")
    assert "e-" not in text and "e+" not in text
    assert compile_source(text, "again.qw", Options(), "qasm") == \
        compile_source(src, "angle.qw", Options(), "qasm")


def test_infinite_angle_literal_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "big.qw"
    path.write_text("qpu main() -> bit[1] {\n    '1' @ (" + "9" * 400
                    + ") | std.measure\n}\n")
    assert main(["compile", "--emit", "ast", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"{path}:2:12: error: angle literal is too large\n"


def test_tensor_of_measured_bits_compiles(tmp_path):
    path = tmp_path / "bits.qw"
    path.write_text("qpu main() -> bit[2] {\n"
                    "    let m: bit[1] = 'p' | std.measure;\n"
                    "    let r: bit[1] = 'p' | std.measure;\n"
                    "    m + r\n}\n")
    assert main(["compile", str(path)]) == 0
    qc = compile_to_circuit(path.read_text(), str(path), Options())
    assert distribution(qc) == {k: pytest.approx(0.25)
                                for k in ("00", "01", "10", "11")}
