"""Lexer, parser, printer round-trips, expansion, typing, tensor flattening."""

import glob
import math

import numpy as np
import pytest

from qbc.ast_nodes import (
    BasisLitNode, BuiltinBasisNode, CondNode, DimLit, PipeNode, Program,
    QubitLitNode, TensorNode, TransNode, AdjointNode, PredNode,
)
from qbc.canon_ast import canonicalize_ast
from qbc.cli import main
from qbc.diagnostics import CompileError
from qbc.expand import expand
from qbc.parser import parse
from qbc.pipeline import Options, compile_source, compile_to_circuit
from qbc.printer import print_program
from qbc.run import distribution
from qbc.typecheck import typecheck

BV = open("benchmarks/bv.qw").read()


def full_front(src, dims=None):
    prog = expand(parse(src), dims or {})
    return typecheck(prog)


def test_parse_bv():
    prog = parse(BV)
    assert prog.qpu("main") is not None
    assert prog.classical("dot") is not None


def test_parse_error_translation_of_states():
    # '01' >> '10' parses (operands are expressions) but fails type checking.
    src = "qpu main() -> bit[2] { '01' | ('01' >> '10') | std[2].measure }"
    with pytest.raises(CompileError):
        full_front(src)


def test_empty_file_is_an_error():
    with pytest.raises(CompileError):
        parse("")


def test_missing_entry_kernel():
    src = "qpu helper(q: qubit[1]) -> qubit[1] rev { q | id }"
    with pytest.raises(CompileError) as e:
        expand(parse(src), {})
    assert "main" in str(e.value)


@pytest.mark.parametrize("path", [
    "benchmarks/bv.qw", "benchmarks/dj.qw", "benchmarks/grover.qw",
    "benchmarks/simon.qw", "benchmarks/period.qw", "benchmarks/bell.qw",
    "benchmarks/teleport.qw",
])
def test_print_parse_roundtrip(path):
    prog = parse(open(path).read())
    text = print_program(prog)
    again = parse(text)
    assert again == prog
    assert print_program(again) == text


def test_expand_repeat_to_tensor():
    src = """
qpu main() -> bit[2] { '0'[2] | std[2].measure }
"""
    prog = expand(parse(src), {})
    body = prog.qpu("main").body
    assert isinstance(body, PipeNode)
    assert isinstance(body.value, TensorNode)
    assert len(body.value.parts) == 2


def test_expand_infers_dim_from_capture():
    prog = expand(parse(BV), {})
    main = prog.qpu("main")
    assert main.ret_type.dim == DimLit(4)


def test_expand_explicit_bindings_override():
    prog = expand(parse(open("benchmarks/dj.qw").read()), {"N": 6})
    assert prog.qpu("main").ret_type.dim == DimLit(6)


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
    tp = full_front(src)
    flat = canonicalize_ast(tp.program)
    body = flat.qpu("main").body
    assert [len(t.parts) for t in (body.value.value, body.value.fn, body.fn)] == [4, 3, 3]
    assert typecheck(flat).fn_types == tp.fn_types
    ir = compile_source(open("benchmarks/period.qw").read(), "period.qw",
                        Options(), "qwerty-ir")
    packs = [line for line in ir.splitlines() if "qbpack" in line]
    assert len(packs) == 1 and packs[0].endswith(": qubit[8]")


def test_deep_pipe_compiles():
    src = "qpu main() -> bit[1] {\n    '0'\n" + "    | std.flip\n" * 800 \
        + "    | std.measure\n}\n"
    qc = compile_to_circuit(src, "deep.qw", Options())
    assert distribution(qc) == {"0": 1.0}


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
    cond, arms = parse(_else_chain(100)).qpus[0].body.body.value, 0
    while isinstance(cond, CondNode):
        cond, arms = cond.els, arms + 1
    assert arms == 100


@pytest.mark.parametrize("src, where", [
    (_nested_parens(101), "1:124"),
    ("qpu f(q: qubit[1]) -> qubit[1] rev { q | std.flip }\n"
     "qpu main() -> bit[1] { '0' | " + "~" * 101 + "f | std.measure }\n",
     "2:130"),
    ("classical c(x: bit[1]) -> bit[1] { " + "(" * 101 + "x" + ")" * 101
     + " }\nqpu main() -> bit[1] { '0' | c.xor | std.measure }\n", "1:136"),
    (_else_chain(101), "3:1422"),
    (_else_chain(1200), "3:1422"),
], ids=["parentheses", "adjoints", "classical_parentheses", "else_chain",
        "long_else_chain"])
def test_nesting_past_the_limit_is_a_diagnostic(src, where):
    # The diagnostic points at the token that opens the 101st level: a
    # parenthesis, a ~ or an else.
    with pytest.raises(CompileError) as e:
        parse(src)
    assert str(e.value) == \
        f"<input>:{where}: error: expression nests deeper than 100 levels"


def test_capture_angle_error_points_at_the_argument():
    src = ("qpu rot(a: angle, q: qubit[1]) -> qubit[1] rev { q | ({'1'} >> {'1' @ a}) }\n"
           "qpu main() -> bit[1] { '1' | rot(pi/0) | std.measure }\n")
    with pytest.raises(CompileError) as e:
        full_front(src)
    assert str(e.value) == "<input>:2:34: error: division by zero in angle"


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
    c = prog.classical("c")
    assert _shape(c.params[0].type.dim) == (("N", "-", 1), "-", (1, "*", 2))
    x = "CIndex"
    assert _shape(c.body) == (
        (x, "^", (x, "&", x)), "|", ((x, "^", x), "^", x))
    angle = prog.qpu("main").body.value.fn.b_out.vectors[1].phase
    assert _shape(angle) == (
        ("AnglePi", "-", (("AnglePi", "/", 2.0), "/", 4.0)), "+", 1.0)


def test_parse_precedence_pipe_vs_trans():
    src = "qpu main() -> bit[1] { '0' | std >> pm | pm.measure }"
    prog = parse(src)
    body = prog.qpu("main").body
    # '|' binds loosest: (('0' | (std >> pm)) | pm.measure)
    assert isinstance(body, PipeNode)
    assert isinstance(body.value, PipeNode)
    assert isinstance(body.value.fn, TransNode)


def test_parse_tensor_binds_tighter_than_trans():
    src = "qpu main() -> bit[2] { '00' | {'1'} + std >> {'1'} + std | std[2].measure }"
    prog = parse(src)
    stage = prog.qpu("main").body.value.fn
    assert isinstance(stage, TransNode)
    assert isinstance(stage.b_in, TensorNode)


def test_parse_conditional():
    src = "qpu main(q: qubit[1]) -> qubit[1] { q | (id if '1' else id) }"
    # Parses; the flag type error surfaces at type checking, not parsing.
    prog = parse(src)
    stage = prog.qpu("main").body.fn
    assert isinstance(stage, CondNode)


def test_position_reporting():
    src = "qpu main() -> bit[1] {\n    '0' | ({'0','0'} >> std) | std.measure\n}"
    try:
        full_front(src)
        assert False
    except CompileError as e:
        d = e.diagnostics[0]
        assert d.pos is not None and d.pos.line == 2


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
