"""Property tests of the front end: the lexer against a per-character
reference, random token streams, and small well-typed programs built from
pipes, lets, destructuring lets, tensors, ``~`` and ``&`` of any of them,
and conditionals on measured bits; and of ``qbc check``, which accepts
only what compiles."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import reference_tokenize
from qbc.diagnostics import CompileError
from qbc.lexer import tokenize
from qbc.parser import parse
from qbc.pipeline import Options, compile_source, compile_to_circuit, front
from qbc.printer import print_program

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _lexed(lex, source):
    try:
        return [(t.kind, t.text, t.pos) for t in lex(source)]
    except CompileError as e:
        return str(e)


# Fragments that reach every branch of the lexer: every token kind, both
# whitespace forms, comments, unterminated and bad literals, and letters
# and digits outside ASCII ('²' and '٣' are digits that int() rejects or
# that are not ASCII; 'é', 'ß' and 'Ωx' are letters).
LEX_FRAGMENTS = [
    " ", "\t", "\r", "\n", "# note", "#", "'", "'0", "'01'", "''", "'0x'",
    "'pmij'", "0", "12", "3.25", "1.", ".5", "²", "٣", "x²", "é", "ß", "Ωx",
    "_a1", "qpu", "let", "std", "measure", "[[", "]]", ">>", "->", ">", "-",
    "|", "&", "~", "+", "*", "/", "@", "(", ")", "{", "}", "[", "]", ",",
    ":", ";", "=", "^", ".", "!", '"', " ", "\x0b",
]


@FUZZ
@given(st.one_of(
    st.lists(st.sampled_from(LEX_FRAGMENTS), max_size=12).map("".join),
    st.text(max_size=20),
))
def test_lexer_matches_the_reference(source):
    assert _lexed(tokenize, source) == _lexed(reference_tokenize, source)


@pytest.mark.parametrize("source, message", [
    ("let a = '01\n'", "1:9: error: unterminated qubit literal"),
    ("\t'0a'", "1:2: error: bad qubit literal '0a'"),
])
def test_lexer_diagnostics(source, message):
    with pytest.raises(CompileError) as e:
        tokenize(source)
    assert str(e.value) == f"<input>:{message}"


def _checked(source):
    """Run what ``qbc check`` runs: True on success, False on a positioned
    diagnostic; anything else fails the test."""
    try:
        compile_to_circuit(source, "fuzz.qw", Options())
    except CompileError as e:
        assert e.pos is not None and e.pos.line >= 1 and e.pos.col >= 1, \
            str(e)
        return False
    return True


TOKENS = [
    "qpu", "classical", "main", "f", "q", "N", "m", "let", "if", "else",
    "rev", "id", "std", "pm", "ij", "fourier", "discard", "pi", "qubit",
    "bit", "angle", "measure", "flip", "xor", "sign", "xor_reduce",
    "repeat", "'0'", "'01'", "'p'", "1", "2", "0.5", "(", ")", "{", "}",
    "[", "]", "[[", "]]", "|", ">>", "&", "+", "~", "-", "*", "/", "@",
    ".", ",", ":", ";", "=", "->",
]
HEADS = ["", "qpu main() -> bit[1] { ", "qpu main() -> bit[1] { '0' | ",
         "qpu main() -> bit[1] { let q = '0'; "]


TOKEN_STREAMS = st.builds(
    lambda head, toks: head + " ".join(toks) + (" }" if head else ""),
    st.sampled_from(HEADS), st.lists(st.sampled_from(TOKENS), max_size=16))


@FUZZ
@given(TOKEN_STREAMS)
def test_token_streams_end_in_success_or_a_positioned_diagnostic(source):
    _checked(source)


# Programs of one reversible helper on a qubit, one with a dimension that
# each use infers from the width piped into it, and a main kernel that
# binds, splits, measures and conditionally transforms qubits.
HELPERS = ("qpu f(q: qubit[1]) -> qubit[1] rev { q | std.flip }\n"
           "qpu g[N](q: qubit[N]) -> qubit[N] rev { q | (std[N] >> pm[N]) }\n")
ONE_QUBIT = ["std.flip", "pm.flip", "(std >> pm)", "(pm >> std)", "id", "f",
             "~f", "~g[[1]]", "~(std >> pm)",
             "({'0', '1'} >> {'1', '0' @ (pi / 2)})"]


@st.composite
def functions(draw, width, stage=True):
    """A reversible function on ``qubit[width]``; with ``stage``, one that
    may infer its dimension from the width piped into it. Any function may
    be adjointed, and any narrower one, tensors included, predicated on
    ``{'1...'}``, ``{'0...', '1...'}`` or ``pm[k]``."""
    kind = draw(st.sampled_from(["g", "tensor", "pred", "adj", "id"]
                                if stage else ["tensor", "pred", "adj", "id"]))
    if kind == "g":
        return "g"
    if kind == "adj":
        return f"~({draw(functions(width, False))})"
    if width == 1:
        return draw(st.sampled_from(ONE_QUBIT))
    if kind == "tensor":
        k = draw(st.integers(1, width - 1))
        return (f"({draw(functions(k, False))} + "
                f"{draw(functions(width - k, False))})")
    if kind == "pred":
        k = draw(st.integers(1, width - 1))
        basis = draw(st.sampled_from([f"{{'{'1' * k}'}}",
                                      f"{{'{'0' * k}', '{'1' * k}'}}",
                                      f"pm[{k}]"]))
        return f"({basis} & {draw(functions(width - k, False))})"
    return f"id[{width}]"


@st.composite
def programs(draw):
    pool, flags, lines = [], [], []  # unused qubit names and widths, bits
    fresh = iter(f"v{i}" for i in range(100))

    def value(max_width):
        """A qubit value, consuming unused names from the pool."""
        parts, width = [], 0
        for _ in range(draw(st.integers(1, 2))):
            usable = [i for i, (_, w) in enumerate(pool)
                      if width + w <= max_width]
            if usable and draw(st.booleans()):
                name, w = pool.pop(draw(st.sampled_from(usable)))
                parts.append(name)
            elif width < max_width:
                w = draw(st.integers(1, max_width - width))
                lit = "".join(draw(st.lists(st.sampled_from("01pmij"),
                                            min_size=w, max_size=w)))
                phase = draw(st.sampled_from(["", " @ (pi / 4)"]))
                parts.append(f"'{lit}'{phase}")
            else:
                break
            width += w
        text = " + ".join(parts)
        if draw(st.booleans()):
            text = f"({text} | {draw(functions(width))})"
        return text, width

    def stages(width):
        return "".join(f" | {draw(functions(width))}"
                       for _ in range(draw(st.integers(0, 3))))

    for _ in range(draw(st.integers(0, 6))):
        step = draw(st.sampled_from(["let", "split", "measure", "cond"]))
        if step == "measure":
            v, _ = value(1)
            flags.append(next(fresh))
            lines.append(f"let {flags[-1]} = {v} | std.measure;")
            continue
        v, w = value(3)
        if step == "cond" and flags:
            then = draw(functions(w, False))
            els = draw(functions(w))
            v = f"{v} | ({then} if {draw(st.sampled_from(flags))} else {els})"
        v += stages(w)
        if step == "split" and w > 1:
            k = draw(st.integers(1, w - 1))
            names = [next(fresh), next(fresh)]
            pool += [(names[0], k), (names[1], w - k)]
            lines.append(f"let ({names[0]}: qubit[{k}], "
                         f"{names[1]}: qubit[{w - k}]) = {v};")
        else:
            pool.append((next(fresh), w))
            typed = f": qubit[{w}]" if draw(st.booleans()) else ""
            lines.append(f"let {pool[-1][0]}{typed} = {v};")
    if pool:
        width = sum(w for _, w in pool)
        result = " + ".join(name for name, _ in pool)
        result = f"({result}){stages(width)} | std[{width}].measure"
    else:
        width, result = 1, "'0' | std.measure"
    body = "".join(f"    {line}\n" for line in lines)
    return (HELPERS + f"qpu main() -> bit[{width}] {{\n{body}    {result}\n}}\n")


@settings(FUZZ, max_examples=100)
@given(programs())
def test_generated_programs_check_and_print_back(source):
    # Every generated program is well typed, its own print parses back to
    # it, and --emit ast parses back to the program that check produced.
    prog = parse(source)
    assert parse(print_program(prog)) == prog
    assert _checked(source), source
    text = compile_source(source, "fuzz.qw", Options(), "ast")
    assert parse(text) == front(source, "fuzz.qw", Options()).program
    assert compile_source(text, "again.qw", Options(), "ast") == text


# The two programs that only Base-Profile QIR cannot express.
QIR_ONLY = ("Base-Profile QIR cannot branch", "multi-controlled gate survived")


@settings(FUZZ, max_examples=100)
@given(st.one_of(TOKEN_STREAMS, programs()))
def test_what_check_accepts_compiles(source):
    # qbc check runs the compile up to its backend, so a program it accepts
    # compiles to QASM every way, and to QIR but for what QIR cannot say.
    if not _checked(source):
        return
    for opt_level in (0, 1):
        for decompose in (False, True):
            opts = Options(opt_level=opt_level, decompose=decompose)
            assert compile_source(source, "fuzz.qw", opts, "qasm")
            try:
                compile_source(source, "fuzz.qw", opts, "qir")
            except CompileError as e:
                assert e.message.startswith(QIR_ONLY), str(e)
