"""
Tokenizer for .qw source files.

One compiled pattern of named groups, walked with ``finditer``, splits the
source into tokens: its alternatives are tried in order at each offset, so
``[[`` wins over ``[`` and a float over an integer. Identifiers are letters,
digits and ``_`` in the sense of ``str.isalnum``, not starting with a digit;
numbers take only ASCII digits, so a ``²`` that ``int()`` would reject is an
unexpected character. ``#`` starts a comment to the end of the line, and
positions count every character, tabs and ``\\r`` included, as one column.
"""

from __future__ import annotations

import re

from .ast_nodes import Pos
from .diagnostics import CompileError
from .record import record

KEYWORDS = {
    "qpu", "classical", "rev", "let", "if", "else", "pi", "discard", "id",
    "std", "pm", "ij", "fourier", "qubit", "bit", "angle",
    "xor_reduce", "and_reduce", "or_reduce", "repeat",
    "measure", "flip", "xor", "sign",
}

# "]]" is intentionally absent: it lexes as two "]" so nested indexing works.
_TOKEN = re.compile(r"""
    (?P<NL>\n)
  | (?P<SKIP>[ \t\r]+|\#[^\n]*)
  | (?P<QLIT>'[^'\n]*'?)
  | (?P<FLOAT>[0-9]+\.[0-9]+)
  | (?P<INT>[0-9]+)
  | (?P<IDENT>\w+)
  | (?P<PUNCT>\[\[|>>|->|[|&~+\-*/@(){}\[\],:;=^.])
  | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)


@record(frozen=True)
class Token:
    kind: str  # IDENT, INT, FLOAT, QLIT, keyword, punctuation, EOF
    text: str
    pos: Pos


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "NL":
            line, start = line + 1, m.end()
            continue
        if kind == "SKIP":
            continue
        text = m.group()
        pos = Pos(line, m.start() - start + 1)
        if kind == "IDENT":
            if not (text[0].isalpha() or text[0] == "_"):
                kind = "BAD"  # a digit that is not ASCII, such as '²'
            elif text in KEYWORDS:
                kind = text
        elif kind == "PUNCT":
            kind = text
        elif kind == "QLIT":
            if len(text) == 1 or text[-1] != "'":
                raise CompileError("unterminated qubit literal", pos)
            text = text[1:-1]
            if not text or text.strip("01pmij"):
                raise CompileError(f"bad qubit literal '{text}'", pos)
        if kind == "BAD":
            raise CompileError(f"unexpected character {text[0]!r}", pos)
        tokens.append(Token(kind, text, pos))
    # A comment does not advance the column, so a source that ends in one
    # ends where the comment starts.
    tail = source[start:]
    end = tail.find("#")
    tokens.append(Token("EOF", "", Pos(line, (len(tail) if end < 0 else end) + 1)))
    return tokens
