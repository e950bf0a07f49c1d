"""
Tokenizer for .qw source files.

One compiled pattern, walked with ``findall``, splits the source into
pairs of (skipped text, token text): the skipped text is whitespace and
comments, and the token is the first alternative that matches after it, so
``[[`` wins over ``[`` and a float over an integer. At the end of the
source the token is empty. Identifiers are letters, digits and ``_`` in the
sense of ``str.isalnum``, not starting with a digit; numbers take only
ASCII digits, so a ``²`` that ``int()`` would reject is an unexpected
character. ``#`` starts a comment to the end of the line, and positions
count every character, tabs and ``\\r`` included, as one column.

A token is one tuple of kind, text, line and column (``Token``); keywords
and punctuation are their own kind, looked up with their text in one dict.
Its ``pos`` is built when asked for, which the parser does only for the
tokens whose position a node keeps.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .ast_nodes import Pos
from .diagnostics import CompileError

KEYWORDS = {
    "qpu", "classical", "rev", "let", "if", "else", "pi", "discard", "id",
    "std", "pm", "ij", "fourier", "qubit", "bit", "angle",
    "xor_reduce", "and_reduce", "or_reduce", "repeat",
    "measure", "flip", "xor", "sign",
}
# "]]" is intentionally absent: it lexes as two "]" so nested indexing works.
PUNCTUATION = "[[ >> -> | & ~ + - * / @ ( ) { } [ ] , : ; = ^ .".split()
# Text -> kind of every token whose text is its kind.
_FIXED = {text: text for text in (*KEYWORDS, *PUNCTUATION)}

# No token starts with a character that the skipped text may end with, so
# the skip never gives characters back to a token.
_TOKEN = re.compile(r"""
    ([ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)
    ([0-9]+(?:\.[0-9]+)?|\w+|'[^'\n]*'?|\[\[|>>|->|.|\Z)
""", re.VERBOSE)

_new = tuple.__new__


class Token(tuple):
    """A token of ``kind`` (IDENT, INT, FLOAT, QLIT, a keyword, a
    punctuation mark, or EOF) with ``text`` at ``pos``."""

    __slots__ = ()

    def __new__(cls, kind: str, text: str, pos: Pos) -> "Token":
        return _new(cls, (kind, text, pos.line, pos.col))

    kind = property(itemgetter(0))
    text = property(itemgetter(1))

    @property
    def pos(self) -> Pos:
        return _new(Pos, self[2:])


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append, fixed = tokens.append, _FIXED.get
    line, start = 1, 0  # the current line and the offset it starts at
    at = 0  # the offset of the next skipped text
    for skipped, text in _TOKEN.findall(source):
        if skipped:
            at += len(skipped)
            if "\n" in skipped:
                line += skipped.count("\n")
                start = at - len(skipped) + skipped.rindex("\n") + 1
        col = at - start + 1
        at += len(text)
        kind = fixed(text)
        if kind is None:
            first = text[:1]
            if "0" <= first <= "9":
                kind = "FLOAT" if "." in text else "INT"
            elif first.isalpha() or first == "_":
                kind = "IDENT"
            elif first == "'" and len(text) > 2 and text[-1] == "'" \
                    and not text.strip("'01pmij"):
                kind, text = "QLIT", text[1:-1]
            elif first:
                raise CompileError(_problem(text), Pos(line, col))
            else:  # the end of the source
                break
        append(_new(Token, (kind, text, line, col)))
    # A comment does not advance the column, so a source that ends in one
    # ends where the comment starts.
    tail = source[start:]
    end = tail.find("#")
    append(_new(Token, ("EOF", "", line, (len(tail) if end < 0 else end) + 1)))
    return tokens


def _problem(text: str) -> str:
    """Why ``text``, which the pattern matched, is no token."""
    if text[0] != "'":  # an unknown character, or a digit such as '²'
        return f"unexpected character {text[0]!r}"
    if len(text) == 1 or text[-1] != "'":
        return "unterminated qubit literal"
    return f"bad qubit literal '{text[1:-1]}'"
