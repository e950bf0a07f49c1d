"""Tokenizer for .qw source files."""

from __future__ import annotations

from dataclasses import dataclass

from .ast_nodes import Pos
from .diagnostics import err

KEYWORDS = {
    "qpu", "classical", "rev", "let", "if", "else", "pi", "discard", "id",
    "std", "pm", "ij", "fourier", "qubit", "bit", "angle",
    "xor_reduce", "and_reduce", "or_reduce", "repeat",
    "measure", "flip", "xor", "sign",
}

DIGITS = "0123456789"  # not str.isdigit(), which accepts '²' that int() rejects

# "]]" is intentionally absent: it lexes as two "]" so nested indexing works.
PUNCT = [
    "[[", ">>", "->", "|", "&", "~", "+", "-", "*", "/", "@",
    "(", ")", "{", "}", "[", "]", ",", ":", ";", "=", "^", ".",
]


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, FLOAT, QLIT, keyword, punctuation, EOF
    text: str
    pos: Pos


def tokenize(source: str, file: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        pos = Pos(line, col)
        if c == "'":
            j = i + 1
            while j < n and source[j] != "'":
                if source[j] == "\n":
                    raise err("unterminated qubit literal", pos, file)
                j += 1
            if j >= n:
                raise err("unterminated qubit literal", pos, file)
            body = source[i + 1 : j]
            if not body or any(ch not in "01pmij" for ch in body):
                raise err(f"bad qubit literal '{body}'", pos, file)
            tokens.append(Token("QLIT", body, pos))
            col += j - i + 1
            i = j + 1
            continue
        if c in DIGITS:
            j = i
            while j < n and source[j] in DIGITS:
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1] in DIGITS:
                j += 1
                while j < n and source[j] in DIGITS:
                    j += 1
                tokens.append(Token("FLOAT", source[i:j], pos))
            else:
                tokens.append(Token("INT", source[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, pos))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                tokens.append(Token(p, p, pos))
                col += len(p)
                i += len(p)
                break
        else:
            raise err(f"unexpected character {c!r}", pos, file)
    tokens.append(Token("EOF", "", Pos(line, col)))
    return tokens
