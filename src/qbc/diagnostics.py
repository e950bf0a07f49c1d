"""The one error type of compiling.

Every stage, from the lexer to the backends, raises ``CompileError`` with a
message and, where the stage knows it, a source position. No stage knows
which file it compiles: ``qbc.pipeline`` puts the file name on the error as
it leaves the pipeline. The error renders as ``file:line:col: error:
message``, with ``<input>`` for a missing file name and no ``line:col`` for a
missing position.
"""

from __future__ import annotations

from typing import Optional

from .ast_nodes import Pos


class CompileError(Exception):
    """A diagnostic that stops compilation."""

    def __init__(self, message: str, pos: Optional[Pos] = None):
        super().__init__(message)
        self.message = message
        self.pos = pos
        self.file: Optional[str] = None

    def __str__(self) -> str:
        where = self.file or "<input>"
        if self.pos is not None:
            where += f":{self.pos.line}:{self.pos.col}"
        return f"{where}: error: {self.message}"
