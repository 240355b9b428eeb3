"""Errors and diagnostics shared by every stage of the compiler."""

from __future__ import annotations

from typing import NamedTuple

# The small value classes of the compiler (here and in parser, passes, flat
# and clp) are NamedTuples: immutable, compared and hashed by value,
# picklable, and cheap to build.  The parser builds one Loc per node.  The
# few with behaviour beyond a __str__ (passes.PassConfig, oracle.Assignment
# and oracle.SolutionSet) subclass the IR nodes' frozen base, ir._Frozen.


class Loc(NamedTuple):
    """1-based position of an element in its source file (0 = unknown)."""

    line: int = 0
    col: int = 0
    file: str = ""

    def __str__(self) -> str:
        return f"{self.file or '<input>'}:{self.line}:{self.col}"


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    message: str
    line: int = 1
    column: int = 1
    file: str = ""

    def __str__(self) -> str:
        where = f"{self.file or '<input>'}:{self.line}:{self.column}"
        return f"{where}: {self.severity}: {self.message}"


class CompileError(Exception):
    """Base class for all errors raised by the compiler."""

    def __init__(self, message: str, loc: Loc | None = None):
        self.loc = loc
        self.message = message  # without the location that str() puts first
        if loc is not None and loc.line:
            message = f"{loc}: {message}"
        super().__init__(message)


class ParseError(CompileError):
    """Carries all diagnostics collected before the parser gave up."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        head = str(self.diagnostics[0]) if self.diagnostics else "parse failed"
        Exception.__init__(self, head)


class UnresolvedNameError(CompileError):
    def __init__(self, name: str, loc: Loc | None = None, message: str | None = None):
        self.name = name
        super().__init__(message or f"unresolved name '{name}'", loc)


class DuplicateNameError(CompileError):
    def __init__(self, name: str, loc: Loc | None = None):
        self.name = name
        super().__init__(f"duplicate name '{name}'", loc)


class OracleLimitError(CompileError):
    """A limit stops the answer: the oracle's search space is too large, a
    solution set to compare is incomplete (a search budget ran out), or an
    array or loop nest would build more than passes.MAX_INSTANCES cells or
    instances."""
