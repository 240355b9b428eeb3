"""Errors and diagnostics shared by every stage of the compiler."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Loc:
    """1-based position of an element in its source file (0 = unknown)."""

    line: int = 0
    col: int = 0
    file: str = ""

    def __str__(self) -> str:
        return f"{self.file or '<input>'}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
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


class TypeMismatchError(CompileError):
    def __init__(self, message: str, expected: str = "", found: str = "", loc: Loc | None = None):
        self.expected = expected
        self.found = found
        super().__init__(message, loc)


class UnprintableError(CompileError):
    """Raised when a model contains constructs the source grammar cannot express."""


class CyclicCompositionError(CompileError):
    def __init__(self, class_a: str, class_b: str):
        self.class_a = class_a
        self.class_b = class_b
        super().__init__(f"cyclic composition between classes '{class_a}' and '{class_b}'")


class NameCollisionError(CompileError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"flattened name '{name}' collides with an existing declaration")


class PreconditionError(CompileError):
    def __init__(self, pass_id: str, reason: str):
        self.pass_id = pass_id
        super().__init__(f"{pass_id}: {reason}")


class NotAlldifferentError(CompileError):
    pass


class DomainAssumptionError(CompileError):
    pass


class NonVariableParamError(CompileError):
    pass


class HeterogeneousDomainsError(CompileError):
    pass


class NonGroundBoundError(CompileError):
    pass


class NonGroundConditionError(CompileError):
    pass


class DivisionByZeroError(CompileError):
    pass


class UnsupportedElementError(CompileError):
    pass


class ResidualStatementError(CompileError):
    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        msg = f"cannot lower model: residual {kind}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class IndexOutOfBoundsError(CompileError):
    pass


class SearchSpaceError(CompileError):
    pass


class IncompleteSolutionsError(CompileError):
    pass
