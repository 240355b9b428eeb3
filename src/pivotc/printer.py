"""Deterministic source-syntax printing of pivot models.

``print_pivot(parse(text))`` reparses to a structurally equal model for
every model built from frontend-expressible constructs.  Predicates,
functions, records and interval values have no surface syntax and raise
UnprintableError.
"""

from __future__ import annotations

from . import ir
from .errors import UnprintableError
from .parser import BINARY_OPS, NOT_BP, POWER_BP

_UNARY_PREC = 12  # binding strengths beyond the parser's BINARY_OPS
_ATOM_PREC = 13


def _render_occurrence(e: ir.VarOccurrence) -> str:
    text = e.name
    if e.indexes:
        text += "[" + ",".join(print_expression(i) for i in e.indexes) + "]"
    return text


def print_expression(e: ir.Expression, min_prec: int = 0) -> str:
    """Source text of e, parenthesized when it binds looser than min_prec.
    One call per expression level: operands recurse here directly."""
    prec = _ATOM_PREC
    if isinstance(e, (ir.BoolBinaryOp, ir.SetBinaryOp, ir.AlgBinaryOp)):
        if e.op == "^":
            prec = POWER_BP
            text = (
                print_expression(e.left, _ATOM_PREC)
                + " ^ "
                + print_expression(e.right, POWER_BP)
            )
        else:
            prec = BINARY_OPS[e.op][0]
            text = (
                print_expression(e.left, prec)
                + f" {e.op} "
                + print_expression(e.right, prec + 1)
            )
    elif isinstance(e, ir.VarOccurrence):
        text = _render_occurrence(e)
    elif isinstance(e, (ir.IntValue, ir.RealValue)):
        text = str(e.v) if isinstance(e, ir.IntValue) else repr(e.v)
        if e.v < 0:
            prec = _UNARY_PREC  # prints with a leading minus
    elif isinstance(e, ir.BoolValue):
        text = "true" if e.value else "false"
    elif isinstance(e, ir.IntervalValue):
        raise UnprintableError("interval values have no source syntax")
    elif isinstance(e, ir.ObjectOccurrence):
        text = ".".join(_render_occurrence(s) for s in e.path)
    elif isinstance(e, (ir.FunctionCall, ir.PredicateCall)):
        raise UnprintableError(f"call of '{e.name}' has no source syntax")
    elif isinstance(e, ir.BoolUnaryOp):
        prec = NOT_BP
        text = "not " + print_expression(e.operand, NOT_BP)
    elif isinstance(e, ir.SetValue):
        text = "{" + ",".join(print_expression(x) for x in e.elems) + "}"
    elif isinstance(e, ir.SetFunction):
        text = f"{e.fn}(" + print_expression(e.arg) + ")"
    elif isinstance(e, ir.AlgFunction):
        text = f"{e.fn}(" + ", ".join(print_expression(a) for a in e.args) + ")"
    elif isinstance(e, ir.AlgUnaryOp):
        prec = _UNARY_PREC
        sign = "-" if e.op == "neg" else "+"
        # parenthesize literal operands so reparsing does not fold them
        if isinstance(e.operand, (ir.IntValue, ir.RealValue)):
            text = f"{sign}({print_expression(e.operand)})"
        else:
            text = sign + print_expression(e.operand, POWER_BP)
    else:
        raise TypeError(f"unknown expression {e!r}")
    if prec < min_prec:
        return f"({text})"
    return text


# --------------------------------------------------------------------------
# Statements and declarations

def _domain_text(d: ir.Domain) -> str:
    if isinstance(d, ir.IntervalDomain):
        return print_expression(d.lo, _ATOM_PREC) + ".." + print_expression(d.hi, _ATOM_PREC)
    if isinstance(d, ir.SetDomain):
        return "{" + ",".join(print_expression(m) for m in d.members) + "}"
    return print_expression(d.expr)


def _typed_prefix(decl: ir.TypedElement) -> str:
    text = decl.type_name
    if decl.is_set:
        text += " set"
    text += f" {decl.name}"
    if decl.dims:
        text += "[" + ",".join(print_expression(d) for d in decl.dims) + "]"
    return text


def _print_stmt(s: ir.Statement, out: list[str], level: int):
    pad = "  " * level
    if isinstance(s, ir.ExpressionConstraint):
        out.append(f"{pad}{print_expression(s.expr)};")
    elif isinstance(s, ir.GlobalCtr):
        args = ", ".join(print_expression(p) for p in s.params)
        out.append(f"{pad}{s.ctr_name}({args});")
    elif isinstance(s, ir.ForAll):
        lower = print_expression(s.lower, _ATOM_PREC)
        upper = print_expression(s.upper, _ATOM_PREC)
        out.append(f"{pad}forall({s.iter_var} in {lower}..{upper}) {{")
        for b in s.body:
            _print_stmt(b, out, level + 1)
        out.append(f"{pad}}}")
    elif isinstance(s, ir.If):
        out.append(f"{pad}if ({print_expression(s.cond)}) {{")
        for b in s.then_body:
            _print_stmt(b, out, level + 1)
        if s.else_body is not None:
            out.append(f"{pad}}} else {{")
            for b in s.else_body:
                _print_stmt(b, out, level + 1)
        out.append(f"{pad}}}")
    else:
        raise TypeError(f"unknown statement {s!r}")


def _print_feature(e: ir.ModelElement, out: list[str], level: int):
    pad = "  " * level
    if isinstance(e, ir.Enumeration):
        out.append(f"{pad}enum {e.name} := {{" + ",".join(e.literals) + "};")
    elif isinstance(e, ir.Constant):
        out.append(f"{pad}{_typed_prefix(e)} := {print_expression(e.value)};")
    elif isinstance(e, ir.Variable):
        text = f"{pad}{_typed_prefix(e)}"
        if e.domain is not None:
            text += f" in {_domain_text(e.domain)}"
        out.append(text + ";")
    elif isinstance(e, ir.Class):
        head = "main class" if e.is_main else "class"
        out.append(f"{pad}{head} {e.name} {{")
        for f in e.features:
            _print_feature(f, out, level + 1)
        out.append(f"{pad}}}")
    elif isinstance(e, ir.ConstraintZone):
        out.append(f"{pad}constraint {e.name} {{")
        for s in e.body:
            _print_stmt(s, out, level + 1)
        out.append(f"{pad}}}")
    elif isinstance(e, ir.Statement):
        _print_stmt(e, out, level)
    elif isinstance(e, (ir.Predicate, ir.Function, ir.Record)):
        kind = type(e).__name__.lower()
        raise UnprintableError(f"{kind} '{e.name}' has no source syntax")
    else:
        raise TypeError(f"unknown element {e!r}")


def print_pivot(model: ir.Model) -> str:
    """Render a model in the source grammar, header line first."""
    out = [f"model {model.name};"]
    for e in model.elements:
        _print_feature(e, out, 0)
    return "\n".join(out) + "\n"
