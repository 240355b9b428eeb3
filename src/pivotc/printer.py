"""Deterministic source-syntax printing of pivot models.

``print_pivot(parse(text))`` reparses to a structurally equal model for
every model built from frontend-expressible constructs.
"""

from __future__ import annotations

from . import ir
from .parser import BINARY_OPS, NOT_BP, POWER_BP

_UNARY_PREC = 12  # binding strengths beyond the parser's BINARY_OPS
_ATOM_PREC = 13


def _render_occurrence(e: ir.VarOccurrence) -> str:
    text = e.name
    if e.indexes:
        text += "[" + ",".join(print_expression(i) for i in e.indexes) + "]"
    return text


def print_expression(e: ir.Expression, min_prec: int = 0) -> str:
    """Source text of e, parenthesized when it binds looser than min_prec;
    a chain prints as the left-deep binary text it stands for.  One call
    per operator node: an operator prints a leaf operand (a name without
    indexes, an int >= 0) in its own frame, and every other operand by a
    call here."""
    prec = _ATOM_PREC
    t = type(e)
    if t is ir.BoolBinaryOp or t is ir.SetBinaryOp or t is ir.AlgBinaryOp:
        op = e.op
        if op == "^":
            prec, left_prec, right_prec = POWER_BP, _ATOM_PREC, POWER_BP
        else:
            prec = left_prec = BINARY_OPS[op][0]
            right_prec = prec + 1
        x = e.left
        tx = type(x)
        if tx is ir.VarOccurrence and not x.indexes:
            left = x.name
        elif tx is ir.IntValue and x.v >= 0:
            left = str(x.v)
        else:
            left = print_expression(x, left_prec)
        x = e.right
        tx = type(x)
        if tx is ir.VarOccurrence and not x.indexes:
            right = x.name
        elif tx is ir.IntValue and x.v >= 0:
            right = str(x.v)
        else:
            right = print_expression(x, right_prec)
        text = f"{left} {op} {right}"
    elif t is ir.VarOccurrence:
        return _render_occurrence(e)  # an atom: never parenthesized
    elif t is ir.IntValue or t is ir.RealValue:
        text = str(e.v) if t is ir.IntValue else repr(e.v)
        if e.v < 0:
            prec = _UNARY_PREC  # prints with a leading minus
    elif t is ir.BoolValue:
        text = "true" if e.value else "false"
    elif t is ir.SetFunction:
        text = f"{e.fn}(" + print_expression(e.arg) + ")"
    elif t is ir.ObjectOccurrence:
        text = ".".join(_render_occurrence(s) for s in e.path)
    elif t is ir.BoolUnaryOp:
        prec = NOT_BP
        text = "not " + print_expression(e.operand, NOT_BP)
    elif t is ir.SetValue:
        text = "{" + ",".join(print_expression(x) for x in e.elems) + "}"
    elif t is ir.AlgFunction:
        text = f"{e.fn}(" + ", ".join(print_expression(a) for a in e.args) + ")"
    elif t is ir.AlgUnaryOp:
        prec = _UNARY_PREC
        sign = "-" if e.op == "neg" else "+"
        # parenthesize literal operands so reparsing does not fold them
        if isinstance(e.operand, (ir.IntValue, ir.RealValue)):
            text = f"{sign}({print_expression(e.operand)})"
        else:
            text = sign + print_expression(e.operand, POWER_BP)
    elif t is ir.AlgChain or t is ir.BoolChain:  # as the left-deep binary nodes
        ops = e.ops if t is ir.AlgChain else (e.op,) * (len(e.terms) - 1)
        prec = BINARY_OPS[ops[0]][0]
        parts = []
        for x in e.terms:
            tx = type(x)
            if tx is ir.VarOccurrence and not x.indexes:
                parts.append(x.name)
            elif tx is ir.IntValue and x.v >= 0:
                parts.append(str(x.v))
            else:  # the first term is the left operand of a left-associative operator
                parts.append(print_expression(x, prec + 1 if parts else prec))
        text = parts[0]
        for op, part in zip(ops, parts[1:]):
            text += f" {op} {part}"
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
    else:
        raise TypeError(f"unknown element {e!r}")


def print_pivot(model: ir.Model) -> str:
    """Render a model in the source grammar, header line first."""
    out = [f"model {model.name};"]
    for e in model.elements:
        _print_feature(e, out, 0)
    return "\n".join(out) + "\n"
