"""Flat backend: scalarized variables plus a plain list of ground
constraints, written in the pivot expression syntax.

The text format is the interchange grammar shared with the oracle:

    var int x in 1..3;
    var bool b;
    var set of 1..9 s1;
    constraint x = 2;

Array cells scalarize to ``name__i`` / ``name__i__j`` (double underscore,
so flattened-object names with single underscores cannot collide).
Lowering requires a class-free, enum-free, unrolled, constant-folded model
with every alldifferent already rewritten.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from . import ir, sema
from .errors import CompileError
from .passes import _as_int, _Folder, _value_int, const_env
from .printer import print_expression


class FlatVar(NamedTuple):
    name: str
    kind: str  # "int" | "bool" | "set"
    lo: int | None = None
    hi: int | None = None


class FlatProgram(NamedTuple):
    vars: tuple[FlatVar, ...] = ()
    constraints: tuple[ir.Expression, ...] = ()


def _cell_name(base: str, idx: tuple[int, ...]) -> str:
    if not idx:
        return base
    return base + "".join(f"__{i}" for i in idx)


def _residual(kind: str, detail: str = "") -> CompileError:
    """The error for a construct that lowering expects gone."""
    detail = f" ({detail})" if detail else ""
    return CompileError(f"cannot lower model: residual {kind}{detail}")


def _or_chain(terms: list[ir.Expression]) -> ir.Expression:
    acc = terms[0]
    for t in terms[1:]:
        acc = ir.BoolBinaryOp("or", acc, t)
    return acc


class _Lowerer:
    def __init__(self, model: ir.Model):
        self.model = model
        self.env = const_env(model)
        self.folder = _Folder(self.env)
        self.dims: dict[str, tuple[int, ...]] = {}
        self.vars: list[FlatVar] = []
        self.domain_constraints: list[ir.Expression] = []
        # id(occurrence) -> (occurrence, lowered): an occurrence the unrolled
        # model shares between constraints is lowered once, and found here
        # before its indexes are walked
        self.cells: dict[int, tuple[ir.VarOccurrence, ir.Expression]] = {}

    def _dims_of(self, v: ir.Variable) -> tuple[int, ...]:
        out = []
        for d in v.dims:
            n = _value_int(d, self.env)
            if n is None:
                raise _residual("non-ground dimension", f"variable '{v.name}'")
            out.append(n)
        return tuple(out)

    def _interval(self, v: ir.Variable, domain: ir.Domain) -> tuple[int, int]:
        lo = _value_int(domain.lo, self.env)
        hi = _value_int(domain.hi, self.env)
        if lo is None or hi is None:
            raise _residual("non-ground domain", f"variable '{v.name}'")
        return lo, hi

    def _domain_members(self, v: ir.Variable) -> frozenset | None:
        d = v.domain
        if isinstance(d, ir.SetDomain):
            members = []
            for m in d.members:
                value = _value_int(m, self.env)
                if value is None:
                    raise _residual("non-ground domain", f"variable '{v.name}'")
                members.append(value)
            return frozenset(members)
        if isinstance(d, ir.ExprDomain):
            value = _Folder(self.env).ground_value(d.expr)
            if isinstance(value, frozenset):
                return value
            raise _residual("non-ground domain", f"variable '{v.name}'")
        return None

    def add_variable(self, v: ir.Variable):
        dims = self._dims_of(v)
        self.dims[v.name] = dims
        cells = itertools.product(*(range(1, n + 1) for n in dims))
        for idx in cells:
            name = _cell_name(v.name, idx)
            if v.is_set:
                if not isinstance(v.domain, ir.IntervalDomain):
                    raise _residual(
                        "set variable without an interval universe", f"variable '{v.name}'"
                    )
                lo, hi = self._interval(v, v.domain)
                self.vars.append(FlatVar(name, "set", lo, hi))
            elif v.type_name == "bool":
                if v.domain is not None:
                    raise _residual("boolean variable with a domain", f"variable '{v.name}'")
                self.vars.append(FlatVar(name, "bool"))
            elif v.type_name == "int":
                if isinstance(v.domain, ir.IntervalDomain):
                    lo, hi = self._interval(v, v.domain)
                    self.vars.append(FlatVar(name, "int", lo, hi))
                    continue
                members = self._domain_members(v)
                if members is None or not members:
                    raise _residual("variable without a finite domain", f"variable '{v.name}'")
                lo, hi = min(members), max(members)
                self.vars.append(FlatVar(name, "int", lo, hi))
                if members != frozenset(range(lo, hi + 1)):
                    occ = ir.VarOccurrence(name)
                    self.domain_constraints.append(
                        _or_chain(
                            [ir.BoolBinaryOp("=", occ, ir.IntValue(m)) for m in sorted(members)]
                        )
                    )
            else:
                raise _residual(f"{v.type_name} variable", f"variable '{v.name}'")

    def rewrite(self, e: ir.Expression) -> ir.Expression:
        """Inline the constants and name the array cells of e in one
        bottom-up walk, which rebuilds only the nodes whose children
        change.  loopUnroll has folded e already, so its operator nodes
        need no lowering of their own.  A binary operator takes an int
        operand, or a cell lowered already, in its own frame, without a
        call, and rebuilds itself with its constructor."""
        t = type(e)
        cells = self.cells
        if t is ir.VarOccurrence:
            hit = cells.get(id(e))
            if hit is None:
                hit = cells[id(e)] = (e, self._lower_occurrence(e))
            return hit[1]
        if t is ir.ObjectOccurrence:
            raise _residual("object navigation", print_expression(e))
        if t is ir.BoolBinaryOp or t is ir.SetBinaryOp or t is ir.AlgBinaryOp:
            left, right = e.left, e.right
            tx = type(left)
            if tx is ir.IntValue:
                nl = left
            else:
                hit = cells.get(id(left)) if tx is ir.VarOccurrence else None
                nl = self.rewrite(left) if hit is None else hit[1]
            tx = type(right)
            if tx is ir.IntValue:
                nr = right
            else:
                hit = cells.get(id(right)) if tx is ir.VarOccurrence else None
                nr = self.rewrite(right) if hit is None else hit[1]
            if nl is left and nr is right:
                return e
            return t(e.op, nl, nr, loc=e.loc)
        updates = {}
        for name, many in ir.CHILD_FIELDS[t]:
            v = getattr(e, name)
            nv = tuple([self.rewrite(x) for x in v]) if many else self.rewrite(v)
            if any(map(operator.is_not, nv, v)) if many else nv is not v:
                updates[name] = nv
        return e._copy(updates) if updates else e

    def _lower_occurrence(self, node: ir.VarOccurrence) -> ir.Expression:
        indexes = [self.rewrite(x) for x in node.indexes]  # first, as a bottom-up walk would
        folded = self.folder._fold_node(node)
        if folded is not node:  # an inlined constant
            return folded
        b = node.binding
        if b is not None and b.kind == "enum_literal":
            raise _residual("enumeration literal", node.name)
        if b is not None and b.kind == "iterator":
            raise _residual("loop iterator", node.name)
        if b is not None and b.kind == "constant":
            value = self.env.get(node.name)
            if value is not None:  # ground, but not an integer
                raise CompileError(
                    f"cannot lower model: the flat format has no literal for {value}, "
                    f"the value of constant '{node.name}'"
                )
            raise _residual("non-ground constant", node.name)
        dims = self.dims.get(node.name)
        if dims is None:
            raise _residual("unknown variable", node.name)
        if len(node.indexes) != len(dims):
            raise _residual("partial array reference", f"'{node.name}'")
        idx = []
        for expr, size in zip(indexes, dims):  # already folded
            value = _as_int(self.folder.value(expr))
            if value is None:
                raise _residual("non-ground index", print_expression(expr))
            if not 1 <= value <= size:
                raise CompileError(f"index {value} outside 1..{size} for '{node.name}'", node.loc)
            idx.append(value)
        return ir.VarOccurrence(_cell_name(node.name, tuple(idx)), loc=node.loc)

    def run(self) -> FlatProgram:
        for e in self.model.elements:
            if isinstance(e, (ir.Class, ir.Enumeration)):
                raise _residual(type(e).__name__.lower(), f"'{e.name}'")
            if isinstance(e, ir.Variable):
                self.add_variable(e)
        constraints = list(self.domain_constraints)
        for e in self.model.elements:
            if isinstance(e, ir.ConstraintZone):
                body = e.body
            elif isinstance(e, ir.Statement):
                body = (e,)
            else:
                continue
            for s in body:
                t = type(s)
                if t is ir.ExpressionConstraint:
                    constraints.append(self.rewrite(s.expr))
                elif t is ir.GlobalCtr:
                    raise _residual("global constraint", s.ctr_name)
                elif t is ir.ForAll:
                    raise _residual("forall loop", f"over '{s.iter_var}'")
                elif t is ir.If:
                    raise _residual("conditional", "if statement")
        return FlatProgram(tuple(self.vars), tuple(constraints))


def lower_to_flat(model: ir.Model) -> FlatProgram:
    """Scalarize a fully lowered model into a FlatProgram."""
    model = sema.resolve(model)
    return _Lowerer(model).run()


def emit_flat(p: FlatProgram) -> str:
    """Deterministic text form; declarations first, then constraints."""
    lines = []  # each ends in its newline, so one join makes the only copy
    for v in p.vars:
        if v.kind == "int":
            lines.append(f"var int {v.name} in {v.lo}..{v.hi};\n")
        elif v.kind == "bool":
            lines.append(f"var bool {v.name};\n")
        else:
            lines.append(f"var set of {v.lo}..{v.hi} {v.name};\n")
    for c in p.constraints:
        lines.append(f"constraint {print_expression(c)};\n")
    return "".join(lines)
