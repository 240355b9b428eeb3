"""Flat backend: scalarized variables plus a plain list of ground
constraints, written in the pivot expression syntax.

The text format is the interchange grammar shared with the oracle;
``emit_flat`` writes it and ``parse_flat`` reads it back:

    var int x in 1..3;
    var bool b;
    var set of 1..9 s1;
    constraint x = 2;

Array cells scalarize to ``name__i`` / ``name__i__j`` (double underscore,
so flattened-object names with single underscores cannot collide).
Lowering requires a model that has none of the pass table's features:
``lower_to_flat`` enters through ``passes.run_pipeline`` with no passes,
which resolves the model and refuses classes, enumerations,
alldifferent, loops and conditionals before anything is lowered, then
walks every constraint to inline constants and name cells.

``lower_pipeline`` (the CLI's) runs a pass list first.  If it ends with
loopUnroll, lowering declares the variables, the unroll plan names each
cell it builds (``_lower_occurrence``), and no constraint is walked.  If
that raises, the walk runs instead, so diagnostics and the pass reports
before them stay the walk's.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from typing import NamedTuple

from . import ir, passes
from .errors import CompileError, Diagnostic, OracleLimitError, ParseError
from .parser import parse_expression
from .passes import _MISSING, _as_int, _Folder, _value_int, _writable, const_env


class FlatVar(NamedTuple):
    name: str
    kind: str  # "int" | "bool" | "set"
    lo: int | None = None
    hi: int | None = None


class FlatProgram(NamedTuple):
    vars: tuple[FlatVar, ...] = ()
    constraints: tuple[ir.Expression, ...] = ()


def _cell_name(base: str, idx: tuple[int, ...]) -> str:
    return base + "".join(f"__{i}" for i in idx)


def _residual(kind: str, detail: str = "") -> CompileError:
    """The error for a construct that lowering expects gone."""
    detail = f" ({detail})" if detail else ""
    return CompileError(f"cannot lower model: residual {kind}{detail}")


class _Lowerer:
    def __init__(self, model: ir.Model):
        self.model = model
        self.env = const_env(model)
        self.constants = {e.name: e for e in model.elements if isinstance(e, ir.Constant)}
        self.folder = _Folder(self.env)
        self.dims: dict[str, tuple[int, ...]] = {}
        self.vars: list[FlatVar] = []
        self.domain_constraints: list[ir.Expression] = []
        # id(occurrence) -> (occurrence, lowered): the walk lowers an
        # occurrence the unrolled model shares between constraints once
        self.cells: dict[int, tuple[ir.VarOccurrence, ir.Expression]] = {}
        for e in model.elements:
            if isinstance(e, ir.Variable):
                self.add_variable(e)

    def _dims_of(self, v: ir.Variable) -> tuple[int, ...]:
        out = []
        for d in v.dims:
            n = _value_int(d, self.env)
            if n is None:
                raise _residual("non-ground dimension", f"variable '{v.name}'")
            out.append(n)
        return tuple(out)

    def _ground(self, v: ir.Variable, e: ir.Expression) -> int:
        value = _value_int(e, self.env)
        if value is None:
            raise _residual("non-ground domain", f"variable '{v.name}'")
        return value

    def _domain(self, v: ir.Variable):
        """(kind, lo, hi, the members if they leave holes) of v's cells."""
        d, what = v.domain, f"variable '{v.name}'"
        if v.is_set:
            if not isinstance(d, ir.IntervalDomain):
                raise _residual("set variable without an interval universe", what)
        elif v.type_name == "bool":
            if d is not None:
                raise _residual("boolean variable with a domain", what)
            return "bool", None, None, None
        elif v.type_name != "int":
            raise _residual(f"{v.type_name} variable", what)
        members = None
        if isinstance(d, ir.IntervalDomain):
            lo, hi = self._ground(v, d.lo), self._ground(v, d.hi)
        else:
            if isinstance(d, ir.SetDomain):
                members = frozenset([self._ground(v, m) for m in d.members])
            elif isinstance(d, ir.ExprDomain):
                members = _Folder(self.env).ground_value(d.expr)
                if not isinstance(members, frozenset):
                    raise _residual("non-ground domain", what)
            if not members:
                raise _residual("variable without a finite domain", what)
            lo, hi = min(members), max(members)
            if len(members) == hi - lo + 1:  # no hole
                members = None
        if not (_writable(lo) and _writable(hi)):  # the flat text could not write it
            raise CompileError(f"cannot lower model: a domain bound of {what} is an integer "
                               f"of over {sys.get_int_max_str_digits()} digits")
        return "set" if v.is_set else "int", lo, hi, members

    def add_variable(self, v: ir.Variable):
        dims = self._dims_of(v)
        cells = math.prod(max(n, 0) for n in dims)
        if cells > passes.MAX_INSTANCES:
            raise OracleLimitError(
                f"array '{v.name}' has {cells} cells (limit {passes.MAX_INSTANCES})", v.loc
            )
        self.dims[v.name] = dims
        names = [_cell_name(v.name, idx)
                 for idx in itertools.product(*(range(1, n + 1) for n in dims))]
        if not names:  # an empty array reads no domain
            return
        kind, lo, hi, members = self._domain(v)
        for name in names:
            self.vars.append(FlatVar(name, kind, lo, hi))
            if members is not None:
                occ = ir.VarOccurrence(name)
                # a hole leaves two members at least
                self.domain_constraints.append(ir.BoolChain("or", tuple(
                    [ir.BoolBinaryOp("=", occ, ir.IntValue(m)) for m in sorted(members)]
                )))

    def rewrite(self, e: ir.Expression) -> ir.Expression:
        """e with its constants inlined and its array cells named, in one
        bottom-up walk; loopUnroll has folded the rest of e already."""
        return ir.map_expr(e, self._lower_node)

    def _lower_node(self, node: ir.Node) -> ir.Node:
        if type(node) is not ir.VarOccurrence:
            return node
        hit = self.cells.get(id(node))
        if hit is None:
            hit = self.cells[id(node)] = (node, self._lower_occurrence(node))
        return hit[1]

    def _lower_occurrence(self, node: ir.VarOccurrence) -> ir.Expression:
        """node's inlined constant or its cell; its indexes are lowered."""
        folded = self.folder._fold_node(node)
        if folded is not node:  # an inlined constant
            return folded
        b = node.binding
        if b is not None and b.kind == "constant":  # not inlined: no literal holds its value
            folder = _Folder(self.env)
            value = folder.ground_value(self.constants[node.name].value)
            what = f"the value of constant '{node.name}'"
            if value is not _MISSING:  # ground, but a non-integral rational
                if _writable(value.numerator) and _writable(value.denominator):
                    raise CompileError(
                        f"cannot lower model: the flat format has no literal for {value}, {what}"
                    )
                folder._lost(value)  # no message can quote it
            if folder.why is not None:  # a part has no value, or none a literal holds
                raise CompileError(f"cannot lower model: {what} is {folder.why}")
            raise _residual("non-ground constant", node.name)
        dims = self.dims.get(node.name)
        if dims is None:
            raise _residual("unknown variable", node.name)
        if len(node.indexes) != len(dims):
            raise _residual("partial array reference", f"'{node.name}'")
        idx = []
        for expr, size in zip(node.indexes, dims):  # already folded
            value = _as_int(self.folder.value(expr))
            if value is None:
                from .printer import print_expression

                raise _residual("non-ground index", print_expression(expr))
            if not 1 <= value <= size:
                raise CompileError(f"index {value} outside 1..{size} for '{node.name}'", node.loc)
            idx.append(value)
        return ir.VarOccurrence(_cell_name(node.name, tuple(idx)), loc=node.loc)

    def run(self, unrolled: ir.Model | None = None) -> FlatProgram:
        """The program, with the constraints of self.model lowered here,
        or those of unrolled, whose unroll plan lowered them."""
        constraints = list(self.domain_constraints)
        for e in (self.model if unrolled is None else unrolled).elements:
            if isinstance(e, ir.ConstraintZone):
                body = e.body
            elif isinstance(e, ir.Statement):
                body = (e,)
            else:
                continue
            for s in body:
                if type(s) is not ir.ExpressionConstraint:  # a global the table does not know
                    raise _residual("global constraint", s.ctr_name)
                constraints.append(self.rewrite(s.expr) if unrolled is None else s.expr)
        return FlatProgram(tuple(self.vars), tuple(constraints))


def lower_to_flat(model: ir.Model) -> FlatProgram:
    """Scalarize a fully lowered model into a FlatProgram."""
    return _Lowerer(passes.run_pipeline(model, passes.PassConfig(), "flat")[0]).run()


def lower_pipeline(model: ir.Model, cfg: passes.PassConfig,
                   report=lambda reports: None) -> FlatProgram:
    """model after cfg's passes, lowered; report gets the pass reports
    before lowering can fail."""
    if cfg.passes[-1:] == ("loopUnroll",):
        try:
            program, reports = _unroll_into_cells(model, cfg)
        except CompileError:
            pass  # the walk below raises it again, after the reports
        else:
            report(reports)
            return program
    model, reports = passes.run_pipeline(model, cfg, "flat")
    report(reports)
    return _Lowerer(model).run()


def _unroll_into_cells(model: ir.Model, cfg: passes.PassConfig):
    """(the program, the pass reports) of a list that ends with loopUnroll,
    whose plan lowers each occurrence as it builds it."""
    lowerers = []

    def unroll(model: ir.Model, _mode):
        from .unroll import unroll_counted

        lowerers.append(_Lowerer(model))
        return unroll_counted(model, lowerers[0]._lower_occurrence)

    unrolled, reports = passes.run_pipeline(model, cfg, "flat", unroll)
    return lowerers[0].run(unrolled), reports


def emit_flat(p: FlatProgram) -> str:
    """Deterministic text form; declarations first, then constraints."""
    from .printer import print_expression  # here: check lowers, but prints nothing

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


# --------------------------------------------------------------------------
# Reading the flat format back (inverse of emit_flat)

@functools.cache
def _line_patterns() -> tuple[re.Pattern, ...]:
    """The flat format's four line patterns, compiled when parse_flat first
    runs: neither compile nor check reads flat text."""
    return (
        re.compile(r"^var int ([A-Za-z_][A-Za-z0-9_]*) in (-?\d+)\.\.(-?\d+);$"),
        re.compile(r"^var bool ([A-Za-z_][A-Za-z0-9_]*);$"),
        re.compile(r"^var set of (-?\d+)\.\.(-?\d+) ([A-Za-z_][A-Za-z0-9_]*);$"),
        re.compile(r"^constraint (.*);$"),
    )


def parse_flat(text: str, file: str = "<flat>") -> FlatProgram:
    """Parse the flat interchange format; errors carry line numbers."""
    var_int, var_bool, var_set, constraint = _line_patterns()
    vars_: list[FlatVar] = []
    names: set[str] = set()
    constraints: list[ir.Expression] = []
    diags: list[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if m := constraint.match(line):
            try:
                expr = parse_expression(m.group(1), file=file)
            except ParseError as exc:
                first = exc.diagnostics[0]
                diags.append(Diagnostic("error", first.message, lineno, first.column, file))
                continue
            bad = next(
                (
                    n
                    for n in ir.walk_expr(expr)
                    if isinstance(n, ir.VarOccurrence) and (n.indexes or n.name not in names)
                ),
                None,
            )
            if bad is not None:
                what = "indexed reference" if bad.indexes else f"unknown variable '{bad.name}'"
                diags.append(Diagnostic("error", f"{what} in flat constraint", lineno, 1, file))
                continue
            constraints.append(expr)
            continue
        try:
            if m := var_int.match(line):
                name, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
                vars_.append(FlatVar(name, "int", lo, hi))
            elif m := var_bool.match(line):
                vars_.append(FlatVar(m.group(1), "bool"))
            elif m := var_set.match(line):
                lo, hi, name = int(m.group(1)), int(m.group(2)), m.group(3)
                vars_.append(FlatVar(name, "set", lo, hi))
            else:
                diags.append(Diagnostic("error", f"unrecognized line: {line}", lineno, 1, file))
                continue
        except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
            diags.append(Diagnostic("error", "integer bound out of range", lineno, 1, file))
            continue
        if vars_ and vars_[-1].name in names:
            diags.append(Diagnostic("error", f"duplicate variable '{vars_[-1].name}'", lineno, 1, file))
        elif vars_:
            names.add(vars_[-1].name)
    if diags:
        raise ParseError(diags)
    return FlatProgram(tuple(vars_), tuple(constraints))
