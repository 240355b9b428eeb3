"""loopUnroll: expand loops and ground conditionals.

``passes.PASSES`` (or flat lowering, which passes a cell hook) imports
this module the first time the pass runs; the pipeline, the pass table
and the ``loop_unroll`` wrapper stay in ``passes``.
"""

from __future__ import annotations

import operator
from typing import Callable

from . import ir, passes
from .errors import CompileError, OracleLimitError
from .passes import _as_int, _Folder, _rewrite_bodies, const_env


class _Unroller:
    """Expands the loops and grounds the conditionals of statement lists,
    and counts the loops and conditionals.  Each leaf statement, loop bound
    and condition is compiled, when first met, into a plan: one closure per
    template node that builds and folds its instance from the values in
    ``iters``.  A subtree that reads no iterator is built once (where an
    instance reaches it if that raises), one that reads fewer iterators than
    enclose it once per tuple of the values it reads.  A node goes to the
    folder only if it is no literal and has no child, or a child that can
    become a value (holds no variable or object occurrence) and, if another
    child holds one, is a chain, whose ground prefix folds, or an
    AlgBinaryOp, whose x / 1 drops; the folder returns any other as is.
    A loop whose body holds only constraints fetches their plans once.
    Plans never refer to themselves: a reference cycle would keep the model
    alive until the cyclic collector runs.  Given a cell (flat lowering's
    occurrence code), plans call it in place of the folder on each
    occurrence, before a memo stores the node: the plan is then the last
    to fold, and lowering collects its constraints without a walk."""

    __slots__ = ("folder", "cell", "count", "trips", "iters", "literals", "plans")

    def __init__(self, env: dict, cell: Callable | None = None):
        self.folder = _Folder(env)
        self.cell = cell
        self.count = 0
        self.trips = 1  # the instances of the body of the loops entered
        self.iters: dict[str, int] = {}  # enclosing iterator -> its value
        self.literals: dict[int, ir.IntValue] = {}  # iterator value -> its one node
        # id(template) -> its plans; the model keeps templates alive, so ids are stable
        self.plans: dict[int, list[Callable]] = {}

    def plan(self, template: ir.Node, exprs) -> list[Callable]:
        """The plans of the expressions of template: a leaf statement, a
        bound or a condition.  Each returns its expression's instance."""
        runs = self.plans.get(id(template))
        if runs is None:
            runs = self.plans[id(template)] = [_call(self._compile(e)[0]) for e in exprs]
        return runs

    def _compile(self, e: ir.Expression):
        """(e's instance if it reads no iterator and builds, else its plan;
        the iterators e reads; whether e holds a variable or object
        occurrence)."""
        t, iters = type(e), self.iters
        b = e.binding if t is ir.VarOccurrence else None
        if b is not None and b.kind == "iterator" and not e.indexes and e.name in iters:
            literals, name = self.literals, e.name
            return (lambda: literals[iters[name]]), frozenset((name,)), False
        fields, reads = [], frozenset()
        changed = lazy = held = valued = False  # valued: a child can become a value
        for name, many in ir.CHILD_FIELDS[t]:
            v = getattr(e, name)
            if v:  # neither None nor an empty tuple
                plans = []
                for x in v if many else (v,):
                    plan, r, h = self._compile(x)
                    plans.append(plan)
                    reads |= r
                    changed, lazy = changed or plan is not x, lazy or callable(plan)
                    held, valued = held or h, valued or not h
                fields.append((name, many, plans))
        literal = t is ir.IntValue or t is ir.RealValue or t is ir.BoolValue
        # with a child that holds a variable, only a chain's ground prefix
        # and identities, and x / 1, can fold
        fold = self.folder._fold_node
        if literal or held and (not valued or t not in _FOLD_HELD):
            fold = None
        if t is ir.VarOccurrence and self.cell is not None:
            fold = self.cell  # it folds the occurrence first
        held = held or t is ir.ObjectOccurrence or b is not None and b.kind == "variable"
        if not lazy:
            try:
                node = e._copy({n: tuple(p) if m else p[0] for n, m, p in fields}) if changed else e
                return (node if fold is None else fold(node)), reads, held
            except CompileError:
                pass  # raised again where an instance reaches it, in evaluation order
        fields = [(name, many, [_call(p) for p in plans]) for name, many, plans in fields]
        memo = {} if 0 < len(reads) < len(iters) else None  # e reads some, not all, iterators
        if memo is None and (t is ir.BoolBinaryOp or t is ir.SetBinaryOp or t is ir.AlgBinaryOp):
            # the most common instance: built by its constructor, with no updates dict
            (_, _, (left,)), (_, _, (right,)) = fields
            op, loc = e.op, e.loc
            if fold is None:
                return (lambda: t(op, left(), right(), loc=loc)), reads, held
            return (lambda: fold(t(op, left(), right(), loc=loc))), reads, held
        key = operator.itemgetter(*reads) if memo is not None else None

        def run():
            if memo is not None:
                k = key(iters)
                hit = memo.get(k)
                if hit is not None:
                    return hit
            node = e
            if fields:
                u = {}
                for name, many, runs in fields:  # no comprehension: one frame per level
                    if many:
                        built = []
                        for r in runs:
                            built.append(r())
                        u[name] = tuple(built)
                    else:
                        u[name] = runs[0]()
                node = e._copy(u)
            if fold is not None:
                node = fold(node)
            if memo is not None:
                memo[k] = node
            return node

        return run, reads, held

    def bound(self, e: ir.Expression, loop: ir.ForAll) -> int:
        v = _as_int(self.folder.value(self.plan(e, (e,))[0]()))
        if v is None:
            raise CompileError(f"loop over '{loop.iter_var}' has a non-ground bound", loop.loc)
        return v

    def stmts(self, stmts, out: list) -> list[ir.Statement]:
        """out, with the instances of stmts under the values in iters
        appended; an inner loop shadows an outer one of the same name."""
        iters = self.iters
        for s in stmts:
            t = type(s)
            if t is ir.ExpressionConstraint:
                out.append(ir.ExpressionConstraint(self.plan(s, (s.expr,))[0](), loc=s.loc))
            elif t is ir.GlobalCtr:
                params = tuple([run() for run in self.plan(s, s.params)])
                out.append(ir.GlobalCtr(s.ctr_name, params, loc=s.loc))
            elif t is ir.ForAll:
                self.count += 1
                lo, hi = self.bound(s.lower, s), self.bound(s.upper, s)
                enclosing = self.trips
                self.trips = enclosing * max(hi - lo + 1, 0)
                if self.trips > passes.MAX_INSTANCES:
                    raise OracleLimitError(f"loop over '{s.iter_var}' unrolls to {self.trips} "
                                           f"instances (limit {passes.MAX_INSTANCES})", s.loc)
                outer = iters.get(s.iter_var)
                body = s.body
                # a body of constraints only fetches their plans once, at the first value
                flat = all(type(b) is ir.ExpressionConstraint for b in body)
                runs = None
                for v in range(lo, hi + 1):
                    if v not in self.literals:
                        self.literals[v] = ir.IntValue(v)
                    iters[s.iter_var] = v
                    if not flat:
                        self.stmts(body, out)
                        continue
                    if runs is None:
                        runs = [(self.plan(b, (b.expr,))[0], b.loc) for b in body]
                    for run, loc in runs:
                        out.append(ir.ExpressionConstraint(run(), loc=loc))
                iters.pop(s.iter_var, None)
                self.trips = enclosing
                if outer is not None:  # the value it shadowed
                    iters[s.iter_var] = outer
            elif t is ir.If:
                self.count += 1
                cond = self.plan(s.cond, (s.cond,))[0]()
                if not isinstance(cond, ir.BoolValue):
                    raise CompileError(
                        "conditional with a non-ground condition cannot be unrolled", s.loc
                    )
                self.stmts(s.then_body if cond.value else (s.else_body or ()), out)
        return out


_FOLD_HELD = (ir.AlgBinaryOp, ir.AlgChain, ir.BoolChain)  # what folds beside a variable


def _call(plan) -> Callable:
    """plan, or for an instance built already, a call that returns it."""
    return plan if callable(plan) else lambda: plan


def unroll_counted(model: ir.Model, cell: Callable | None = None) -> tuple[ir.Model, int]:
    unroller = _Unroller(const_env(model), cell)
    return _rewrite_bodies(model, lambda stmts: (unroller.stmts(stmts, []), ())), unroller.count

