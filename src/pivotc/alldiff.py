"""alldiffRewrite: replace each alldifferent constraint by pairwise
disequalities, a sum relaxation, or a boolean assignment matrix.

``passes.PASSES`` imports this module the first time the pass meets a
model with an alldifferent constraint; the pipeline, the pass table and
the ``alldiff_rewrite`` wrapper stay in ``passes``.
"""

from __future__ import annotations

from . import ir
from .errors import CompileError
from .passes import _rewrite_bodies, _value_int, const_env


def alldiff_to_disequalities(c: ir.GlobalCtr) -> list[ir.Statement]:
    """alldifferent(x1..xn) -> the n(n-1)/2 pairwise disequalities."""
    if not isinstance(c, ir.GlobalCtr) or c.ctr_name != "alldifferent":
        raise CompileError("expected an alldifferent constraint")
    out: list[ir.Statement] = []
    n = len(c.params)
    for i in range(n):
        for j in range(i + 1, n):
            out.append(
                ir.ExpressionConstraint(
                    ir.BoolBinaryOp("!=", c.params[i], c.params[j], loc=c.loc), loc=c.loc
                )
            )
    return out


def _param_interval(p: ir.Expression, variables: dict, env: dict):
    """(lo, hi) of the declared domain of the top-level variable that p
    is bound to; None when p is no such occurrence (a loop iterator, say)."""
    if not isinstance(p, ir.VarOccurrence) or p.binding.kind != "variable":
        return None
    domain = variables[p.name].domain
    if not isinstance(domain, ir.IntervalDomain):
        return None
    lo = _value_int(domain.lo, env)
    hi = _value_int(domain.hi, env)
    if lo is None or hi is None:
        return None
    return lo, hi


def _alldiff_to_relaxation(c: ir.GlobalCtr, variables: dict, env: dict) -> ir.Statement:
    n = len(c.params)
    for p in c.params:
        iv = _param_interval(p, variables, env)
        if iv != (1, n):
            raise CompileError(f"relaxation requires every parameter domain to be 1..{n}", c.loc)
    total = ir.IntValue(n * (n + 1) // 2)
    return ir.ExpressionConstraint(
        ir.BoolBinaryOp("=", ir.chain("+", list(c.params)), total, loc=c.loc), loc=c.loc
    )


def _fresh_bool_matrix_name(taken: set[str]) -> str:
    if "b" not in taken:
        return "b"
    n = 2
    while f"b{n}" in taken:
        n += 1
    return f"b{n}"


def _alldiff_to_boolean(
    c: ir.GlobalCtr, variables: dict, env: dict, taken: set[str]
) -> list[ir.ModelFeature]:
    n = len(c.params)
    intervals = []
    for p in c.params:
        if not isinstance(p, ir.VarOccurrence) or p.binding.kind != "variable":
            raise CompileError("boolean reformulation requires plain variable parameters", c.loc)
        iv = _param_interval(p, variables, env)
        if iv is None:
            raise CompileError(f"cannot determine the domain of parameter '{p.name}'", c.loc)
        intervals.append(iv)
    if len(set(intervals)) != 1:
        raise CompileError("boolean reformulation requires one common parameter domain", c.loc)
    lo, m = intervals[0]
    if lo != 1 or m < n:
        raise CompileError(
            f"boolean reformulation requires a common domain 1..m with m >= {n}", c.loc
        )
    name = _fresh_bool_matrix_name(taken)
    taken.add(name)
    b = ir.Variable(name, "bool", dims=(ir.IntValue(n), ir.IntValue(m)), loc=c.loc)

    def cell(i: int, j: int) -> ir.Expression:
        b = ir.Binding("variable", name)
        return ir.VarOccurrence(name, (ir.IntValue(i), ir.IntValue(j)), binding=b)

    features: list[ir.ModelFeature] = [b]
    for i in range(1, n + 1):  # one value per variable
        row = ir.chain("+", [cell(i, j) for j in range(1, m + 1)])
        features.append(ir.ExpressionConstraint(ir.BoolBinaryOp("=", row, ir.IntValue(1)), loc=c.loc))
    col_op = "=" if m == n else "<="
    for j in range(1, m + 1):  # each value used once (at most once when m > n)
        col = ir.chain("+", [cell(i, j) for i in range(1, n + 1)])
        features.append(
            ir.ExpressionConstraint(ir.BoolBinaryOp(col_op, col, ir.IntValue(1)), loc=c.loc)
        )
    for i, p in enumerate(c.params, start=1):  # channel b back to the parameters
        value = ir.chain("+", [ir.chain("*", [ir.IntValue(j), cell(i, j)]) for j in range(1, m + 1)])
        features.append(
            ir.ExpressionConstraint(ir.BoolBinaryOp("=", p, value), loc=c.loc)
        )
    return features


class _AlldiffRewriter:
    """Rewrites the alldifferent constraints of statement lists and counts
    them.  Not a recursive closure: a closure that calls itself is a
    reference cycle, which would keep the model alive until the cyclic
    collector runs."""

    def __init__(self, mode: str, variables: dict, env: dict, taken: set[str]):
        self.mode, self.variables, self.env, self.taken = mode, variables, env, taken
        self.count = 0

    def stmts(self, stmts, nested: bool) -> tuple[list[ir.Statement], list[ir.Variable]]:
        out: list[ir.Statement] = []
        hoisted: list[ir.Variable] = []
        for s in stmts:
            if isinstance(s, ir.GlobalCtr) and s.ctr_name == "alldifferent":
                self.count += 1
                if self.mode == "disequalities":
                    out.extend(alldiff_to_disequalities(s))
                elif self.mode == "relaxation":
                    out.append(_alldiff_to_relaxation(s, self.variables, self.env))
                else:
                    if nested:
                        raise CompileError(
                            "alldiffRewrite: boolean mode cannot rewrite alldifferent inside "
                            "forall/if (the matrix would be shared between iterations)"
                        )
                    features = _alldiff_to_boolean(s, self.variables, self.env, self.taken)
                    hoisted.extend(f for f in features if isinstance(f, ir.Variable))
                    out.extend(f for f in features if isinstance(f, ir.Statement))
            elif isinstance(s, (ir.ForAll, ir.If)):
                updates = {}
                for name in ("body",) if isinstance(s, ir.ForAll) else ("then_body", "else_body"):
                    body = getattr(s, name)
                    if body is not None:
                        body, inner_hoisted = self.stmts(body, True)
                        hoisted.extend(inner_hoisted)
                        updates[name] = tuple(body)
                out.append(ir.rebuild(s, updates))
            else:
                out.append(s)
        return out, hoisted


def rewrite_counted(model: ir.Model, mode: str) -> tuple[ir.Model, int]:
    taken = {e.name for e in model.elements if hasattr(e, "name")}
    variables = {e.name: e for e in model.elements if isinstance(e, ir.Variable)}
    rewriter = _AlldiffRewriter(mode, variables, const_env(model), taken)
    return _rewrite_bodies(model, lambda stmts: rewriter.stmts(stmts, False)), rewriter.count

