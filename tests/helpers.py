"""Test-suite support: an independent cross-product enumerator (the check
on the oracle itself) and a generator of small valid random models."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from pivotc import ir
from pivotc.flat import FlatProgram
from pivotc.oracle import Assignment, SolutionSet
from pivotc.parser import KEYWORDS

# --------------------------------------------------------------------------
# Naive full cross-product filter, written independently of the oracle's
# generated backtracking search.


def _naive_values(v):
    if v.kind == "int":
        return [x for x in range(v.lo, v.hi + 1)]
    if v.kind == "bool":
        return [False, True]
    universe = range(v.lo, v.hi + 1)
    subsets = []
    for r in range(len(list(universe)) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(range(v.lo, v.hi + 1), r))
    return subsets


def eval_expr(e: ir.Expression, env: dict):
    """Plain recursive evaluation against a name -> value map."""
    if isinstance(e, ir.IntValue):
        return e.v
    if isinstance(e, ir.RealValue):
        return Fraction(e.v)
    if isinstance(e, ir.BoolValue):
        return e.value
    if isinstance(e, ir.IntervalValue):
        return frozenset(range(math.ceil(e.lo), math.floor(e.hi) + 1))
    if isinstance(e, ir.VarOccurrence):
        return env[e.name]
    if isinstance(e, ir.SetValue):
        return frozenset(int(eval_expr(x, env)) for x in e.elems)
    if isinstance(e, ir.SetFunction):
        return len(eval_expr(e.arg, env))
    if isinstance(e, ir.SetBinaryOp):
        a, b = eval_expr(e.left, env), eval_expr(e.right, env)
        return {"intersect": a & b, "union": a | b, "diff": a - b}[e.op]
    if isinstance(e, ir.AlgUnaryOp):
        v = eval_expr(e.operand, env)
        return -v if e.op == "neg" else +v
    if isinstance(e, ir.AlgBinaryOp):
        a, b = eval_expr(e.left, env), eval_expr(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return Fraction(a) / Fraction(b)
        if isinstance(b, Fraction) and b.denominator == 1:
            b = b.numerator
        return Fraction(a) ** b if not isinstance(b, float) else float(a) ** b
    if isinstance(e, ir.AlgFunction):
        args = [eval_expr(a, env) for a in e.args]
        if e.fn == "abs":
            return abs(args[0])
        if e.fn == "min":
            return min(args)
        if e.fn == "max":
            return max(args)
        return getattr(math, e.fn)(float(args[0]))
    if isinstance(e, ir.BoolUnaryOp):
        return not eval_expr(e.operand, env)
    if isinstance(e, ir.BoolBinaryOp):
        a, b = eval_expr(e.left, env), eval_expr(e.right, env)
        return {
            "=": lambda: a == b,
            "!=": lambda: a != b,
            "<=": lambda: a <= b,
            ">=": lambda: a >= b,
            "<": lambda: a < b,
            ">": lambda: a > b,
            "and": lambda: bool(a) and bool(b),
            "or": lambda: bool(a) or bool(b),
            "implies": lambda: (not a) or bool(b),
            "iff": lambda: bool(a) == bool(b),
        }[e.op]()
    raise TypeError(f"cannot evaluate {e!r}")


def naive_enumerate(program: FlatProgram) -> SolutionSet:
    """Filter the full cross product of all domains; exact but slow."""
    names = [v.name for v in program.vars]
    value_lists = [_naive_values(v) for v in program.vars]
    solutions = []
    for combo in itertools.product(*value_lists):
        env = dict(zip(names, combo))
        if all(eval_expr(c, env) for c in program.constraints):
            solutions.append(Assignment(env))

    def key(a: Assignment):
        out = []
        for name in sorted(names):
            v = a.values[name]
            out.append((len(v), tuple(sorted(v))) if isinstance(v, frozenset) else (int(v),))
        return tuple(out)

    solutions.sort(key=key)
    return SolutionSet(tuple(solutions), True)


# --------------------------------------------------------------------------
# Random small valid models (used for the parse/print round-trip property).

_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def name(self, prefix: str = "") -> str:
        while True:
            n = prefix + "".join(
                self.rng.choice(_NAME_ALPHABET) for _ in range(self.rng.randint(1, 5))
            )
            if n not in self.used and n not in KEYWORDS and n != "model":
                self.used.add(n)
                return n

    def int_leaf(self, ints: list[str]):
        r = self.rng.random()
        if ints and r < 0.5:
            return ir.VarOccurrence(self.rng.choice(ints))
        return ir.IntValue(self.rng.randint(-5, 9))

    def int_expr(self, ints: list[str], depth: int) -> ir.Expression:
        if depth <= 0 or self.rng.random() < 0.4:
            return self.int_leaf(ints)
        r = self.rng.random()
        if r < 0.7:
            op = self.rng.choice(["+", "-", "*"])
            return ir.AlgBinaryOp(op, self.int_expr(ints, depth - 1), self.int_expr(ints, depth - 1))
        if r < 0.85:
            inner = self.int_expr(ints, depth - 1)
            if isinstance(inner, (ir.IntValue, ir.RealValue)):
                return inner
            return ir.AlgUnaryOp("neg", inner)
        return ir.AlgFunction("abs", (self.int_expr(ints, depth - 1),))

    def set_expr(self, sets: list[str], depth: int) -> ir.Expression:
        if depth <= 0 or not sets or self.rng.random() < 0.4:
            if sets and self.rng.random() < 0.7:
                return ir.VarOccurrence(self.rng.choice(sets))
            elems = tuple(
                ir.IntValue(self.rng.randint(1, 6))
                for _ in range(self.rng.randint(1, 3))
            )
            return ir.SetValue(elems)
        op = self.rng.choice(["intersect", "union", "diff"])
        return ir.SetBinaryOp(op, self.set_expr(sets, depth - 1), self.set_expr(sets, depth - 1))

    def bool_expr(self, ints, sets, depth: int) -> ir.Expression:
        r = self.rng.random()
        if depth <= 0 or r < 0.45:
            op = self.rng.choice(["=", "!=", "<=", ">=", "<", ">"])
            return ir.BoolBinaryOp(op, self.int_expr(ints, depth - 1), self.int_expr(ints, depth - 1))
        if r < 0.6 and sets:
            op = self.rng.choice(["=", "<=", ">="])
            card = ir.SetFunction("card", self.set_expr(sets, depth - 1))
            return ir.BoolBinaryOp(op, card, self.int_expr(ints, depth - 1))
        if r < 0.75:
            op = self.rng.choice(["and", "or", "implies", "iff"])
            return ir.BoolBinaryOp(
                op, self.bool_expr(ints, sets, depth - 1), self.bool_expr(ints, sets, depth - 1)
            )
        if r < 0.85:
            return ir.BoolUnaryOp("not", self.bool_expr(ints, sets, depth - 1))
        return ir.BoolValue(self.rng.random() < 0.5)

    def statements(self, ints, sets, depth: int) -> tuple[ir.Statement, ...]:
        out = []
        for _ in range(self.rng.randint(1, 3)):
            r = self.rng.random()
            if r < 0.55 or depth <= 0:
                out.append(ir.ExpressionConstraint(self.bool_expr(ints, sets, 2)))
            elif r < 0.8:
                it = self.name()
                lo = ir.IntValue(self.rng.randint(1, 2))
                hi = ir.IntValue(self.rng.randint(1, 3))
                body = self.statements(ints + [it], sets, depth - 1)
                out.append(ir.ForAll(it, lo, hi, body))
            else:
                cond = self.bool_expr(ints, sets, 1)
                then_body = self.statements(ints, sets, depth - 1)
                else_body = self.statements(ints, sets, depth - 1) if self.rng.random() < 0.5 else None
                out.append(ir.If(cond, then_body, else_body))
        return tuple(out)


def gen_model(rng: random.Random) -> ir.Model:
    """A random small model that resolves and validates cleanly."""
    g = _Gen(rng)
    model_name = g.name().capitalize() or "M"
    elements: list[ir.ModelElement] = []
    ints: list[str] = []
    sets: list[str] = []

    for _ in range(rng.randint(0, 2)):
        lits = tuple(g.name() for _ in range(rng.randint(2, 4)))
        elements.append(ir.Enumeration(g.name().capitalize(), lits))

    for _ in range(rng.randint(0, 2)):
        cname = g.name()
        elements.append(ir.Constant(cname, "int", ir.IntValue(rng.randint(1, 4))))
        ints.append(cname)

    for _ in range(rng.randint(1, 3)):
        vname = g.name()
        if rng.random() < 0.3:
            lo = rng.randint(1, 3)
            elements.append(
                ir.Variable(
                    vname, "int", is_set=True,
                    domain=ir.IntervalDomain(ir.IntValue(lo), ir.IntValue(lo + rng.randint(0, 3))),
                )
            )
            sets.append(vname)
        else:
            dims = ()
            if rng.random() < 0.4:
                dims = (ir.IntValue(rng.randint(1, 3)),)
            lo = rng.randint(-2, 2)
            domain = ir.IntervalDomain(ir.IntValue(lo), ir.IntValue(lo + rng.randint(0, 4)))
            elements.append(ir.Variable(vname, "int", dims=dims, domain=domain))
            if not dims:
                ints.append(vname)

    for _ in range(rng.randint(0, 2)):
        zone = g.name()
        elements.append(ir.ConstraintZone(zone, g.statements(ints, sets, 2)))

    if rng.random() < 0.4:
        # one class with scalar attributes, instantiated from a main class
        attr_ints: list[str] = []
        features: list[ir.ModelFeature] = []
        for _ in range(rng.randint(1, 2)):
            a = g.name()
            features.append(
                ir.Variable(a, "int", domain=ir.IntervalDomain(ir.IntValue(1), ir.IntValue(3)))
            )
            attr_ints.append(a)
        features.append(
            ir.ConstraintZone(g.name(), g.statements(attr_ints + ints, [], 1))
        )
        cls_name = g.name().capitalize() + "C"
        obj_name = g.name()
        main_name = g.name().capitalize() + "M"
        elements.append(ir.Class(cls_name, tuple(features)))
        main_features: list[ir.ModelFeature] = [ir.Variable(obj_name, cls_name)]
        path = ir.ObjectOccurrence(
            (ir.VarOccurrence(obj_name), ir.VarOccurrence(attr_ints[0]))
        )
        main_features.append(
            ir.ConstraintZone(
                g.name(),
                (ir.ExpressionConstraint(ir.BoolBinaryOp("<=", path, ir.IntValue(3))),),
            )
        )
        elements.append(ir.Class(main_name, tuple(main_features), is_main=True))

    return ir.Model(model_name, tuple(elements))
