"""Test-suite support: an independent cross-product enumerator (the check
on the oracle itself), a naive loop unroller (the check on loopUnroll's
shared instantiation) and a generator of small valid random models."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import random
from fractions import Fraction

from pivotc import ir
from pivotc.errors import NonGroundBoundError, NonGroundConditionError
from pivotc.flat import FlatProgram
from pivotc.oracle import Assignment, SolutionSet
from pivotc.parser import KEYWORDS, SourceUnit, parse
from pivotc.passes import fold_constants

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
# Naive loop unrolling, written independently of loopUnroll: every instance
# of a statement is a fresh deep copy, nothing is memoized or shared.


def naive_unroll(model: ir.Model) -> ir.Model:
    """Unroll the loops and conditionals of a resolved, class-free model.

    Bounds and conditions are evaluated with eval_expr over the iterators
    and the constants; each leaf statement is deep-copied per iterator
    assignment, its iterators replaced by their values, and folded by
    foldConstants (declarations keep their unfolded form, as loopUnroll
    leaves them)."""
    consts: dict = {}
    for e in model.elements:
        if isinstance(e, ir.Constant) and not e.dims:
            try:
                consts[e.name] = eval_expr(e.value, consts)
            except KeyError:
                pass

    def substitute(e: ir.Expression, iters: dict) -> ir.Expression:
        def node(n):
            b = n.binding if isinstance(n, ir.VarOccurrence) else None
            if b is not None and b.kind == "iterator" and not n.indexes:
                return ir.IntValue(iters[n.name])
            return n

        return ir.map_expr(copy.deepcopy(e), node)

    def ground(e: ir.Expression, iters: dict, error, what: str, loc):
        try:
            return eval_expr(substitute(e, iters), consts)
        except KeyError:
            raise error(what, loc) from None

    def unroll(stmts, iters: dict) -> list[ir.Statement]:
        out: list[ir.Statement] = []
        for s in stmts:
            if isinstance(s, ir.ForAll):
                what = f"loop over '{s.iter_var}' has a non-ground bound"
                lo = ground(s.lower, iters, NonGroundBoundError, what, s.loc)
                hi = ground(s.upper, iters, NonGroundBoundError, what, s.loc)
                for v in range(lo, hi + 1):
                    out += unroll(s.body, {**iters, s.iter_var: v})
            elif isinstance(s, ir.If):
                what = "conditional with a non-ground condition cannot be unrolled"
                cond = ground(s.cond, iters, NonGroundConditionError, what, s.loc)
                out += unroll(s.then_body if cond else (s.else_body or ()), iters)
            elif isinstance(s, ir.ExpressionConstraint):
                out.append(ir.ExpressionConstraint(substitute(s.expr, iters), loc=s.loc))
            else:
                params = tuple(substitute(p, iters) for p in s.params)
                out.append(ir.GlobalCtr(s.ctr_name, params, loc=s.loc))
        return out

    elements: list[ir.ModelElement] = []
    for e in model.elements:
        if isinstance(e, ir.ConstraintZone):
            elements.append(ir.ConstraintZone(e.name, tuple(unroll(e.body, {})), loc=e.loc))
        elif isinstance(e, ir.Statement):
            elements += unroll([e], {})
        else:
            elements.append(e)
    unrolled = dataclasses.replace(model, elements=tuple(elements))
    folded = fold_constants(unrolled).elements
    return dataclasses.replace(model, elements=tuple(
        f if isinstance(f, (ir.ConstraintZone, ir.Statement)) else e
        for e, f in zip(unrolled.elements, folded)
    ))


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


def gen_loop_model(rng: random.Random) -> ir.Model:
    """A random model of nested foralls: bounds that read outer iterators,
    inner loops that shadow outer names, ifs on iterators, and leaves that
    mix iterators, constants, array cells and divisions (some by zero).
    These are the shapes where loopUnroll shares instances."""

    def index(scope):
        a = rng.choice(scope)
        return rng.choice([a, f"{a} + {rng.choice(scope)}", f"c + {a}"])

    def term(scope, depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            return rng.choice([rng.choice(scope), str(rng.randint(0, 4)), "c", f"x[{index(scope)}]"])
        if r < 0.45:
            return f"x[{index(scope)}]"
        if r < 0.55:
            return f"({term(scope, depth - 1)} / ({rng.choice(scope)} - {rng.randint(1, 3)}))"
        op = rng.choice(["+", "-", "*"])
        return f"({term(scope, depth - 1)} {op} {term(scope, depth - 1)})"

    def stmts(scope, depth, pad):
        out = []
        for _ in range(rng.randint(1, 2)):
            r = rng.random()
            if depth > 0 and r < 0.5:
                name = rng.choice("ijk")
                lo = rng.choice(["1", "2"] + [f"{s} + 1" for s in scope])
                hi = rng.choice(["2", "3"] + [f"{s} + 1" for s in scope])
                body = stmts(scope + [name], depth - 1, pad + "  ")
                out.append(f"{pad}forall({name} in {lo}..{hi}) {{\n{body}{pad}}}\n")
            elif depth > 0 and scope and r < 0.65:
                cond = f"{rng.choice(scope)} {rng.choice(['=', '<', '>='])} {rng.randint(1, 3)}"
                then = stmts(scope, depth - 1, pad + "  ")
                other = stmts(scope, depth - 1, pad + "  ")
                out.append(f"{pad}if ({cond}) {{\n{then}{pad}}} else {{\n{other}{pad}}}\n")
            elif scope and r < 0.67:
                out.append(f"{pad}alldifferent(x[{index(scope)}], x[{index(scope)}]);\n")
            elif scope:
                op = rng.choice(["<=", ">=", "!=", "="])
                out.append(f"{pad}{term(scope, 2)} {op} {term(scope, 2)};\n")
            else:
                out.append(f"{pad}x[{rng.randint(1, 12)}] >= {rng.randint(0, 4)};\n")
        return "".join(out)

    text = (
        f"model L;\nint c := {rng.randint(1, 3)};\nint x[12] in 0..9;\n"
        f"constraint z {{\n{stmts([], 3, '  ')}}}\n"
    )
    return parse(SourceUnit(text))
