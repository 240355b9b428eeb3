"""Exhaustive enumeration over flat programs.

This is the semantic ground truth used to check that rewriting passes
preserve solution sets, so it stays simple: backtracking in declaration
order, no ordering heuristics, every constraint checked as soon as its
last variable is assigned unless a support mask filters it (below).  For
speed, the search over each program is written out as Python source, one
nested ``for`` loop per variable with that depth's constraints fused into
one condition, and compiled once with ``exec``.

When no constraint can raise, masks and linear comparisons prune.  That is
the case when the variables are ints and bools and the constraints use
only int literals, ``+ - *``, ``abs``, comparisons and the connectives.
A constraint over one or two int or bool variables of at most _MAX_MASKED
values each becomes a support mask (forward checking, see _Masks): once a
variable is bound, the mask of each later variable it constrains is
narrowed to the values that agree with it, the value is rejected when a
mask is left empty, and each loop binds only the values its mask keeps.  A
comparison whose two sides are sums of int literals and variables times
int literals reads as ``sum c_i * v_i op k``, with op one of
``= <= >= < >``.  At each of its variables but the last, a value is
rejected when the partial sum plus the least or the greatest that the
remaining terms can add proves the comparison false.  An equality whose
last variable is an int with coefficient +-1 forces that variable: it
tries only the value the partial sum leaves, and only if the domain holds
it and its mask keeps it, bound by an ``if`` where an enclosing loop
takes the checks' ``continue``.  When its second-to-last variable p is a
masked int with coefficient +-1 after a partial sum, the equality also
filters p's loop (see _Bounds): p binds only the values whose forced
partner the last variable's mask keeps.  A program that may raise
(division, powers, math functions, reals, min/max, sets) keeps the plain
search, because pruning skips evaluations and the error one of them would
raise must not be skipped.

Pruning drops only assignments that violate a constraint and keeps the
order of the others, so the solutions are those of the plain search, in
the same order.  ``SolutionSet.nodes`` counts the values bound: every value
a loop binds, also one that a check, a bounds test or an emptied mask then
rejects, and a forced value once; a value a mask excludes is never bound
and not counted.  ``max_nodes`` caps that count.  A search returns value
rows, the values of each solution in declaration order, with the names
stored once; ``SolutionSet.solutions`` builds ``Assignment``s from them only
when read.  Rows are in canonical order, by value (as ``domain_values``
orders them) in sorted variable-name order.  When the variables are
declared in sorted name order, the search yields that order itself and
nothing is sorted.  ``compare_streaming`` runs the same search with
another leaf, which counts each solution and keeps none.  A pruned search
whose solutions are the baseline's rows, reordered, counts nothing more:
one predicate counts the baseline rows that are solutions.  Any other
leaf projects each solution and looks it up among the baseline's rows.

Evaluation is exact: integer arithmetic is unbounded, ``/`` evaluates in
rationals, and set values are frozensets over the declared universe.  A
real literal is the double foldConstants computes with, so folding never
changes the solutions.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from . import ir
from .errors import CompileError, OracleLimitError
from .flat import FlatProgram, FlatVar, parse_flat  # parse_flat: re-exported
from .passes import _SMALL_INT, _div, _pow

MAX_SET_UNIVERSE = 12
MAX_SEARCH_SPACE = 2 ** 40
DEFAULT_MAX_SOLUTIONS = 10 ** 6
DEFAULT_MAX_NODES = 10 ** 7


class Assignment(ir._Frozen):
    """One solution: variable name -> value.  Unhashable, as its dict is."""

    __slots__ = _fields = ("values",)  # no __dict__: a read of solutions can build 10^6
    __eq__ = ir._compared(_fields)[0]
    __hash__ = None

    def __init__(self, values: dict | None = None):
        object.__setattr__(self, "values", {} if values is None else values)

    def __getitem__(self, name: str):
        return self.values[name]

    def project(self, names) -> tuple:
        return tuple(self.values[n] for n in names)


class SolutionSet(ir._Frozen):
    """Value rows in canonical order: ``rows[r][i]`` is ``names[i]``'s value.
    ``nodes``, the values bound (checked against max_nodes), is the
    search's cost, so equality and hash leave it out."""

    __slots__ = _fields = ("names", "rows", "complete", "nodes")
    __eq__, __hash__ = ir._compared(("names", "rows", "complete"))

    def __init__(self, names: tuple[str, ...] = (), rows: tuple[tuple, ...] = (),
                 complete: bool = True, nodes: int = 0):
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def solutions(self) -> tuple[Assignment, ...]:  # built anew on every read
        return tuple(Assignment(dict(zip(self.names, row))) for row in self.rows)


# --------------------------------------------------------------------------
# Helpers called by the generated search (and _div, _pow from passes)

def _ordered(op: str, a, b) -> bool:
    # called only when an operand is a set, once both are evaluated
    raise CompileError(f"sets cannot be compared with '{op}'")


class _Stop(Exception):
    """Raised by the generated search when a limit ends it early; its one
    argument is the node count."""


# --------------------------------------------------------------------------
# Generating the search as Python source

# CPython rejects more than 20 statically nested blocks, so one generated
# function runs at most this many loops and calls the next for the rest.
_LOOPS_PER_FUNCTION = 16
# Expression levels emitted inline before a subtree moves into a helper
# function.  A level opens at most three brackets, which keeps the source
# within the tokenizer's 200 nested brackets and the compiler's recursion
# limit.  Python's own tree is left-deep for + - *, so each operand of a
# sum or product after the first counts one level.
_MAX_DEPTH = 48
# The largest domain, in values, whose loop is filtered through support
# masks (see _Masks): its table VALS<j> holds one tuple per subset.
_MAX_MASKED = 12
# The most two-variable tables one search builds (see _Masks): each costs
# about as much to compile as hundreds of nodes, whatever the search's size.
# 11-queens, the largest within MAX_SEARCH_SPACE, has 55.
_MAX_TABLES = 64

_ARITH = {"+": " + ", "-": " - ", "*": " * "}
_SET_OPS = {"intersect": " & ", "union": " | "}
_COMPARE = {"=": " == ", "!=": " != ", "<=": " <= ", ">=": " >= ", "<": " < ", ">": " > "}
_ORDERED = {op: repr(op) for op in ("<=", ">=", "<", ">")}
_LINEAR_OPS = ("=", "<=", ">=", "<", ">")


class _Writer:
    """Python source for the constraints of one flat program.

    Variable i is the local ``v<i>``.  Values other than small ints and
    bools (rationals, frozensets, math functions) are bound to names in
    the namespace the source runs in, so no name or string read from the
    input reaches the source text.  ``raises`` says whether evaluating
    anything written might raise, by the rule the module docstring states.
    """

    def __init__(self, program: FlatProgram):
        self.index = {v.name: i for i, v in enumerate(program.vars)}
        self.set_vars = {i for i, v in enumerate(program.vars) if v.kind == "set"}
        self.constants: dict[str, object] = {}
        self.helpers: list[str] = []
        self.used: set[int] = set()
        self.raises = bool(self.set_vars)

    def condition(self, c: ir.Expression) -> tuple[str, set[int]]:
        """Source testing constraint c, and the indexes of the variables
        it reads."""
        self.used = set()
        return self.emit(c, 0, True)[0], self.used

    def constant(self, value) -> tuple[str, bool]:
        name = f"k{len(self.constants)}"
        self.constants[name] = value
        return name, isinstance(value, frozenset)

    def helper(self, e: ir.Expression, cond: bool) -> tuple[str, bool]:
        """Move e into a function of the variables it reads; the call
        evaluates e exactly where the inline source would."""
        outer, self.used = self.used, set()
        body, is_set = self.emit(e, 0, cond)
        call = self.function(body)
        self.used |= outer
        return call, is_set

    def function(self, body: str) -> str:
        """The call of a new function returning body, of the variables read
        since self.used was last emptied."""
        params = ", ".join(f"v{i}" for i in sorted(self.used))
        name = f"h{len(self.helpers)}"
        self.helpers.append(f"def {name}({params}):\n    return {body}\n")
        return f"{name}({params})"

    def chain(self, e: ir.AlgChain, depth: int) -> tuple[str, bool]:
        """Source for a sum or product whose operands sit at depth, nested
        as Python's left-deep binary nodes: the operand k places from the
        end sits k levels deeper.  A source at depth holds operands up to
        _MAX_DEPTH; a long chain's first terms move, in runs, into helpers
        whose bodies hold _MAX_DEPTH + 1 operands, the first the call of the
        helper before.  No helper emits another's terms: the recursion stays
        flat however long the chain."""
        terms, ops, n = e.terms, e.ops, len(e.terms)
        top = max(_MAX_DEPTH - depth + 2, 2)  # operands the source at depth holds
        # where each run of terms ends: the first run has 2 to _MAX_DEPTH + 1
        edges = sorted(range(n - top + 1, 1, -_MAX_DEPTH)) if n > top else []
        outer, self.used = self.used, set()
        src, is_set, start = None, False, 0
        for stop in edges + [n]:
            base = depth if stop == n else 1  # a helper's body starts at 0
            k = stop - start + (start > 0)  # operands of this source
            for i in range(start, stop):
                j = k - (stop - i)  # i's place among them
                term, term_set = self.emit(terms[i], base + (k - 1 - j if j else k - 2))
                if src is None:
                    src, is_set = term, term_set
                else:
                    op = ops[i - 1]
                    src, is_set = f"({src}{_ARITH[op]}{term})", op == "-" and (is_set or term_set)
            if stop < n:
                src = self.function(src)
            start = stop
        self.used |= outer
        return src, is_set

    def emit(self, e: ir.Expression, depth: int = 0, cond: bool = False) -> tuple[str, bool]:
        """Source for e, bracketed unless it is a name, literal or call,
        and whether its value may be a set.

        With cond, only the truth of the source must match e's value, which
        spares the connectives a bool() call.  One Python frame per level,
        because flat constraints can be thousands of levels deep."""
        if depth > _MAX_DEPTH:
            return self.helper(e, cond)
        depth += 1
        if isinstance(e, ir.VarOccurrence):
            i = None if e.indexes else self.index.get(e.name)
            if i is None:
                raise CompileError(f"'{e.name}' is not a flat variable")
            self.used.add(i)
            return f"v{i}", i in self.set_vars
        if isinstance(e, ir.IntValue):
            if type(e.v) is not int or abs(e.v) >= _SMALL_INT:
                self.raises |= type(e.v) is not int
                return self.constant(e.v)
            return str(e.v) if e.v >= 0 else f"({e.v})", False
        if isinstance(e, ir.BoolValue):
            if type(e.value) is not bool:
                self.raises = True
                return self.constant(e.value)
            return "True" if e.value else "False", False
        if isinstance(e, ir.RealValue):
            self.raises = True
            return self.constant(e.v)  # a double, as foldConstants computes with it
        if isinstance(e, ir.SetValue):
            self.raises = True
            elems = "".join(f"int({self.emit(x, depth)[0]}), " for x in e.elems)
            return f"frozenset(({elems}))", True
        if isinstance(e, ir.SetFunction):
            self.raises = True
            return f"len({self.emit(e.arg, depth)[0]})", False
        if isinstance(e, ir.AlgUnaryOp):
            sign = "-" if e.op == "neg" else "+"
            return f"({sign}{self.emit(e.operand, depth)[0]})", False
        if isinstance(e, ir.AlgFunction):
            self.raises |= e.fn != "abs"
            if e.fn in ("min", "max"):
                fn = "min" if e.fn == "min" else "max"
                if len(e.args) > 2:
                    # min(a, b, c) as min(min(a, b), c): the same comparisons
                    # after the same evaluations, so the same error comes first
                    head, head_set = self.emit(ir.AlgFunction(e.fn, e.args[:-1]), depth)
                    last, last_set = self.emit(e.args[-1], depth)
                    return f"{fn}({head}, {last})", head_set or last_set
                args = [self.emit(a, depth) for a in e.args]
                items = "".join(f"{src}, " for src, _ in args)
                src = f"{fn}({items[:-2]})" if len(args) == 2 else f"{fn}(({items}))"
                return src, any(is_set for _, is_set in args)
            # only the first argument is evaluated, but an unknown variable
            # in any of them is an error and places the check
            args = [self.emit(a, depth)[0] for a in e.args]
            if e.fn == "abs":
                return f"abs({args[0]})", False
            fn = self.constant(getattr(math, e.fn))[0]
            return f"{fn}(float({args[0]}))", False
        if isinstance(e, ir.BoolUnaryOp):
            return f"(not {self.emit(e.operand, depth, True)[0]})", False
        if isinstance(e, ir.AlgChain):
            return self.chain(e, depth)
        if isinstance(e, ir.AlgBinaryOp):
            self.raises = True
            left, right = self.emit(e.left, depth)[0], self.emit(e.right, depth)[0]
            return f"{'_div' if e.op == '/' else '_pow'}({left}, {right})", False
        if isinstance(e, ir.SetBinaryOp):
            self.raises = True
            left, right = self.emit(e.left, depth)[0], self.emit(e.right, depth)[0]
            return f"({left}{_SET_OPS.get(e.op, ' - ')}{right})", True
        if isinstance(e, ir.BoolBinaryOp):
            if e.op in _COMPARE:
                left, left_set = self.emit(e.left, depth)
                right, right_set = self.emit(e.right, depth)
                if e.op in _ORDERED and (left_set or right_set):
                    return f"_ordered({_ORDERED[e.op]}, {left}, {right})", False
                return f"({left}{_COMPARE[e.op]}{right})", False
            left, right = self.emit(e.left, depth, True)[0], self.emit(e.right, depth, True)[0]
            if e.op == "implies":
                return (f"(not {left} or {right})" if cond else f"bool(not {left} or {right})"), False
            return f"((not {left}) == (not {right}))", False  # iff
        if isinstance(e, ir.BoolChain):  # one flat Python operation however many terms
            parts = []
            for x in e.terms:
                parts.append(self.emit(x, depth, True)[0])
            src = f" {e.op} ".join(parts)
            return (f"({src})" if cond else f"bool({src})"), False
        raise CompileError(f"cannot evaluate {type(e).__name__} in the oracle")


def _int_literal(e: ir.Expression) -> int | None:
    """The value of an int literal under any signs, or None."""
    sign = 1
    while type(e) is ir.AlgUnaryOp:
        sign = -sign if e.op == "neg" else sign
        e = e.operand
    return sign * e.v if type(e) is ir.IntValue and type(e.v) is int else None


def _linear(c: ir.Expression, index: dict[str, int]) -> tuple[str, dict[int, int], int] | None:
    """c as ``(op, {variable index: coefficient}, k)``, meaning the sum of
    coefficient * variable ``op`` k, when both sides of the comparison c
    are linear; repeated variables are merged and zero coefficients
    dropped."""
    if type(c) is not ir.BoolBinaryOp or c.op not in _LINEAR_OPS:
        return None
    coefs: dict[int, int] = {}
    left = _add_linear(c.left, 1, coefs, index)
    right = None if left is None else _add_linear(c.right, -1, coefs, index)
    if right is None:
        return None
    return c.op, {i: a for i, a in coefs.items() if a}, -(left + right)


def _add_linear(e: ir.Expression, m: int, coefs: dict[int, int], index: dict[str, int]) -> int | None:
    """Add m times the coefficient of each variable of e to coefs; m times
    the constant of e, or None when e is not linear.  A product is linear
    when every factor after the second is an int literal, and one of the
    first two is."""
    t = type(e)
    if t is ir.VarOccurrence:
        i = index[e.name]
        coefs[i] = coefs.get(i, 0) + m
        return 0
    if t is ir.IntValue and type(e.v) is int:
        return m * e.v
    if t is ir.AlgUnaryOp:
        return _add_linear(e.operand, -m if e.op == "neg" else m, coefs, index)
    if t is not ir.AlgChain:
        return None
    terms = e.terms
    if e.ops[0] != "*":
        k = 0
        for op, x in zip(("+",) + e.ops, terms):
            more = _add_linear(x, -m if op == "-" else m, coefs, index)
            if more is None:
                return None
            k += more
        return k
    for x in terms[2:]:
        lit = _int_literal(x)
        if lit is None:
            return None
        m *= lit
    lit, other = _int_literal(terms[0]), terms[1]
    if lit is None:
        lit, other = _int_literal(terms[1]), terms[0]
    return None if lit is None else _add_linear(other, m * lit, coefs, index)


def _term(coef: int, x: str) -> str:
    return x if coef == 1 else f"-{x}" if coef == -1 else f"{coef} * {x}"


class _Bounds:
    """Pruning code for the linear constraints of one program.

    A constraint ``sum c_i * v_i op k`` gets, at the depth of each of its
    variables but the last, a conjunct that binds the partial sum so far to
    the local ``a<c>_<i>`` and fails when no values of the remaining
    variables, taken anywhere in their domains, can satisfy the
    constraint.  An equality whose last variable is an int with
    coefficient +-1 forces that variable: ``forced`` holds the source of
    the value the partial sum leaves, which is bound only if the domain
    holds it (see _Masks.forced_test), and the constraint needs no check
    of its own.

    When the equation's second-to-last variable v<p> is an int with
    coefficient +-1 too, and a partial sum S precedes it, ``joins[p]``
    holds ``(L, flip, d, s)`` for the forced last variable v<L>: the value
    at bit b of v<p>'s mask forces the value at bit ``b - (d + s)`` of
    v<L>'s mask, counted from its top bit down if flip, where s is the
    source of S or -S.  _Masks turns it into a filter of v<p>'s loop.
    (Without S, the equation is over two variables, and a table holds it
    whenever both are masked and have three values or more.)
    """

    def __init__(self, program: FlatProgram):
        self.vars = program.vars
        n = len(program.vars)
        self.tests: list[list[str]] = [[] for _ in range(n)]
        self.forced: list[str | None] = [None] * n  # source of a forced value
        self.reads: list[set[str]] = [set() for _ in range(n)]  # partial sums read
        self.sums: dict[str, list[tuple[int, int]]] = {}  # partial sum -> its terms
        self.joins: dict[int, tuple[int, bool, int, str]] = {}

    def _range(self, coef: int, i: int) -> tuple[int, int]:
        v = self.vars[i]
        lo, hi = (v.lo, v.hi) if v.kind == "int" else (0, 1)
        return (coef * lo, coef * hi) if coef > 0 else (coef * hi, coef * lo)

    def add(self, c: int, op: str, coefs: dict[int, int], k: int) -> bool:
        """Emit the tests for constraint c; True when it forces a value
        and so needs no check."""
        order = sorted(coefs)
        ranges = [self._range(coefs[i], i) for i in order]
        numbers = [k, *coefs.values(), *(x for r in ranges for x in r)]
        if max(abs(x) for x in numbers) * (len(order) + 1) >= _SMALL_INT:
            return False  # keep the generated literals small
        rest_lo = sum(r[0] for r in ranges)
        rest_hi = sum(r[1] for r in ranges)
        prev = before = None  # the partial sums through v<p> and before it
        for j, i in enumerate(order[:-1]):
            rest_lo -= ranges[j][0]
            rest_hi -= ranges[j][1]
            name = f"a{c}_{i}"
            if prev is None:
                expr = f"({name} := {_term(coefs[i], f'v{i}')})"
            else:
                expr = f"({name} := {prev} + {_term(coefs[i], f'v{i}')})"
                self.reads[i].add(prev)
            self.sums[name] = [(coefs[x], x) for x in order[: j + 1]]
            low = k - rest_hi + (op == ">") if op in ("=", ">=", ">") else None
            high = k - rest_lo - (op == "<") if op in ("=", "<=", "<") else None
            test = expr if low is None else f"{low} <= {expr}"
            self.tests[i].append(test if high is None else f"{test} <= {high}")
            before, prev = prev, name
        last = order[-1]
        v = self.vars[last]
        if op != "=" or abs(coefs[last]) != 1 or v.kind != "int" or self.forced[last] is not None:
            return False
        if prev is None:
            self.forced[last] = str(k * coefs[last])
        else:
            self.reads[last].add(prev)
            self.forced[last] = f"{k} - {prev}" if coefs[last] == 1 else f"{prev} - {k}"
            p = order[-2]
            if before and abs(coefs[p]) == 1 and self.vars[p].kind == "int" and p not in self.joins:
                # v<L> = cl * (k - S - cp * v<p>), S the partial sum before v<p>;
                # S passed its bounds test, so d is at least 1 - v<L>'s width
                cl, lo = coefs[last], self.vars[p].lo
                flip = coefs[p] == cl  # v<L>'s value falls as v<p>'s rises
                d, s = (cl * k - v.hi - lo, -cl) if flip else (v.lo - lo - cl * k, cl)
                self.joins[p] = (last, flip, d, _term(s, before))
        return True

    def rebuild(self, start: int, stop: int) -> list[str]:
        """Statements that recompute from P, the earlier values, the partial
        sums that loops start..stop-1 read but earlier loops bound."""
        lines = []
        for name in sorted(set().union(*self.reads[start:stop])):
            terms = self.sums[name]
            if terms[-1][1] < start:
                items = ", ".join(_term(coef, f"P[{i}]") for coef, i in terms)
                lines.append(f"    {name} = sum(({items},))")  # flat, however many terms
        return lines


def _mask(test, values) -> int:
    """The mask of the values that pass test: bit b stands for values[b]."""
    return sum(1 << b for b, x in enumerate(values) if test(x))


def _support(test, xs, ys, pad: int, within: int) -> tuple[int, ...]:
    """Per x, after pad entries that no value reads, the mask of the ys
    that pass test(x, y), within the mask given."""
    return (0,) * pad + tuple(_mask(functools.partial(test, x), ys) & within for x in xs)


def _reversal(width: int) -> list[int]:
    """Indexed by mask, that mask's width bits in reverse order."""
    table = [0]
    for b in range(width):  # bit b turns into bit width - 1 - b
        table += [m | 1 << width - 1 - b for m in table]
    return table


def _subsets(values) -> list[tuple]:
    """Indexed by mask, the values whose bits are set, in domain order."""
    table = [()]
    for x in values:
        table += [t + (x,) for t in table]
    return table


class _Masks:
    """Forward checking through support masks, for the one- and
    two-variable constraints of a program that cannot raise, over int and
    bool variables of at most _MAX_MASKED values.

    Bit b of a mask over variable j stands for the b-th value of its
    domain.  The constraints over v<j> alone fold into the constant mask
    ``U<j>``; those over v<i> and v<j>, i < j, into the table ``T<i>_<j>``,
    which maps each value of v<i> to the mask of the v<j> values that
    satisfy them with it (the first table of j also holds U<j>).  The
    tables are built once per search, before the first loop, by evaluating
    the constraints over the domains; that is safe only because no
    constraint can raise.

    A table costs its compile whatever the search's size, so a search
    builds at most _MAX_TABLES of them, for the first pairs in program
    order, and none over two variables of at most two values each: there
    a mask drops at most the one value that the check would reject a node
    later.  A constraint over a pair without a table is checked instead.

    Once v<i> is bound, ``m<i>_<j>`` is j's mask so far ANDed with
    ``T<i>_<j>[v<i>]``, for every later j; the value is rejected when one
    of these is empty.  Loop j binds only the values whose bits its mask
    keeps, in domain order, looked up in ``VALS<j>``; a forced value is
    bound only if its bit is set.  So a value a mask excludes is never
    bound, and never counted as a node.
    """

    def __init__(self, program: FlatProgram, prune: bool):
        self.vars = program.vars
        self.masked = {
            i
            for i, v in enumerate(program.vars)
            if prune and (v.kind == "bool" or v.kind == "int" and v.hi - v.lo < _MAX_MASKED)
        }
        self.two_valued = {i for i in self.masked if program.vars[i].kind == "bool"
                           or program.vars[i].hi - program.vars[i].lo < 2}  # or one
        self.unary: dict[int, list[str]] = {}
        self.pairs: dict[tuple[int, int], list[str]] = {}
        self.before: dict[int, set[int]] = {}  # j -> each i with a table T<i>_<j>
        self.after: dict[int, set[int]] = {}  # i -> each j with a table T<i>_<j>

    def add(self, src: str, used: set[int]) -> bool:
        """Fold the constraint with source src into a mask; False when it
        reads more than two variables or one that is not masked, or would
        need a table that the search does not build."""
        if len(used) > 2 or not used <= self.masked:
            return False
        if len(used) == 1:
            self.unary.setdefault(min(used), []).append(src)
        else:
            i, j = sorted(used)
            new = (i, j) not in self.pairs
            if new and (used <= self.two_valued or len(self.pairs) >= _MAX_TABLES):
                return False
            self.pairs.setdefault((i, j), []).append(src)
            self.before.setdefault(j, set()).add(i)
            self.after.setdefault(i, set()).add(j)
        return True

    def _tables(self, j: int) -> list[int]:
        """Each i with a table T<i>_<j>, in order."""
        return sorted(self.before.get(j, ()))

    def _pad(self, i: int) -> int:
        """Unused entries that start a table T<i>_<j>, so that v<i>'s value
        itself is the index: one per value below the lowest of its domain,
        if there are few."""
        v = self.vars[i]
        return v.lo if v.kind == "int" and 0 <= v.lo <= _MAX_MASKED else 0

    def _index(self, i: int) -> str:
        """Source of the position of v<i>'s value in a table T<i>_<j>."""
        v = self.vars[i]
        shift = (v.lo if v.kind == "int" else 0) - self._pad(i)
        return f"v{i} - {shift}" if shift > 0 else f"v{i} + {-shift}" if shift < 0 else f"v{i}"

    def settle(self, bounds: _Bounds):
        """Take the values bounds forces, and its joins over two masked
        variables whose v<p> keeps its loop."""
        self.forced = bounds.forced
        self.joins = {p: join for p, join in bounds.joins.items()
                      if self.forced[p] is None and {p, join[0]} <= self.masked}

    def _width(self, j: int) -> int:
        return self.vars[j].hi - self.vars[j].lo + 1

    def prelude(self) -> list[str]:
        """Module-level statements that build the masks and tables."""
        lines = []
        for j, srcs in sorted(self.unary.items()):
            lines.append(f"U{j} = _mask(lambda v{j}: {' and '.join(srcs)}, DOMAINS[{j}])")
        for (i, j), srcs in sorted(self.pairs.items()):
            first = min(self.before[j]) == i
            within = f"U{j}" if first and j in self.unary else "-1"
            test = f"lambda v{i}, v{j}: {' and '.join(srcs)}"
            lines.append(
                f"T{i}_{j} = _support({test}, DOMAINS[{i}], DOMAINS[{j}], {self._pad(i)}, {within})"
            )
        shared: dict[tuple, int] = {}
        for j in self._looped(0, len(self.vars)):
            v = self.vars[j]
            first = shared.setdefault((v.kind, v.lo, v.hi), j)
            lines.append(f"VALS{j} = " + (f"VALS{first}" if first != j else f"_subsets(DOMAINS[{j}])"))
        lines += [f"REV{w} = _reversal({w})" for w in sorted(self._reversed(0, len(self.vars)))]
        return lines

    def _looped(self, start: int, stop: int) -> list[int]:
        """The variables among start..stop-1 whose loops read VALS<j>."""
        return [
            j
            for j in range(start, stop)
            if self.forced[j] is None and (j in self.unary or j in self.before or j in self.joins)
        ]

    def _joined(self, start: int, stop: int) -> list[tuple]:
        """The joins of loops start..stop-1."""
        return [self.joins[p] for p in range(start, stop) if p in self.joins]

    def _reversed(self, start: int, stop: int) -> set[int]:
        """The widths of the masks that joins of loops start..stop-1 read
        reversed, through ``REV<width>``."""
        return {self._width(L) for L, flip, *_ in self._joined(start, stop) if flip}

    def hoisted(self, start: int, stop: int) -> list[str]:
        """The module-level names that loops start..stop-1 read, which the
        function running them binds as locals, in lower case."""
        tables = [f"T{i}_{j}" for i in range(start, stop) for j in sorted(self.after.get(i, ()))]
        return (tables + [f"VALS{j}" for j in self._looped(start, stop)]
                + [f"REV{w}" for w in sorted(self._reversed(start, stop))])

    def rebuild(self, start: int, stop: int) -> tuple[list[str], set[int]]:
        """Statements that recompute from the earlier values the masks that
        loops start..stop-1 read but earlier loops computed, and the
        indexes of those values."""
        lines, reads, joined = [], set(), {L for L, *_ in self._joined(start, stop)}
        for j in sorted(x for x in self.before if x >= start):
            tables = self._tables(j)
            old = [i for i in tables if i < start]
            if old and (j < stop or j in joined or any(start <= i < stop for i in tables)):
                terms = " & ".join(f"T{i}_{j}[{self._index(i)}]" for i in old)
                lines.append(f"    m{old[-1]}_{j} = {terms}")
                reads.update(old)
        return lines, reads

    def _current(self, j: int, upto: int) -> str | None:
        """j's mask once the values before v<upto> are bound."""
        prior = [i for i in self._tables(j) if i < upto]
        return f"m{prior[-1]}_{j}" if prior else None

    def _known(self, j: int, upto: int) -> str | None:
        """_current, or the constant mask U<j>; None for all of j's domain."""
        return self._current(j, upto) or (f"U{j}" if j in self.unary else None)

    def updates(self, i: int) -> list[str]:
        """Conjuncts that narrow the masks of the later variables by the
        value of v<i>, each false when it leaves no value."""
        out = []
        for j in sorted(self.after.get(i, ())):
            prior = self._current(j, i)
            table = f"t{i}_{j}[{self._index(i)}]"
            out.append(f"(m{i}_{j} := {prior} & {table})" if prior else f"(m{i}_{j} := {table})")
        return out

    def forced_test(self, j: int) -> str:
        """Source binding the forced value of v<j> to ``f<j>``, true when
        the domain holds it and its mask keeps it."""
        mask, v = self._known(j, j), self.vars[j]
        test = f"{v.lo} <= (f{j} := {self.forced[j]}) <= {v.hi}"
        if mask:
            shift = f"(f{j} - {v.lo})" if v.lo else f"f{j}"
            test += f" and {mask} >> {shift} & 1"
        return test

    def loop(self, j: int) -> str:
        """Source of what loop j iterates over."""
        if self.forced[j] is not None:
            return f"(f{j},) if {self.forced_test(j)} else ()"
        mask = self._known(j, j)
        if j in self.joins:
            # only the values whose forced partner v<L>'s mask keeps, as it
            # stands before v<j> binds: v<L>'s own test rejects the others
            L, flip, d, s = self.joins[j]
            width = self._width(L)
            partner = self._known(L, j) or str((1 << width) - 1)
            if flip:
                partner = f"rev{width}[{partner}]"
            own = mask or (1 << self._width(j)) - 1
            # a shift by d + s, as two that are never negative
            mask = f"{own} & ({partner} << {d + width} + {s}) >> {width}"
        return f"vals{j}[{mask}]" if mask else f"D[{j}]"


def _search_source(program: FlatProgram,
                   project: list[int] | None = None) -> tuple[str, dict, dict]:
    """Source defining ``s0(P, nodes)``, the whole search, plus the
    constants it reads and, per line of the source that checks
    constraints, the (index, source) of each constraint it fuses.

    Every constraint is written first, and the writer says whether any may
    raise (see _Writer); then each is placed as a mask, a bounds test or a
    check.  Each variable gets one loop, in declaration order.  When no
    constraint may raise, the constraints over one or two small-domain
    variables filter the values a loop binds (see _Masks).  After each
    value the node counter is checked against MAX_NODES, then every other
    constraint whose last variable is that one, fused into one ``and`` in
    program order, followed by the bounds tests of the linear constraints
    (see _Bounds) and the mask updates when no constraint may raise.
    Constraints over no variable are checked once before the first loop.
    ``s<k>`` runs the loops of the k-th run of _LOOPS_PER_FUNCTION
    variables and receives the earlier values as the tuple P.  It returns
    the node count; a limit raises Stop instead.

    A forced value is bound by an ``if``, not a loop of one value, where
    the function has an enclosing loop for its checks to ``continue``.

    Only the leaf, the line after the last loop, and the start of ``s0``
    depend on project.  Without it, the leaf appends the values to ``OUT``.
    With it, the leaf counts the solution in ``ROWS``.  When no constraint
    may raise and project orders all the variables, each solution is its
    own row, so nothing more is built: ``s0`` first sets ``HITS`` to the
    number of rows of the set ``BASE``, read as the values of the variables
    project indexes, in that order, that pass every domain and every
    constraint.  Otherwise the leaf builds that row: one in ``BASE`` goes
    to ``HIT``, a bound ``add``; any other becomes ``MISS``.  Either way a
    limit of MAX_SOLUTIONS rows stops the search.
    """
    writer = _Writer(program)
    written = [writer.condition(c) for c in program.constraints]
    prune = not writer.raises
    bounds = _Bounds(program)
    masks = _Masks(program, prune)
    n = len(program.vars)
    checks: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    reads: list[set[int]] = [set() for _ in range(n)]
    constant_checks: list[tuple[int, str]] = []
    for c, (src, used) in enumerate(written):
        if not used:
            constant_checks.append((c, src))
            continue
        if masks.add(src, used):
            continue
        linear = _linear(program.constraints[c], writer.index) if prune else None
        if linear is not None and linear[1] and bounds.add(c, *linear):
            continue
        last = max(used)
        checks[last].append((c, src))
        reads[last] |= used
    masks.settle(bounds)
    counted = prune and project is not None and sorted(project) == list(range(n))

    lines: list[str] = masks.prelude()
    fused: dict[int, list[tuple[int, str]]] = {}  # index in lines -> its checks
    for k, start in enumerate(range(0, max(n, 1), _LOOPS_PER_FUNCTION)):
        stop = min(start + _LOOPS_PER_FUNCTION, n)
        lines += [f"def s{k}(P, nodes):", "    D = DOMAINS", "    max_nodes = MAX_NODES"]
        lines += [f"    {name.lower()} = {name}" for name in masks.hoisted(start, stop)]
        rebuilt, masks_read = masks.rebuild(start, stop)
        earlier = masks_read.union(*reads[start:stop])
        lines += [f"    v{i} = P[{i}]" for i in sorted(earlier) if i < start]
        lines += bounds.rebuild(start, stop) + rebuilt
        if k == 0 and counted:
            row = "".join(f"v{i}, " for i in project)
            tests = [f"v{i} in {writer.constant(range(v.lo, v.hi + 1))[0]}" if v.kind == "int"
                     else f"v{i} in (False, True)" for i, v in enumerate(program.vars)]
            test = " and ".join(tests + [src for src, _ in written]) or "True"
            lines += ["    global HITS", f"    HITS = sum(1 for ({row}) in BASE if {test})"]
        if k == 0 and constant_checks:
            fused[len(lines)] = constant_checks
            test = " and ".join(src for _, src in constant_checks)
            lines.append(f"    if not ({test}): return nodes")
        pad = "    "
        for i in range(start, stop):
            if bounds.forced[i] is not None and i > start:
                lines += [f"{pad}if {masks.forced_test(i)}:", f"{pad}    v{i} = f{i}"]
            else:
                lines.append(f"{pad}for v{i} in {masks.loop(i)}:")
            pad += "    "
            lines.append(f"{pad}nodes += 1")
            lines.append(f"{pad}if nodes > max_nodes: raise Stop(nodes)")
            tests = [src for _, src in checks[i]] + bounds.tests[i] + masks.updates(i)
            if tests:
                fused[len(lines)] = checks[i]
                lines.append(f"{pad}if not ({' and '.join(tests)}): continue")
        own = "".join(f"v{i}, " for i in range(start, stop))
        values = f"({own})" if k == 0 else f"P + ({own})"
        if stop < n:
            lines.append(f"{pad}nodes = s{k + 1}({values}, nodes)")
        elif project is None:
            lines.append(f"{pad}OUT.append({values})")
            lines.append(f"{pad}if len(OUT) >= MAX_SOLUTIONS: raise Stop(nodes)")
        elif counted:
            lines += [f"{pad}global ROWS", f"{pad}ROWS += 1",
                      f"{pad}if ROWS >= MAX_SOLUTIONS: raise Stop(nodes)"]
        else:
            row = "".join(f"v{i}, " if i >= start else f"P[{i}], " for i in project)
            lines += [
                f"{pad}global ROWS, MISS",
                f"{pad}ROWS += 1",
                f"{pad}if (row := ({row})) in BASE: HIT(row)",
                f"{pad}else: MISS = row",
                f"{pad}if ROWS >= MAX_SOLUTIONS: raise Stop(nodes)",
            ]
        lines.append("    return nodes")
    first = sum(h.count("\n") + 1 for h in writer.helpers) + 1  # line number of lines[0]
    fused = {first + at: checked for at, checked in fused.items()}
    return "\n".join(writer.helpers + lines) + "\n", writer.constants, fused


def domain_values(v: FlatVar) -> list:
    """Candidate values in canonical order (sets: by cardinality, then
    lexicographic membership)."""
    if v.kind == "int":
        return list(range(v.lo, v.hi + 1))
    if v.kind == "bool":
        return [False, True]
    universe = list(range(v.lo, v.hi + 1))
    if len(universe) > MAX_SET_UNIVERSE:
        raise OracleLimitError(
            f"set universe of '{v.name}' has {len(universe)} elements "
            f"(limit {MAX_SET_UNIVERSE})"
        )
    out = []
    for k in range(len(universe) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(universe, k))
    return out


def _canonical_key(program: FlatProgram, domains: list[list]):
    """Sort key that puts value rows in canonical order: by value in sorted
    variable-name order, each value ranked by its place in domain_values.
    None when the variables are declared in sorted name order, because the
    search then yields that order already."""
    names = [v.name for v in program.vars]
    order = sorted(range(len(names)), key=names.__getitem__)
    if order == list(range(len(names))):
        return None
    get = operator.itemgetter(*order)  # two variables at least: a tuple
    ranks = [
        {s: r for r, s in enumerate(domains[i])} if program.vars[i].kind == "set" else None
        for i in order
    ]
    if not any(ranks):  # ints and bools rank as their own values
        return get
    return lambda row: tuple(
        value if rank is None else rank[value] for rank, value in zip(ranks, get(row))
    )


# What evaluating a constraint in the search can raise: a math domain or
# range error, a complex power (ValueError), an operator or function
# applied to a value of the wrong type, such as a set in arithmetic or a
# number given to card (TypeError; parse_flat reads untyped text), or what
# _div, _pow and _ordered refuse (CompileError: division by zero, zero to
# a negative power, sets compared by order).
_EVALUATION_ERRORS = (ValueError, ArithmeticError, TypeError, CompileError)


def _search(program: FlatProgram, project: list[int] | None, names: dict,
            max_solutions: int, max_nodes: int) -> tuple[list[list], int, bool, dict]:
    """Run the search _search_source writes for program and project in a
    namespace that also binds names.  Returns the domains, the node count,
    whether no limit stopped the search, and the final value of each of
    names."""
    # an int range is sized before it is listed: it may be too long to list
    domains = [None if v.kind == "int" else domain_values(v) for v in program.vars]
    space = 1
    for v, d in zip(program.vars, domains):
        space *= max(v.hi - v.lo + 1, 0) if d is None else len(d)
        if space > MAX_SEARCH_SPACE:
            raise OracleLimitError(
                f"search space exceeds 2^40 ({len(program.vars)} variables)"
            )
    domains = [domain_values(v) if d is None else d for v, d in zip(program.vars, domains)]

    source, constants, fused = _search_source(program, project)
    namespace = dict(
        constants,
        DOMAINS=domains,
        MAX_NODES=max_nodes, MAX_SOLUTIONS=max_solutions, Stop=_Stop,
        _div=_div, _pow=_pow, _ordered=_ordered,
        _mask=_mask, _support=_support, _subsets=_subsets, _reversal=_reversal,
        **names,
    )
    try:
        exec(compile(source, "<oracle search>", "exec"), namespace)
        nodes, complete = namespace["s0"]((), 0), True
    except _Stop as stop:
        nodes, complete = stop.args[0], False
    except _EVALUATION_ERRORS as exc:
        what = _raising_constraint(program, fused, namespace, exc)
        message = exc.message if isinstance(exc, CompileError) else exc
        raise CompileError(f"the oracle cannot evaluate {what}: {message}") from None
    finally:
        final = {name: namespace[name] for name in names}
        # each generated function's globals are this namespace: a cycle
        # that would keep what the leaf fills alive until the cyclic
        # collector runs
        namespace.clear()
    return domains, nodes, complete, final


def enumerate_solutions(
    program: FlatProgram,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> SolutionSet:
    """Exhaustive backtracking search; exact unless a limit triggers."""
    rows: list[tuple] = []
    domains, nodes, complete, _ = _search(program, None, {"OUT": rows}, max_solutions, max_nodes)
    key = _canonical_key(program, domains)
    if key is not None:
        rows.sort(key=key)
    return SolutionSet(tuple(v.name for v in program.vars), tuple(rows), complete, nodes)


def _raising_constraint(program: FlatProgram, fused: dict, namespace: dict, exc) -> str:
    """The first constraint fused on the generated line that raised exc
    which raises alone, with the values of that line's frame."""
    tb, frame, line = exc.__traceback__, None, None
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == "<oracle search>" and tb.tb_lineno in fused:
            frame, line = tb.tb_frame, tb.tb_lineno
        tb = tb.tb_next
    for c, src in fused.get(line, ()):
        try:
            eval(src, namespace, dict(frame.f_locals))
        except _EVALUATION_ERRORS:
            from .printer import print_expression

            return f"the constraint {print_expression(program.constraints[c])}"


def _project(s: SolutionSet, names: list[str]) -> set:
    """s's rows projected onto names; one name projects to a bare value.
    An unknown name raises KeyError."""
    index = {name: i for i, name in enumerate(s.names)}
    at = [index[n] for n in names]
    if len(at) > 1 and at == list(range(len(s.names))):
        return set(s.rows)  # every name in order: the rows themselves
    return set(map(operator.itemgetter(*at) if at else (lambda row: ()), s.rows))


def compare_solutions(a: SolutionSet, b: SolutionSet, projection=None) -> str:
    """'equal' | 'subset' (a strictly within b) | 'superset' | 'incomparable',
    after projecting both sides onto the given variable names."""
    if not a.complete or not b.complete:
        raise OracleLimitError("cannot compare incomplete solution sets")
    if projection is None:
        pa = {tuple(sorted(s.values.items(), key=lambda kv: kv[0])) for s in a.solutions}
        pb = {tuple(sorted(s.values.items(), key=lambda kv: kv[0])) for s in b.solutions}
    else:
        names = list(projection)
        pa, pb = _project(a, names), _project(b, names)
    return _relation(pa <= pb, pa >= pb)


def _relation(within: bool, covers: bool) -> str:
    """The relation of a set to another it is within, covers, both or
    neither."""
    if within:
        return "equal" if covers else "subset"
    return "superset" if covers else "incomparable"


def compare_streaming(
    program: FlatProgram,
    baseline: SolutionSet,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[str, int]:
    """``compare_solutions(enumerate_solutions(program), baseline,
    baseline.names)`` and the number of program's solutions, without
    keeping them.

    The search projects each solution onto the baseline's variables, in
    their order, and looks the row up among the baseline's rows: the
    projected solutions are within the baseline when no row misses, and
    cover it when every baseline row is hit.  When the baseline's
    variables are all of program's and no constraint may raise, it counts
    the solutions and, apart, the baseline rows that are solutions (see
    _search_source): within when the two counts agree, covering when
    every baseline row is one.  Limits count as in
    enumerate_solutions.  Once the search has run, a limit that stopped it
    or the baseline raises OracleLimitError, as compare_solutions does.  A
    baseline variable that program lacks raises KeyError."""
    index = {v.name: i for i, v in enumerate(program.vars)}
    project = [index[name] for name in baseline.names]
    base, hits = set(baseline.rows), set()
    names = {"BASE": base, "HIT": hits.add, "ROWS": 0, "MISS": None, "HITS": None}
    _, _, complete, found = _search(program, project, names, max_solutions, max_nodes)
    if not complete or not baseline.complete:
        raise OracleLimitError("cannot compare incomplete solution sets")
    rows, counted = found["ROWS"], found["HITS"]
    if counted is None:  # each row was looked up
        return _relation(found["MISS"] is None, len(hits) == len(base)), rows
    return _relation(rows == counted, counted == len(base)), rows
