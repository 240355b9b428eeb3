import gc
import itertools
import math
import operator
import random
import re
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from pivotc import ir, oracle
from pivotc.errors import CompileError, OracleLimitError
from pivotc.flat import FlatProgram, FlatVar, lower_to_flat
from pivotc.oracle import compare_solutions, compare_streaming, enumerate_solutions, parse_flat
from pivotc.parser import SourceUnit, parse, parse_expression
from pivotc.passes import ALLDIFF_MODES, PassConfig, alldiff_rewrite, loop_unroll, run_pipeline

from conftest import parse_fixture
from helpers import gen_loop_model, gen_model, naive_enumerate

FULL = PassConfig(
    ("objectFlatten", "enumRemove", "foldConstants", "alldiffRewrite", "loopUnroll")
)
PRE = PassConfig(("objectFlatten", "enumRemove", "foldConstants"))


def _lowered(name, data=None, cfg=FULL):
    out, _ = run_pipeline(parse_fixture(name, data), cfg)
    return lower_to_flat(out)


def _lower_text(text, cfg=FULL):
    out, _ = run_pipeline(parse(SourceUnit(text)), cfg)
    return lower_to_flat(out)


# --------------------------------------------------------------------------
# basic enumeration

def test_two_variable_disequality():
    p = parse_flat("var int x in 1..2;\nvar int y in 1..2;\nconstraint x != y;\n")
    s = enumerate_solutions(p)
    assert s.complete
    assert [(a["x"], a["y"]) for a in s.solutions] == [(1, 2), (2, 1)]


def test_unsatisfiable_is_empty_and_complete():
    p = parse_flat("var int x in 1..2;\nconstraint x = 1;\nconstraint x = 2;\n")
    s = enumerate_solutions(p)
    assert s.complete and len(s) == 0


def test_four_queens_has_two_solutions():
    p = _lowered("queens4.som")
    s = enumerate_solutions(p)
    assert len(s) == 2
    naive = naive_enumerate(p)
    assert s.solutions == naive.solutions


@pytest.mark.parametrize("name,count", [("queens4.som", 2), ("queens5.som", 10), ("queens6.som", 4)])
def test_queens_counts_match_naive(name, count):
    p = _lowered(name)
    s = enumerate_solutions(p)
    assert len(s) == count
    assert s.solutions == naive_enumerate(p).solutions


def test_send_more_money_unique_solution():
    p = _lowered("send.som")
    s = enumerate_solutions(p)
    assert s.complete and len(s) == 1
    assert s.nodes < 3_500  # 3,177: bounds on the sum and masks on the disequalities prune
    a = s.solutions[0]
    assert (a["s"], a["e"], a["n"], a["d"]) == (9, 5, 6, 7)
    assert (a["m"], a["o"], a["r"], a["y"]) == (1, 0, 8, 2)


def test_set_enumeration_order_and_semantics():
    p = parse_flat(
        "var set of 1..2 s;\nconstraint card(s) >= 1;\n"
    )
    s = enumerate_solutions(p)
    assert [a["s"] for a in s.solutions] == [
        frozenset({1}), frozenset({2}), frozenset({1, 2}),
    ]
    assert s.solutions == naive_enumerate(p).solutions


def test_rational_division_is_exact():
    p = parse_flat("var int x in 1..3;\nconstraint 2 * (x / 3) = 2 / 3;\n")
    s = enumerate_solutions(p)
    assert [a["x"] for a in s.solutions] == [1]


def test_bools_participate_in_sums():
    p = parse_flat(
        "var bool a;\nvar bool b;\nconstraint a + b = 1;\n"
    )
    s = enumerate_solutions(p)
    assert [(x["a"], x["b"]) for x in s.solutions] == [(False, True), (True, False)]


# --------------------------------------------------------------------------
# oracle-of-the-oracle: naive cross-product filter agreement

@pytest.mark.parametrize(
    "text",
    [
        "var int x in 1..4;\nvar int y in 1..4;\nconstraint x + y = 5;\n",
        "var int x in -2..2;\nconstraint x * x <= 2;\n",
        "var set of 1..3 s;\nvar set of 1..3 t;\nconstraint card(s intersect t) = 1;\n",
        "var bool a;\nvar int x in 0..3;\nconstraint a implies x > 1;\nconstraint x != 2;\n",
        "var set of 1..4 s;\nconstraint s = {1,3} union {2};\n",
        "var int x in 1..4;\nvar int y in 1..4;\nconstraint x / y = 3 / 2;\n",
        "var int x in 1..3;\nvar int y in -2..2;\nconstraint x ^ y < 1;\n",
        "var int x in 1..3;\nvar int y in 1..3;\nconstraint min(x, y) + max(x, y) = 4;\n",
        "var int x in 0..9;\nconstraint sqrt(x) = 2;\n",
        "var set of 1..3 s;\nconstraint card(s diff {1}) = 1;\n",
        "var int x in 0..3;\nconstraint x * 0.5 = 1;\n",
        "var int x in -2..2;\nconstraint -x > +1;\n",
        "var bool a;\nvar bool b;\nconstraint (a iff b) or not a;\n",
        "var int x in 0..4;\nconstraint {x, x + 1} = {2, 3};\n",
    ],
)
def test_oracle_matches_naive_filter(text):
    p = parse_flat(text)
    assert enumerate_solutions(p).solutions == naive_enumerate(p).solutions


def test_golfers_small_matches_naive():
    p = _lowered("golfers.som", "golfers_small.dat")
    s = enumerate_solutions(p)
    assert s.solutions == naive_enumerate(p).solutions
    assert len(s) == 4  # two independent week partitions of {a,b} into singletons


# --------------------------------------------------------------------------
# bounds pruning and forced values, against the naive filter

@st.composite
def _linear_programs(draw):
    """Small programs of linear comparisons over int (and some bool)
    variables, declared in a random order: coefficients from -3 to 3,
    repeated variables and constants on both sides."""
    n = draw(st.integers(2, 4))
    names = [f"x{i}" for i in range(n)]
    decls = []
    for name in draw(st.permutations(names)):
        if draw(st.integers(0, 5)) == 0:
            decls.append(f"var bool {name};\n")
        else:
            lo = draw(st.integers(-3, 2))
            decls.append(f"var int {name} in {lo}..{lo + draw(st.integers(0, 4))};\n")

    def side():
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.integers(0, 3)) == 0:
                terms.append(str(draw(st.integers(-6, 6))))
            else:
                coef = draw(st.sampled_from([1, -1, 1, -1, 2, -2, 3, -3, 0]))
                name = draw(st.sampled_from(names))
                terms.append(name if coef == 1 else f"-{name}" if coef == -1 else f"{coef} * {name}")
        return " + ".join(terms)

    constraints = [
        f"constraint {side()} {draw(st.sampled_from(['=', '=', '=', '<=', '>=', '<', '>']))} {side()};\n"
        for _ in range(draw(st.integers(1, 3)))
    ]
    return "".join(decls + constraints)


@settings(max_examples=300, deadline=None)
@given(_linear_programs())
# the forced value of y, 5 - x, falls outside 0..2 for x = 1
@example("var int x in 1..3;\nvar int y in 0..2;\nconstraint x + y = 5;\n")
# y forced to 2 * x - 9 - 1, outside 0..4 for most x; then -y with coefficient -1
@example("var int x in 2..6;\nvar int y in 0..4;\nconstraint 2 * x - 9 = y + 1;\n")
@example("var int y in 0..4;\nvar int x in -2..2;\nconstraint 3 - x = -y + 2 * x;\n")
# a single-variable equality forces a constant, in or out of the domain
@example("var int x in 0..3;\nconstraint x + x - x = 2 + 5;\n")
def test_linear_programs_match_naive(text):
    p = parse_flat(text)
    s = enumerate_solutions(p)
    assert s.complete
    assert s.solutions == naive_enumerate(p).solutions


@st.composite
def _mask_programs(draw):
    """_linear_programs plus constraints over one or two variables that
    only support masks prune: ``abs(x - y) != k``, ``x != y``,
    ``not (x = y)``, ``x * y <= k`` and ``or``; x and y may be the same
    variable."""
    text = draw(_linear_programs())
    names = [v.name for v in parse_flat(text).vars]

    def shape():
        x, y = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        k = draw(st.integers(-3, 4))
        return draw(st.sampled_from([
            f"abs({x} - {y}) != {k}",
            f"{x} != {y}",
            f"not ({x} = {y})",
            f"{x} * {y} <= {k}",
            f"{x} < {k} or {y} = {k}",
        ]))

    extra = []
    for _ in range(draw(st.integers(1, 4))):
        c = shape()
        extra.append(f"constraint {c if draw(st.booleans()) else f'({c}) or ({shape()})'};\n")
    return text + "".join(extra)


_CROSSING = "".join(
    f"var int x{i} in {'0..2' if i in (1, 2, 16, 17) else '1..1'};\n" for i in range(1, 18)
) + (
    "var bool x18;\n"
    "constraint abs(x1 - x17) != 1;\nconstraint x2 != x17;\nconstraint not (x16 = x17);\n"
    "constraint x17 * x18 <= 1;\nconstraint x2 < 1 or x18 = 1;\nconstraint x1 + x2 + x3 + x17 = 3;\n"
)


@settings(max_examples=300, deadline=None)
@given(_mask_programs())
# z is forced by the sum and also masked by x and by its own constraint
@example(
    "var int x in 1..3;\nvar int y in 1..3;\nvar int z in 0..5;\nconstraint x + y + z = 6;\n"
    "constraint abs(x - z) != 1;\nconstraint z != 2;\n"
)
# no value of x passes its own constraint, so its loop is empty
@example("var bool b;\nvar int x in -2..2;\nconstraint x * x <= -1;\nconstraint b or x > 0;\n")
# tables indexed by x + 3 and by y - 20, since those values are negative or large
@example(
    "var int x in -3..-1;\nvar int y in 20..22;\nvar int z in -2..0;\n"
    "constraint abs(x - z) != 1;\nconstraint y + z != 21;\n"
)
# 18 loops: the second generated function rebuilds x17's mask from the
# values of x1 and x2 in P, then narrows x18's by x17
@example(_CROSSING)
def test_mask_programs_match_naive(text):
    p = parse_flat(text)
    s = enumerate_solutions(p)
    assert s.complete
    assert s.solutions == naive_enumerate(p).solutions


_SHAPES = {  # constraint shapes over the kinds of the two variables they read
    "num": ["{x} + {y} <= {k}", "{x} != {y}", "abs({x} - {y}) != {k}", "{x} * {y} >= {k}"],
    "set": ["card({x}) = {k}", "card({x} union {y}) <= {k}", "{x} != {y}",
            "card({x} intersect {y}) >= {k}", "{x} = {y} diff {{1}}"],
    "mixed": ["card({x}) + {y} = {k}", "card({x}) != {y}"],
}


@st.composite
def _var_decls(draw, names):
    """One declaration per name: an int, a bool or a small set."""
    decls = {}
    for name in names:
        kind = draw(st.sampled_from(["int", "int", "bool", "set"]))
        if kind == "int":
            lo = draw(st.integers(-2, 2))
            decls[name] = ("num", f"var int {name} in {lo}..{lo + draw(st.integers(0, 3))};\n")
        elif kind == "bool":
            decls[name] = ("num", f"var bool {name};\n")
        else:
            decls[name] = ("set", f"var set of 1..{draw(st.integers(1, 3))} {name};\n")
    return decls


@st.composite
def _constraints(draw, decls, count):
    out = []
    for _ in range(count):
        x, y = draw(st.sampled_from(sorted(decls))), draw(st.sampled_from(sorted(decls)))
        kinds = {decls[x][0], decls[y][0]}
        if len(kinds) > 1 and decls[x][0] != "set":
            x, y = y, x  # mixed shapes read the set first
        shape = draw(st.sampled_from(_SHAPES[kinds.pop() if len(kinds) == 1 else "mixed"]))
        out.append(f"constraint {shape.format(x=x, y=y, k=draw(st.integers(-1, 4)))};\n")
    return out


@st.composite
def _mixed_programs(draw):
    """Programs over one to four int, bool and set variables, declared in a
    random order, so that the canonical sort has work to do."""
    names = draw(st.permutations(["a", "b", "c", "d"]))[: draw(st.integers(1, 4))]
    decls = draw(_var_decls(names))
    constraints = draw(_constraints(decls, draw(st.integers(0, 3))))
    return "".join(d for _, d in decls.values()) + "".join(constraints)


@settings(max_examples=200, deadline=None)
@given(_mixed_programs())
def test_mixed_programs_match_naive(text):
    p = parse_flat(text)
    s, naive = enumerate_solutions(p), naive_enumerate(p)
    assert s == naive  # names, rows in order and complete
    assert s.solutions == naive.solutions


def test_nodes_count_only_values_a_mask_keeps():
    # x < y is a table from x to the y values above it: every x is bound,
    # then only the 8 + 7 + ... + 0 values of y that the mask keeps
    p = parse_flat("var int x in 1..9;\nvar int y in 1..9;\nconstraint x < y;\n")
    s = enumerate_solutions(p)
    assert len(s) == 36
    assert s.nodes == 9 + 36


def _tables(program: FlatProgram) -> int:
    return oracle._search_source(program)[0].count("_support(")


def test_no_table_joins_two_variables_of_two_values(monkeypatch):
    # 780 tables would cost more to compile than they save: each drops at
    # most the one value that its check would reject a node later
    text = "".join(f"var bool b{i};\n" for i in range(40))
    text += "".join(
        f"constraint not (b{i} and b{j});\n" for i in range(40) for j in range(i + 1, 40)
    )
    p = parse_flat(text)
    # a variable of three values keeps its tables
    assert _tables(parse_flat(text.replace("var bool b39;", "var int b39 in 0..2;"))) == 39
    source = oracle._search_source(p)[0]
    assert len(enumerate_solutions(p)) == 41
    monkeypatch.setattr(oracle._Masks, "add", lambda self, src, used: False)
    assert oracle._search_source(p)[0] == source  # the search without masks


def test_a_search_builds_at_most_max_tables(monkeypatch):
    # 12 variables make 66 pairs; the last two are checked instead
    text = "".join(f"var int x{i} in 0..2;\n" for i in range(12))
    text += "".join(f"constraint x{i} <= x{j};\n" for i in range(12) for j in range(i + 1, 12))
    p = parse_flat(text)
    assert _tables(p) == oracle._MAX_TABLES == 64
    capped = enumerate_solutions(p)
    monkeypatch.setattr(oracle, "_MAX_TABLES", 66)
    assert _tables(p) == 66
    assert capped == enumerate_solutions(p) and len(capped) == math.comb(14, 2)


def test_forced_sum_crosses_the_loop_split():
    # 18 loops run in two generated functions; the second rebuilds the
    # partial sum from the first's values and forces the last variable
    names = [f"x{i}" for i in range(1, 19)]  # x10 sorts before x2
    text = "".join(f"var int {x} in 0..1;\n" for x in names)
    text += f"constraint {' + '.join(names)} = 3;\n"
    s = enumerate_solutions(parse_flat(text))
    assert s.complete and len(s) == math.comb(18, 3) == 816
    assert {tuple(x for x in names if a[x]) for a in s.solutions} == set(
        itertools.combinations(names, 3)
    )
    keys = [tuple(a[x] for x in sorted(names)) for a in s.solutions]
    assert keys == sorted(keys)  # canonical order, though declared unsorted


def test_division_keeps_the_error_a_pruned_search_would_skip():
    # bounds on x + y = 4 would rule out y = 0; a program with a division
    # is searched without them, so 1 / y meets y = 0 as before
    p = parse_flat(
        "var int x in 0..2;\nvar int y in 0..2;\nconstraint 1 / y = 1;\nconstraint x + y = 4;\n"
    )
    with pytest.raises(CompileError, match="division by zero"):
        enumerate_solutions(p)


# --------------------------------------------------------------------------
# limits

def test_max_solutions_limit_marks_incomplete():
    p = parse_flat("var int x in 1..9;\n")
    s = enumerate_solutions(p, max_solutions=4)
    assert not s.complete and len(s) == 4


def test_max_nodes_limit_marks_incomplete():
    p = parse_flat("var int x in 1..9;\nvar int y in 1..9;\n")
    assert enumerate_solutions(p).nodes == 90  # 9 values of x, then 9 of y under each
    s = enumerate_solutions(p, max_nodes=10)
    assert not s.complete
    assert s.nodes == 11  # the value that crossed the limit is counted


def test_search_space_guard():
    many = "".join(f"var int x{i} in 1..1024;\n" for i in range(5))
    with pytest.raises(OracleLimitError, match=r"search space exceeds 2\^40 \(5 variables\)"):
        enumerate_solutions(parse_flat(many))


def test_search_space_guard_sizes_a_range_before_listing_it():
    # 2^5000 values: a list of them cannot be built, so none is
    p = FlatProgram((FlatVar("x", "int", 1, 2 ** 5000),), ())
    with pytest.raises(OracleLimitError, match=r"search space exceeds 2\^40 \(1 variables\)"):
        enumerate_solutions(p)


def test_set_universe_guard():
    p = FlatProgram((FlatVar("s", "set", 1, 13),), ())
    with pytest.raises(OracleLimitError, match=r"set universe of 's' has 13 elements \(limit 12\)"):
        enumerate_solutions(p)


def test_more_variables_than_python_nests_loops():
    # CPython allows at most 20 statically nested blocks per function
    text = "".join(f"var bool b{i};\n" for i in range(30))
    text += "".join(f"constraint not b{i};\n" for i in range(30))
    s = enumerate_solutions(parse_flat(text))
    assert s.complete and len(s) == 1
    assert not any(s.solutions[0].values.values())


@pytest.mark.parametrize("text,form", [
    ("2 * x * 3 - y = 1", ("=", {0: 6, 1: -1}, 1)),
    ("x * 2 + -y <= 3 - x", ("<=", {0: 3, 1: -1}, 3)),
    ("x - x > 2", (">", {}, 2)),
    # a product is linear when its factors after the second are int
    # literals and one of the first two is
    ("2 * 3 * x = 1", None),
    ("x * y * 2 = 1", None),
    ("abs(x) + y = 1", None),
    ("x + y * y + 1 = 1", None),
    ("x = y * y", None),
    ("x != y", None),
])
def test_linear_forms(text, form):
    assert oracle._linear(parse_expression(text), {"x": 0, "y": 1}) == form


def test_long_sum_constraint():
    # a 5,000-deep left-nested tree, deeper than the Python compiler recurses
    text = "var int x in 0..1;\nconstraint " + " + ".join(["x"] * 5000) + " = 5000;\n"
    s = enumerate_solutions(parse_flat(text))
    assert [a["x"] for a in s.solutions] == [1]


def test_deeply_nested_constraint_matches_naive():
    # 300 nested subtractions exceed the 200 nested brackets Python parses;
    # parse_flat rejects that depth, so the tree is built directly
    x = ir.VarOccurrence("x")
    e = x
    for _ in range(300):
        e = ir.AlgChain(("-",), (x, e))
    p = FlatProgram((FlatVar("x", "int", -1, 1),), (ir.BoolBinaryOp("=", e, ir.IntValue(0)),))
    s = enumerate_solutions(p)
    assert s.solutions == naive_enumerate(p).solutions
    assert [a["x"] for a in s.solutions] == [0]


# --------------------------------------------------------------------------
# errors raised during the search

@pytest.mark.parametrize(
    "text",
    [
        "var int x in 0..1;\nconstraint 1 / x = 1;\n",
        "var int x in -1..1;\nconstraint x ^ -1 = 1;\n",
    ],
)
def test_division_by_zero_raises(text):
    message = "zero raised to a negative power" if "^" in text else "division by zero"
    with pytest.raises(CompileError, match=message):
        enumerate_solutions(parse_flat(text))


_SETS = "var set of 1..2 s;\nvar set of 1..2 t;\nconstraint true;\nconstraint card(s) <= card(t);\n"


@pytest.mark.parametrize("text,culprit,message", [
    ("var int x in 0..1;\nconstraint x >= 0;\nconstraint 1 / x = 1;\n",
     "1 / x = 1", "division by zero"),
    ("var int x in -1..1;\nconstraint x >= -1;\nconstraint x ^ -1 = 1;\n",
     "x ^ -1 = 1", "zero raised to a negative power"),
    # ill-typed: parse_flat reads the text without typing it
    *[(_SETS + f"constraint {c};\n", c, m) for c, m in [
        ("card(s + t) = 1", "unsupported operand type(s) for +: 'frozenset' and 'frozenset'"),
        ("card(s) + s = 1", "unsupported operand type(s) for +: 'int' and 'frozenset'"),
        ("s * 2 = t", "unsupported operand type(s) for *: 'frozenset' and 'int'"),
        ("abs(s) = 1", "bad operand type for abs(): 'frozenset'"),
        ("s union 1 = t", "unsupported operand type(s) for |: 'frozenset' and 'int'"),
        ("card(3) = 1", "object of type 'int' has no len()"),
        ("-s = t", "bad operand type for unary -: 'frozenset'"),
    ]],
])
def test_a_refused_division_names_its_constraint(text, culprit, message):
    # the last constraint raises; the line of the search that checks it
    # may check one before it, which does not
    with pytest.raises(CompileError) as info:
        enumerate_solutions(parse_flat(text))
    assert str(info.value) == f"the oracle cannot evaluate the constraint {culprit}: {message}"


@pytest.mark.parametrize("constraint,message", [
    ("s <= t", "sets cannot be compared with '<='"),
    ("min(s, t) < s", "sets cannot be compared with '<'"),
    ("card(s) <= 1 and s >= t", "sets cannot be compared with '>='"),
    # the subtraction raises first: both operands are evaluated before the refusal
    ("s - 1 <= t", "unsupported operand type(s) for -: 'frozenset' and 'int'"),
])
def test_sets_are_not_compared_by_order(constraint, message):
    text = f"var set of 1..2 s;\nvar set of 1..2 t;\nconstraint {constraint};\n"
    with pytest.raises(CompileError) as info:
        enumerate_solutions(parse_flat(text))
    assert str(info.value) == f"the oracle cannot evaluate the constraint {constraint}: {message}"


def test_integral_rational_exponent_and_signed_literal_coefficient():
    # 4 / 2 evaluates to the rational 2, which _pow takes as the int 2
    s = enumerate_solutions(parse_flat("var int x in -3..3;\nconstraint x ^ (4 / 2) = 4;\n"))
    assert s.rows == ((-2,), (2,))
    # -(2) reads as the coefficient -2 of a linear comparison
    text = "var int x in -3..3;\nvar int y in -3..3;\nconstraint -(2) * x + y = -3;\n"
    assert enumerate_solutions(parse_flat(text)).rows == ((0, -3), (1, -1), (2, 1), (3, 3))


def test_the_raising_constraint_is_named_from_a_later_search_function():
    # y is the 20th variable, so a second generated function checks the
    # line that fuses both constraints over x and y, with x read from P
    text = "var int x in 1..2;\n" + "".join(f"var bool b{i};\n" for i in range(18))
    text += "var int y in 0..1;\nconstraint x + y >= 1;\nconstraint sqrt(0.0 - x * y) <= 1.0;\n"
    with pytest.raises(CompileError) as info:
        enumerate_solutions(parse_flat(text))
    assert str(info.value) == (
        "the oracle cannot evaluate the constraint sqrt(0.0 - x * y) <= 1.0: math domain error"
    )


def test_conjunction_short_circuits_before_division():
    p = parse_flat("var int x in 0..2;\nconstraint x != 0 and 1 / x = 1;\n")
    assert [a["x"] for a in enumerate_solutions(p).solutions] == [1]


def test_max_compares_before_evaluating_later_arguments():
    # max(s, x, 1 / x) compares x with s, which fails, before it divides by x = 0
    p = parse_flat("var set of 1..2 s;\nvar int x in 0..1;\nconstraint max(s, x, 1 / x) = 1;\n")
    with pytest.raises(CompileError, match="not supported between instances of 'int' and 'frozenset'"):
        enumerate_solutions(p)


def test_ordering_sets_is_a_compile_error():
    p = parse_flat("var set of 1..2 s;\nvar set of 1..2 t;\nconstraint s <= t;\n")
    with pytest.raises(CompileError):
        enumerate_solutions(p)


# --------------------------------------------------------------------------
# comparisons

def test_projection_onto_all_variables_is_identity():
    p = parse_flat("var int x in 1..2;\nvar int y in 1..2;\nconstraint x != y;\n")
    s = enumerate_solutions(p)
    assert compare_solutions(s, s, ["x", "y"]) == "equal"
    assert compare_solutions(s, s) == "equal"


def test_projection_onto_one_name_and_onto_none():
    a = enumerate_solutions(parse_flat("var int x in 1..3;\nvar int y in 1..2;\nconstraint x != y;\n"))
    b = enumerate_solutions(parse_flat("var int x in 1..3;\nvar int y in 1..2;\n"))
    assert compare_solutions(a, b, ["x"]) == "equal"
    assert compare_solutions(a, b, ["y", "x"]) == "subset"
    assert compare_solutions(a, b, []) == "equal"
    none = enumerate_solutions(parse_flat("var int x in 1..2;\nconstraint x = 3;\n"))
    assert compare_solutions(none, b, []) == "subset"


def test_compare_antisymmetry():
    p_all = parse_flat("var int x in 1..3;\n")
    p_sub = parse_flat("var int x in 1..3;\nconstraint x != 2;\n")
    a, b = enumerate_solutions(p_sub), enumerate_solutions(p_all)
    assert compare_solutions(a, b, ["x"]) == "subset"
    assert compare_solutions(b, a, ["x"]) == "superset"


def test_compare_incomparable():
    a = enumerate_solutions(parse_flat("var int x in 1..2;\nconstraint x = 1;\n"))
    b = enumerate_solutions(parse_flat("var int x in 1..2;\nconstraint x = 2;\n"))
    assert compare_solutions(a, b, ["x"]) == "incomparable"


def _compare_by_assignments(a, b, projection):
    """compare_solutions as it projected Assignment dicts before solutions
    became value rows."""
    names = list(projection)
    get = operator.itemgetter(*names) if names else (lambda values: ())
    pa = set(map(get, [x.values for x in a.solutions]))
    pb = set(map(get, [x.values for x in b.solutions]))
    if pa == pb:
        return "equal"
    return "subset" if pa < pb else "superset" if pa > pb else "incomparable"


@st.composite
def _program_pairs(draw):
    """Two programs over the same variables: the second declares them in
    another order plus one extra, as boolean mode's lowering does, and keeps
    a random part of the first's constraints."""
    names = list(draw(st.permutations(["a", "b", "c"]))[: draw(st.integers(1, 3))])
    decls = draw(_var_decls(names + ["z"]))
    extra = decls.pop("z")
    shared = {n: decls[n] for n in names}
    first = draw(_constraints(shared, draw(st.integers(0, 3))))
    kept = [c for c in first if draw(st.booleans())]
    second = kept + draw(_constraints(dict(shared, z=extra), draw(st.integers(0, 1))))
    order = draw(st.permutations(names))
    text_a = "".join(decls[n][1] for n in names) + "".join(first)
    text_b = "".join(decls[n][1] for n in order) + extra[1] + "".join(second)
    projections = [[], [draw(st.sampled_from(names))], names, list(draw(st.permutations(names)))]
    return text_a, text_b, projections


@settings(max_examples=200, deadline=None)
@given(_program_pairs())
@example(("var int a in 1..2;\n", "var int a in 1..2;\nvar bool z;\n", [[], ["a"]]))
def test_compare_matches_projected_assignments(pair):
    text_a, text_b, projections = pair
    a, b = enumerate_solutions(parse_flat(text_a)), enumerate_solutions(parse_flat(text_b))
    for projection in projections:
        for x, y in ((a, b), (b, a), (a, a)):
            assert compare_solutions(x, y, projection) == _compare_by_assignments(x, y, projection)


def test_compare_requires_complete_sets():
    p = parse_flat("var int x in 1..9;\n")
    s = enumerate_solutions(p, max_solutions=2)
    full = enumerate_solutions(p)
    with pytest.raises(OracleLimitError, match="cannot compare incomplete solution sets"):
        compare_solutions(s, full, ["x"])


# --------------------------------------------------------------------------
# streaming compare: the transformed side's solutions looked up among the
# baseline's rows, not kept

def _outcome(run):
    """What run returns, or the class and text of the oracle error it raises."""
    try:
        return run()
    except (CompileError, OracleLimitError) as exc:
        return type(exc).__name__, str(exc)


def _assert_streams_as_compared(full, base):
    """compare_streaming(full, B) says what compare_solutions says of the two
    enumerations, projected onto B's variables, with full's solution count;
    an error either raises, both raise."""
    b = _outcome(lambda: enumerate_solutions(base))
    if not isinstance(b, oracle.SolutionSet):
        return
    t = _outcome(lambda: enumerate_solutions(full))
    expected = t if not isinstance(t, oracle.SolutionSet) else _outcome(
        lambda: (compare_solutions(t, b, b.names), len(t))
    )
    assert _outcome(lambda: compare_streaming(full, b)) == expected


# every fixture whose search fits under 2^40, under each alldiff mode that
# rewrites it: SEND's digits share no 1..n domain, which the other two need
_UNDER_2_40 = [
    (name, data, mode)
    for name, data in [("queens4.som", None), ("queens5.som", None), ("queens6.som", None),
                       ("send.som", None), ("golfers.som", "golfers_small.dat")]
    for mode in ALLDIFF_MODES
    if name != "send.som" or mode == "disequalities"
]


@pytest.mark.parametrize("name,data,mode", _UNDER_2_40)
def test_streaming_matches_compare_on_fixtures(name, data, mode):
    base = _lowered(name, data, PassConfig(FULL.passes, "disequalities"))
    _assert_streams_as_compared(_lowered(name, data, PassConfig(FULL.passes, mode)), base)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(ALLDIFF_MODES))
def test_streaming_matches_compare_on_generated_models(seed, mode):
    model = gen_model(random.Random(seed))
    lowered = [
        _outcome(lambda cfg=cfg: lower_to_flat(run_pipeline(model, cfg)[0]))
        for cfg in (PassConfig(FULL.passes, "disequalities"), PassConfig(FULL.passes, mode))
    ]
    if all(isinstance(p, FlatProgram) for p in lowered):  # else a loop or condition stays
        _assert_streams_as_compared(lowered[1], lowered[0])


@settings(max_examples=200, deadline=None)
@given(_program_pairs())
def test_streaming_matches_compare_on_program_pairs(pair):
    # the second program declares the first's variables in another order,
    # plus an auxiliary one
    text_a, text_b, _ = pair
    a, b = parse_flat(text_a), parse_flat(text_b)
    _assert_streams_as_compared(b, a)
    _assert_streams_as_compared(a, a)


_BASE = "var int x in 1..3;\nvar int y in 1..2;\nconstraint x != y;\n"  # 4 rows


@pytest.mark.parametrize("transformed,relation,count", [
    (_BASE + "constraint x < 3;\n", "subset", 2),
    ("var int x in 1..3;\nvar int y in 1..2;\nconstraint x = y;\n", "incomparable", 2),
    ("var int x in 1..3;\nvar int y in 1..2;\n", "superset", 6),
    ("var int x in 1..3;\nvar int y in 1..2;\nconstraint x = 4;\n", "subset", 0),
    # auxiliary z doubles every row; the projection is over x and y alone,
    # in the baseline's order
    ("var int y in 1..2;\nvar bool z;\nvar int x in 1..3;\nconstraint x != y;\n", "equal", 8),
    ("var int y in 1..2;\nvar bool z;\nvar int x in 1..3;\nconstraint x = y or z;\n"
     "constraint x != 3;\n", "incomparable", 6),
])
def test_streaming_relation_and_count(transformed, relation, count):
    base = enumerate_solutions(parse_flat(_BASE))
    assert compare_streaming(parse_flat(transformed), base) == (relation, count)


def test_streaming_onto_one_variable_and_onto_none():
    full = parse_flat("var int x in 1..3;\nvar bool z;\nconstraint x != 2;\n")
    one = enumerate_solutions(parse_flat("var int x in 1..3;\n"))
    assert compare_streaming(full, one) == ("subset", 4)
    none = enumerate_solutions(FlatProgram())  # one empty row
    assert compare_streaming(full, none) == ("equal", 4)
    empty = parse_flat("var int x in 1..3;\nconstraint x = 4;\n")
    assert compare_streaming(empty, none) == ("subset", 0)


def test_streaming_reads_earlier_values_from_the_loop_split():
    # 18 loops run in two generated functions: the leaf, in the second,
    # reads the first's values from P, in the baseline's order
    names = [f"x{i}" for i in range(1, 19)]
    total = f"constraint {' + '.join(names)} = 2;\n"
    text = "".join(f"var int {x} in 0..1;\n" for x in names) + total
    reversed_text = "".join(f"var int {x} in 0..1;\n" for x in reversed(names)) + total
    base = enumerate_solutions(parse_flat(reversed_text + "constraint x1 = 0;\n"))
    assert compare_streaming(parse_flat(text), base) == ("superset", math.comb(18, 2))
    assert compare_streaming(parse_flat(text), enumerate_solutions(parse_flat(reversed_text))) == (
        "equal", math.comb(18, 2)
    )


def test_streaming_limits_count_streamed_rows():
    full = parse_flat("var int x in 1..9;\nvar int y in 1..2;\n")
    base = enumerate_solutions(parse_flat("var int x in 1..9;\n"))
    assert compare_streaming(full, base, max_solutions=19) == ("equal", 18)
    for limits in ({"max_solutions": 18}, {"max_nodes": 26}):  # 9 + 18 nodes in all
        with pytest.raises(OracleLimitError, match="^cannot compare incomplete solution sets$"):
            compare_streaming(full, base, **limits)
    # a baseline that stopped raises the same, once the streamed side has run
    with pytest.raises(OracleLimitError, match="^cannot compare incomplete solution sets$"):
        compare_streaming(full, enumerate_solutions(full, max_nodes=3))


def test_streaming_names_the_constraint_that_raises():
    full = parse_flat("var int x in 0..2;\nvar int y in 0..2;\nconstraint 1 / x = 1;\n")
    base = enumerate_solutions(parse_flat("var int x in 0..2;\n"))
    with pytest.raises(CompileError, match=r"^the oracle cannot evaluate the constraint 1 / x = 1: "
                                           r"division by zero$"):
        compare_streaming(full, base)


def test_streaming_needs_every_baseline_variable():
    base = enumerate_solutions(parse_flat("var int x in 1..2;\nvar int w in 1..2;\n"))
    with pytest.raises(KeyError):
        compare_streaming(parse_flat("var int x in 1..2;\n"), base)


def _queens(n: int, mode: str) -> FlatProgram:
    """n-queens with alldifferent, lowered under mode, as check lowers it."""
    cells = ", ".join(f"q[{k}]" for k in range(1, n + 1))
    return _lower_text(
        f"model Q;\nint n := {n};\nmain class Queens {{\n  int q[n] in 1..n;\n"
        f"  constraint place {{\n    alldifferent({cells});\n    forall(i in 1..n)\n"
        "      forall(j in i+1..n) {\n        abs(q[i] - q[j]) != j - i;\n      }\n  }\n}\n",
        PassConfig(FULL.passes, mode),
    )


def test_queens_searches_keep_their_tables_and_differ_only_at_the_leaf():
    for mode in ("disequalities", "relaxation"):
        program = _queens(9, mode)
        plain = oracle._search_source(program)[0].splitlines()
        # a projection that leaves a variable out looks each row up
        streamed = oracle._search_source(program, list(range(8)))[0].splitlines()
        assert sum(line.startswith("T") and "_support(" in line for line in plain) == 36
        leaf = next(i for i, line in enumerate(plain) if "OUT.append(" in line)
        assert plain[:leaf] == streamed[:leaf]
        assert plain[leaf + 2:] == streamed[leaf + 5:]
        assert "ROWS += 1" in streamed[leaf + 1] and "OUT" not in "".join(streamed)
        # one that orders every variable counts them, and s0 first counts
        # the baseline rows that are solutions
        counted = oracle._search_source(program, list(range(8, -1, -1)))[0].splitlines()
        first = plain.index("    for v0 in D[0]:")
        pad = plain[leaf][: len(plain[leaf]) - len(plain[leaf].lstrip())]
        assert counted == plain[:first] + counted[first:first + 2] + plain[first:leaf] + [
            f"{pad}global ROWS", f"{pad}ROWS += 1", f"{pad}if ROWS >= MAX_SOLUTIONS: raise Stop(nodes)"
        ] + plain[leaf + 2:]
        assert counted[first] == "    global HITS"
        assert counted[first + 1].startswith(
            "    HITS = sum(1 for (v8, v7, v6, v5, v4, v3, v2, v1, v0, ) in BASE if v0 in k0 and "
        )


def _unforced(program: FlatProgram) -> FlatProgram:
    """program with each equality written as <= and >=: the same solutions,
    searched with bounds tests alone, so no value is forced or joined."""
    constraints = []
    for c in program.constraints:
        if type(c) is ir.BoolBinaryOp and c.op == "=":
            constraints += [ir.BoolBinaryOp("<=", c.left, c.right), ir.BoolBinaryOp(">=", c.left, c.right)]
        else:
            constraints.append(c)
    return FlatProgram(program.vars, tuple(constraints))


def _assert_search_keeps_rows(program):
    """program's rows, or the error it raises, are those of its search with
    no value forced or joined."""
    ours, plain = _outcome(lambda: enumerate_solutions(program)), _outcome(
        lambda: enumerate_solutions(_unforced(program))
    )
    if isinstance(ours, oracle.SolutionSet):
        assert (ours.rows, ours.complete) == (plain.rows, plain.complete)
    else:
        assert ours == plain


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("mode", ALLDIFF_MODES)
def test_streaming_and_rows_on_queens(n, mode):
    # boolean mode's matrix passes 2^40 from 6-queens on: both sides raise
    full = _queens(n, mode)
    _assert_streams_as_compared(full, _queens(n, "disequalities"))
    _assert_search_keeps_rows(full)


@pytest.mark.parametrize("name,data,mode", _UNDER_2_40)
def test_search_keeps_rows_on_fixtures(name, data, mode):
    _assert_search_keeps_rows(_lowered(name, data, PassConfig(FULL.passes, mode)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(ALLDIFF_MODES))
def test_streaming_and_rows_on_loop_models(seed, mode):
    # x[12] in 0..9 is narrowed to two values after lowering, so that the
    # searches stay small; the relaxation forces and joins
    model = gen_loop_model(random.Random(seed), seed % 2 == 0)
    lo = seed % 3
    programs = []
    for cfg in (PassConfig(FULL.passes, "disequalities"), PassConfig(FULL.passes, mode)):
        p = _outcome(lambda cfg=cfg: lower_to_flat(run_pipeline(model, cfg)[0]))
        if not isinstance(p, FlatProgram):
            return  # a loop bound, condition or index that does not lower
        programs.append(FlatProgram(
            tuple(v._replace(lo=lo, hi=lo + 1) if v.kind == "int" else v for v in p.vars),
            p.constraints,
        ))
    _assert_streams_as_compared(programs[1], programs[0])
    _assert_search_keeps_rows(programs[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_search_keeps_rows_on_generated_models(seed):
    model = gen_model(random.Random(seed))
    program = _outcome(lambda: lower_to_flat(run_pipeline(model, FULL)[0]))
    if isinstance(program, FlatProgram):
        _assert_search_keeps_rows(program)


def _join_program(sx: int, sy: int, k: int) -> FlatProgram:
    """``z + sx * x + sy * y = k`` over domains of different widths and
    offsets, y masked by its own constraint and by one with x."""
    return parse_flat(
        f"var int z in 0..3;\nvar int x in 3..7;\nvar int y in -2..5;\n"
        f"constraint z + {sx} * x + {sy} * y = {k};\nconstraint y != 1;\nconstraint x + y != 6;\n"
    )


@pytest.mark.parametrize("sx,sy", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_a_forcing_equality_joins_the_loop_before_it(sx, sy):
    # every k that leaves a solution, and some past either end
    for k in range(-25, 26):
        p = _join_program(sx, sy, k)
        source = oracle._search_source(p)[0]
        # all 5 values of x, as far as y's mask so far, U2, keeps their
        # partners; read reversed when y's value falls as x's rises
        partner = "rev8[U2]" if sx == sy else "U2"
        assert f"for v1 in vals1[31 & ({partner} << " in source
        s = enumerate_solutions(p)
        assert s == naive_enumerate(p)
        assert s.nodes <= enumerate_solutions(_unforced(p)).nodes


def test_an_equation_over_two_variables_joins_nothing():
    # with three values or more each, a table holds it; with two, the
    # forced variable's own test rejects a value as soon
    for domain in ("1..4", "1..2"):
        p = parse_flat(f"var int x in {domain};\nvar int y in {domain};\nconstraint x + y = 3;\n")
        assert "d0" not in oracle._search_source(p)[0]
        assert enumerate_solutions(p) == naive_enumerate(p)


def test_no_join_over_a_loop_of_more_than_max_masked_values():
    p = parse_flat("var int z in 0..1;\nvar int x in 0..12;\nvar int y in 0..5;\n"
                   "constraint z + x + y = 10;\n")
    source = oracle._search_source(p)[0]
    assert "for v1 in D[1]:" in source and "d1" not in source
    assert enumerate_solutions(p) == naive_enumerate(p)


def test_a_join_reads_a_mask_from_an_earlier_search_function():
    # x20's loop, in s1, joins x32, forced in s2 by x0 + x20 + x32 = 6; x32's
    # mask so far comes from x0's table in s0, so s1 rebuilds it from P
    names = [f"x{i}" for i in range(34)]
    text = "".join(
        f"var int {x} in {'0..3' if i == 0 else '0..5' if i in (20, 32) else '1..1'};\n"
        for i, x in enumerate(names)
    )
    text += "constraint abs(x0 - x32) != 1;\nconstraint x0 + x20 + x32 = 6;\n"
    p = parse_flat(text)
    source = oracle._search_source(p)[0]
    s1 = source[source.index("def s1("):source.index("def s2(")]
    assert "    m0_32 = T0_32[" in s1 and "for v20 in vals20[" in s1
    # x32's value is the first of s2: a loop of one value, not an if
    assert "for v32 in (f32,) if " in source[source.index("def s2("):]
    s = enumerate_solutions(p)
    assert len(s) == 14 and s.solutions == naive_enumerate(p).solutions
    assert s.nodes < enumerate_solutions(_unforced(p)).nodes


_XY = "var int x in 1..2;\nvar int y in 1..2;\nconstraint x != y;\n"


@pytest.mark.parametrize("names,rows,relation", [
    # (5, 1) passes x != y but lies outside x's domain
    (("x", "y"), ((1, 2), (2, 1), (5, 1)), "subset"),
    (("y", "x"), ((2, 1), (1, 2)), "equal"),  # a permuted projection
    (("y", "x"), ((2, 1),), "superset"),
    (("x", "y"), ((True, 2), (2, 1)), "equal"),  # True is 1
    (("x", "y"), ((1, 2), (2, 1), (frozenset(), 1)), "subset"),
])
def test_streaming_counts_baseline_rows_that_are_solutions(names, rows, relation):
    full = parse_flat(_XY)
    assert "    global HITS" in oracle._search_source(full, [0, 1])[0]
    base = oracle.SolutionSet(names, rows)
    expected = compare_solutions(enumerate_solutions(full), base, names)
    assert compare_streaming(full, base) == (expected, 2) and expected == relation


def test_streaming_counts_the_one_row_of_no_variables():
    empty = FlatProgram()
    assert "in BASE if True)" in oracle._search_source(empty, [])[0]
    assert compare_streaming(empty, enumerate_solutions(empty)) == ("equal", 1)


def test_streaming_counts_a_bool_read_as_an_int():
    full = parse_flat("var bool b;\nvar int x in 0..1;\nconstraint b or x = 1;\n")
    base = oracle.SolutionSet(("b", "x"), ((1, 0), (0, True), (2, 1), (True, 1)))
    assert compare_solutions(enumerate_solutions(full), base, base.names) == "subset"
    assert compare_streaming(full, base) == ("subset", 3)


def test_streaming_looks_rows_up_where_a_constraint_may_raise():
    full = parse_flat(_XY + "constraint 2 / x >= 1;\n")
    assert "in BASE: HIT(row)" in oracle._search_source(full, [0, 1])[0]
    base = oracle.SolutionSet(("x", "y"), ((1, 2), (2, 1), (5, 1)))
    assert compare_streaming(full, base) == ("subset", 2)


def test_streaming_relaxed_queens_visits_fewer_nodes():
    # the join of q8 with forced q9 keeps 36,745 of 170,649 values of q8
    base = enumerate_solutions(_queens(9, "disequalities"))
    assert compare_streaming(_queens(9, "relaxation"), base, max_nodes=200_000) == (
        "superset", 26365
    )
    assert enumerate_solutions(_queens(9, "relaxation")).nodes == 177_447


def _search_peak(monkeypatch, run):
    """run()'s result and the tracemalloc peak of a second run, which
    reuses the first one's compiled search.  compile() interns the names of
    the generated source in the interpreter's one table of interned
    strings, which grows by reallocating at once: from 2^16 slots to 2^17,
    a block of 1,922,416 bytes that stays, once a process has interned
    about 44,000 strings, as a whole test run has.  That is no cost of the
    search, so the traced run compiles nothing."""
    codes = {}

    def compile_once(source, filename, mode):
        if source not in codes:
            codes[source] = compile(source, filename, mode)
        return codes[source]

    monkeypatch.setattr(oracle, "compile", compile_once, raising=False)
    run()
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_streaming_relaxed_queens_keeps_no_rows(monkeypatch):
    base = enumerate_solutions(_queens(9, "disequalities"))
    relaxed = _queens(9, "relaxation")
    result, peak = _search_peak(monkeypatch, lambda: compare_streaming(relaxed, base))
    assert len(base) == 352 and result == ("superset", 26365)
    assert peak < 1.5 * 2 ** 20  # enumerating and comparing both sides took 5.56 MB


# --------------------------------------------------------------------------
# pass preservation, checked through the oracle

ALLDIFF3 = (
    "model A;\nint x1 in 1..3;\nint x2 in 1..3;\nint x3 in 1..3;\n"
    "constraint c { alldifferent(x1, x2, x3); }"
)


def test_alldiff_modes_equivalent_and_relaxation_weaker():
    m = parse(SourceUnit(ALLDIFF3))
    proj = ["x1", "x2", "x3"]
    diseq = enumerate_solutions(lower_to_flat(alldiff_rewrite(m, "disequalities")))
    boolean = enumerate_solutions(lower_to_flat(alldiff_rewrite(m, "boolean")))
    relaxed = enumerate_solutions(lower_to_flat(alldiff_rewrite(m, "relaxation")))
    assert len(diseq) == 6
    assert compare_solutions(diseq, boolean, proj) == "equal"
    assert compare_solutions(diseq, relaxed, proj) == "subset"
    assert len(relaxed) == 7  # the 6 permutations plus (2,2,2)
    permutations = {tuple(p) for p in itertools.permutations((1, 2, 3))}
    assert {s.project(proj) for s in diseq.solutions} == permutations
    assert {s.project(proj) for s in relaxed.solutions} == permutations | {(2, 2, 2)}


def test_queens_boolean_vs_disequalities_equivalent():
    m = parse_fixture("queens4.som")
    pre, _ = run_pipeline(m, PRE)
    proj = [f"q__{i}" for i in range(1, 5)]
    by_mode = {}
    for mode in ("disequalities", "boolean"):
        lowered = lower_to_flat(loop_unroll(alldiff_rewrite(pre, mode)))
        by_mode[mode] = enumerate_solutions(lowered)
    assert compare_solutions(by_mode["disequalities"], by_mode["boolean"], proj) == "equal"
    assert len(by_mode["disequalities"]) == 2


def test_unroll_preserves_solutions_vs_hand_expansion():
    looped = _lower_text(
        "model L;\nint x[3] in 1..2;\n"
        "constraint c { forall(i in 1..2) { x[i] != x[i+1]; } }"
    )
    by_hand = _lower_text(
        "model L;\nint x[3] in 1..2;\n"
        "constraint c { x[1] != x[2]; x[2] != x[3]; }"
    )
    a, b = enumerate_solutions(looped), enumerate_solutions(by_hand)
    assert compare_solutions(a, b) == "equal"
    assert len(a) == 2


def test_fold_preserves_solutions():
    text = (
        "model F;\nint k := 2;\nint x[2] in 1..3;\n"
        "constraint c { x[1] + 0 = k; x[2] * 1 != k + 1; }"
    )
    with_fold = _lower_text(text, PassConfig(("foldConstants", "loopUnroll")))
    without_fold = _lower_text(text, PassConfig(("loopUnroll",)))
    assert compare_solutions(
        enumerate_solutions(with_fold), enumerate_solutions(without_fold)
    ) == "equal"


@pytest.mark.parametrize("constraint,count", [
    # 0.1 + 0.7 is the double 0.7999999999999999, folded or not
    ("x + (0.1 + 0.7) = x + 0.7999999999999999", 2),
    # foldConstants folds a chain's ground prefix, which the left-deep
    # evaluation computes first too
    ("0.1 + 0.7 + x = 0.7999999999999999 + x", 2),
    ("0.1 + 0.7 + x = x + 0.8", 1),
    ("0.1 * 3 * x = 0.30000000000000004 * x", 2),
    ("0.1 * 3 * x = 0.3 * x", 0),
    ("x + 0.1 + 0.7 = x + 0.7999999999999999", 1),  # no ground prefix: nothing folds
])
def test_the_oracle_computes_with_reals_as_the_folder_does(constraint, count):
    text = f"model F;\nint x in 1..2;\nconstraint c {{ {constraint}; }}\n"
    for cfg in (PassConfig(("objectFlatten", "enumRemove")), FULL):
        assert len(enumerate_solutions(_lower_text(text, cfg))) == count


def test_flatten_preserves_solutions_vs_hand_flattened():
    structured = _lower_text(
        "model S;\n"
        "class Cell { int v in 1..2; constraint one { v != 2; } }\n"
        "main class Grid { Cell cells[2]; }"
    )
    by_hand = _lower_text(
        "model S;\nint cells_v[2] in 1..2;\n"
        "constraint one { forall(i in 1..2) { cells_v[i] != 2; } }"
    )
    a, b = enumerate_solutions(structured), enumerate_solutions(by_hand)
    assert compare_solutions(a, b) == "equal"
    assert len(a) == 1


def test_enum_removal_preserves_solutions_under_bijection():
    with_enum = _lower_text(
        "model E;\nenum Col := {red,green,blue};\n"
        "Col a;\nCol b;\nconstraint c { a != b; a != blue; }"
    )
    by_hand = _lower_text(
        "model E;\nint a in 1..3;\nint b in 1..3;\n"
        "constraint c { a != b; a != 3; }"
    )
    x, y = enumerate_solutions(with_enum), enumerate_solutions(by_hand)
    assert compare_solutions(x, y) == "equal"


def test_golfers_small_pipeline_preserves_solutions():
    # the full pipeline vs a pipeline with passes in a different legal order
    a = _lowered("golfers.som", "golfers_small.dat", FULL)
    b = _lowered(
        "golfers.som", "golfers_small.dat",
        PassConfig(("objectFlatten", "foldConstants", "enumRemove",
                    "alldiffRewrite", "loopUnroll")),
    )
    assert compare_solutions(enumerate_solutions(a), enumerate_solutions(b)) == "equal"


def test_empty_program_has_one_empty_solution():
    s = enumerate_solutions(FlatProgram())
    assert s.complete and len(s) == 1 and s.solutions[0].values == {}


def test_generated_models_pipeline_and_oracle_agree():
    """Random valid models run the whole chain; whenever the search space is
    small the oracle must agree with the naive cross-product filter."""
    import random

    from pivotc.passes import enum_remove, fold_constants, object_flatten
    from pivotc.sema import resolve, validate
    from helpers import gen_model

    rng = random.Random(1311)
    checked = 0
    for _ in range(120):
        m = gen_model(rng)
        assert validate(resolve(m)) == []
        try:
            stage = fold_constants(enum_remove(object_flatten(m)))
            stage = loop_unroll(alldiff_rewrite(stage, "disequalities"))
        except CompileError as exc:  # loops and conditions that do not unroll
            if not re.search("non-ground (bound|condition)", str(exc)):
                raise
            continue
        program = lower_to_flat(stage)
        space = 1
        for v in program.vars:
            if v.kind == "set":
                space *= 2 ** (v.hi - v.lo + 1)
            elif v.kind == "bool":
                space *= 2
            else:
                space *= max(v.hi - v.lo + 1, 0)
        if space <= 20000:
            checked += 1
            assert enumerate_solutions(program).solutions == naive_enumerate(program).solutions
    assert checked > 30


@pytest.mark.parametrize("max_solutions", [10 ** 6, 1], ids=["complete", "stopped"])
def test_search_releases_its_solution_list(monkeypatch, max_solutions):
    # the generated functions' globals are the search namespace, a cycle;
    # with the cyclic collector off, as under cli.main, nothing but the
    # returned SolutionSet may still hold what the search built
    lists = []

    def spy(code, namespace):
        lists.append(namespace["OUT"])
        exec(code, namespace)

    monkeypatch.setattr(oracle, "exec", spy, raising=False)
    program = parse_flat("var int x in 1..3;\nvar int y in 1..3;\nconstraint x < y;\n")
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = enumerate_solutions(program, max_solutions=max_solutions)
        out = lists.pop()
        referrers = [r for r in gc.get_referrers(out) if not isinstance(r, types.FrameType)]
    finally:
        if collecting:
            gc.enable()
    assert referrers == []
    assert result.rows == tuple(out)
    assert len(result) == (3 if max_solutions > 1 else 1)


def test_relaxed_queens_rows_stay_small(monkeypatch):
    # relaxed 9-queens: the sum of alldifferent's relaxation and the
    # diagonals, 26,365 solutions held as value rows, not dicts
    n = 9
    text = "".join(f"var int q{i} in 1..{n};\n" for i in range(1, n + 1))
    text += f"constraint {' + '.join(f'q{i}' for i in range(1, n + 1))} = {n * (n + 1) // 2};\n"
    text += "".join(
        f"constraint abs(q{i} - q{j}) != {j - i};\n"
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    program = parse_flat(text)
    s, peak = _search_peak(monkeypatch, lambda: enumerate_solutions(program))
    assert len(s) == 26365
    assert peak / len(s) < 200  # bytes per solution; an Assignment per solution took 331


@pytest.mark.parametrize("text,rows", [
    # a coefficient under signs
    ("var int x in 1..3;\nvar int y in 1..3;\nvar int z in 1..3;\n"
     "constraint x * -(3) + y + z = -4;\n", ((2, 1, 1), (3, 2, 3), (3, 3, 2))),
    # a coefficient past 2^64 is a constant of the search and gets no pruning
    ("var int x in 0..1;\nvar int y in 0..1;\nconstraint 100000000000000000000 * x + y = 0;\n",
     ((0, 0),)),
])
def test_linear_constraint_with_an_unusual_coefficient(text, rows):
    assert enumerate_solutions(parse_flat(text)).rows == rows


_X12 = (FlatVar("x", "int", 1, 2),)


@pytest.mark.parametrize("constraint,message", [
    (ir.BoolBinaryOp("=", ir.VarOccurrence("z"), ir.IntValue(1)), "'z' is not a flat variable"),
    (ir.BoolBinaryOp("=", ir.ObjectOccurrence((ir.VarOccurrence("x"),)), ir.IntValue(1)),
     "cannot evaluate ObjectOccurrence in the oracle"),
])
def test_hand_built_program_the_oracle_cannot_search(constraint, message):
    with pytest.raises(CompileError, match=message):
        enumerate_solutions(FlatProgram(_X12, (constraint,)))


def test_hand_built_literal_of_another_type_is_a_constant_of_the_search():
    # BoolValue(1) is truthy: every assignment satisfies it
    assert enumerate_solutions(FlatProgram(_X12, (ir.BoolValue(1),))).rows == ((1,), (2,))
