import random

import pytest
from hypothesis import given, settings, strategies as st

from pivotc import ir
from pivotc.cli import main
from pivotc.parser import BINARY_OPS, POWER_BP, SourceUnit, parse, parse_expression
from pivotc.printer import print_expression, print_pivot

from conftest import ALL_FIXTURES, parse_fixture
from helpers import gen_model


@pytest.mark.parametrize("model_name,data_name", ALL_FIXTURES)
def test_fixture_round_trip(model_name, data_name):
    m = parse_fixture(model_name, data_name)
    again = parse(SourceUnit(print_pivot(m)))
    assert ir.model_equals(again, m)


def test_empty_model_prints_header_only():
    assert print_pivot(ir.Model("M", ())) == "model M;\n"


def test_print_deterministic(golfers):
    assert print_pivot(golfers) == print_pivot(golfers)


def test_expression_texts():
    cases = {
        "1 + 2 * 3": ir.AlgBinaryOp("+", ir.IntValue(1),
                                    ir.AlgBinaryOp("*", ir.IntValue(2), ir.IntValue(3))),
        "(1 + 2) * 3": ir.AlgBinaryOp("*",
                                      ir.AlgBinaryOp("+", ir.IntValue(1), ir.IntValue(2)),
                                      ir.IntValue(3)),
        "x ^ y ^ z": ir.AlgBinaryOp("^", ir.VarOccurrence("x"),
                                    ir.AlgBinaryOp("^", ir.VarOccurrence("y"), ir.VarOccurrence("z"))),
        "(x ^ y) ^ z": ir.AlgBinaryOp("^",
                                      ir.AlgBinaryOp("^", ir.VarOccurrence("x"), ir.VarOccurrence("y")),
                                      ir.VarOccurrence("z")),
        "-x ^ 2": ir.AlgUnaryOp("neg", ir.AlgBinaryOp("^", ir.VarOccurrence("x"), ir.IntValue(2))),
        "(-x) ^ 2": ir.AlgBinaryOp("^", ir.AlgUnaryOp("neg", ir.VarOccurrence("x")), ir.IntValue(2)),
        "-(x * 2)": ir.AlgUnaryOp("neg", ir.AlgBinaryOp("*", ir.VarOccurrence("x"), ir.IntValue(2))),
    }
    for text, tree in cases.items():
        assert print_expression(tree) == text
        assert parse_expression(text) == tree


# Each leaf of the binary-operator fast path, and the nested operator it
# hands to a call: (node, text, binding strength); the strengths are the
# parser's, atoms 13 and a leading minus 12
_OPERANDS = [
    (ir.VarOccurrence("x"), "x", 13),
    (ir.VarOccurrence("y", (ir.IntValue(2), ir.VarOccurrence("i"))), "y[2,i]", 13),
    (ir.IntValue(0), "0", 13),
    (ir.IntValue(7), "7", 13),
    (ir.IntValue(-3), "-3", 12),
    (ir.RealValue(2.5), "2.5", 13),
    (ir.BoolValue(True), "true", 13),
    (ir.AlgBinaryOp("-", ir.VarOccurrence("a"), ir.VarOccurrence("b")), "a - b", 9),
]
# operator -> (node class, strength its left operand needs, its right one)
_OPERATORS = {op: (cls, bp, bp + 1) for op, (bp, cls) in BINARY_OPS.items()}
_OPERATORS["^"] = (ir.AlgBinaryOp, 13, POWER_BP)


@pytest.mark.parametrize("op", list(_OPERATORS))
@pytest.mark.parametrize("operand,text,strength", _OPERANDS, ids=[t for _, t, _ in _OPERANDS])
def test_each_operand_of_each_binary_operator(op, operand, text, strength):
    cls, left_needs, right_needs = _OPERATORS[op]
    z = ir.VarOccurrence("z")
    for tree, left, right in (
        (cls(op, operand, z), text if strength >= left_needs else f"({text})", "z"),
        (cls(op, z, operand), "z", text if strength >= right_needs else f"({text})"),
    ):
        printed = print_expression(tree)
        assert printed == f"{left} {op} {right}"
        assert parse_expression(printed) == tree


def test_operand_table_spot_checks():
    operand = {text: node for node, text, _ in _OPERANDS}
    z = ir.VarOccurrence("z")
    cases = {
        "(a - b) * z": ir.AlgBinaryOp("*", operand["a - b"], z),
        "z - (a - b)": ir.AlgBinaryOp("-", z, operand["a - b"]),
        "a - b + z": ir.AlgBinaryOp("+", operand["a - b"], z),
        "(-3) ^ z": ir.AlgBinaryOp("^", operand["-3"], z),
        "z ^ -3": ir.AlgBinaryOp("^", z, operand["-3"]),
        "z - -3": ir.AlgBinaryOp("-", z, operand["-3"]),
        "y[2,i] intersect 0": ir.SetBinaryOp("intersect", operand["y[2,i]"], operand["0"]),
    }
    for text, tree in cases.items():
        assert print_expression(tree) == text


# ---- structural round trip over generated expressions ----

_names = st.sampled_from(["x", "y", "zz", "q1"])


def _exprs(depth):
    leaf = st.one_of(
        st.integers(-20, 20).map(ir.IntValue),
        st.booleans().map(ir.BoolValue),
        _names.map(ir.VarOccurrence),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub).map(
            lambda t: ir.AlgBinaryOp(*t)
        ),
        st.tuples(st.sampled_from(list(ir.COMPARISON_OPS)), sub, sub).map(
            lambda t: ir.BoolBinaryOp(*t)
        ),
        st.tuples(st.sampled_from(["and", "or", "implies", "iff"]), sub, sub).map(
            lambda t: ir.BoolBinaryOp(*t)
        ),
        sub.map(lambda e: ir.BoolUnaryOp("not", e)),
        sub.filter(lambda e: not isinstance(e, (ir.IntValue, ir.RealValue))).map(
            lambda e: ir.AlgUnaryOp("neg", e)
        ),
        st.tuples(sub, sub).map(lambda t: ir.SetBinaryOp("intersect", *t)),
        sub.map(lambda e: ir.SetFunction("card", e)),
        st.lists(sub, min_size=0, max_size=3).map(lambda xs: ir.SetValue(tuple(xs))),
        st.tuples(_names, sub).map(lambda t: ir.VarOccurrence(t[0], (t[1],))),
    )


@given(_exprs(3))
@settings(max_examples=300, deadline=None)
def test_expression_print_parse_round_trip(e):
    assert parse_expression(print_expression(e)) == e


def test_random_model_round_trip_sample():
    rng = random.Random(7)
    for _ in range(50):
        m = gen_model(rng)
        again = parse(SourceUnit(print_pivot(m)))
        assert ir.model_equals(again, m)


def test_expr_domain_round_trip():
    m = parse(SourceUnit(
        "model D;\nint set base in 1..4;\nint set narrowed in base;\n"
    ))
    narrowed = m.elements[1]
    assert isinstance(narrowed.domain, ir.ExprDomain)
    assert ir.model_equals(parse(SourceUnit(print_pivot(m))), m)


def test_long_sum_prints_through_flat_and_pivot(tmp_path):
    # print_expression takes one frame per expression level, so a sum as
    # long as --target clp compiles prints through both text targets
    n = 9500
    model = tmp_path / "s.som"
    model.write_text(
        f"model S;\nint x[{n}] in 0..1;\nconstraint c {{\n  "
        + " + ".join(f"x[{k}]" for k in range(1, n + 1))
        + " <= 3;\n}\n"
    )
    for target in ("flat", "pivot"):
        out = tmp_path / f"s.{target}"
        assert main(["compile", "-m", str(model), "--target", target, "-o", str(out)]) == 0
    assert (tmp_path / "s.pivot").read_text() == model.read_text()
    flat = (tmp_path / "s.flat").read_text().splitlines()
    assert len(flat) == n + 1
    assert flat[-1] == "constraint " + " + ".join(f"x__{k}" for k in range(1, n + 1)) + " <= 3;"
