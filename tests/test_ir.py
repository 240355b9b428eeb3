import dataclasses
import operator
import sys
import types
import typing

from pivotc import ir
from pivotc.parser import SourceUnit, parse, parse_expression
from pivotc.printer import print_expression
from pivotc.sema import resolve, validate


def test_walk_expr_post_order_on_mixed_tree():
    e = parse_expression(
        "not (a[i + 1].b.c[j] = abs(-k) or card({1, m} union s) > min(p, 2 * q, 3))"
    )
    order = [f"{type(n).__name__}:{print_expression(n)}" for n in ir.walk_expr(e)]
    left = "a[i + 1].b.c[j] = abs(-k)"
    right = "card({1,m} union s) > min(p, 2 * q, 3)"
    assert order == [
        "VarOccurrence:i", "IntValue:1", "AlgBinaryOp:i + 1", "VarOccurrence:a[i + 1]",
        "VarOccurrence:b", "VarOccurrence:j", "VarOccurrence:c[j]",
        "ObjectOccurrence:a[i + 1].b.c[j]",
        "VarOccurrence:k", "AlgUnaryOp:-k", "AlgFunction:abs(-k)", f"BoolBinaryOp:{left}",
        "IntValue:1", "VarOccurrence:m", "SetValue:{1,m}", "VarOccurrence:s",
        "SetBinaryOp:{1,m} union s", "SetFunction:card({1,m} union s)",
        "VarOccurrence:p", "IntValue:2", "VarOccurrence:q", "AlgBinaryOp:2 * q", "IntValue:3",
        "AlgFunction:min(p, 2 * q, 3)", f"BoolBinaryOp:{right}",
        f"BoolBinaryOp:{left} or {right}", f"BoolUnaryOp:not ({left} or {right})",
    ]


def test_walk_expr_deep_sum_needs_no_recursion():
    acc = ir.VarOccurrence("x1")
    for i in range(2, 20_001):
        acc = ir.AlgBinaryOp("+", acc, ir.VarOccurrence(f"x{i}"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        nodes = list(ir.walk_expr(acc))
    finally:
        sys.setrecursionlimit(limit)
    assert len(nodes) == 39_999
    assert nodes[0].name == "x1" and nodes[-1] is acc


def test_map_expr_rebuilds_only_changed_paths():
    e = parse_expression("a[i].b + c * 2")
    same = ir.map_expr(e, lambda n: n)
    assert same is e
    renamed = ir.map_expr(
        e, lambda n: ir.VarOccurrence("z") if isinstance(n, ir.VarOccurrence) and n.name == "b" else n
    )
    assert print_expression(renamed) == "a[i].z + c * 2"
    assert renamed.right is e.right


def test_child_fields_cover_statements_features_and_the_model():
    assert ir.CHILD_FIELDS[ir.If] == (("cond", False), ("then_body", True), ("else_body", True))
    assert ir.CHILD_FIELDS[ir.Variable] == (("dims", True), ("domain", False))
    assert ir.CHILD_FIELDS[ir.Class] == (("features", True),)
    assert ir.CHILD_FIELDS[ir.ConstraintZone] == (("body", True),)
    assert ir.CHILD_FIELDS[ir.Model] == (("elements", True),)


def _node_classes():
    return [c for c in vars(ir).values() if isinstance(c, type) and issubclass(c, ir.Node)]


def _mentions_node(t) -> bool:
    if isinstance(t, type) and issubclass(t, ir.Node):
        return True
    return any(_mentions_node(a) for a in typing.get_args(t))


def test_every_node_field_has_a_shape_the_walks_know():
    # X, X | None, tuple[X, ...] or tuple[X, ...] | None: a field of any
    # other shape that holds nodes would be skipped by every walk
    for cls in _node_classes():
        hints = typing.get_type_hints(cls)
        walked = []
        for f in dataclasses.fields(cls):
            t = hints[f.name]
            if not _mentions_node(t):
                continue
            if isinstance(t, types.UnionType):
                assert typing.get_args(t)[1:] == (type(None),), (cls, f.name, t)
                t = typing.get_args(t)[0]
            many = typing.get_origin(t) is tuple
            if many:
                assert typing.get_args(t)[1:] == (Ellipsis,), (cls, f.name, t)
                t = typing.get_args(t)[0]
            assert isinstance(t, type) and issubclass(t, ir.Node), (cls, f.name, t)
            walked.append((f.name, many))
        assert ir.CHILD_FIELDS[cls] == tuple(walked), cls


# every kind of node that holds nodes, bar expressions; an if without else
EVERY_KIND = """model K;
enum Color := {red, blue};
int n := 2;
int set s in {1, 2};
int set t in s;
class P { int y[n] in 0..3; constraint z { y[1] > 0; } }
main class M {
  P p[2];
  Color c;
  constraint m {
    forall(i in 1..n) { if (i = 1) { p[i].y[2] >= i; } else { c = red; } }
    if (n > 1) { alldifferent(p[1].y[1], p[2].y[1]); }
  }
}
"""


def test_map_expressions_identity_keeps_every_element():
    m = resolve(parse(SourceUnit(EVERY_KIND)))
    assert validate(m) == []
    nodes = list(ir.walk_expr(m))
    holders = {t for t in _node_classes() if ir.CHILD_FIELDS[t] and not issubclass(t, ir.Expression)}
    assert {type(n) for n in nodes} >= holders
    assert any(type(n) is ir.If and n.else_body is None for n in nodes)
    out = ir.map_expressions(m, lambda n: n)
    assert out is m
    assert all(map(operator.is_, out.elements, m.elements))
