import sys

from pivotc import ir
from pivotc.parser import parse_expression
from pivotc.printer import print_expression


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
