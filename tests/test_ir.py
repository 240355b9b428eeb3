import copy
import operator
import pickle
import sys
import types
import typing
import weakref

import pytest

from pivotc import ir
from pivotc.errors import Loc
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
        "VarOccurrence:i", "IntValue:1", "AlgChain:i + 1", "VarOccurrence:a[i + 1]",
        "VarOccurrence:b", "VarOccurrence:j", "VarOccurrence:c[j]",
        "ObjectOccurrence:a[i + 1].b.c[j]",
        "VarOccurrence:k", "AlgUnaryOp:-k", "AlgFunction:abs(-k)", f"BoolBinaryOp:{left}",
        "IntValue:1", "VarOccurrence:m", "SetValue:{1,m}", "VarOccurrence:s",
        "SetBinaryOp:{1,m} union s", "SetFunction:card({1,m} union s)",
        "VarOccurrence:p", "IntValue:2", "VarOccurrence:q", "AlgChain:2 * q", "IntValue:3",
        "AlgFunction:min(p, 2 * q, 3)", f"BoolBinaryOp:{right}",
        f"BoolChain:{left} or {right}", f"BoolUnaryOp:not ({left} or {right})",
    ]


def test_walk_expr_deep_sum_needs_no_recursion():
    # x20000 + (x19999 + (... + x1)): each bracket one level
    acc = ir.VarOccurrence("x1")
    for i in range(2, 20_001):
        acc = ir.AlgChain(("+",), (ir.VarOccurrence(f"x{i}"), acc))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        nodes = list(ir.walk_expr(acc))
    finally:
        sys.setrecursionlimit(limit)
    assert len(nodes) == 39_999
    assert nodes[0].name == "x20000" and nodes[19_999].name == "x1" and nodes[-1] is acc


def test_map_expr_rebuilds_only_changed_paths():
    e = parse_expression("a[i].b + c * 2")
    same = ir.map_expr(e, lambda n: n)
    assert same is e
    renamed = ir.map_expr(
        e, lambda n: ir.VarOccurrence("z") if isinstance(n, ir.VarOccurrence) and n.name == "b" else n
    )
    assert print_expression(renamed) == "a[i].z + c * 2"
    assert renamed.terms[1] is e.terms[1]


def test_chains_share_operator_tuples_and_take_in_a_leading_chain():
    x, y, z = map(ir.VarOccurrence, "xyz")
    assert ir.CHILD_FIELDS[ir.AlgChain] == (("terms", True),)
    assert ir.CHILD_FIELDS[ir.BoolChain] == (("terms", True),)
    assert ir.chain_ops(["+", "-"]) is ir.chain_ops(("+", "-"))
    assert ir.chain("+", [x]) is x
    difference = ir.chain("-", [x, y])
    assert ir.chain("+", [difference, z]) == ir.AlgChain(("-", "+"), (x, y, z))
    assert ir.chain("+", [difference, z]).ops is ir.chain_ops(("-", "+"))
    # a chain of another group, or on the right, stays one operand
    assert ir.chain("*", [difference, z]).terms == (difference, z)
    assert ir.chain("+", [z, difference]).terms == (z, difference)
    assert ir.chain("and", [ir.chain("and", [x, y]), z]) == ir.BoolChain("and", (x, y, z))
    assert ir.chain("or", [ir.chain("and", [x, y]), z]).terms[1] is z


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
        for f in cls._fields:
            t = hints[f]
            if not _mentions_node(t):
                continue
            if isinstance(t, types.UnionType):
                assert typing.get_args(t)[1:] == (type(None),), (cls, f, t)
                t = typing.get_args(t)[0]
            many = typing.get_origin(t) is tuple
            if many:
                assert typing.get_args(t)[1:] == (Ellipsis,), (cls, f, t)
                t = typing.get_args(t)[0]
            assert isinstance(t, type) and issubclass(t, ir.Node), (cls, f, t)
            walked.append((f, many))
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
    out = ir.map_expr(m, lambda n: n)
    assert out is m
    assert all(map(operator.is_, out.elements, m.elements))


# --------------------------------------------------------------------------
# What every node class promises: constructors, equality without locations
# and bindings, repr, immutability, copies and weak references.

def _binary(loc=None, xloc=None, binding=None):
    x = ir.VarOccurrence("x", (ir.IntValue(1),), loc=xloc, binding=binding)
    return ir.AlgBinaryOp("/", x, ir.IntValue(2), loc=loc)


def test_nodes_construct_positionally_and_by_keyword():
    loc = Loc(3, 4, "m.som")
    binding = ir.Binding("variable", "x")
    assert ir.AlgBinaryOp("/", ir.IntValue(1), ir.IntValue(2)) == ir.AlgBinaryOp(
        right=ir.IntValue(2), op="/", left=ir.IntValue(1)
    )
    assert ir.AlgBinaryOp("/").left is None and ir.AlgBinaryOp("/").loc is None
    occ = ir.VarOccurrence("x", (ir.IntValue(1),), binding=binding, loc=loc)
    assert (occ.name, occ.indexes, occ.binding, occ.loc) == ("x", (ir.IntValue(1),), binding, loc)
    assert ir.VarOccurrence(name="x").indexes == () and ir.VarOccurrence("x").binding is None
    loop = ir.ForAll("i", ir.IntValue(1), upper=ir.IntValue(3), body=(), loc=loc)
    assert (loop.iter_var, loop.lower, loop.upper, loop.body, loop.loc) == (
        "i", ir.IntValue(1), ir.IntValue(3), (), loc
    )
    m = ir.Model("m", (loop,), loc=loc)
    assert (m.name, m.elements, m.loc) == ("m", (loop,), loc)
    assert ir.Model(name="m").elements == ()
    with pytest.raises(TypeError):
        ir.IntValue(1, loc)
    with pytest.raises(TypeError):
        ir.VarOccurrence("x", (), binding)
    with pytest.raises(TypeError):
        ir.AlgBinaryOp("/", ir.IntValue(1), ir.IntValue(2), loc)


def test_equality_and_hash_ignore_locations_and_bindings():
    plain = _binary()
    located = _binary(Loc(1, 1), Loc(1, 2), ir.Binding("variable", "x"))
    assert plain == located and hash(plain) == hash(located)
    assert plain != ir.AlgBinaryOp("/", plain.left, ir.IntValue(3))
    assert ir.IntValue(1) != ir.IntValue(2)
    assert hash(ir.IntValue(1)) == hash((1,))
    # the same fields in another class are another node
    assert ir.AlgBinaryOp("/") != ir.SetBinaryOp("/")
    assert ir.ExpressionConstraint(ir.BoolValue(True)) != ir.ExprDomain(ir.BoolValue(True))
    assert len({plain, located, ir.SetBinaryOp("+", plain.left, plain.right)}) == 2
    # bindings and inferred types compare and hash by every field
    assert ir.Binding("variable", "x") == ir.Binding("variable", "x", None, None, None)
    assert ir.Binding("variable", "x") != ir.Binding("constant", "x")
    assert hash(ir.INTEGER) == hash(("integer", None)) and ir.INTEGER == ir.TypeKind("integer")
    # and so does every class: each field in turn, never the riders, only
    # against its own class, hashed as the tuple of its compared fields
    classes = [c for c in ir.CHILD_FIELDS if c._fields != ("loc",)]  # the abstract ones have none
    assert {ir.Binding, ir.TypeKind, ir.IntValue, ir.Model} <= set(classes) and len(classes) == 30
    for cls in classes:
        compared = [f for f in cls._fields if f not in ("loc", "binding")]
        values = [f"{cls.__name__}.{f}" for f in compared]
        node = cls(*values)
        riders = {r: v for r, v in (("loc", Loc(1, 2)), ("binding", ir.Binding("iterator", "i")))
                  if r in cls._fields}
        assert node == cls(*values, **riders) and hash(node) == hash(cls(*values, **riders))
        assert hash(node) == hash(tuple(values)) == hash(tuple(map(node.__getattribute__, compared)))
        for at in range(len(values)):
            assert node != cls(*values[:at], "other", *values[at + 1:]), (cls, compared[at])
        twin = type(cls.__name__, (cls,), {"__slots__": ()})(*values)  # the same fields
        assert node != twin and twin != node, cls


def test_repr_shows_compared_fields_only():
    e = _binary(Loc(1, 1), Loc(1, 2), ir.Binding("variable", "x"))
    assert repr(e) == (
        "AlgBinaryOp(op='/', left=VarOccurrence(name='x', indexes=(IntValue(v=1),)), "
        "right=IntValue(v=2))"
    )
    assert repr(ir.Model("m")) == "Model(name='m', elements=())"
    assert repr(ir.Binding("variable", "x")) == (
        "Binding(kind='variable', target='x', enum_name=None, position=None, owner=None)"
    )
    assert repr(ir.enum_kind("Color")) == "TypeKind(kind='enum', name='Color')"


def test_named_kinds_are_interned_and_compare_by_value():
    assert ir.enum_kind("Color") is ir.enum_kind("Color")
    assert ir.set_of_enum("Color") is ir.set_of_enum("Color") is not ir.enum_kind("Color")
    assert ir.object_kind("C") is ir.object_kind("C")
    assert ir.enum_kind("Color") == ir.TypeKind("enum", "Color")
    assert ir.enum_kind("Color") != ir.set_of_enum("Color")


def test_nodes_refuse_assignment():
    e = _binary()
    with pytest.raises(AttributeError):
        e.op = "^"
    with pytest.raises(AttributeError):
        e.extra = 1
    with pytest.raises(AttributeError):
        del e.left
    assert e.op == "/"


def test_deepcopy_and_pickle_keep_locations_and_bindings():
    loc, binding = Loc(2, 5, "m.som"), ir.Binding("variable", "x")
    e = _binary(Loc(2, 3, "m.som"), loc, binding)
    for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and twin is not e and type(twin) is ir.AlgBinaryOp
        assert twin.loc == e.loc and twin.left.loc == loc and twin.left.binding == binding
    shared = ir.IntValue(7)
    pair = copy.deepcopy(ir.AlgBinaryOp("^", shared, shared))
    assert pair.left is pair.right and pair.left is not shared


def test_models_take_weak_references():
    m = ir.Model("m")
    ref = weakref.ref(m)
    assert ref() is m
    del m
    assert ref() is None


def test_every_node_class_has_slots_and_no_instance_dict():
    # a node class without __slots__ would give its nodes a __dict__ again
    for cls in _node_classes():
        assert "__slots__" in vars(cls), cls
        assert type(cls) is type, cls
    # the field table keeps the declaration order, the base's loc first
    assert ir.VarOccurrence._fields == ("loc", "name", "indexes", "binding")
    for value in (_binary(), ir.Model("m"), ir.ForAll("i"),
                  ir.BOOLEAN, ir.Binding("variable", "x")):
        assert not hasattr(value, "__dict__"), type(value)
