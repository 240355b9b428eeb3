
import collections
import random

import pytest

from helpers import wide_source
from pivotc import ir, sema
from pivotc.cli import _front
from pivotc.errors import (
    CompileError,
    DuplicateNameError,
    Loc,
    ParseError,
    UnresolvedNameError,
)
from pivotc.parser import SourceUnit, parse, parse_expression
from pivotc.sema import Scope, infer_type, resolve, validate


def _scope(text: str) -> tuple[ir.Model, Scope]:
    m = resolve(parse(SourceUnit(text)))
    return m, Scope(m)


def test_resolve_binds_constant_in_dim():
    m = resolve(parse(SourceUnit("model M;\nint s := 3;\nint x[s] in 1..3;")))
    var = m.elements[1]
    dim = var.dims[0]
    assert isinstance(dim, ir.VarOccurrence)
    assert dim.binding == ir.Binding("constant", "s")


def test_resolve_shares_equal_bindings():
    m = resolve(parse(SourceUnit(
        "model M;\nint x in 1..3;\nint y in 1..3;\nconstraint c { x != y; x + y >= x; }"
    )))
    first, second = next(z.body for z in m.elements if isinstance(z, ir.ConstraintZone))
    xs = [n for n in ir.walk_expr(first.expr) if isinstance(n, ir.VarOccurrence) and n.name == "x"]
    xs += [n for n in ir.walk_expr(second.expr) if isinstance(n, ir.VarOccurrence) and n.name == "x"]
    assert len(xs) == 3
    assert all(n.binding is xs[0].binding for n in xs)
    assert xs[0].binding == ir.Binding("variable", "x")


def test_resolve_empty_model_identity():
    m = ir.Model("Empty", ())
    assert resolve(m) == m


def test_resolve_undeclared_name():
    with pytest.raises(UnresolvedNameError) as info:
        resolve(parse(SourceUnit("model M;\nconstraint c { q = 1; }")))
    assert info.value.name == "q"


def test_resolve_idempotent(golfers):
    r = resolve(golfers)
    assert resolve(r) == r


def test_resolve_returns_its_own_output_as_is(golfers):
    r = resolve(golfers)
    assert resolve(r) is r
    # a structural copy is equal but not known to be resolved
    copy = ir.rebuild(r, {"elements": tuple(r.elements)})
    again = resolve(copy)
    assert again is not copy and again == r
    assert resolve(golfers) is not golfers


def test_resolve_is_idempotent_on_wide():
    # the benchmark's input shape: resolving twice from the text gives
    # equal models, each clean, and a resolved model comes back as is
    source = wide_source(random.Random(905))
    first = resolve(parse(SourceUnit(source)))
    second = resolve(parse(SourceUnit(source)))
    assert first == second
    assert validate(first) == [] and validate(second) == []
    assert resolve(first) is first


def test_resolve_types_each_declaration_once_and_builds_each_node_once(monkeypatch):
    model = parse(SourceUnit(wide_source(random.Random(3), constraints=60)))
    typed = collections.Counter()
    decl_kind = sema.decl_kind

    def counted_kind(decl, scope):
        typed[id(decl)] += 1
        return decl_kind(decl, scope)

    built, made = [], set()
    rebuild = ir.rebuild

    def counted_rebuild(e, updates):
        built.append(e)
        new = rebuild(e, updates)
        made.add(id(new))
        return new

    monkeypatch.setattr(sema, "decl_kind", counted_kind)
    monkeypatch.setattr(ir, "rebuild", counted_rebuild)
    resolved = resolve(model)
    decls = {id(d) for d in ir.walk_expr(model) if isinstance(d, ir.TypedElement)}
    occurrences = [n for n in ir.walk_expr(model) if isinstance(n, ir.VarOccurrence)]
    assert len(occurrences) > 4 * len(decls)  # many readings per declaration
    assert set(typed) <= decls and set(typed.values()) == {1}
    # each parsed node is built again at most once; every node of the
    # result is one of those, or a parsed node shared as is (a literal)
    parsed = {id(n) for n in ir.walk_expr(model)}
    assert len(built) == len({id(n) for n in built}) and {id(n) for n in built} <= parsed
    assert all(id(n) in made or id(n) in parsed for n in ir.walk_expr(resolved))


def test_duplicate_top_level_name():
    with pytest.raises(DuplicateNameError):
        resolve(parse(SourceUnit("model M;\nint x := 1;\nint x := 2;")))


def test_declarations_shadow_enum_literals():
    # the golfers data file declares both a literal g and a constant g
    m, sc = _scope("model M;\nenum E := {g,h};\nint g := 3;\nint x[g] in 1..3;")
    kind, decl = sc.lookup("g")
    assert kind == "constant"
    kind, _ = sc.lookup("h")
    assert kind == "enum_literal"


def test_iterator_shadows_outer_names():
    m = resolve(parse(SourceUnit(
        "model M;\nint s := 3;\nint x[3] in 1..3;\n"
        "constraint c { forall(s in 1..3) { x[s] = s; } }"
    )))
    loop = m.elements[2].body[0]
    occ = loop.body[0].expr.right
    assert occ.binding.kind == "iterator"


def test_infer_card_of_set_is_integer():
    m, sc = _scope("model M;\nenum Name := {a,b,c};\nName set players;")
    e = resolve(parse(SourceUnit(
        "model M;\nenum Name := {a,b,c};\nName set players;\n"
        "constraint c { card(players) = 2; }"
    ))).elements[2].body[0].expr
    assert infer_type(e.left, sc) == ir.INTEGER


def test_infer_bool_value():
    _, sc = _scope("model M;")
    assert infer_type(ir.BoolValue(True), sc) == ir.BOOLEAN


def test_infer_mixed_arith_promotes_to_real():
    _, sc = _scope("model M;")
    e = ir.AlgBinaryOp("+", ir.IntValue(1), ir.RealValue(0.5))
    assert infer_type(e, sc) == ir.REAL


def test_infer_division_is_real():
    _, sc = _scope("model M;")
    assert infer_type(parse_expression("1 / 2"), sc) == ir.REAL


def test_infer_bool_coerces_in_sums():
    _, sc = _scope("model M;\nbool b;\nbool c;")
    e = parse_expression("b + c")
    assert infer_type(e, sc) == ir.INTEGER


def test_infer_enum_literal_and_variable():
    m, sc = _scope("model M;\nenum Name := {a,b,c};\nName v;")
    assert infer_type(ir.VarOccurrence("a"), sc) == ir.enum_kind("Name")
    assert infer_type(ir.VarOccurrence("v"), sc) == ir.enum_kind("Name")
    eq = ir.BoolBinaryOp("=", ir.VarOccurrence("v"), ir.VarOccurrence("a"))
    assert infer_type(eq, sc) == ir.BOOLEAN
    with pytest.raises(CompileError, match="'<' cannot compare Name with Name"):
        infer_type(ir.BoolBinaryOp("<", ir.VarOccurrence("v"), ir.VarOccurrence("a")), sc)


def test_infer_indexed_array_takes_its_declared_kind():
    # the kind of a cell is its declaration's, whatever its index's
    m, sc = _scope("model M;\nenum E := {a, b};\nint set ss[2] in 1..4;\nE es[2];\nreal rs[2];")
    assert infer_type(parse_expression("ss[1]"), sc) is ir.SET_OF_INT
    assert infer_type(parse_expression("es[2]"), sc) is ir.enum_kind("E")
    assert infer_type(parse_expression("rs[1] + 1"), sc) is ir.REAL


def test_infer_index_count_mismatch():
    _, sc = _scope("model M;\nint x[3] in 1..3;")
    with pytest.raises(CompileError, match=r"'x' has 1 dimension\(s\), referenced with 0 index\(es\)"):
        infer_type(ir.VarOccurrence("x"), sc)  # whole-array reference
    with pytest.raises(CompileError, match=r"'x' has 1 dimension\(s\), referenced with 2 index\(es\)"):
        infer_type(ir.VarOccurrence("x", (ir.IntValue(1), ir.IntValue(2))), sc)


def test_infer_navigation_path(golfers):
    m = resolve(golfers)
    sc = Scope(m).in_class(m.classes()["SocialGolfers"])
    e = parse_expression("weekSched[1].groupSched[2].players")
    assert infer_type(e, sc) == ir.set_of_enum("Name")


def test_validate_golfers_clean(golfers):
    assert validate(resolve(golfers)) == []


def test_validate_non_boolean_constraint():
    m = resolve(parse(SourceUnit("model M;\nconstraint c { 1 + 2; }")))
    diags = validate(m)
    assert len(diags) == 1
    assert "must be boolean" in diags[0].message


def test_validate_real_loop_bounds():
    m = resolve(parse(SourceUnit("model M;\nconstraint c { forall(i in 1..2.5) { i = 1; } }")))
    diags = validate(m)
    assert len(diags) == 1
    assert "loop bound" in diags[0].message


def test_validate_object_variable_restrictions():
    m = resolve(parse(SourceUnit(
        "model M;\nclass C { int a in 1..2; }\nmain class M0 { C o in 1..2; }"
    )))
    diags = validate(m)
    assert any("no domain" in d.message for d in diags)


def test_validate_reports_an_unresolved_name_once_at_its_place():
    m = parse(SourceUnit("model M;\nconstraint c { q = 1; p = 2; }", model_file="m.som"))
    assert [(d.message, d.line, d.column) for d in validate(m)] == [
        ("unresolved name 'q'", 2, 16)
    ]


def test_validate_set_of_real_rejected():
    m = resolve(parse(SourceUnit("model M;\nreal set x;")))
    assert any("sets of real" in d.message for d in validate(m))


def test_every_expression_variant_validates():
    # a hand-built model exercising each expression node in a typed context
    model = ir.Model(
        "All",
        (
            ir.Enumeration("E", ("ea", "eb")),
            ir.Constant("c", "int", ir.IntValue(2)),
            ir.Variable("x", "int", domain=ir.IntervalDomain(ir.IntValue(0), ir.IntValue(5))),
            ir.Variable("arr", "int", dims=(ir.IntValue(2),),
                        domain=ir.IntervalDomain(ir.IntValue(0), ir.IntValue(5))),
            ir.Variable("sv", "int", is_set=True,
                        domain=ir.IntervalDomain(ir.IntValue(1), ir.IntValue(4))),
            ir.Variable("ev", "E"),
            ir.Variable("bv", "bool"),
            ir.ConstraintZone(
                "all",
                (
                    ir.ExpressionConstraint(ir.BoolValue(True)),
                    ir.ExpressionConstraint(ir.BoolUnaryOp("not", ir.BoolValue(False))),
                    ir.ExpressionConstraint(ir.BoolBinaryOp(
                        "iff",
                        ir.BoolBinaryOp("<=", ir.VarOccurrence("x"), ir.IntValue(4)),
                        ir.BoolBinaryOp("or", ir.VarOccurrence("bv"), ir.BoolValue(True)),
                    )),
                    ir.ExpressionConstraint(ir.BoolBinaryOp(
                        "=", ir.VarOccurrence("ev"), ir.VarOccurrence("ea"))),
                    ir.ExpressionConstraint(ir.BoolBinaryOp(
                        "=",
                        ir.SetFunction("card", ir.SetBinaryOp(
                            "union", ir.VarOccurrence("sv"),
                            ir.SetValue((ir.IntValue(1), ir.IntValue(2))))),
                        ir.AlgBinaryOp("+", ir.VarOccurrence("c"), ir.IntValue(0)),
                    )),
                    ir.ExpressionConstraint(ir.BoolBinaryOp(
                        "=",
                        ir.SetFunction("card", ir.SetBinaryOp(
                            "diff", ir.SetValue((ir.IntValue(1), ir.IntValue(4))),
                            ir.VarOccurrence("sv"))),
                        ir.VarOccurrence("arr", (ir.IntValue(1),)),
                    )),
                    ir.ExpressionConstraint(ir.BoolBinaryOp(
                        "<=",
                        ir.AlgFunction("abs", (ir.AlgUnaryOp("neg", ir.VarOccurrence("x")),)),
                        ir.AlgFunction("max", (ir.IntValue(9), ir.AlgBinaryOp(
                            "^", ir.VarOccurrence("x"), ir.IntValue(2)))),
                    )),
                    ir.ExpressionConstraint(ir.BoolBinaryOp(
                        "<",
                        ir.AlgFunction("sqrt", (ir.AlgBinaryOp(
                            "/", ir.VarOccurrence("x"), ir.IntValue(2)),)),
                        ir.RealValue(99.5),
                    )),
                    ir.ForAll("i", ir.IntValue(1), ir.IntValue(2), (
                        ir.ExpressionConstraint(ir.BoolBinaryOp(
                            "!=", ir.VarOccurrence("arr", (ir.VarOccurrence("i"),)),
                            ir.IntValue(0))),
                    )),
                    ir.If(ir.BoolValue(True), (
                        ir.ExpressionConstraint(ir.BoolValue(True)),
                    ), None),
                    ir.GlobalCtr("alldifferent", (
                        ir.VarOccurrence("x"),
                        ir.VarOccurrence("arr", (ir.IntValue(1),)),
                    )),
                ),
            ),
        ),
    )
    resolved = resolve(model)
    assert validate(resolved) == []


def test_constant_must_be_ground():
    m = resolve(parse(SourceUnit("model M;\nint x in 1..3;\nint k := 2;")))
    bad = ir.Model(
        "M",
        (
            ir.Variable("x", "int", domain=ir.IntervalDomain(ir.IntValue(1), ir.IntValue(3))),
            ir.Constant("k", "int", ir.VarOccurrence("x")),
        ),
    )
    diags = validate(resolve(bad))
    assert any("ground" in d.message for d in diags)


def test_infer_type_is_pure():
    m, sc = _scope("model M;\nint x in 1..3;\nint set s in 1..4;")
    e = parse_expression("card(s) + x")
    assert infer_type(e, sc) == infer_type(e, sc) == ir.INTEGER


def test_flatten_composed_dims_and_attribute_arrays():
    from pivotc.passes import object_flatten
    m = resolve(parse(SourceUnit(
        "model N;\nclass C { int t[2] in 1..2; }\nmain class M { C cs[3];"
        " constraint q { cs[2].t[1] = 1; } }"
    )))
    flat = object_flatten(m)
    var = next(e for e in flat.elements if isinstance(e, ir.Variable))
    assert var.name == "cs_t"
    from pivotc.printer import print_expression
    assert print_expression(var.dims[0]) == "2 * 3"
    zone = next(e for e in flat.elements if isinstance(e, ir.ConstraintZone) and e.name == "q")
    assert print_expression(zone.body[0].expr.left.indexes[0]) == "2 * (2 - 1) + 1"


# The front end's diagnostics on malformed models, pinned to the exact
# (message, line, column) that parse -> resolve -> validate reports, so that
# a rewrite of resolve and validate into one walk keeps them and their order.
# A type error is reported at the node whose check failed, which may lie
# inside the statement's expression.
FRONT_DIAGNOSTICS = {
    "unresolved_in_dim": (
        "model M;\nint x[n] in 1..3;\n",
        [("unresolved name 'n'", 2, 7)],
    ),
    "unresolved_in_domain": (
        "model M;\nint x in 1..k;\n",
        [("unresolved name 'k'", 2, 13)],
    ),
    "unresolved_in_loop_bound": (
        "model M;\nint x[2] in 1..3;\nconstraint c {\n  forall(i in 1..m) { x[i] >= 1; }\n}\n",
        [("unresolved name 'm'", 4, 18)],
    ),
    "unresolved_navigation_step": (
        "model M;\nclass C { int a in 1..2; }\nC o;\nconstraint c { o.b = 1; }\n",
        [("class 'C' has no attribute 'b'", 4, 18)],
    ),
    "navigation_from_a_scalar": (
        "model M;\nint x in 1..2;\nconstraint c { x.y = 1; }\n",
        [("cannot navigate into 'x'", 3, 18)],
    ),
    "duplicate_top_level_name": (
        "model M;\nint x in 1..2;\nint x in 1..3;\n",
        [("duplicate name 'x'", 3, 1)],
    ),
    "duplicate_feature": (
        "model M;\nclass C {\n  int a in 1..2;\n  int a in 1..3;\n}\nC o;\n",
        [("duplicate feature 'a' in class 'C'", 4, 3)],
    ),
    "wrong_index_count": (
        "model M;\nint x[2] in 1..3;\nconstraint c { x[1,2] = 1; }\n",
        [("'x' has 1 dimension(s), referenced with 2 index(es)", 3, 16)],
    ),
    "indexed_iterator": (
        "model M;\nint x[2] in 1..3;\nconstraint c {\n  forall(i in 1..2) { x[i] = i[1]; }\n}\n",
        [("loop iterator 'i' cannot be indexed", 4, 30)],
    ),
    "set_compared_with_int": (
        "model M;\nint set s in 1..3;\nint x in 1..3;\nconstraint c { s = x; }\n",
        [("'=' cannot compare set of int with integer", 4, 18)],
    ),
    "non_ground_constant": (
        "model M;\nint x in 1..3;\nint k := x + 1;\n",
        [("constant 'k' must have a ground value", 3, 1)],
    ),
    "card_of_an_int": (
        "model M;\nint x in 1..3;\nconstraint c { card(x) = 1; }\n",
        [("card expects a set", 3, 16)],
    ),
    "alldifferent_over_reals": (
        "model M;\nreal a in 1..3;\nreal b in 1..3;\nconstraint c { alldifferent(a, b); }\n",
        [("alldifferent parameter must be integer, found real", 4, 29),
         ("alldifferent parameter must be integer, found real", 4, 32)],
    ),
    "unknown_type": (
        "model M;\nFoo x;\n",
        [("unknown type 'Foo'", 2, 1)],
    ),
    "set_as_loop_bound": (
        "model M;\nint x[2] in 1..3;\nconstraint c {\n  forall(i in 1..{2}) { x[i] >= 1; }\n}\n",
        [("loop bound must be integer, found set of int", 4, 18)],
    ),
    "two_diagnostics_in_order": (
        "model M;\nint x in 1..3;\nconstraint c {\n  card(x) = 1;\n  x + true;\n}\n",
        [("card expects a set", 4, 3),
         ("constraint expression must be boolean, found integer", 5, 5)],
    ),
    "two_type_errors_first_wins": (
        "model M;\nint set s in 1..3;\nint x in 1..3;\nconstraint c { s + card(x) = 1; }\n",
        [("numeric operand expected", 4, 16)],
    ),
    "type_error_then_unresolved": (
        "model M;\nint x in 1..3;\nconstraint c {\n  card(x) = 1;\n  q = 1;\n}\n",
        [("unresolved name 'q'", 5, 3)],
    ),
    "type_error_then_unresolved_in_one_expression": (
        "model M;\nint x in 1..3;\nconstraint c { card(x) = q; }\n",
        [("unresolved name 'q'", 3, 26)],
    ),
    "type_error_in_class_zone": (
        "model M;\nclass C {\n  int a in 1..3;\n  constraint z { card(a) = 1; }\n}\nC o;\n",
        [("card expects a set", 4, 18)],
    ),
    "non_integer_index": (
        "model M;\nint x[2] in 1..3;\nconstraint c { x[1.5] = 1; }\n",
        [("array index must be integer", 3, 18)],
    ),
    "index_count_before_index_types": (
        "model M;\nint x[2] in 1..3;\nconstraint c { x[1.5, 2] = 1; }\n",
        [("'x' has 1 dimension(s), referenced with 2 index(es)", 3, 16)],
    ),
    "min_of_one_argument": (
        "model M;\nint x in 1..3;\nconstraint c { min(x) = 1; }\n",
        [("'min' expects at least 2 arguments", 3, 16)],
    ),
    "arity_before_argument_types": (
        "model M;\nint x in 1..3;\nconstraint c { min(card(x)) = 1; }\n",
        [("'min' expects at least 2 arguments", 3, 16)],
    ),
    "unknown_function": (
        "model M;\nint x in 1..3;\nconstraint c { foo(x) = 1; }\n",
        [("unknown function 'foo'", 3, 16)],
    ),
    "non_ground_set_member": (
        "model M;\nint y in 1..3;\nint x in {1, y};\n",
        [("domain members must be ground", 3, 14)],
    ),
    "non_ground_constant_with_a_type_error": (
        "model M;\nint x in 1..3;\nint k := card(x);\n",
        [("constant 'k' must have a ground value", 3, 1),
         ("card expects a set", 3, 10)],
    ),
    "int_constant_valued_with_a_set": (
        "model M;\nint k := {1, 2};\n",
        [("constant 'k' declared integer but valued set of int", 2, 1)],
    ),
    "literal_in_two_enumerations": (
        "model M;\nenum A := {x, y};\nenum B := {y, z};\n",
        [("duplicate name 'y'", 3, 1)],
    ),
    # the model has no location of its own
    "two_main_classes": (
        "model M;\nmain class A { }\nmain class B { }\n",
        [("duplicate name 'main'", 3, 6)],
    ),
    "enumeration_read_as_a_value": (
        "model M;\nenum E := {a, b};\nint x in 1..3;\nconstraint c { x = E; }\n",
        [("'E' names a enum, not a value", 4, 20)],
    ),
    "class_read_as_a_value": (
        "model M;\nclass C { int a in 1..2; }\nint x in 1..3;\nconstraint c { x = C; }\n",
        [("'C' names a class, not a value", 4, 20)],
    ),
    # the declaration reports its type, and so does the expression that
    # reads it, at the declaration
    "set_of_reals_read": (
        "model M;\nreal set s;\nconstraint c { card(s) = 1; }\n",
        [("'s': sets of real are not supported", 2, 1)],
    ),
    "unknown_type_read": (
        "model M;\nFoo x;\nconstraint c { x = 1; }\n",
        [("unknown type 'Foo'", 2, 1)],
    ),
    "set_of_objects": (
        "model M;\nclass C { int a in 1..2; }\nC set o;\n",
        [("'o': object variables cannot be sets", 3, 1)],
    ),
    "object_with_a_domain": (
        "model M;\nclass C { int a in 1..2; }\nC o in 1..2;\n",
        [("'o': object variables take no domain", 3, 1)],
    ),
    "set_as_domain_bound": (
        "model M;\nint x in 1..{2};\n",
        [("domain bound must be numeric, found set of int", 2, 13)],
    ),
    "integer_as_domain_expression": (
        "model M;\nint x in 3;\n",
        [("domain expression must be a set, found integer", 2, 10)],
    ),
    "type_error_inside_a_union": (
        "model M;\nint set s in 1..3;\nconstraint c { card(s union (s + 1)) = 1; }\n",
        [("numeric operand expected", 3, 30)],
    ),
    "union_with_an_integer": (
        "model M;\nint set s in 1..3;\nint x in 1..3;\nconstraint c { card(s union x) = 1; }\n",
        [("'union' expects two sets of the same element type", 4, 23)],
    ),
    "empty_set_literal_is_a_set_of_int": (
        "model M;\nint set s in 1..3;\nconstraint c { card(s union {}) = 0; }\n",
        [],
    ),
    "type_error_inside_a_set_literal": (
        "model M;\nint set s in 1..3;\nconstraint c { card({s + 1}) = 0; }\n",
        [("numeric operand expected", 3, 22)],
    ),
    "set_literal_of_an_integer_and_a_literal": (
        "model M;\nenum E := {a, b};\nint set s in 1..3;\nconstraint c { card(s union {1, a}) = 0; }\n",
        [("set elements must all be integers or literals of one enumeration", 4, 29)],
    ),
    "abs_of_two_arguments": (
        "model M;\nint x in 1..3;\nconstraint c { abs(x, x) = 1; }\n",
        [("'abs' expects exactly 1 argument", 3, 16)],
    ),
    "set_of_literals_compared_with_an_integer": (
        "model M;\nenum E := {a, b};\nE set s;\nint x in 1..3;\nconstraint c { s = x; }\n",
        [("'=' cannot compare set of E with integer", 5, 18)],
    ),
}


@pytest.mark.parametrize("name", sorted(FRONT_DIAGNOSTICS))
def test_front_diagnostics_are_pinned(name, tmp_path, monkeypatch):
    source, expected = FRONT_DIAGNOSTICS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.som").write_text(source)
    try:
        _front("m.som", None)
    except ParseError as exc:
        found = [(d.message, d.line, d.column) for d in exc.diagnostics]
    except CompileError as exc:
        loc = exc.loc or Loc()
        found = [(str(exc).removeprefix(f"{loc}: "), loc.line, loc.col)]
    else:
        found = []
    assert found == expected


def test_what_only_a_built_tree_can_hold():
    # the parser refuses an unknown function; a tree built in Python is
    # typed and refused here, and a non-IR node is a programming error
    _, sc = _scope("model M;\nint x in 1..3;")
    with pytest.raises(CompileError, match="unknown function 'frob'"):
        infer_type(ir.AlgFunction("frob", (ir.IntValue(1),)), sc)
    with pytest.raises(TypeError, match="unknown expression"):
        infer_type(ir.Domain(), sc)
    zone = ir.ConstraintZone("c", (ir.IntValue(1),))
    with pytest.raises(TypeError, match="unknown statement"):
        resolve(ir.Model("M", (zone,)))
