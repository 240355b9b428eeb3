import gc
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pivotc import ir, passes, sema
from pivotc.alldiff import alldiff_to_disequalities
from pivotc.errors import CompileError, UnresolvedNameError
from pivotc.cli import DEFAULT_PASSES, FLAT_EXTRA_PASSES, main
from pivotc.clp import emit_clp
from pivotc.flat import emit_flat, lower_to_flat
from pivotc.oracle import enumerate_solutions
from pivotc.parser import SourceUnit, parse, parse_expression
from pivotc.passes import (
    PassConfig,
    alldiff_rewrite,
    enum_remove,
    fold_constants,
    loop_unroll,
    object_flatten,
    run_pipeline,
)
from pivotc.printer import print_expression, print_pivot
from pivotc.sema import mark_resolved, resolve, validate

from conftest import ALL_FIXTURES, parse_fixture
from helpers import (
    gen_loop_model, gen_model, naive_element_count, naive_model_features, naive_unroll,
)
from test_acceptance import _within


def _zone(model, name):
    for e in model.elements:
        if isinstance(e, ir.ConstraintZone) and e.name == name:
            return e
    raise AssertionError(f"no zone {name!r}")


def _first_global(model):
    for e in model.elements:
        if isinstance(e, ir.ConstraintZone):
            for s in e.body:
                if isinstance(s, ir.GlobalCtr):
                    return s
    raise AssertionError("no global constraint")


# --------------------------------------------------------------------------
# objectFlatten

def test_flatten_golfers_single_set_array(golfers):
    flat = object_flatten(golfers)
    assert not flat.classes()
    variables = [e for e in flat.elements if isinstance(e, ir.Variable)]
    assert len(variables) == 1
    v = variables[0]
    assert v.name == "weekSched_groupSched_players"
    assert v.is_set and v.type_name == "Name"
    assert len(v.dims) == 1
    assert print_expression(v.dims[0]) == "g * w"


def test_flatten_without_classes_is_identity():
    m = parse(SourceUnit("model M;\nint x in 1..3;\nconstraint c { x = 1; }"))
    assert ir.model_equals(object_flatten(m), resolve(m))


def test_flatten_rewrites_navigation_to_linear_index(golfers):
    flat = object_flatten(golfers)
    zone = _zone(flat, "differentGroups")
    loop = zone.body[0]
    while isinstance(loop, ir.ForAll) and isinstance(loop.body[0], ir.ForAll):
        loop = loop.body[0]
    ctr = loop.body[0]
    card = ctr.expr.left
    left_occ = card.arg.left
    assert isinstance(left_occ, ir.VarOccurrence)
    assert left_occ.name == "weekSched_groupSched_players"
    assert print_expression(left_occ.indexes[0]) == "g * (w1 - 1) + g1"


def test_flatten_wraps_zones_in_instance_loops(golfers):
    flat = object_flatten(golfers)
    group_size = _zone(flat, "weekSched_groupSched_groupSize")
    outer = group_size.body[0]
    assert isinstance(outer, ir.ForAll) and outer.iter_var == "I1"
    assert print_expression(outer.upper) == "w"
    inner = outer.body[0]
    assert isinstance(inner, ir.ForAll) and inner.iter_var == "I2"
    assert print_expression(inner.upper) == "g"
    ctr = inner.body[0]
    occ = ctr.expr.left.arg
    assert print_expression(occ.indexes[0]) == "g * (I1 - 1) + I2"

    once = _zone(flat, "weekSched_playOncePerWeek")
    outer = once.body[0]
    assert isinstance(outer, ir.ForAll) and outer.iter_var == "I1"
    assert isinstance(outer.body[0], ir.ForAll) and outer.body[0].iter_var == "g1"


def test_flatten_scalar_objects_rename_only():
    m = parse(SourceUnit(
        "model M;\nclass Inner { int a in 1..3; constraint z { a = 1; } }\n"
        "main class Outer { Inner one; }"
    ))
    flat = object_flatten(m)
    names = [e.name for e in flat.elements]
    assert names == ["one_a", "one_z"]
    zone = flat.elements[1]
    assert zone.body[0].expr.left == ir.VarOccurrence("one_a")


def test_flatten_cyclic_composition_rejected():
    m = parse(SourceUnit(
        "model M;\nclass A { B b0; }\nclass B { A a0; }\nmain class R { A root; }"
    ))
    with pytest.raises(CompileError, match="cyclic composition between classes 'B' and 'A'"):
        object_flatten(m)


def test_flatten_name_collision_rejected():
    m = parse(SourceUnit(
        "model M;\nint one_a in 1..2;\nclass Inner { int a in 1..3; }\n"
        "main class Outer { Inner one; }"
    ))
    with pytest.raises(
        CompileError, match="flattened name 'one_a' collides with an existing declaration"
    ):
        object_flatten(m)


@pytest.mark.parametrize("features", ["C o; int o_x in 1..2;", "int o_x in 1..2; C o;"])
def test_flatten_attribute_named_like_a_main_class_feature(tmp_path, capsys, features):
    # main-class features are flat names from the start, whatever their order
    model = tmp_path / "m.som"
    model.write_text(f"class C {{ int x in 1..3; }}\nmain class M {{ {features} }}\n")
    assert main(["compile", "-m", str(model), "--target", "pivot", "-o", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {model}:1:11: flattened name 'o_x' collides with an existing declaration\n"


def test_flatten_output_validates(golfers):
    assert validate(object_flatten(golfers)) == []


# A flat name can change what an occurrence the walk keeps means: a loop
# hides a renamed attribute or a size moved into a linear index, or fresh
# instance loops take the names of main-class constants or literals.  The
# bindings must still be a resolve's.
REBIND_MODELS = {
    "renamed_under_loop": (
        "class C { int x in 1..3; constraint z { forall(o_x in 1..2) { x >= o_x; } } }\nC o;"
    ),
    "renamed_under_if": (
        "class C { int x in 1..3; constraint z {"
        " if (2 > 1) { forall(o_x in 1..2) { x >= o_x; } } else { x = 1; } } }\nC o;"
    ),
    "path_under_loop": (
        "class C { int x in 1..3; }\nC o;\n"
        "constraint t { forall(o_x in 1..2) { o.x >= o_x; } }"
    ),
    "moved_size_under_loop": (
        "int n := 2;\n"
        "class C { int x[n] in 0..5; constraint z { forall(n in 1..2) { x[n] = 0; } } }\nC o[2];"
    ),
    "instance_loops_named_like_constants": (
        "main class M { int I1 := 2; int I2 := 3; P p[I2, I1]; }\n"
        "class P { int y in 0..3; constraint z { y > 0; } }"
    ),
    "instance_loops_named_like_literals": (
        "enum E := {I1, I2, I3};\nmain class M { P p[2, card({I1, I2, I3})]; }\n"
        "class P { int y in 0..3; constraint z { y > 0; } }"
    ),
    "no_clash": (
        "int k := 2;\n"
        "class Leaf { int v in 0..3; int w[k] in 0..3;"
        " constraint p { forall(i in 1..k) { w[i] >= v; } } }\n"
        "class Mid { Leaf leaves[3]; int c := 1; constraint q { leaves[2].v = c; } }\n"
        "main class Top { Mid hub[2]; constraint r { hub[1].leaves[2].w[1] <= hub[2].c; } }"
    ),
    "renamed_in_a_renamed_loop": (
        "class C { int x in 1..3; constraint z {"
        " forall(o_x in 1..2) { forall(o_x in 1..2) { x >= o_x; } } } }\nC o;"
    ),
    "renamed_past_a_taken_name": (
        "int o_x_1 := 0;\n"
        "class C { int x in 1..3; constraint z { forall(o_x in 1..2) { x >= o_x; } } }\nC o;"
    ),
    "array_indexed_by_a_main_class_constant": (
        "int a[2] in 1..2;\nmain class M { int k := 1; constraint z { a[k] >= 1; } }"
    ),
}


@pytest.mark.parametrize("name", sorted(REBIND_MODELS))
def test_flatten_binds_like_a_fresh_resolve(name):
    out = object_flatten(parse(SourceUnit(REBIND_MODELS[name])))
    assert resolve(out) is out
    fresh = resolve(ir.rebuild(out, {"elements": tuple(out.elements)}))
    assert _bindings(out) == _bindings(fresh)


_FLATTEN_INPUTS = st.one_of(
    st.integers(min_value=0, max_value=2**32).map(lambda seed: gen_model(random.Random(seed))),
    st.sampled_from(ALL_FIXTURES + [("wide_classes.som", None)]).map(lambda f: parse_fixture(*f)),
)


@settings(max_examples=200, deadline=None)
@given(_FLATTEN_INPUTS)
def test_flatten_output_binds_like_a_fresh_resolve(model):
    out = object_flatten(model)
    assert resolve(out) is out
    fresh = resolve(ir.rebuild(out, {"elements": tuple(out.elements)}))
    assert _bindings(out) == _bindings(fresh)


# A flat name equal to an enumeration literal would hide the literal where
# the output reads it: a main-class feature, or an object attribute whose
# prefixed name is a literal (read as the new variable, c = o_w would hold
# for c = red too)
LITERAL_CLASHES = {
    "literal_hidden": (
        "red",
        "enum Color := {red, blue};\nColor c2;\nconstraint t { c2 = red; }\n"
        "main class M { int red in 1..3; Color c; constraint z { c = blue; red >= 2; } }",
    ),
    "attribute_named_like_literal": (
        "o_w",
        "enum Color := {o_w, red};\nclass P { int w in 1..3; }\n"
        "main class M { P o; Color c; constraint k { c = o_w; o.w >= 2; } }",
    ),
}


@pytest.mark.parametrize("name", sorted(LITERAL_CLASHES))
def test_flatten_refuses_a_flat_name_equal_to_a_literal(tmp_path, capsys, name):
    flat_name, source = LITERAL_CLASHES[name]
    message = f"flattened name '{flat_name}' equals an enumeration literal"
    with pytest.raises(CompileError, match=message):
        object_flatten(parse(SourceUnit(source)))
    model = tmp_path / "m.som"
    model.write_text(source)
    out = tmp_path / "m.pivot"
    assert main(["compile", "-m", str(model), "--target", "pivot", "-o", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source,name", [
    ("class C { int x in 1..3; }\nC o;\nC p;\nconstraint t { o = p; }", "o"),
    ("class D { int v in 1..2; }\nclass C { D d; D e; constraint z { d = e; } }\nC o;", "d"),
    ("class D { int v in 1..2; }\nclass C { D d; }\nC o;\nC p;\nconstraint t { o.d = p.d; }", "d"),
], ids=["top_level_object", "object_attribute", "path_to_an_object"])
def test_flatten_refuses_an_object_read_as_a_value(source, name):
    # validate reports each of these; input that skips it meets the walk
    model = parse(SourceUnit(source))
    assert validate(resolve(model)) != []
    with pytest.raises(UnresolvedNameError, match=f"'{name}' names an object, not a value"):
        object_flatten(model)


@pytest.mark.parametrize("name", ["instance_loops_named_like_constants",
                                  "instance_loops_named_like_literals"])
def test_flatten_names_instance_loops_apart_from_the_names_sizes_read(name):
    # loops over p[I2, I1] named I1 and I2 would capture the sizes, as
    # forall(I1 in 1..I2) forall(I2 in 1..I1), and index past p_y's 6 cells
    source = REBIND_MODELS[name]
    out, _ = run_pipeline(parse(SourceUnit(source)), PassConfig(FLAT_PIPELINE), "flat")
    constraints = [line for line in emit_flat(lower_to_flat(out)).splitlines()
                   if line.startswith("constraint")]
    assert constraints == [f"constraint p_y__{k} > 0;" for k in range(1, 7)]


def _flat_solutions(source: str) -> list[dict]:
    out, _ = run_pipeline(parse(SourceUnit(source)), PassConfig(FLAT_PIPELINE))
    return [s.values for s in enumerate_solutions(lower_to_flat(out)).solutions]


@pytest.mark.parametrize("name", ["renamed_under_loop", "renamed_under_if", "path_under_loop"])
def test_flatten_renames_a_loop_that_would_capture_a_flat_name(name):
    # x >= o_x for o_x in 1..2 holds for x in {2, 3}; captured, the flat
    # name read o_x >= o_x, which every value satisfies
    assert _flat_solutions(REBIND_MODELS[name]) == [{"o_x": 2}, {"o_x": 3}]
    out = object_flatten(parse(SourceUnit(REBIND_MODELS[name])))
    assert "forall(o_x_1 in 1..2)" in print_pivot(out)


def test_flatten_renames_a_loop_that_would_capture_a_moved_size():
    # x[n] under forall(n ...) in instance I1 is cell 2*(I1-1)+n, with the
    # size the constant n = 2: all four cells are 0.  Captured, the size
    # read the iterator, and the index skipped cell 3.
    cells = {f"o_x__{k}": 0 for k in range(1, 5)}
    assert _flat_solutions(REBIND_MODELS["moved_size_under_loop"]) == [cells]


def test_flatten_top_level_declaration_reading_an_object_attribute():
    # a top-level dim may navigate a top-level object: it reads the flat constant o_n
    source = (
        "class C { int n := 2; int v in 1..3; }\nC o;\nint x[o.n] in 1..2;\n"
        "constraint t { x[1] < x[2]; o.v = 1; }"
    )
    assert _flat_solutions(source) == [{"o_v": 1, "x__1": 1, "x__2": 2}]


ATTRIBUTE_DIMS = (
    "class C { int n := 3; int x[n] in 0..5; constraint z { x[1] = 0; } }\nC o[2];"
)


@pytest.mark.parametrize("top", ["", "int n := 5;\n"], ids=["class_n", "top_level_n"])
@pytest.mark.parametrize("target,expected", [
    ("flat", ["constraint o_x__1 = 0;", "constraint o_x__4 = 0;"]),
    ("clp", ["V1 is 3*(I1-1)+1,"]),
], ids=["flat", "clp"])
def test_flatten_reads_attribute_dims_as_flat_constants(tmp_path, top, target, expected):
    # x[1] of instance o[k] is cell n*(k-1)+1 with the class's n = 3, read
    # as the flat constant o_n, never as a top-level n
    model = tmp_path / "m.som"
    model.write_text(f"model D;\n{top}{ATTRIBUTE_DIMS}\n")
    out = tmp_path / f"m.{target}"
    assert main(["compile", "-m", str(model), "--target", target, "-o", str(out)]) == 0
    text = out.read_text()
    assert all(line in text for line in expected)


def test_flatten_leaves_no_reference_cycle(golfers):
    # cli.main runs without the cyclic collector: a cycle would keep what
    # it reaches, such as the input model's classes, alive until exit
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        object_flatten(golfers)
        unreachable = gc.collect()
    finally:
        if collecting:
            gc.enable()
    assert unreachable == 0


def test_flatten_long_sum_in_main_class(tmp_path):
    # one frame per expression level: a 9,500-term sum in a main class
    # compiles, to what the same sum at top level compiles to
    n = 9500
    terms = " + ".join(f"x[{k}]" for k in range(1, n + 1))
    top = tmp_path / "top.som"
    top.write_text(f"model S;\nint x[{n}] in 0..1;\nconstraint c {{\n  {terms} <= 3;\n}}\n")
    cls = tmp_path / "cls.som"
    cls.write_text(
        f"model S;\nmain class M {{\n  int x[{n}] in 0..1;\n"
        f"  constraint c {{\n    {terms} <= 3;\n  }}\n}}\n"
    )
    for target in ("clp", "pivot"):
        outs = [model.with_suffix(f".{target}") for model in (top, cls)]
        for model, out in zip((top, cls), outs):
            assert main(["compile", "-m", str(model), "--target", target, "-o", str(out)]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()


def test_flatten_main_feature_clashing_with_top_level_name(tmp_path, capsys):
    model = tmp_path / "m.som"
    model.write_text(
        "int n := 3;\nmain class M {\n  int n in 1..3;\n  constraint c { n >= 2; }\n}\n"
    )
    assert main(["compile", "-m", str(model), "--target", "clp", "-o", str(tmp_path / "m.ecl")]) == 1
    assert f"{model}:3:3: duplicate name 'n'" in capsys.readouterr().err


# --------------------------------------------------------------------------
# enumRemove

def test_enum_remove_golfers(golfers):
    flat = enum_remove(object_flatten(golfers))
    assert not flat.enumerations()
    (v,) = [e for e in flat.elements if isinstance(e, ir.Variable)]
    assert v.type_name == "int" and v.is_set
    assert v.domain == ir.IntervalDomain(ir.IntValue(1), ir.IntValue(9))


def test_enum_remove_literal_positions():
    m = parse(SourceUnit(
        "model M;\nenum E := {a,b,c,d,e,f,g2,h,i};\nE v;\nconstraint z { v = c; }"
    ))
    out = enum_remove(m)
    zone = _zone(out, "z")
    assert zone.body[0].expr.right == ir.IntValue(3)
    (v,) = [e for e in out.elements if isinstance(e, ir.Variable)]
    assert v.type_name == "int"
    assert v.domain == ir.IntervalDomain(ir.IntValue(1), ir.IntValue(9))


def test_enum_remove_no_enums_identity():
    m = parse(SourceUnit("model M;\nint x in 1..3;"))
    assert ir.model_equals(enum_remove(m), resolve(m))


def test_enum_remove_requires_class_free(golfers):
    with pytest.raises(CompileError, match="enumRemove: model still contains classes"):
        enum_remove(golfers)


def test_enum_remove_output_validates(golfers):
    assert validate(enum_remove(object_flatten(golfers))) == []


# --------------------------------------------------------------------------
# alldifferent rewrites

ALLDIFF3 = (
    "model A;\nint x1 in 1..3;\nint x2 in 1..3;\nint x3 in 1..3;\n"
    "constraint c { alldifferent(x1, x2, x3); }"
)


@pytest.mark.parametrize("mode", passes.ALLDIFF_MODES)
def test_alldiff_rewrite_returns_a_model_without_alldifferent_as_is(mode):
    # not even its constants are evaluated: 1/0 is left to foldConstants
    m = resolve(parse(SourceUnit("model A;\nreal k := 1/0;\nint x in 1..3;\nconstraint c { x <= 2; }")))
    out, reports = run_pipeline(m, PassConfig(("alldiffRewrite",), mode))
    assert out is m
    assert [str(r) for r in reports] == ["alldiffRewrite: elements 4 -> 4, rewrites 0"]


def test_alldiff_disequalities_pair_order():
    m = parse(SourceUnit(ALLDIFF3))
    ctr = _first_global(m)
    out = alldiff_to_disequalities(ctr)
    assert [print_expression(s.expr) for s in out] == [
        "x1 != x2", "x1 != x3", "x2 != x3",
    ]


def test_alldiff_disequalities_sizes():
    one = ir.GlobalCtr("alldifferent", (ir.VarOccurrence("x"),))
    assert alldiff_to_disequalities(one) == []
    five = ir.GlobalCtr("alldifferent", tuple(ir.VarOccurrence(f"x{i}") for i in range(5)))
    assert len(alldiff_to_disequalities(five)) == 10


def test_alldiff_disequalities_wrong_constraint():
    with pytest.raises(CompileError, match="expected an alldifferent constraint"):
        alldiff_to_disequalities(ir.GlobalCtr("cumulative", ()))


def test_alldiff_relaxation_sum():
    out = alldiff_rewrite(parse(SourceUnit(ALLDIFF3)), "relaxation")
    assert [print_expression(s.expr) for s in _zone(out, "c").body] == ["x1 + x2 + x3 = 6"]


def test_alldiff_relaxation_single():
    m = parse(SourceUnit(
        "model A;\nint x1 in 1..1;\nconstraint c { alldifferent(x1); }"
    ))
    out = alldiff_rewrite(m, "relaxation")
    assert [print_expression(s.expr) for s in _zone(out, "c").body] == ["x1 = 1"]


def test_alldiff_relaxation_domain_mismatch():
    m = parse(SourceUnit(
        "model A;\nint x1 in 1..4;\nint x2 in 1..4;\nint x3 in 1..4;\n"
        "constraint c { alldifferent(x1, x2, x3); }"
    ))
    with pytest.raises(CompileError, match=r"relaxation requires every parameter domain to be 1\.\.3"):
        alldiff_rewrite(m, "relaxation")


@pytest.mark.parametrize("declarations,body", [
    ("int x1 in 1..2;\nint x2 in 1..2;", "alldifferent(x1 + 1, x2);"),  # a compound parameter
    ("int x[2] in 1..2;", "forall(i in 1..2) { alldifferent(i, x[i]); }"),  # an iterator
    ("int x1 in {1,2};\nint x2 in 1..2;", "alldifferent(x1, x2);"),  # a set domain
    ("int y in 1..2;\nint x1 in 1..y;\nint x2 in 1..2;", "alldifferent(x1, x2);"),  # a bound not ground
])
def test_alldiff_relaxation_needs_a_known_domain_per_parameter(declarations, body):
    m = parse(SourceUnit(f"model A;\n{declarations}\nconstraint c {{ {body} }}"))
    with pytest.raises(CompileError, match=r"relaxation requires every parameter domain to be 1\.\.2$"):
        alldiff_rewrite(m, "relaxation")


def test_alldiff_boolean_n2_structure():
    m = parse(SourceUnit(
        "model A;\nint x1 in 1..2;\nint x2 in 1..2;\n"
        "constraint c { alldifferent(x1, x2); }"
    ))
    out = alldiff_rewrite(m, "boolean")
    b = out.elements[-2]  # hoisted just before its zone
    assert isinstance(b, ir.Variable) and b.name == "b" and b.type_name == "bool"
    assert b.dims == (ir.IntValue(2), ir.IntValue(2))
    texts = [print_expression(s.expr) for s in _zone(out, "c").body]
    assert texts == [
        "b[1,1] + b[1,2] = 1",
        "b[2,1] + b[2,2] = 1",
        "b[1,1] + b[2,1] = 1",
        "b[1,2] + b[2,2] = 1",
        "x1 = 1 * b[1,1] + 2 * b[1,2]",
        "x2 = 1 * b[2,1] + 2 * b[2,2]",
    ]


def test_alldiff_boolean_n1():
    m = parse(SourceUnit(
        "model A;\nint x1 in 1..1;\nconstraint c { alldifferent(x1); }"
    ))
    out = alldiff_rewrite(m, "boolean")
    texts = [print_expression(s.expr) for s in _zone(out, "c").body]
    assert texts == ["b[1,1] = 1", "b[1,1] = 1", "x1 = 1 * b[1,1]"]


def test_alldiff_boolean_wide_domain_uses_at_most_one():
    m = parse(SourceUnit(
        "model A;\nint x1 in 1..3;\nint x2 in 1..3;\n"
        "constraint c { alldifferent(x1, x2); }"
    ))
    out = alldiff_rewrite(m, "boolean")
    texts = [print_expression(s.expr) for s in _zone(out, "c").body]
    assert "b[1,1] + b[2,1] <= 1" in texts
    assert all("= 1" in t for t in texts[:2])


def test_alldiff_boolean_rejects_compound_params():
    m = parse(SourceUnit(
        "model A;\nint x1 in 1..2;\nint x2 in 1..2;\n"
        "constraint c { alldifferent(x1 + 1, x2); }"
    ))
    with pytest.raises(CompileError, match="boolean reformulation requires plain variable parameters"):
        alldiff_rewrite(m, "boolean")


@pytest.mark.parametrize("declarations,message", [
    ("int x1;\nint x2 in 1..2;", "cannot determine the domain of parameter 'x1'"),
    ("int x1 in 1..1;\nint x2 in 1..1;", r"boolean reformulation requires a common domain 1\.\.m with m >= 2"),
])
def test_alldiff_boolean_rejects_parameters_without_room(declarations, message):
    m = parse(SourceUnit(f"model A;\n{declarations}\nconstraint c {{ alldifferent(x1, x2); }}"))
    with pytest.raises(CompileError, match=f"{message}$"):
        alldiff_rewrite(m, "boolean")


def test_alldiff_boolean_rejects_params_over_different_domains(tmp_path, capsys):
    source = "model A;\nint a in 1..3;\nint b in 1..4;\nconstraint z { alldifferent(a, b); }"
    with pytest.raises(CompileError, match="boolean reformulation requires one common parameter domain"):
        alldiff_rewrite(parse(SourceUnit(source)), "boolean")
    model = tmp_path / "a.som"
    model.write_text(source)
    argv = ["compile", "-m", str(model), "--target", "clp", "--alldiff", "boolean",
            "-o", str(tmp_path / "a.ecl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{model}:4:16: boolean reformulation requires one common parameter domain" in err


def test_alldiff_rewrite_order_preserved():
    m = parse(SourceUnit(
        "model A;\nint x in 1..2;\nint y in 1..2;\nint z in 1..2;\n"
        "constraint c { alldifferent(x, y); x = 1; alldifferent(y, z); }"
    ))
    out = alldiff_rewrite(m, "disequalities")
    texts = [print_expression(s.expr) for s in _zone(out, "c").body]
    assert texts == ["x != y", "x = 1", "y != z"]


def test_alldiff_rewrite_without_alldiff_identity():
    m = parse(SourceUnit("model A;\nint x in 1..2;\nconstraint c { x = 1; }"))
    assert ir.model_equals(alldiff_rewrite(m, "boolean"), resolve(m))


def test_alldiff_rewrite_boolean_nested_rejected():
    m = parse(SourceUnit(
        "model A;\nint x[2] in 1..2;\n"
        "constraint c { forall(i in 1..1) { alldifferent(x[1], x[2]); } }"
    ))
    with pytest.raises(
        CompileError, match="alldiffRewrite: boolean mode cannot rewrite alldifferent inside forall/if"
    ):
        alldiff_rewrite(m, "boolean")
    out = alldiff_rewrite(m, "disequalities")  # fine inside loops
    assert isinstance(_zone(out, "c").body[0], ir.ForAll)


def test_alldiff_rewrite_fresh_matrix_names():
    m = parse(SourceUnit(
        "model A;\nint b in 1..1;\nint x in 1..2;\nint y in 1..2;\n"
        "constraint c { alldifferent(x, y); }"
    ))
    out = alldiff_rewrite(m, "boolean")
    names = [e.name for e in out.elements if isinstance(e, ir.Variable)]
    assert "b2" in names  # "b" was taken
    taken = parse(SourceUnit(
        "model A;\nint b in 1..1;\nint b2 in 1..1;\nint x in 1..2;\nint y in 1..2;\n"
        "constraint c { alldifferent(x, y); }"
    ))
    out = alldiff_rewrite(taken, "boolean")
    assert out.elements[-2].name == "b3"  # "b" and "b2" were taken


@pytest.mark.parametrize("mode", ["disequalities", "boolean", "relaxation"])
def test_alldiff_rewrite_leaves_no_reference_cycle(queens4, mode):
    # cli.main runs without the cyclic collector, and check runs this pass
    # twice: a cycle would keep what it reaches alive until exit
    model = object_flatten(queens4)
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        alldiff_rewrite(model, mode)
        unreachable = gc.collect()
    finally:
        if collecting:
            gc.enable()
    assert unreachable == 0


# --------------------------------------------------------------------------
# loopUnroll

def test_loop_unroll_leaves_no_reference_cycle(queens4):
    # as for alldiffRewrite: check unrolls twice without the collector
    model = alldiff_rewrite(enum_remove(object_flatten(queens4)))
    conditional = parse(SourceUnit(
        "model C;\nint n := 2;\nint x[2] in 1..2;\n"
        "constraint c { forall(i in 1..n) { if (i = 1) { x[i] = 1; } else { x[i] != 1; } } }"
    ))
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        loop_unroll(model)
        loop_unroll(conditional)
        unreachable = gc.collect()
    finally:
        if collecting:
            gc.enable()
    assert unreachable == 0


def test_unroll_substitutes_and_folds():
    m = parse(SourceUnit(
        "model U;\nint x[3] in 1..5;\nconstraint k { forall(i in 1..2) { x[i] != x[i+1]; } }"
    ))
    out = loop_unroll(m)
    texts = [print_expression(s.expr) for s in _zone(out, "k").body]
    assert texts == ["x[1] != x[2]", "x[2] != x[3]"]


def test_unroll_empty_range():
    m = parse(SourceUnit(
        "model U;\nint x[3] in 1..5;\nconstraint k { forall(i in 1..0) { x[i] = 1; } }"
    ))
    out = loop_unroll(m)
    assert _zone(out, "k").body == ()


def test_unroll_if_selects_branch():
    m = parse(SourceUnit(
        "model U;\nint k := 2;\nint x in 1..5;\n"
        "constraint z { if (k > 1) { x = 1; } else { x = 2; } if (k > 5) { x = 3; } }"
    ))
    out = loop_unroll(m)
    texts = [print_expression(s.expr) for s in _zone(out, "z").body]
    assert texts == ["x = 1"]


def test_unroll_nested_bounds_use_outer_iterator():
    m = parse(SourceUnit(
        "model U;\nint x[3] in 1..5;\n"
        "constraint k { forall(i in 1..2) forall(j in i+1..3) { x[i] != x[j]; } }"
    ))
    out = loop_unroll(m)
    texts = [print_expression(s.expr) for s in _zone(out, "k").body]
    assert texts == ["x[1] != x[2]", "x[1] != x[3]", "x[2] != x[3]"]


def test_unroll_inner_iterator_shadows_outer():
    # the inner bounds read the outer i; the body reads the inner one
    m = parse(SourceUnit(
        "model U;\nint x[3] in 1..3;\n"
        "constraint k { forall(i in 1..2) forall(i in i+1..3) { x[i] = i; } }"
    ))
    out = loop_unroll(m)
    texts = [print_expression(s.expr) for s in _zone(out, "k").body]
    assert texts == ["x[2] = 2", "x[3] = 3", "x[3] = 3"]


def test_unroll_outer_iterator_reads_again_after_shadowing_loop():
    # a statement after the inner loop reads the outer i, which that loop hid
    m = parse(SourceUnit(
        "model U;\nint x[4] in 0..4;\n"
        "constraint k { forall(i in 1..2) { forall(i in 3..4) { x[i] = i; } x[i] = 0; }"
        " forall(i in 1..0) { x[i] = 1; } forall(j in 1..1) { x[j] != 4; } }"
    ))
    texts = [print_expression(s.expr) for s in _zone(loop_unroll(m), "k").body]
    assert texts == ["x[3] = 3", "x[4] = 4", "x[1] = 0", "x[3] = 3", "x[4] = 4", "x[2] = 0", "x[1] != 4"]


def test_unroll_inlines_a_constant_beside_a_variable():
    # c reads no iterator, so it is built once, folded to 1 and shared by
    # every instance; its neighbour x[i] holds a variable
    m = parse(SourceUnit(
        "model C;\nint c := 1;\nint x[2] in 0..9;\n"
        "constraint k { forall(i in 1..2) { c - x[i] = 4 - x[2]; } }"
    ))
    body = _zone(loop_unroll(m), "k").body
    assert [print_expression(s.expr) for s in body] == ["1 - x[1] = 4 - x[2]", "1 - x[2] = 4 - x[2]"]
    assert body[0].expr.left.terms[0] is body[1].expr.left.terms[0]


def test_unroll_folds_what_varies_between_instances(monkeypatch):
    # a node that reads no iterator is folded once, one that reads some
    # once per instance or per tuple of their values, and one with a child
    # that holds a variable only if it is a chain or an AlgBinaryOp; the count is exact,
    # and folding every node of every instance (139 calls) exceeds the bound
    structured, _ = run_pipeline(
        parse_fixture("golfers.som", "golfers_small.dat"), PassConfig(("objectFlatten", "enumRemove"))
    )
    calls = []
    fold_node = passes._Folder._fold_node
    monkeypatch.setattr(passes._Folder, "_fold_node", lambda self, e: calls.append(1) or fold_node(self, e))
    out = loop_unroll(structured)
    zones = [e for e in structured.elements if isinstance(e, ir.ConstraintZone)]
    template = sum(isinstance(n, ir.Expression) for z in zones for n in ir.walk_expr(z))
    emitted = sum(len(e.body) for e in out.elements if isinstance(e, ir.ConstraintZone))
    assert (len(calls), emitted, template) == (61, 10, 73)
    assert len(calls) <= emitted + template


def test_unroll_if_condition_reads_iterator():
    m = parse(SourceUnit(
        "model U;\nint x[3] in 1..5;\n"
        "constraint k { forall(i in 1..3) { if (i = 2) { x[i] = 1; } else { x[i] = i + 1; } } }"
    ))
    out = loop_unroll(m)
    texts = [print_expression(s.expr) for s in _zone(out, "k").body]
    assert texts == ["x[1] = 2", "x[2] = 1", "x[3] = 4"]


def test_unroll_alldifferent_in_loop_keeps_instantiated_params(tmp_path):
    model = tmp_path / "a.som"
    model.write_text(
        "model A;\nint x[2, 3] in 1..3;\n"
        "constraint k { forall(i in 1..2) { alldifferent(x[i, 1], x[i, 2], x[i + 0, 3]); } }"
    )
    out = tmp_path / "a.pivot"
    argv = ["compile", "-m", str(model), "--target", "pivot", "--passes", "loopUnroll",
            "-o", str(out)]
    assert main(argv) == 0
    assert out.read_text() == (
        "model A;\nint x[2,3] in 1..3;\nconstraint k {\n"
        "  alldifferent(x[1,1], x[1,2], x[1,3]);\n"
        "  alldifferent(x[2,1], x[2,2], x[2,3]);\n}\n"
    )


def test_unroll_non_ground_bound_rejected():
    m = parse(SourceUnit(
        "model U;\nint x in 1..5;\nconstraint k { forall(i in 1..x) { x = i; } }"
    ))
    with pytest.raises(CompileError, match="loop over 'i' has a non-ground bound"):
        loop_unroll(m)


def test_unroll_non_ground_condition_rejected():
    m = parse(SourceUnit(
        "model U;\nint x in 1..5;\nconstraint k { if (x = 1) { x = 1; } }"
    ))
    with pytest.raises(CompileError, match="conditional with a non-ground condition cannot be unrolled"):
        loop_unroll(m)


def test_unroll_golfers_statement_blowup(golfers):
    structured, _ = run_pipeline(
        golfers, PassConfig(("objectFlatten", "enumRemove", "foldConstants"))
    )
    flat = loop_unroll(structured)
    count = lambda m: sum(
        len(e.body) for e in m.elements if isinstance(e, ir.ConstraintZone)
    )
    assert count(flat) == 78  # 3*4 + 4*C(3,2) + C(4,2)*9, counted by hand
    assert count(flat) > count(structured)


# Instances share subtrees: each template subtree that reads fewer iterators
# than its statement is built once per distinct value of those it reads.

def test_unroll_triangular_loop_outer_only_subtree():
    m = parse(SourceUnit(
        "model T;\nint x[3] in 0..1;\nint y[3] in 0..1;\n"
        "constraint k { forall(i in 1..3) forall(j in i+1..3) { x[i] + y[j] >= 1; } }"
    ))
    assert print_pivot(loop_unroll(m)) == (
        "model T;\nint x[3] in 0..1;\nint y[3] in 0..1;\nconstraint k {\n"
        "  x[1] + y[2] >= 1;\n  x[1] + y[3] >= 1;\n  x[2] + y[3] >= 1;\n}\n"
    )


def test_unroll_shared_subtree_under_shadowing_iterator():
    # one template node x[i] sits in a statement of the outer i loop and in
    # one of an inner loop that shadows i: each instance reads its own i
    m = resolve(parse(SourceUnit(
        "model S;\nint x[4] in 0..9;\nint y[2] in 0..9;\n"
        "constraint k { forall(i in 1..2) forall(j in 1..2) {"
        " x[i] + y[j] >= 1; forall(i in 3..4) { x[i] + y[j] >= 2; } } }"
    )))
    zone = _zone(m, "k")
    (j_loop,) = zone.body[0].body
    outer_stmt, inner_loop = j_loop.body
    (inner_stmt,) = inner_loop.body
    shared = outer_stmt.expr.left.terms[0]
    inner_expr = inner_stmt.expr
    grafted = ir.rebuild(
        inner_expr, {"left": ir.rebuild(inner_expr.left, {"terms": (shared,) + inner_expr.left.terms[1:]})}
    )
    inner_loop = ir.rebuild(
        inner_loop, {"body": (ir.rebuild(inner_stmt, {"expr": grafted}),)}
    )
    j_loop = ir.rebuild(j_loop, {"body": (outer_stmt, inner_loop)})
    zone = ir.rebuild(zone, {"body": (ir.rebuild(zone.body[0], {"body": (j_loop,)}),)})
    m = mark_resolved(ir.rebuild(
        m, {"elements": tuple(zone if e.name == "k" else e for e in m.elements)}
    ))
    texts = [print_expression(s.expr) for s in _zone(loop_unroll(m), "k").body]
    expected = []
    for i in (1, 2):
        for j in (1, 2):
            expected += [f"x[{i}] + y[{j}] >= 1", f"x[3] + y[{j}] >= 2", f"x[4] + y[{j}] >= 2"]
    assert texts == expected


def test_unroll_division_by_zero_in_one_iteration_only():
    # 6 / (2 - i) reads only i, so it is stored for i = 0 and 1 and
    # shared across j; i = 2 must still fail where it divides
    m = parse(SourceUnit(
        "model D;\nint x[2] in 0..5;\n"
        "constraint k { forall(i in 0..2) forall(j in 1..2) { x[j] * (6 / (2 - i)) >= 0; } }"
    ))
    with pytest.raises(CompileError) as info:
        loop_unroll(m)
    assert str(info.value) == "<model>:3:64: division by zero"


def test_unroll_division_by_zero_fails_where_evaluation_reaches_it():
    # 6 / (1 - 1) reads no iterator, so it is folded when the plan is made;
    # its error still comes after that of the division to its left
    m = parse(SourceUnit(
        "model D;\nint x[2] in 0..5;\n"
        "constraint k { forall(i in 1..2) { x[i] * (6 / (i - 1)) + 6 / (1 - 1) >= 0; } }"
    ))
    with pytest.raises(CompileError) as info:
        loop_unroll(m)
    assert str(info.value) == "<model>:3:46: division by zero"


def test_unroll_constant_subtree_folds_in_every_instance():
    # (1/3 + 1/3) * 3 reads no iterator: folded once through a non-integral
    # rational, then shared by every instance
    m = parse(SourceUnit(
        "model C;\nint c := 4;\nint x[3] in 0..9;\n"
        "constraint k { forall(i in 1..3) forall(j in 1..2) {"
        " x[i] * ((1/3 + 1/3) * 3) + (c - 1) * j >= c * 2 - i; } }"
    ))
    texts = [print_expression(s.expr) for s in _zone(loop_unroll(m), "k").body]
    assert texts == [
        "x[1] * 2 + 3 >= 7", "x[1] * 2 + 6 >= 7",
        "x[2] * 2 + 3 >= 6", "x[2] * 2 + 6 >= 6",
        "x[3] * 2 + 3 >= 5", "x[3] * 2 + 6 >= 5",
    ]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from([gen_model, gen_loop_model]))
def test_unroll_matches_naive_unroller(seed, gen):
    m = enum_remove(object_flatten(gen(random.Random(seed))))

    def run(unroll):
        try:
            unrolled = unroll(m)
        except CompileError as exc:
            return type(exc).__name__, str(exc)
        try:
            flat = emit_flat(lower_to_flat(unrolled))
        except CompileError as exc:
            flat = f"{type(exc).__name__}: {exc}"
        return print_pivot(unrolled), flat

    assert run(loop_unroll) == run(naive_unroll)


def test_fold_long_sum_is_linear(tmp_path):
    # each fold reads its children's values; re-evaluating every subtree
    # made a left-deep n-term sum cost O(n^2) (about 40 s at 9,500 terms)
    n = 9500
    model = tmp_path / "s.som"
    model.write_text(
        f"model S;\nint x[{n}] in 0..1;\nconstraint c {{\n  "
        + " + ".join(f"x[{k}]" for k in range(1, n + 1))
        + " <= 3;\n}\n"
    )
    out = tmp_path / "s.ecl"
    done = _within(10.0)
    assert main(["compile", "-m", str(model), "--target", "clp", "-o", str(out)]) == 0
    done()
    # the output of the quadratic folder, byte for byte
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b80a9932f5b748add5a4888c86ebd2002b5e390f7f3026f4f6bffcb1f6d92180"
    )


# --------------------------------------------------------------------------
# foldConstants

def test_fold_golfers_dims(golfers):
    out = fold_constants(object_flatten(golfers))
    (v,) = [e for e in out.elements if isinstance(e, ir.Variable)]
    assert v.dims == (ir.IntValue(12),)


def test_fold_arithmetic():
    m = parse(SourceUnit("model F;\nint k := 1+2*3;"))
    out = fold_constants(m)
    assert out.elements[0].value == ir.IntValue(7)


def test_fold_identity_x_plus_zero():
    m = parse(SourceUnit("model F;\nint x in 1..3;\nconstraint c { x + 0 = 1*x; }"))
    out = fold_constants(m)
    expr = _zone(out, "c").body[0].expr
    assert print_expression(expr) == "x = x"


# (text, (its fold, rewrites)): a chain folds as the left-deep binary nodes
# it stands for, so only a ground prefix folds and each identity drops one
# operand; a chain that comes to lead a chain of its group is spliced in.
# The functions fold in floats, and a domain or range error stays symbolic.
FOLDS = {
    'x + 1 + 2': ('x + 1 + 2', 0),
    '1 + 2 + x': ('3 + x', 1),
    '0 + x - 0 + 0': ('x', 3),
    '1 * x * 1 * y': ('x * y', 2),
    '1 * (x + y) + z': ('x + y + z', 1),
    '1 / 3 + 1 / 3 + x': ('1 / 3 + 1 / 3 + x', 0),
    'true and false and b': ('false and b', 1),
    '0.1 + 0.2 + 0.3': ('0.6000000000000001', 2),
    '0 + (x + y) + 0 + z': ('x + y + z', 2),
    '1 / 3 * 1 + 0': ('1 / 3', 2),
    'x - 0 - 0 * 1': ('x', 3),
    '2 * 3 * x * 1': ('6 * x', 2),
    '1e308 * 10.0 * 1.0': ('1e+308 * 10.0 * 1.0', 0),
    '(1 - 1) + x * 1': ('x', 3),
    'b or true or false': ('b or true or false', 0),
    '{1,2} - {1} - {2}': ('{}', 2),
    'sin(0.0)': ('0.0', 1),
    'cos(0.0)': ('1.0', 1),
    'tan(0.0)': ('0.0', 1),
    'exp(0.0) + 1': ('2.0', 2),
    'log(1.0)': ('0.0', 1),
    'sqrt(2.25)': ('1.5', 1),
    'abs(0 - 3)': ('3', 2),
    'min(3, 1, 2)': ('1', 1),
    'max(3, 1.5)': ('3', 1),
    'sqrt(0.0 - 1.0)': ('sqrt(-1.0)', 1),
    'exp(1000.0)': ('exp(1000.0)', 0),
}


@pytest.mark.parametrize("text", FOLDS)
def test_fold_pinned(text):
    folder = passes._Folder({})
    folded = folder.fold(parse_expression(text))
    assert (print_expression(folded), folder.count) == FOLDS[text]
    assert folded == parse_expression(FOLDS[text][0])


def test_passes_rewrite_top_level_statements():
    # the parser puts every statement in a zone, but a model built through
    # the API may hold one at the top level, as flat and clp accept
    x = ir.Variable("x", "int", dims=(ir.IntValue(2),), domain=ir.IntervalDomain(ir.IntValue(1), ir.IntValue(2)))

    def cell(i):
        return ir.VarOccurrence("x", (i,))

    m = ir.Model("T", (
        x, ir.GlobalCtr("alldifferent", (cell(ir.IntValue(1)), cell(ir.IntValue(2)))),
        ir.ForAll("i", ir.IntValue(1), ir.IntValue(2), (
            ir.ExpressionConstraint(ir.BoolBinaryOp("<=", cell(ir.VarOccurrence("i")), ir.IntValue(2))),
        )),
    ))
    out, reports = run_pipeline(m, PassConfig(("alldiffRewrite", "loopUnroll"), "boolean"))
    assert [str(r) for r in reports] == [
        "alldiffRewrite: elements 4 -> 10, rewrites 1", "loopUnroll: elements 10 -> 10, rewrites 1",
    ]
    # the matrix goes just before the statements that replace the constraint
    assert print_pivot(out) == (
        "model T;\nint x[2] in 1..2;\nbool b[2,2];\n"
        "b[1,1] + b[1,2] = 1;\nb[2,1] + b[2,2] = 1;\nb[1,1] + b[2,1] = 1;\nb[1,2] + b[2,2] = 1;\n"
        "x[1] = b[1,1] + 2 * b[1,2];\nx[2] = b[2,1] + 2 * b[2,2];\nx[1] <= 2;\nx[2] <= 2;\n"
    )


def test_fold_rational_exactness():
    m = parse(SourceUnit("model F;\nint k := 3/2*2;\nreal j := 1/3;"))
    out = fold_constants(m)
    # division evaluates in rationals, so the even product folds to an int
    assert out.elements[0].value == ir.IntValue(3)
    # a non-integral rational has no exact literal form and stays symbolic
    assert print_expression(out.elements[1].value) == "1 / 3"


def test_fold_division_by_zero():
    m = parse(SourceUnit("model F;\nint k := 1/0;"))
    with pytest.raises(CompileError, match="division by zero"):
        fold_constants(m)


def test_fold_inlines_constants_everywhere():
    m = parse(SourceUnit(
        "model F;\nint k := 2;\nint x in 1..k;\nconstraint c { x = k; }"
    ))
    out = fold_constants(m)
    var = out.elements[1]
    assert var.domain == ir.IntervalDomain(ir.IntValue(1), ir.IntValue(2))
    assert _zone(out, "c").body[0].expr.right == ir.IntValue(2)


def test_fold_does_not_touch_enum_literals():
    m = parse(SourceUnit("model F;\nenum E := {p,q};\nE v;\nconstraint c { v = p; }"))
    out = fold_constants(m)
    assert print_expression(_zone(out, "c").body[0].expr) == "v = p"


# --------------------------------------------------------------------------
# pipeline and cross-pass properties

def test_pipeline_golfers_golden(golfers):
    out, reports = run_pipeline(
        golfers, PassConfig(("objectFlatten", "enumRemove", "foldConstants"))
    )
    assert [r.pass_id for r in reports] == ["objectFlatten", "enumRemove", "foldConstants"]
    assert all(r.elements_before > 0 and r.elements_after > 0 for r in reports)
    sets = [e for e in out.elements if isinstance(e, ir.Variable)]
    assert len(sets) == 1
    v = sets[0]
    assert v.is_set and v.type_name == "int"
    assert v.dims == (ir.IntValue(12),)
    assert v.domain == ir.IntervalDomain(ir.IntValue(1), ir.IntValue(9))


def test_pipeline_empty_is_identity(golfers):
    out, reports = run_pipeline(golfers, PassConfig(()))
    assert reports == []
    assert ir.model_equals(out, resolve(golfers))


def test_pipeline_refuses_an_unreachable_order_before_any_pass(golfers, monkeypatch):
    ran = []
    for pass_id, row in passes.PASSES.items():
        monkeypatch.setitem(passes.PASSES, pass_id, row._replace(run=lambda m, mode: ran.append(m)))
    with pytest.raises(CompileError) as info:
        run_pipeline(golfers, PassConfig(("enumRemove",)))
    assert str(info.value) == (
        "enumRemove: model still contains classes; add objectFlatten before enumRemove"
    )
    with pytest.raises(CompileError, match="^loopUnroll: model still contains classes; "
                                           "move objectFlatten before loopUnroll$"):
        run_pipeline(golfers, PassConfig(("foldConstants", "loopUnroll", "objectFlatten")))
    assert ran == []


ORDER_FIXTURES = [("queens4.som", None), ("golfers.som", "golfers_small.dat"), ("send.som", None)]
EMITTERS = {
    "flat": lambda m: emit_flat(lower_to_flat(m)),
    "clp": emit_clp,
    "pivot": print_pivot,
}


@pytest.mark.parametrize("model_name,data_name", ORDER_FIXTURES)
def test_every_pass_order_compiles_or_is_refused_before_any_pass(model_name, data_name, monkeypatch):
    """All 326 ordered lists of the five pass ids, for each target: a list
    the table accepts compiles, and one it refuses raises before its first
    pass.  Time budget, fixed before the first run: 5 s for the three
    fixtures together."""
    ran = []

    def spy(pass_id, run):
        def counted(m, mode):
            ran.append(pass_id)
            return run(m, mode)
        return counted

    for pass_id, row in passes.PASSES.items():
        monkeypatch.setitem(passes.PASSES, pass_id, row._replace(run=spy(pass_id, row.run)))
    model = resolve(parse_fixture(model_name, data_name))
    features = passes.model_features(model)
    orders = [o for k in range(6) for o in itertools.permutations(passes.PASS_IDS, k)]
    assert len(orders) == 326
    accepted = dict.fromkeys(EMITTERS, 0)
    for order, target in itertools.product(orders, EMITTERS):
        cfg = PassConfig(order)
        ran.clear()
        try:
            passes.check_pipeline(features, order, target)
        except CompileError as refusal:
            with pytest.raises(CompileError) as info:
                run_pipeline(model, cfg, target)
            assert str(info.value) == str(refusal) and ran == []
            continue
        out, _ = run_pipeline(model, cfg, target)
        assert ran == list(order)
        EMITTERS[target](out)
        accepted[target] += 1
    assert accepted["flat"] > 0 and accepted["pivot"] >= accepted["clp"] >= accepted["flat"]


def test_only_arrays_of_objects_make_object_flatten_add_loops(golfers):
    # send.som's main class holds no array of objects, so a flat list needs
    # no loopUnroll; golfers' array of weeks gets loops over its instances
    order = ("objectFlatten", "enumRemove", "alldiffRewrite")
    send = resolve(parse_fixture("send.som"))
    assert passes.model_features(send) == {"classes", "alldifferent"}
    out, _ = run_pipeline(send, PassConfig(order), "flat")
    assert len(lower_to_flat(out).constraints) == 29  # 28 disequalities and the sum
    assert "object arrays" in passes.model_features(resolve(golfers))
    with pytest.raises(CompileError, match="^target flat: model still contains loops; add loopUnroll$"):
        run_pipeline(golfers, PassConfig(order), "flat")


def test_public_pass_functions_check_their_own_row(golfers):
    with pytest.raises(CompileError, match="^loopUnroll: model still contains classes; "
                                           "add objectFlatten before loopUnroll$"):
        loop_unroll(golfers)
    with pytest.raises(ValueError, match="^unknown alldifferent mode 'magic'$"):
        alldiff_rewrite(object_flatten(golfers), "magic")


def test_pass_config_rejects_duplicates_and_unknowns():
    with pytest.raises(ValueError):
        PassConfig(("enumRemove", "enumRemove"))
    with pytest.raises(ValueError):
        PassConfig(("inline",))
    with pytest.raises(ValueError):
        PassConfig((), alldiff_mode="magic")


@pytest.mark.parametrize("model_name,data_name", ALL_FIXTURES)
def test_passes_idempotent_on_fixtures(model_name, data_name):
    m = parse_fixture(model_name, data_name)
    flat = object_flatten(m)
    assert ir.model_equals(object_flatten(flat), flat)
    no_enum = enum_remove(flat)
    assert ir.model_equals(enum_remove(no_enum), no_enum)
    folded = fold_constants(no_enum)
    assert ir.model_equals(fold_constants(folded), folded)
    rewritten = alldiff_rewrite(folded, "disequalities")
    assert ir.model_equals(alldiff_rewrite(rewritten, "disequalities"), rewritten)
    unrolled = loop_unroll(rewritten)
    assert ir.model_equals(loop_unroll(unrolled), unrolled)
    assert validate(unrolled) == []


@pytest.mark.parametrize("model_name,data_name", ALL_FIXTURES)
def test_pipeline_deterministic_output(model_name, data_name):
    cfg = PassConfig(("objectFlatten", "enumRemove", "foldConstants"))
    a, _ = run_pipeline(parse_fixture(model_name, data_name), cfg)
    b, _ = run_pipeline(parse_fixture(model_name, data_name), cfg)
    assert print_pivot(a) == print_pivot(b)


def test_flatten_rewrites_attributes_inside_call_args():
    # bindings live on fields excluded from equality; regression for the
    # tuple-rebuild path dropping them (abs(...) args, set literals, ...)
    m = parse(SourceUnit(
        "model Q;\nclass C { int v in 1..3;"
        " constraint z { if (true) { 5 <= abs(v); } } }\n"
        "main class M { C u; }"
    ))
    flat = object_flatten(m)
    assert validate(flat) == []
    zone = _zone(flat, "u_z")
    inner = zone.body[0].then_body[0].expr.right.args[0]
    assert inner == ir.VarOccurrence("u_v")


def test_enum_remove_rewrites_literals_inside_set_values():
    m = parse(SourceUnit(
        "model E;\nenum C := {red,green,blue};\nC set s in 1..3;\n"
        "constraint z { card(s intersect {red,blue}) = 1; }"
    ))
    out = enum_remove(m)
    expr = _zone(out, "z").body[0].expr
    setval = expr.left.arg.right
    assert setval == ir.SetValue((ir.IntValue(1), ir.IntValue(3)))


def test_flatten_two_instances_of_one_class():
    m = parse(SourceUnit(
        "model Twice;\nclass G { int v in 1..2; constraint z { v = 1; } }\n"
        "main class M { G a; G b; constraint link { a.v = b.v; } }"
    ))
    flat = object_flatten(m)
    names = [e.name for e in flat.elements]
    assert names == ["a_v", "a_z", "b_v", "b_z", "link"]
    link = _zone(flat, "link")
    assert print_expression(link.body[0].expr) == "a_v = b_v"
    assert validate(flat) == []


def test_flatten_scalar_object_containing_object_array():
    m = parse(SourceUnit(
        "model Deep;\nclass Leaf { int v in 1..2; constraint p { v != 2; } }\n"
        "class Mid { Leaf leaves[3]; }\n"
        "main class Top { Mid hub; constraint q { hub.leaves[2].v = 1; } }"
    ))
    flat = object_flatten(m)
    (var,) = [e for e in flat.elements if isinstance(e, ir.Variable)]
    assert var.name == "hub_leaves_v"
    assert print_expression(var.dims[0]) == "3"
    wrapped = _zone(flat, "hub_leaves_p")
    outer = wrapped.body[0]
    assert isinstance(outer, ir.ForAll) and print_expression(outer.upper) == "3"
    q = _zone(flat, "q")
    assert print_expression(q.body[0].expr.left) == "hub_leaves_v[2]"
    assert validate(flat) == []


def _bindings(model):
    return [
        (n.name, n.binding)
        for e in model.elements
        for n in ir.walk_expr(e)
        if isinstance(n, ir.VarOccurrence)
    ]


FLAT_PIPELINE = ("objectFlatten", "enumRemove", "foldConstants", "alldiffRewrite", "loopUnroll")


def _prefix_outputs(model, mode):
    """The output of every accepted prefix of FLAT_PIPELINE under mode."""
    for k in range(1, len(FLAT_PIPELINE) + 1):
        try:
            yield run_pipeline(model, PassConfig(FLAT_PIPELINE[:k], mode))[0]
        except CompileError:
            return  # e.g. boolean mode on differing domains; longer prefixes fail too


@pytest.mark.parametrize("mode", ["disequalities", "relaxation", "boolean"])
@pytest.mark.parametrize("model_name,data_name", ALL_FIXTURES + [("wide_classes.som", None)])
def test_pass_outputs_carry_fresh_bindings(model_name, data_name, mode):
    # passes hand back resolved models without resolving them again: every
    # binding must match what a fresh resolve of a structural copy gives
    model = parse_fixture(model_name, data_name)
    for out in _prefix_outputs(model, mode):
        assert resolve(out) is out
        fresh = resolve(ir.rebuild(out, {"elements": tuple(out.elements)}))
        assert fresh is not out
        assert _bindings(out) == _bindings(fresh)


def _scans_match_the_walk(model):
    assert ir.element_count(model) == naive_element_count(model)
    assert passes.model_features(model) == naive_model_features(model)


@pytest.mark.parametrize("mode", ["disequalities", "relaxation", "boolean"])
@pytest.mark.parametrize("model_name,data_name", ALL_FIXTURES + [("wide_classes.som", None)])
def test_body_scans_match_the_element_walk(model_name, data_name, mode):
    # counts and features read body by body equal a walk of every element,
    # for the input and the output of every accepted pass prefix
    model = resolve(parse_fixture(model_name, data_name))
    _scans_match_the_walk(model)
    for out in _prefix_outputs(model, mode):
        _scans_match_the_walk(out)


def _nested_model(ctr_name="alldifferent", dims=(ir.IntValue(3),)):
    # a loop holding a global constraint in an else branch, an empty zone,
    # a conditional without else and a class with an empty zone, and a
    # variable of that class
    glob = ir.GlobalCtr(ctr_name, (ir.VarOccurrence("x"),))
    loop = ir.ForAll("i", ir.IntValue(1), ir.IntValue(2), (glob,))
    x_is_1 = ir.ExpressionConstraint(
        ir.BoolBinaryOp("=", ir.VarOccurrence("x"), ir.IntValue(1)))
    return ir.Model("Nested", (
        ir.Class("Cell", (ir.Variable("v", "int"), ir.ConstraintZone("inner"))),
        ir.Variable("cells", "Cell", dims=dims),
        ir.ConstraintZone("empty"),
        ir.ConstraintZone("z", (ir.If(ir.BoolValue(True), (x_is_1,), (loop,)),
                                ir.If(ir.BoolValue(False)))),
    ))


@pytest.mark.parametrize("model,features", [
    (_nested_model(), {"classes", "conditionals", "loops", "alldifferent", "object arrays"}),
    (_nested_model("atmost"), {"classes", "conditionals", "loops", "object arrays"}),
    (_nested_model(dims=()), {"classes", "conditionals", "loops", "alldifferent"}),
], ids=["all", "other-global", "no-object-array"])
def test_body_scans_of_nested_bodies(model, features):
    # 4 elements, 2 class features, 2 statements in z, one in each branch
    # of the first conditional, and the loop's global constraint
    assert ir.element_count(model) == 11
    assert passes.model_features(model) == features
    _scans_match_the_walk(model)


@pytest.mark.parametrize("model_name,data_name", ALL_FIXTURES)
def test_flat_pipeline_resolves_once(monkeypatch, model_name, data_name):
    # passes bind what they build, so only run_pipeline's entry walks the model
    model = parse_fixture(model_name, data_name)
    walks = []
    init = sema._Walk.__init__

    def counted(self, scope):
        walks.append(scope)
        init(self, scope)

    monkeypatch.setattr(sema._Walk, "__init__", counted)
    run_pipeline(model, PassConfig(DEFAULT_PASSES + FLAT_EXTRA_PASSES), "flat")
    assert len(walks) == 1


def test_hand_built_enumerations_where_the_parser_puts_none():
    # an enumeration among a class's features is kept as it is, and an
    # enum-typed constant becomes an int one
    e = ir.Enumeration("E", ("a", "b"))
    x = ir.Variable("x", "int", domain=ir.IntervalDomain(ir.IntValue(1), ir.IntValue(2)))
    flat = object_flatten(ir.Model("M", (ir.Class("C", (e, x)), ir.Variable("o", "C"))))
    assert print_pivot(flat) == "model M;\nenum E := {a,b};\nint o_x in 1..2;\n"
    k = ir.Constant("k", "E", ir.VarOccurrence("a"))
    assert print_pivot(enum_remove(ir.Model("M", (e, k)))) == "model M;\nint k := 1;\n"


@pytest.mark.parametrize("expr,folded", [
    ("{1, 2} diff {2}", "{1}"), ("{1} union {2}", "{1,2}"), ("{1, 2} intersect {2}", "{2}"),
])
def test_set_operations_fold(expr, folded):
    assert print_expression(passes._Folder({}).fold(parse_expression(expr))) == folded


def test_exact_power_bound():
    # a power of estimated size past the bound is refused before it is
    # computed; these stay small enough to compute if it were not
    assert passes._pow(2, 100_000) == 1 << 100_000
    for a, b, fraction in ((2, 100_001, False), (passes.Fraction(1, 2), 100_001, True),
                           (2, -100_001, True)):
        with pytest.raises(OverflowError) as info:
            passes._pow(a, b)
        assert info.value.fraction is fraction
    folder = passes._Folder({})
    assert folder.fold(parse_expression("1 + 2 ^ 100001")) == parse_expression("1 + 2 ^ 100001")
    assert folder.why == "an integer of over 4300 digits"
