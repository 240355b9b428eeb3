from math import comb

import pytest

from pivotc import ir
from pivotc.errors import IndexOutOfBoundsError, ResidualStatementError
from pivotc.flat import FlatProgram, FlatVar, emit_flat, lower_to_flat
from pivotc.oracle import parse_flat
from pivotc.parser import SourceUnit, parse
from pivotc.passes import PassConfig, loop_unroll, run_pipeline
from pivotc.printer import print_expression

from conftest import parse_fixture

FULL = PassConfig(
    ("objectFlatten", "enumRemove", "foldConstants", "alldiffRewrite", "loopUnroll")
)


def _lowered(name, data=None, cfg=FULL):
    out, _ = run_pipeline(parse_fixture(name, data), cfg)
    return lower_to_flat(out)


def test_pair_disequality():
    m = parse(SourceUnit(
        "model P;\nint x[2] in 1..3;\nconstraint c { x[1] != x[2]; }"
    ))
    p = lower_to_flat(m)
    assert p.vars == (FlatVar("x__1", "int", 1, 3), FlatVar("x__2", "int", 1, 3))
    assert len(p.constraints) == 1
    assert print_expression(p.constraints[0]) == "x__1 != x__2"


def test_empty_model():
    p = lower_to_flat(ir.Model("E", ()))
    assert p == FlatProgram()
    assert emit_flat(p) == ""
    assert parse_flat("") == FlatProgram()


def test_golfers_constraint_count_from_independent_expansion():
    # counted by expanding the three loop nests by hand:
    #   groupSize:       w * g                       = 12
    #   playOncePerWeek: w * C(g,2)                  = 12
    #   differentGroups: C(w,2) * g * g              = 54
    w, g = 4, 3
    expected = w * g + w * comb(g, 2) + comb(w, 2) * g * g
    p = _lowered("golfers.som", "golfers.dat")
    assert len(p.vars) == g * w
    assert all(v.kind == "set" and (v.lo, v.hi) == (1, 9) for v in p.vars)
    assert len(p.constraints) == expected == 78


def test_emit_shapes():
    p = FlatProgram(
        (
            FlatVar("x", "int", 1, 3),
            FlatVar("b1", "bool"),
            FlatVar("s1", "set", 1, 9),
        ),
        (ir.BoolBinaryOp("=", ir.VarOccurrence("x"), ir.IntValue(2)),),
    )
    assert emit_flat(p) == (
        "var int x in 1..3;\n"
        "var bool b1;\n"
        "var set of 1..9 s1;\n"
        "constraint x = 2;\n"
    )


def test_emit_parse_round_trip_fixture_programs():
    for name, data in (
        ("golfers.som", "golfers.dat"),
        ("golfers.som", "golfers_small.dat"),
        ("queens4.som", None),
        ("send.som", None),
    ):
        p = _lowered(name, data)
        assert parse_flat(emit_flat(p)) == p


def test_scalarization_separator_avoids_flatten_collisions():
    # a flattened-object name with single underscores cannot collide with
    # a scalarized cell name, which always uses double underscores
    m = parse(SourceUnit(
        "model S;\nint a_b[2] in 1..2;\nint a in 1..2;\nconstraint c { a_b[1] = a; }"
    ))
    p = lower_to_flat(m)
    names = [v.name for v in p.vars]
    assert names == ["a_b__1", "a_b__2", "a"]


def test_residual_loop_rejected():
    m = parse(SourceUnit(
        "model R;\nint x[2] in 1..2;\nconstraint c { forall(i in 1..2) { x[i] = 1; } }"
    ))
    with pytest.raises(ResidualStatementError):
        lower_to_flat(m)


def test_residual_global_rejected():
    m = parse(SourceUnit(
        "model R;\nint x in 1..2;\nint y in 1..2;\nconstraint c { alldifferent(x, y); }"
    ))
    with pytest.raises(ResidualStatementError):
        lower_to_flat(m)


def test_residual_class_rejected(golfers):
    with pytest.raises(ResidualStatementError):
        lower_to_flat(golfers)


def test_residual_enum_rejected():
    m = parse(SourceUnit("model R;\nenum E := {p,q};\nE v;"))
    with pytest.raises(ResidualStatementError):
        lower_to_flat(m)


def test_index_out_of_bounds():
    m = parse(SourceUnit(
        "model R;\nint x[2] in 1..2;\nconstraint c { x[3] = 1; }"
    ))
    with pytest.raises(IndexOutOfBoundsError):
        lower_to_flat(m)


def test_set_domain_lowers_to_hull_plus_membership():
    m = parse(SourceUnit("model R;\nint x in {1,3,5};\nconstraint c { x != 3; }"))
    p = lower_to_flat(m)
    assert p.vars == (FlatVar("x", "int", 1, 5),)
    assert print_expression(p.constraints[0]) == "x = 1 or x = 3 or x = 5"
    assert print_expression(p.constraints[1]) == "x != 3"


def test_multi_dim_scalarization_row_major():
    m = parse(SourceUnit(
        "model R;\nbool b[2,2];\nconstraint c { b[2,1] = b[1,2]; }"
    ))
    p = lower_to_flat(m)
    assert [v.name for v in p.vars] == ["b__1__1", "b__1__2", "b__2__1", "b__2__2"]
    assert print_expression(p.constraints[0]) == "b__2__1 = b__1__2"


def test_parse_flat_errors_positioned():
    from pivotc.errors import ParseError

    with pytest.raises(ParseError) as info:
        parse_flat("var intt x;\n")
    d = info.value.diagnostics[0]
    assert d.line == 1
    with pytest.raises(ParseError) as info:
        parse_flat("var int x in 1..2;\nconstraint y = 1;\n")
    assert info.value.diagnostics[0].line == 2


def test_bool_variable_with_domain_rejected():
    m = parse(SourceUnit("model B;\nbool b in 0..0;\n"))
    with pytest.raises(ResidualStatementError):
        lower_to_flat(m)


def _lowered_texts(text):
    p = lower_to_flat(loop_unroll(parse(SourceUnit(text))))
    return [print_expression(c) for c in p.constraints]


def test_shadowed_iterator_lowers_per_inner_iteration():
    texts = _lowered_texts(
        "model U;\nint x[3] in 1..3;\n"
        "constraint k { forall(i in 1..2) forall(i in i+1..3) { x[i] = i; } }"
    )
    assert texts == ["x__2 = 2", "x__3 = 3", "x__3 = 3"]


def test_identity_fold_keeps_named_cell():
    # folding 1 * x[1] + 0 hands back the child x[1], already named x__1;
    # it must not be named a second time
    texts = _lowered_texts("model I;\nint x[2] in 1..3;\nconstraint c { 1 * x[1] + 0 = x[2]; }")
    assert texts == ["x__1 = x__2"]
