import random
from math import comb

import pytest

from pivotc import flat, ir, sema
from pivotc.cli import main
from pivotc.errors import CompileError
from pivotc.flat import FlatProgram, FlatVar, emit_flat, lower_pipeline, lower_to_flat
from pivotc.oracle import parse_flat
from pivotc.parser import SourceUnit, parse
from pivotc.passes import ALLDIFF_MODES, PassConfig, loop_unroll, run_pipeline
from pivotc.printer import print_expression

from conftest import ALL_FIXTURES, FIXTURES, parse_fixture
from helpers import gen_loop_model

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
    with pytest.raises(CompileError,
                       match="target flat: model still contains loops; add loopUnroll"):
        lower_to_flat(m)


def test_residual_conditional_rejected():
    m = parse(SourceUnit(
        "model R;\nint x in 1..2;\nconstraint c { if (1 = 1) { x = 1; } }"
    ))
    with pytest.raises(CompileError,
                       match="target flat: model still contains conditionals; add loopUnroll"):
        lower_to_flat(m)


def test_residual_global_rejected():
    m = parse(SourceUnit(
        "model R;\nint x in 1..2;\nint y in 1..2;\nconstraint c { alldifferent(x, y); }"
    ))
    with pytest.raises(CompileError,
                       match="target flat: model still contains alldifferent; add alldiffRewrite"):
        lower_to_flat(m)


def test_residual_class_rejected():
    m = parse(SourceUnit("model R;\nint x in 1..2;\nclass C { int y in 1..2; }"))
    with pytest.raises(CompileError,
                       match="target flat: model still contains classes; add objectFlatten"):
        lower_to_flat(m)


def test_residual_enum_rejected():
    m = parse(SourceUnit("model R;\nenum E := {p,q};\nE v;"))
    with pytest.raises(CompileError,
                       match="target flat: model still contains enumerations; add enumRemove"):
        lower_to_flat(m)


def test_index_out_of_bounds():
    m = parse(SourceUnit(
        "model R;\nint x[2] in 1..2;\nconstraint c { x[3] = 1; }"
    ))
    with pytest.raises(CompileError, match=r"index 3 outside 1\.\.2 for 'x'"):
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
    # int() refuses more than 4,300 digits, in a constraint and in a bound
    with pytest.raises(ParseError) as info:
        parse_flat(f"var int x in 1..2;\nconstraint x <= {'9' * 5001};\n")
    assert str(info.value) == "<flat>:2:6: error: integer literal of 5001 digits is out of range"
    with pytest.raises(ParseError) as info:
        parse_flat(f"var int x in 1..{'9' * 5001};\n")
    assert str(info.value) == "<flat>:1:1: error: integer bound out of range"
    with pytest.raises(ParseError) as info:
        parse_flat("var int x in 1..2;\n\nvar bool x;\n")  # a blank line is skipped
    assert str(info.value) == "<flat>:3:1: error: duplicate variable 'x'"


def test_bool_variable_with_domain_rejected():
    m = parse(SourceUnit("model B;\nbool b in 0..0;\n"))
    with pytest.raises(CompileError, match=r"residual boolean variable with a domain \(variable 'b'\)"):
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


def _unbound_zone_model():
    # marked resolved by hand: the occurrence of y names no declaration
    zone = ir.ConstraintZone("c", (
        ir.ExpressionConstraint(ir.BoolBinaryOp("=", ir.VarOccurrence("y"), ir.IntValue(1))),
    ))
    return sema.mark_resolved(ir.Model("M", (zone,)))


def _global_model():
    x = ir.Variable("x", "int", domain=ir.IntervalDomain(ir.IntValue(1), ir.IntValue(2)))
    return ir.Model("M", (x, ir.GlobalCtr("foo", (ir.VarOccurrence("x"),))))


@pytest.mark.parametrize("model,message", [
    ("int n in 1..3;\nint x[n] in 1..2;", "residual non-ground dimension (variable 'x')"),
    ("int n in 1..3;\nint x in 1..n;", "residual non-ground domain (variable 'x')"),
    ("int n in 1..3;\nint x in {1, n};", "residual non-ground domain (variable 'x')"),
    ("int n in 1..3;\nint x in ({1,2} union {n});", "residual non-ground domain (variable 'x')"),
    ("int n in 1..3;\nint x[2] in 1..2;\nconstraint c { x[n] = 1; }",
     "residual non-ground index (n)"),
    ("int set s in {1,2};",
     "residual set variable without an interval universe (variable 's')"),
    ("real r in 1..2;", "residual real variable (variable 'r')"),
    ("int x;", "residual variable without a finite domain (variable 'x')"),
    ("int x[2,2] in 1..2;\nconstraint c { x[1] = 1; }", "residual partial array reference ('x')"),
    (_unbound_zone_model(), "residual unknown variable (y)"),
    ("real r := 1/3;\nint x in 1..2;\nconstraint c { x <= r; }",
     "the flat format has no literal for 1/3, the value of constant 'r'"),
    ("real r := exp(1000.0);\nint x in 1..2;\nconstraint c { x <= r; }",
     "the value of constant 'r' is beyond the float range"),
    ("real r := sqrt(0.0 - 1.0);\nint x in 1..2;\nconstraint c { x <= r; }",
     "the value of constant 'r' is not a real number"),
    (_global_model(), "residual global constraint (foo)"),
    ("real r := 10 ^ 400 * 1.5;\nint x in 1..2;\nconstraint c { x <= r; }",
     "the value of constant 'r' is beyond the float range"),
    # validate would refuse it; lowering alone names it
    ("int x in 1..2;\nint c := x;\nconstraint k { x <= c; }", "residual non-ground constant (c)"),
    # a prefix that overflows or has no real value leaves the sum no value
    ("real r := 1e300 * 1e300 + 1.0;\nint x in 1..2;\nconstraint c { x <= r; }",
     "the value of constant 'r' is beyond the float range"),
    ("real r := sqrt(0.0 - 1.0) + 1.0;\nint x in 1..2;\nconstraint c { x <= r; }",
     "the value of constant 'r' is not a real number"),
    # the first step of the chain overflows, so the steps after it have no value
    ("real r := 1e308 + 1e308 - 1e308;\nint x in 1..2;\nconstraint c { x <= r; }",
     "the value of constant 'r' is beyond the float range"),
    # str() refuses an int of over 4,300 digits, so the flat format has no literal for it
    ("int k := 10 ^ 5000;\nint x in 1..2;\nconstraint c { x <= k; }",
     "the value of constant 'k' is an integer of over 4300 digits"),
    # the folder keeps 2 ^ 20000 as an exact rational, but no flat text writes it
    ("int x in 1..(1/2)^(0-20000);\nconstraint c { x >= 1; }",
     "a domain bound of variable 'x' is an integer of over 4300 digits"),
])
def test_what_lowering_refuses(model, message):
    if isinstance(model, str):
        model = parse(SourceUnit(f"model M;\n{model}\n"))
    with pytest.raises(CompileError) as info:
        lower_to_flat(model)
    assert str(info.value) == f"cannot lower model: {message}"


def test_set_domain_without_a_hole_lowers_to_its_interval():
    p = lower_to_flat(parse(SourceUnit("model M;\nint x in {3, 1, 2};\nint y in ({1} union {2});\n")))
    assert emit_flat(p) == "var int x in 1..3;\nvar int y in 1..2;\n"


def test_empty_array_declares_nothing_and_reads_no_domain():
    # the domain of x would be refused, but no cell reads it
    p = lower_to_flat(parse(SourceUnit("model M;\nint x[0];\nint y in 1..2;\n")))
    assert emit_flat(p) == "var int y in 1..2;\n"


def test_ground_set_expression_domain_lowers_to_membership():
    p = lower_to_flat(parse(SourceUnit("model M;\nint x in ({1,2} union {5});\n")))
    assert emit_flat(p) == "var int x in 1..5;\nconstraint x = 1 or x = 2 or x = 5;\n"


def test_lowering_inlines_a_constant_the_passes_left(tmp_path):
    model = tmp_path / "m.som"
    model.write_text("model M;\nint c := 2;\nint x in 1..3;\nconstraint z { x >= c; }\n")
    out = tmp_path / "m.flat"
    argv = ["compile", "-m", str(model), "--target", "flat",
            "--passes", "objectFlatten,enumRemove", "-o", str(out)]
    assert main(argv) == 0
    assert out.read_text() == "var int x in 1..3;\nconstraint x >= 2;\n"


@pytest.mark.parametrize("hi,lowered", [("5/2", None), ("4/2", "1..2"), ("2.0", "1..2")])
def test_domain_bound_that_is_a_rational_or_a_float(hi, lowered):
    # an integral rational or float bound is the integer it stands for
    model = parse(SourceUnit(f"int x in 1..{hi};\nconstraint c {{ x >= 1; }}\n"))
    if lowered is None:
        with pytest.raises(CompileError, match=r"residual non-ground domain \(variable 'x'\)"):
            lower_to_flat(model)
    else:
        assert emit_flat(lower_to_flat(model)) == f"var int x in {lowered};\nconstraint x >= 1;\n"



# --------------------------------------------------------------------------
# A pass list that ends with loopUnroll unrolls straight into cells; the
# walk of the unrolled model, lower_to_flat's path, must give the same text

def _outcome(lower):
    """(the flat text of the program lower() returns, or its error; the
    pass reports lower() returns beside the program, or None)."""
    try:
        program, reports = lower()
    except CompileError as exc:
        return f"error: {exc}", None
    return emit_flat(program), reports


def _text_or_error(lower) -> str:
    try:
        return emit_flat(lower())
    except CompileError as exc:
        return f"error: {exc}"


def _cells_and_walk(model, cfg=FULL):
    """The outcomes of unrolling into cells, without the walk that
    lower_pipeline falls back on, and of walking the unrolled model."""
    def walk():
        unrolled, reports = run_pipeline(model, cfg, "flat")
        return lower_to_flat(unrolled), reports

    return _outcome(lambda: flat._unroll_into_cells(model, cfg)), _outcome(walk)


def _golfers(weeks, groups, size):
    names = ", ".join(f"p{k}" for k in range(1, groups * size + 1))
    data = f"enum Name := {{{names}}};\nint s := {size};\nint w := {weeks};\nint g := {groups};\n"
    return parse(SourceUnit((FIXTURES / "golfers.som").read_text(), data))


@pytest.mark.parametrize("mode", ALLDIFF_MODES)
@pytest.mark.parametrize("model_name,data_name", ALL_FIXTURES + [("wide_classes.som", None)])
def test_cells_match_the_walk_on_every_fixture(model_name, data_name, mode):
    # relaxation refuses send.som's domains, on both paths alike
    cells, walk = _cells_and_walk(parse_fixture(model_name, data_name), PassConfig(FULL.passes, mode))
    assert cells == walk


@pytest.mark.parametrize("weeks,groups,size,constraints", [(3, 2, 2, 21), (10, 10, 4, 5050)])
def test_cells_match_the_walk_on_golfers(weeks, groups, size, constraints):
    cells, walk = _cells_and_walk(_golfers(weeks, groups, size))
    assert cells == walk
    assert walk[0].count("\nconstraint ") == constraints


@pytest.mark.parametrize("shadow", [True, False])
def test_cells_match_the_walk_on_random_loop_models(shadow):
    # where the walk refuses, unrolling into cells refuses too (not always
    # first with the same error), and lower_pipeline gives the walk's
    lowered = 0
    for seed in range(80):
        model = gen_loop_model(random.Random(seed), shadow)
        cells, walk = _cells_and_walk(model)
        if walk[0].startswith("error: "):
            assert cells[0].startswith("error: ")
            assert _text_or_error(lambda: lower_pipeline(model, FULL)) == walk[0]
        else:
            assert cells == walk
            lowered += 1
    assert lowered >= 40


LOOP_DIAGNOSTICS = [
    ("int x[2] in 1..3;\nconstraint c {\n  forall(i in 1..3) { x[i] >= 1; }\n}",
     "error: <model>:3:23: index 3 outside 1..2 for 'x'"),
    ("int n in 1..2;\nint x[2] in 1..3;\nconstraint c {\n  forall(i in 1..2) { x[n] >= i; }\n}",
     "error: cannot lower model: residual non-ground index (n)"),
    ("int x[2,2] in 1..3;\nconstraint c {\n  forall(i in 1..2) { x[i] = 1; }\n}",
     "error: cannot lower model: residual partial array reference ('x')"),
    ("int x[2] in 1..2;\nint c := x[1];\nconstraint k {\n  forall(i in 1..2) { x[i] <= c; }\n}",
     "error: cannot lower model: residual non-ground constant (c)"),
    # a loop that never runs reads none of its indexes
    ("int x[2] in 1..3;\nconstraint c {\n  forall(i in 3..2) { x[5] >= i; }\n  x[1] >= 1;\n}",
     "var int x__1 in 1..3;\nvar int x__2 in 1..3;\nconstraint x__1 >= 1;\n"),
]


@pytest.mark.parametrize("source,outcome", LOOP_DIAGNOSTICS)
def test_cells_match_the_walk_on_diagnostics_inside_loops(source, outcome):
    cells, walk = _cells_and_walk(parse(SourceUnit(source)))
    assert cells[0] == walk[0] == outcome
    assert _text_or_error(lambda: lower_pipeline(parse(SourceUnit(source)), FULL)) == outcome


def _compile_flat(tmp_path, capsys, source):
    model, out = tmp_path / "m.som", tmp_path / "m.flat"
    model.write_text(source)
    out.unlink(missing_ok=True)
    code = main(["compile", "-m", str(model), "--target", "flat", "-o", str(out)])
    return code, capsys.readouterr(), out.read_text() if out.exists() else None


@pytest.mark.parametrize("source", [
    *[s for s, _ in LOOP_DIAGNOSTICS],
    (FIXTURES / "queens6.som").read_text(),
    # an unroll error (division by zero at i = 1) and a lowering error (x[3])
    "int x[2] in 1..3;\nconstraint c {\n  forall(i in 1..2) { x[3] = 6 / (i - 1); }\n}",
])
def test_compile_flat_prints_what_the_walk_prints(tmp_path, capsys, monkeypatch, source):
    # exit code, stderr and output, with and without unrolling into cells
    cells = _compile_flat(tmp_path, capsys, source)

    def off(model, cfg):
        raise CompileError("unrolling into cells is off")

    monkeypatch.setattr(flat, "_unroll_into_cells", off)
    assert _compile_flat(tmp_path, capsys, source) == cells


def test_an_unroll_error_still_comes_before_a_lowering_error():
    # unrolling into cells meets x[3] before the plan divides by i - 1 = 0;
    # the walk unrolls every instance first.  lower_pipeline falls back on
    # the walk, so the division by zero is still the error reported
    source = "int x[2] in 1..3;\nconstraint c {\n  forall(i in 1..2) { x[3] = 6 / (i - 1); }\n}"
    cells, walk = _cells_and_walk(parse(SourceUnit(source)))
    assert cells[0] == "error: <model>:3:23: index 3 outside 1..2 for 'x'"
    assert walk[0] == "error: <model>:3:32: division by zero"
    assert _text_or_error(lambda: lower_pipeline(parse(SourceUnit(source)), FULL)) == walk[0]


def test_a_constant_no_literal_holds_that_its_product_folds_away():
    # the plan lowers r before it folds i * r * 3, so unrolling into cells
    # refuses r; the walk folds the product first and lowers it
    source = ("real r := 1/3;\nint x in 1..9;\n"
              "constraint c {\n  forall(i in 1..2) { x >= i * r * 3; }\n}")
    cells, walk = _cells_and_walk(parse(SourceUnit(source)))
    assert cells[0].startswith("error: cannot lower model: the flat format has no literal for 1/3")
    text = "var int x in 1..9;\nconstraint x >= 1;\nconstraint x >= 2;\n"
    assert walk[0] == text
    assert _text_or_error(lambda: lower_pipeline(parse(SourceUnit(source)), FULL)) == text


def test_flat_commands_walk_no_constraint(tmp_path, monkeypatch):
    # compile --target flat and check unroll straight into cells; only a
    # pass list that does not end with loopUnroll walks the unrolled model
    calls = []
    rewrite = flat._Lowerer.rewrite

    def counted(self, e):
        calls.append(e)
        return rewrite(self, e)

    monkeypatch.setattr(flat._Lowerer, "rewrite", counted)
    argv = ["compile", "-m", str(FIXTURES / "golfers.som"), "-d", str(FIXTURES / "golfers.dat"),
            "--target", "flat", "-o", str(tmp_path / "g.flat")]
    assert main(argv) == 0
    assert main(["check", "-m", str(FIXTURES / "queens4.som"), "--alldiff", "relaxation"]) == 0
    assert calls == []
    folded_last = "objectFlatten,enumRemove,alldiffRewrite,loopUnroll,foldConstants"
    assert main(argv + ["--passes", folded_last]) == 0
    assert len(calls) > 0
