import random
import re

import pytest

from pivotc import ir, sema
from pivotc.cli import main
from pivotc.clp import ClpEmitOptions, emit_clp
from pivotc.errors import CompileError
from pivotc.flat import lower_to_flat
from pivotc.parser import SourceUnit, parse
from pivotc.passes import PassConfig, run_pipeline

from conftest import ALL_FIXTURES, parse_fixture
from helpers import check_clp_params, gen_loop_model

GOLFERS_CFG = PassConfig(("objectFlatten", "enumRemove", "foldConstants"))


def _golfers_clp():
    m = parse_fixture("golfers.som", "golfers.dat")
    out, _ = run_pipeline(m, GOLFERS_CFG)
    return out, emit_clp(out)


def _block(text: str, zone: str) -> str:
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.strip() == f"% {zone}")
    end = len(lines)
    for j in range(start + 1, len(lines)):
        if lines[j].strip().startswith("%") or lines[j].strip() == "label_sets(L).":
            end = j
            break
    return "\n".join(lines[start:end])


def test_golfers_intsets_line_exact():
    _, text = _golfers_clp()
    assert "intsets(WEEKSCHED_GROUPSCHED_PLAYERS,12,1,9)" in text


def test_golfers_different_groups_has_four_nested_loops():
    _, text = _golfers_clp()
    block = _block(text, "differentGroups")
    assert block.count("(for(") == 4
    # and they are genuinely nested: indentation strictly increases
    indents = [len(l) - len(l.lstrip()) for l in block.splitlines() if "(for(" in l]
    assert indents == sorted(indents) and len(set(indents)) == 4


def test_golfers_head_and_label():
    _, text = _golfers_clp()
    assert text.startswith("socialGolfers(L):-\n")
    assert text.rstrip().endswith("label_sets(L).")


def test_minimal_model_three_domains_one_goal():
    m = parse(SourceUnit(
        "model Tiny;\nint x in 1..3;\nint y in 1..3;\nint z in 1..3;\n"
        "constraint c { x + y = z; }"
    ))
    text = emit_clp(m)
    assert text.count(" :: 1..3") == 3
    assert " X+Y $= Z," in text
    assert "L = [X,Y,Z]" in text


def test_class_is_unsupported(golfers):
    with pytest.raises(CompileError, match=re.escape(
        "target clp: model still contains classes, enumerations; add objectFlatten; add enumRemove"
    )):
        emit_clp(golfers)


def test_real_variable_unsupported():
    m = parse(SourceUnit("model R;\nreal x in 1..2;"))
    with pytest.raises(
        CompileError, match=r"real variable 'x' is not supported by the clp target \(finite domains"
    ):
        emit_clp(m)


def test_balanced_parens_and_single_final_period():
    _, text = _golfers_clp()
    assert text.count("(") == text.count(")")
    body = text.rstrip()
    assert body.endswith(".") and not body.endswith("..")
    assert all(not l.rstrip().endswith(".") for l in body.splitlines()[:-1])


def test_deterministic_emission():
    _, a = _golfers_clp()
    _, b = _golfers_clp()
    assert a == b


def test_fresh_variables_numbered_in_emission_order():
    _, text = _golfers_clp()
    fresh = re.findall(r"\bV(\d+)\b", text)
    seen = []
    for n in fresh:
        if n not in seen:
            seen.append(n)
    assert seen == [str(i) for i in range(1, len(seen) + 1)]


def test_param_lists_match_scope_analysis():
    """Every name used in a loop body and defined outside appears in the
    loop's param list (re-scan of the emitted text against the model)."""
    check_clp_params(*_golfers_clp())


UNFOLDED_CFG = PassConfig(("objectFlatten", "enumRemove"))


@pytest.mark.parametrize("cfg", [GOLFERS_CFG, UNFOLDED_CFG], ids=["folded", "unfolded"])
@pytest.mark.parametrize("name,data", ALL_FIXTURES + [("wide_classes.som", None)])
def test_param_lists_of_each_fixture(name, data, cfg):
    model, _ = run_pipeline(parse_fixture(name, data), cfg, "clp")
    check_clp_params(model, emit_clp(model))


@pytest.mark.parametrize("seed", range(300))
def test_param_lists_of_generated_loop_models(seed):
    # without shadowing loops, which the clp target refuses
    for cfg in (GOLFERS_CFG, UNFOLDED_CFG):
        model, _ = run_pipeline(gen_loop_model(random.Random(seed), False), cfg, "clp")
        check_clp_params(model, emit_clp(model))


def test_structured_statements_not_more_than_flat_constraints():
    for name, data in (("golfers.som", "golfers.dat"), ("queens4.som", None)):
        m = parse_fixture(name, data)
        structured, _ = run_pipeline(m, GOLFERS_CFG)
        stmt_count = sum(
            len(e.body)
            for e in structured.elements
            if isinstance(e, ir.ConstraintZone)
        )
        full, _ = run_pipeline(
            m,
            PassConfig(
                ("objectFlatten", "enumRemove", "foldConstants", "alldiffRewrite", "loopUnroll")
            ),
        )
        flat = lower_to_flat(full)
        assert stmt_count <= len(flat.constraints)


def test_custom_predicate_name_and_no_label():
    m = parse(SourceUnit("model Tiny;\nint x in 1..2;\nconstraint c { x = 1; }"))
    text = emit_clp(m, ClpEmitOptions(predicate_name="probe", label_sets=False))
    assert text.startswith("probe(L):-")
    assert "label_sets" not in text
    assert text.rstrip().endswith("X $= 1.")


@pytest.mark.parametrize("decls,first,second,shared", [
    ("int ab in 1..2;\nint AB in 1..2;", "ab", "AB", "AB"),
    ("int k := 1;\nint x in 1..2;\nint K in 1..2;", "k", "K", "K"),
])
def test_declarations_sharing_a_clp_name_are_named(decls, first, second, shared):
    m = parse(SourceUnit(f"model M;\n{decls}\n"))
    message = f"declarations '{first}' and '{second}' share the clp name '{shared}'"
    with pytest.raises(CompileError) as info:
        emit_clp(m)
    assert str(info.value) == message


@pytest.mark.parametrize("decls,body,message", [
    ("int x in 1..2; int y in 1..2;", "forall(x in 5..5) { alldifferent(x, y); }",
     "loop iterator 'x' and declaration 'x' share the clp name 'X'"),
    ("int I in 1..2;", "forall(i in 1..2) { I != i; }",
     "loop iterator 'i' and declaration 'I' share the clp name 'I'"),
    ("int a[2,2] in 1..4;", "forall(i in 1..2) { forall(i in 1..2) { a[i,i] >= 1; } }",
     "loop iterator 'i' and the enclosing loop iterator 'i' share the clp name 'I'"),
    ("int x in 1..2;", "forall(l in 1..2) { x >= l; }",
     "loop iterator 'l' and the clause head share the clp name 'L'"),
    ("int l in 1..2;", "l >= 1;", "declaration 'l' and the clause head share the clp name 'L'"),
])
def test_a_clp_name_that_would_stand_for_two_things_is_refused(tmp_path, capsys, decls, body,
                                                               message):
    path = tmp_path / "m.som"
    path.write_text(f"{decls}\nconstraint c {{ {body} }}\n")
    out = tmp_path / "m.ecl"
    assert main(["compile", "-m", str(path), "--target", "clp", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n") and err.count("error:") == 1
    assert not out.exists()


def test_auxiliaries_skip_every_loop_iterators_clp_name():
    m = parse(SourceUnit("model M;\nint a[3] in 1..4;\n"
                         "constraint c { forall(v1 in 1..2) { a[v1+1] >= a[v1]; } }\n"))
    assert _block(emit_clp(m), "c") == "\n".join([
        " % c",
        " (for(V1,1,2),param(A) do",
        "  V2 is V1+1,",
        "  nth(V3,V2,A),",
        "  nth(V4,V1,A),",
        "  V3 $>= V4",
        " ),",
        "",
    ])


def test_invalid_predicate_name_rejected():
    m = parse(SourceUnit("model Tiny;\nint x in 1..2;"))
    with pytest.raises(CompileError, match="'NotAnAtom' is not a valid predicate name"):
        emit_clp(m, ClpEmitOptions(predicate_name="NotAnAtom"))


def test_queens_clp_shape():
    m = parse_fixture("queens4.som")
    out, _ = run_pipeline(m, GOLFERS_CFG)
    text = emit_clp(out)
    assert "length(Q,4)" in text
    assert "Q :: 1..4" in text
    assert "alldifferent([" in text
    # indexed accesses go through nth
    assert text.count("nth(") >= 4


def test_if_statement_emission():
    m = parse(SourceUnit(
        "model C;\nint x in 1..3;\nint y in 1..3;\n"
        "constraint z { if (x = 1) { y = 2; } else { y = 3; } }"
    ))
    text = emit_clp(m)
    assert "( (X $= 1) ->" in text
    assert ";" in text


def test_alldifferent_param_lookup_through_nth():
    m = parse(SourceUnit(
        "model A;\nint q[2] in 1..2;\nconstraint c { alldifferent(q[1], q[2]); }"
    ))
    text = emit_clp(m)
    assert "nth(V1,1,Q)" in text
    assert "nth(V2,2,Q)" in text
    assert "alldifferent([V1,V2])" in text


def test_empty_zone_emits_true_goal():
    m = parse(SourceUnit("model Z;\nint x in 1..2;\nconstraint empty { }"))
    text = emit_clp(m)
    assert "% empty" in text
    assert "true," in text
    assert text.rstrip().endswith("label_sets(L).")
    assert text.count("(") == text.count(")")


def test_connectives_and_set_literals_emit():
    m = parse(SourceUnit(
        "model K;\nint x in 1..3;\nint set s in 1..3;\n"
        "constraint z { x = 1 or x = 3; card(s union {1,2}) >= 2; }"
    ))
    text = emit_clp(m)
    assert "((X $= 1) or (X $= 3))" in text
    assert "#(S \\/ [1,2], V1)" in text
    assert "V1 $>= 2" in text


GRID = """model Grid;
int n := 2;
int m := 3;
int a[n,m] in 1..6;
constraint cells {
  forall(i in 1..n)
    forall(j in 1..m) {
      a[i,j] >= 1;
    }
  a[2,3] <= 6;
  alldifferent(a[1,1], a[1,2], a[1,3], a[2,1], a[2,2], a[2,3]);
}
"""


def test_two_dimensional_index_is_row_major(tmp_path, capsys):
    # a[i,j] of an n x m array is element m*(i-1)+j of the list A
    text = emit_clp(run_pipeline(parse(SourceUnit(GRID)), GOLFERS_CFG)[0])
    assert " length(A,2*3),\n A :: 1..6,\n" in text
    assert "   V1 is 3*(I-1)+J,\n   nth(V2,V1,A),\n   V2 $>= 1\n" in text
    assert " V3 is 3*(2-1)+3,\n nth(V4,V3,A),\n V4 $=< 6,\n" in text
    model = tmp_path / "grid.som"
    model.write_text(GRID)
    assert main(["check", "-m", str(model)]) == 0
    assert capsys.readouterr().out == "EQUAL baseline=720 transformed=720\n"


def test_unfolded_index_size_is_a_loop_param():
    # the size m in a[i,j]'s linear index is read inside the inner loop
    model, _ = run_pipeline(parse(SourceUnit(GRID)), UNFOLDED_CFG, "clp")
    text = emit_clp(model)
    assert "  (for(J,1,M),param(A,M,I) do\n   V1 is M*(I-1)+J,\n" in text
    check_clp_params(model, text)


_X = ir.VarOccurrence("x")
_X_IN_1_2 = ir.Variable("x", "int", domain=ir.IntervalDomain(ir.IntValue(1), ir.IntValue(2)))


@pytest.mark.parametrize("model,text", [
    # a bool's domain, neg, a bool alone, the constant constraints, an
    # "and" split into goals and unary minus
    ("model B;\nbool b;\nint x in 1..2;\n"
     "constraint c { not (x = 1); b; true; false; x = 1 and b; -x <= 2; b = false; }",
     "b(L):-\n B :: 0..1,\n X :: 1..2,\n L = [B,X],\n\n % c\n neg((X $= 1)),\n B $= 1,\n"
     " true,\n fail,\n X $= 1,\n B $= 1,\n -X $=< 2,\n B $= 0,\n\n label_sets(L).\n"),
    ("model S;\nint x in {1,3,5};\n", "s(L):-\n X :: [1,3,5],\n L = [X],\n\n label_sets(L).\n"),
    # no variable: nothing binds L
    ("model K;\nint k := 2;\nconstraint c { k >= 1; }",
     "k(L):-\n K $= 2,\n\n % c\n K $>= 1,\n\n label_sets(L).\n"),
    ("model I;\nint x in 1..3;\nconstraint c { if (x = 1) { x = 1; } else { } }",
     "i(L):-\n X :: 1..3,\n L = [X],\n\n % c\n ( (X $= 1) ->\n  X $= 1\n ;\n  true\n ),\n\n"
     " label_sets(L).\n"),
    # statements outside any zone, one a global constraint no pass knows
    (ir.Model("G", (_X_IN_1_2, ir.GlobalCtr("foo", (_X, ir.IntValue(1))),
                    ir.ExpressionConstraint(ir.BoolBinaryOp("=", _X, ir.IntValue(1))))),
     "g(L):-\n X :: 1..2,\n L = [X],\n\n foo(X,1),\n\n X $= 1,\n\n label_sets(L).\n"),
])
def test_clp_text_of_each_construct(model, text):
    assert emit_clp(parse(SourceUnit(model)) if isinstance(model, str) else model) == text


def test_empty_clause_is_true():
    assert emit_clp(ir.Model("E", ()), ClpEmitOptions(label_sets=False)) == "e(L):-\n true.\n"


@pytest.mark.parametrize("variable,message", [
    (ir.Variable("s", "int", is_set=True, domain=ir.SetDomain((ir.IntValue(1),))),
     "set variable 's' needs an interval universe"),
    (ir.Variable("v", "foo"), "variable 'v' has unsupported type 'foo'"),
    (ir.Variable("x", "int"), "variable 'x' needs a finite domain for the clp target"),
])
def test_variables_the_clp_target_refuses(variable, message):
    with pytest.raises(CompileError) as info:
        emit_clp(ir.Model("M", (variable,)))
    assert str(info.value) == message


_X = ir.VarOccurrence("x", binding=ir.Binding("variable", "x"))


@pytest.mark.parametrize("stmt,message", [
    (ir.ExpressionConstraint(ir.BoolBinaryOp("=", _X, ir.SetDomain(()))),
     "expression SetDomain is not supported by the clp target"),
    (ir.ExpressionConstraint(ir.IntValue(1)),
     "constraint expression IntValue is not supported by the clp target"),
    (ir.Variable("y", "int"), "statement Variable is not supported by the clp target"),
])
def test_hand_built_node_out_of_place_is_refused(stmt, message):
    x = ir.Variable("x", "int", domain=ir.IntervalDomain(ir.IntValue(1), ir.IntValue(2)))
    model = sema.mark_resolved(ir.Model("M", (x, ir.ConstraintZone("z", (stmt,)))))
    with pytest.raises(CompileError, match=message):
        emit_clp(model)
