import functools
import gc
import json
import resource
import subprocess
import sys

import pytest

from pivotc import cli, oracle, passes
from pivotc.cli import main
from pivotc.oracle import parse_flat
from pivotc.parser import SourceUnit, parse, parse_expression
from pivotc.passes import ALLDIFF_MODES, PASS_IDS, _Folder

from conftest import FIXTURES


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "pivotc.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_compile_golfers_clp(tmp_path):
    out = tmp_path / "golfers.ecl"
    proc = run_cli(
        "compile",
        "-m", str(FIXTURES / "golfers.som"),
        "-d", str(FIXTURES / "golfers.dat"),
        "--target", "clp",
        "-o", str(out),
    )
    assert proc.returncode == 0
    assert "intsets(WEEKSCHED_GROUPSCHED_PLAYERS,12,1,9)" in out.read_text()
    # pass reports go to stderr, payload only to the file
    assert "objectFlatten" in proc.stderr
    assert proc.stdout == ""


def test_compile_missing_model_flag_is_usage_error():
    proc = run_cli("compile", "--target", "clp", "-o", "x.ecl")
    assert proc.returncode == 2


def test_compile_flat_requires_unroll(tmp_path):
    proc = run_cli(
        "compile",
        "-m", str(FIXTURES / "queens4.som"),
        "--target", "flat",
        "--passes", "objectFlatten,enumRemove,foldConstants",
        "-o", str(tmp_path / "q.flat"),
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: target flat: model still contains alldifferent, loops; "
        "add alldiffRewrite; add loopUnroll\n"
    )


@pytest.mark.parametrize("pass_args,message", [
    (("--passes", "loopUnroll,objectFlatten"),
     "loopUnroll: model still contains classes; move objectFlatten before loopUnroll"),
    (("--passes", "objectFlatten", "--unroll"),
     "target flat: model still contains enumerations; add enumRemove"),
])
def test_compile_refuses_an_unreachable_order_before_any_pass(tmp_path, capsys, pass_args, message):
    out = tmp_path / "g.flat"
    argv = ["compile", "-m", str(FIXTURES / "golfers.som"), "-d", str(FIXTURES / "golfers.dat"),
            "--target", "flat", *pass_args, "-o", str(out)]
    assert main(argv) == 1
    # no pass report line: the refusal comes before the first pass
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_check_refuses_an_unreachable_order_before_the_baseline_runs(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_lowered", lambda model, cfg: pytest.fail("a pipeline ran"))
    assert main(["check", "-m", str(FIXTURES / "queens4.som"), "--passes", "foldConstants"]) == 1
    assert capsys.readouterr() == ("", (
        "error: alldiffRewrite: model still contains classes; "
        "add objectFlatten before alldiffRewrite\n"
    ))


def test_compile_flat_without_unroll_when_the_model_has_no_loops(tmp_path):
    model = tmp_path / "m.som"
    model.write_text("model M;\nint x in 1..3;\nint y in 1..3;\nconstraint c { x < y; }\n")
    out = tmp_path / "m.flat"
    assert main(["compile", "-m", str(model), "--target", "flat", "--passes", "foldConstants",
                 "-o", str(out)]) == 0
    assert out.read_text() == "var int x in 1..3;\nvar int y in 1..3;\nconstraint x < y;\n"


def test_compile_flat_queens(tmp_path):
    out = tmp_path / "q.flat"
    proc = run_cli(
        "compile",
        "-m", str(FIXTURES / "queens4.som"),
        "--target", "flat",
        "--unroll",
        "-o", str(out),
    )
    assert proc.returncode == 0
    text = out.read_text()
    assert text.count("var int") == 4
    assert "constraint" in text


def test_compile_pivot_target(tmp_path):
    out = tmp_path / "m.som"
    proc = run_cli(
        "compile",
        "-m", str(FIXTURES / "golfers.som"),
        "-d", str(FIXTURES / "golfers.dat"),
        "--target", "pivot",
        "-o", str(out),
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("model SocialGolfers;")


def test_byte_identical_reruns(tmp_path):
    args = (
        "compile",
        "-m", str(FIXTURES / "golfers.som"),
        "-d", str(FIXTURES / "golfers.dat"),
        "--target", "clp",
    )
    a, b = tmp_path / "a.ecl", tmp_path / "b.ecl"
    assert run_cli(*args, "-o", str(a)).returncode == 0
    assert run_cli(*args, "-o", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_diagnostics_exit_code_and_format(tmp_path):
    bad = tmp_path / "bad.som"
    bad.write_text("main class M {\n  int x in ;\n}\n")
    proc = run_cli("compile", "-m", str(bad), "--target", "clp", "-o", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert f"{bad}:2:" in proc.stderr


def test_type_error_is_reported(tmp_path):
    bad = tmp_path / "bad.som"
    bad.write_text("model M;\nconstraint c { 1 + 2; }\n")
    proc = run_cli("compile", "-m", str(bad), "--target", "clp", "-o", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "must be boolean" in proc.stderr


def test_check_relaxation_superset():
    proc = run_cli("check", "-m", str(FIXTURES / "queens4.som"), "--alldiff", "relaxation")
    assert proc.returncode == 0
    assert proc.stdout.startswith("SUPERSET")


def test_check_prints_the_exported_verdict(capsys):
    assert set(cli.VERDICTS) == {"equal", "subset", "superset", "incomparable"}
    argv = ["check", "-m", str(FIXTURES / "queens4.som"), "--alldiff", "relaxation"]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"{cli.VERDICTS['superset']} baseline=2 transformed=4\n"


# the loop iterator x hides the variable x: the relaxation cannot see a
# declared domain behind it, and the sum it would write loses every solution
_ITERATOR_PARAMETER = ("int x in 1..2;\nint y in 1..2;\n"
                       "constraint c {\n  forall(x in 5..5) {\n    alldifferent(x, y);\n  }\n}\n")


@pytest.mark.parametrize("mode,target,code,out,err", [
    ("relaxation", None, 1, "", "relaxation requires every parameter domain to be 1..2"),
    ("relaxation", "flat", 1, "", "relaxation requires every parameter domain to be 1..2"),
    ("disequalities", None, 0, "EQUAL baseline=4 transformed=4\n", ""),
    ("boolean", None, 1, "", "boolean mode cannot rewrite alldifferent inside forall/if"),
])
def test_alldiff_parameter_that_is_a_loop_iterator(tmp_path, capsys, mode, target, code, out,
                                                   err):
    _, argv = _command(tmp_path, _ITERATOR_PARAMETER, target)
    assert main(argv + ["--alldiff", mode]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert err in captured.err and captured.err.count("error:") == (1 if code else 0)


def test_check_boolean_equal():
    proc = run_cli("check", "-m", str(FIXTURES / "queens4.som"), "--alldiff", "boolean")
    assert proc.returncode == 0
    assert proc.stdout.startswith("EQUAL baseline=2 transformed=2")


def test_check_default_passes_equal():
    proc = run_cli(
        "check",
        "-m", str(FIXTURES / "golfers.som"),
        "-d", str(FIXTURES / "golfers_small.dat"),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("EQUAL")


def test_eval_folds():
    proc = run_cli("eval", "-e", "1+2*3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"


def test_eval_identity():
    proc = run_cli("eval", "-e", "x+0")
    assert proc.stdout.strip() == "x"


@pytest.mark.parametrize("expr,folded", [("-2*3", "-6"), ("-(1+2)", "-3")])
def test_eval_takes_an_expression_that_starts_with_a_minus(expr, folded):
    proc = run_cli("eval", "-e", expr)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, folded + "\n", "")


def test_eval_parse_error():
    proc = run_cli("eval", "-e", "1 +")
    assert proc.returncode == 1


def test_eval_deep_set_literal_is_a_diagnostic():
    proc = run_cli("eval", "-e", "{" * 2500 + "1" + "}" * 2500)
    assert proc.returncode == 1
    assert "expression nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("expr", [
    "abs({1})", "{1} + 1", "0 - {1}", "{1} * {2}", "{1} / 2", "2 ^ {1}",
    "min({1}, 2)", "max(1, {2})", "-{1}",
])
def test_eval_set_operand_of_arithmetic_stays_symbolic(capsys, expr):
    # a set has no arithmetic: the node is left unfolded, as 1.5 < {1} is
    assert main(["eval", f"--expr={expr}"]) == 0
    assert capsys.readouterr().out == expr + "\n"


@pytest.mark.parametrize("command", [
    ("compile", "--target", "flat", "--unroll", "-o", "out.flat"),
    ("check",),
])
def test_non_integral_constant_has_no_flat_literal(tmp_path, command):
    model = tmp_path / "r.som"
    model.write_text(
        "model R;\nreal r := 1/3;\nint x[2] in 0..3;\n"
        "constraint c { forall(i in 1..2) { x[i] * (r + r) * 3 >= 2; } }\n"
    )
    args = [a if a != "out.flat" else str(tmp_path / a) for a in command]
    proc = run_cli(*args[:1], "-m", str(model), *args[1:])
    assert proc.returncode == 1
    assert "the flat format has no literal for 1/3, the value of constant 'r'" in proc.stderr
    assert "non-ground" not in proc.stderr


_BEYOND_RANGE = "model M;\nint x in 1..3;\nconstraint k { x <= 1e400; }\n"
_OVERFLOWING_FOLD = "model M;\nint x in 1..3;\nconstraint k { x * 1.0 <= 1e300 * 1e300; }\n"
_LONG_FOLD = "model M;\nint k := 10 ^ 5000;\nint x in 1..2;\nconstraint c { x <= k; }\n"


def _command(tmp_path, model: str, target: str | None):
    path = tmp_path / "m.som"
    path.write_text(model)
    if target is None:
        return path, ["check", "-m", str(path)]
    return path, ["compile", "-m", str(path), "--target", target, "-o", str(tmp_path / "out")]


@pytest.mark.parametrize("target", [None, "pivot", "flat", "clp"])
def test_real_literal_beyond_the_float_range_is_a_diagnostic(tmp_path, capsys, target):
    path, argv = _command(tmp_path, _BEYOND_RANGE, target)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"{path}:3:21: error: real literal '1e400' is out of range\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("expr,col", [
    ("1e400", 1), ("-1e400", 2), ("2 * 1.5e999", 5),
    # int() refuses an integer literal of over 4,300 digits
    pytest.param("9" * 5001, 1, id="5001-digits"),
    pytest.param("2 * -" + "9" * 5001, 6, id="-5001-digits"),
])
def test_eval_real_literal_beyond_the_float_range_is_a_diagnostic(capsys, expr, col):
    assert main(["eval", f"--expr={expr}"]) == 1
    literal = expr.split()[-1].lstrip("-")
    what = f"integer literal of {len(literal)} digits" if literal.isdigit() else f"real literal '{literal}'"
    assert capsys.readouterr() == ("", f"<expr>:1:{col}: error: {what} is out of range\n")


@pytest.mark.parametrize("target,text", [
    ("pivot", "  x * 1.0 <= 1e+300 * 1e+300;\n"),
    ("flat", "constraint x * 1.0 <= 1e+300 * 1e+300;\n"),
    ("clp", " X*1.0 $=< 1e+300*1e+300,\n"),
    # str() refuses an int of over 4,300 digits: that fold stays symbolic too
    ("pivot", "int k := 10 ^ 5000;\n"),
    ("clp", " K $= 10^5000,\n"),
])
def test_fold_beyond_the_float_range_stays_symbolic(tmp_path, capsys, target, text):
    model = _LONG_FOLD if "5000" in text else _OVERFLOWING_FOLD
    _, argv = _command(tmp_path, model, target)
    assert main(argv) == 0
    out = (tmp_path / "out").read_text()
    assert text in out and "inf" not in out
    if target == "pivot":
        assert parse(SourceUnit(out)) == parse(SourceUnit(model))
    elif target == "flat":
        assert len(parse_flat(out).constraints) == 1


def test_check_of_a_fold_beyond_the_float_range(tmp_path, capsys):
    _, argv = _command(tmp_path, _OVERFLOWING_FOLD, None)
    assert main(argv) == 0
    assert capsys.readouterr() == ("EQUAL baseline=3 transformed=3\n", "")


_UNEVALUABLE = [  # (constraints, the one the message names, the error)
    ("sqrt(0.0 - 1.0) <= x", "sqrt(-1.0) <= x", "math domain error"),
    ("exp(1000.0 * x) >= 1.0", "exp(1000.0 * x) >= 1.0", "math range error"),
    ("x * 1.0 <= (0.0 - 8.0) ^ 0.5", "x * 1.0 <= (-8.0) ^ 0.5",
     "a negative number raised to a fractional power is not real"),
    # both read only x, so one line of the search checks them; the second raises
    ("x >= 1; sqrt(0.0 - 1.0) <= x", "sqrt(-1.0) <= x", "math domain error"),
]


@pytest.mark.parametrize("constraints,culprit,message", _UNEVALUABLE,
                         ids=[f"{c}-{m}" for c, _, m in _UNEVALUABLE])
def test_check_of_a_constraint_the_oracle_cannot_evaluate(tmp_path, capsys, constraints, culprit,
                                                          message):
    # the fold leaves each of these symbolic; the search meets the error
    _, argv = _command(tmp_path, f"model M;\nint x in 1..3;\nconstraint k {{ {constraints}; }}\n", None)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: the oracle cannot evaluate the constraint {culprit}: {message}\n"
    )


@pytest.mark.parametrize("constraint,message", [
    ("1 / x = 1", "division by zero"),
    ("x ^ -1 = 1", "zero raised to a negative power"),
])
def test_check_names_the_constraint_that_divides_by_zero(tmp_path, capsys, constraint, message):
    # the search's own refusals name their constraint as a math error does
    model = f"int x in 0..2; int y in 0..2; constraint k {{ x + y >= 0; {constraint}; }}\n"
    _, argv = _command(tmp_path, model, None)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: the oracle cannot evaluate the constraint {constraint}: {message}\n"
    )


@pytest.mark.parametrize("target", [None, "flat"])
def test_constant_beyond_the_float_range_is_named(tmp_path, capsys, target):
    model = "model M;\nreal r := 1e300 * 1e300;\nint x in 1..3;\nconstraint k { x <= r; }\n"
    _, argv = _command(tmp_path, model, target)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.endswith(
        "error: cannot lower model: the value of constant 'r' is beyond the float range\n"
    )


def test_check_names_a_constant_whose_prefix_overflows(tmp_path, capsys):
    # the product overflows, so the sum above it has no value of its own
    model = "model M;\nreal r := 1e300 * 1e300 + 1.0;\nint x in 1..3;\nconstraint k { x <= r; }\n"
    _, argv = _command(tmp_path, model, None)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: cannot lower model: the value of constant 'r' is beyond the float range\n"
    )


# the denominator, 3 ^ 10000, has 4,772 digits: more than str() writes
_LONG_FRACTION = "model M;\nreal r := (1/3) ^ 10000;\nint x in 1..2;\nconstraint c { x <= r; }\n"


@pytest.mark.parametrize("alldiff", [None, *ALLDIFF_MODES])
@pytest.mark.parametrize("target", [None, "flat"])
def test_constant_of_a_fraction_too_long_to_quote_is_named(tmp_path, capsys, target, alldiff):
    _, argv = _command(tmp_path, _LONG_FRACTION, target)
    assert main(argv + ([] if alldiff is None else ["--alldiff", alldiff])) == 1
    out, err = capsys.readouterr()
    line = ("error: cannot lower model: the value of constant 'r' is a fraction whose "
            "numerator or denominator has over 4300 digits\n")
    assert out == "" and err.endswith(line) and err.count("error:") == 1
    assert err == line if target is None else not (tmp_path / "out").exists()


@pytest.mark.parametrize("target,text", [
    ("pivot", "real r := (1 / 3) ^ 10000;\n"),
    ("clp", " R $= (1/3)^10000,\n"),
])
def test_fraction_too_long_to_quote_stays_symbolic(tmp_path, target, text):
    _, argv = _command(tmp_path, _LONG_FRACTION, target)
    assert main(argv) == 0
    assert text in (tmp_path / "out").read_text()


@pytest.mark.parametrize("powers", [60, 12000])
def test_power_chain_counts_against_the_nesting_cap(tmp_path, capsys, powers):
    # each exponent is one level deeper: a chain past the cap is a
    # diagnostic, not a RecursionError
    model = "int x in 0..2;\nconstraint c { x <= 1" + " ^ 1" * powers + "; }\n"
    _, argv = _command(tmp_path, model, "pivot")
    if powers < 64:
        assert main(argv) == 0
        assert "  x <= 1;\n" in (tmp_path / "out").read_text()
    else:
        assert main(argv) == 1
        assert "expression nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("expr,out,err", [
    ("(0.0 - 8.0) ^ 0.5 < 1", "(-8.0) ^ 0.5 < 1\n", ""),
    ("0.0 ^ (0.0 - 1.0) < 1", "", "error: <expr>:1:5: zero raised to a negative power\n"),
])
def test_eval_of_a_real_power_without_a_real_value(capsys, expr, out, err):
    assert main(["eval", "-e", expr]) == (1 if err else 0)
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("expr,out", [
    ("2 ^ 0.5", "1.4142135623730951"), ("4 ^ (1/2)", "2.0"), ("(1/4) ^ 0.5", "0.5"),
    ("8 ^ (6/3)", "64"), ("(2/3) ^ 2", "(2 / 3) ^ 2"), ("2 ^ -2", "2 ^ -2"),
])
def test_eval_of_a_power(capsys, expr, out):
    # a real or non-integral exponent folds in float, an integral rational
    # one exactly; an exact power that is not an integer stays symbolic
    assert main(["eval", "-e", expr]) == 0
    assert capsys.readouterr() == (out + "\n", "")


def run_capped(*args, seconds: float):
    """run_cli in a child that caps its own address space at 1 GiB after
    the fork; raises TimeoutExpired after seconds."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "pivotc.cli", *args], capture_output=True,
                          text=True, timeout=seconds, preexec_fn=cap)


@pytest.mark.parametrize("expr,out", [
    ("10^10^10", "10 ^ 10000000000"), ("9^9^9", "9 ^ 387420489"),
    ("(1/2)^(10^10)", "(1 / 2) ^ 10000000000"), ("2^-(10^10)", "2 ^ -10000000000"),
    ("2^20000", "2 ^ 20000"),  # computed, but too long to write: as before the bound
    ("1^(10^10)", "1"), ("(-1)^(10^10)", "1"), ("0^(10^10)", "0"),  # bases exempt from it
])
def test_eval_of_a_huge_power_ends_at_once(expr, out):
    # each exact power above stays symbolic without being computed
    proc = run_capped("eval", "-e", expr, seconds=10.0)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "\n", "")


@pytest.mark.parametrize("target,code,text", [
    ("clp", 0, " K $= 10^10000000000,\n"),
    ("pivot", 0, "int k := 10 ^ 10000000000;\n"),
    ("flat", 1, "error: cannot lower model: the value of constant 'k' is an integer of over "
                "4300 digits\n"),
])
def test_compile_of_a_constant_too_large_to_compute(tmp_path, target, code, text):
    # the value gets the reason int k := 10^5000 gets
    _, argv = _command(tmp_path, "int k := 10^10^10; int x in 1..2; constraint c { x <= k; }",
                       target)
    proc = run_capped(*argv, seconds=10.0)
    assert proc.returncode == code
    if code:
        assert proc.stderr.endswith(text) and proc.stderr.count("error:") == 1
    else:
        assert text in (tmp_path / "out").read_text()


def test_a_fraction_too_large_to_compute_gets_the_fraction_reason(tmp_path):
    _, argv = _command(tmp_path, "real k := (2/3)^(10^10); int x in 1..2;\n"
                       "constraint c { x <= k; }", "flat")
    proc = run_capped(*argv, seconds=10.0)
    assert proc.returncode == 1
    assert proc.stderr.endswith("error: cannot lower model: the value of constant 'k' is a "
                                "fraction whose numerator or denominator has over 4300 digits\n")


def test_check_of_a_domain_too_wide_to_list_hits_the_search_limit(tmp_path):
    _, argv = _command(tmp_path, "int x in 1..2^5000; constraint c { x >= 1; }", None)
    proc = run_capped(*argv, seconds=10.0)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: search space exceeds 2^40 (1 variables)\n"
    )


def test_compile_flat_refuses_a_bound_too_long_to_write(tmp_path):
    _, argv = _command(tmp_path, "int x in 1..(1/2)^(0-20000); constraint c { x >= 1; }", "flat")
    proc = run_capped(*argv, seconds=10.0)
    assert proc.returncode == 1
    assert proc.stderr.endswith("error: cannot lower model: a domain bound of variable 'x' is an "
                                "integer of over 4300 digits\n")
    assert proc.stderr.count("error:") == 1
    assert not (tmp_path / "out").exists()


_HUGE_LOOP = "model B;\nint x[2] in 1..3;\nconstraint c {\n  forall(i in 1..100000000) { x[1] >= 1; }\n}\n"


@pytest.mark.parametrize("target", ["flat", None])
@pytest.mark.parametrize("model,error", [
    (_HUGE_LOOP, "4:3: loop over 'i' unrolls to 100000000 instances (limit 5000000)"),
    ("model B;\nint x[100000000] in 1..3;\n", "2:1: array 'x' has 100000000 cells (limit 5000000)"),
], ids=["loop", "array"])
def test_an_output_too_large_to_build_is_refused_before_it_is_built(tmp_path, model, error, target):
    # the cell path refuses, then the walk refuses again: neither builds
    path, argv = _command(tmp_path, model, target)
    proc = run_capped(*argv, seconds=20.0)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.endswith(f"error: {path}:{error}\n") and proc.stderr.count("error:") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body,code,error", [
    ("forall(i in 1..2) { forall(j in 1..3) { x[1] >= 1; } }", 0, ""),
    # sibling loops are sized apart; a loop inside is sized with those around it
    ("forall(i in 1..6) { x[1] >= 1; } forall(j in 1..6) { x[2] >= 1; }", 0, ""),
    ("forall(i in 1..2) { forall(j in 1..4) { x[1] >= 1; } }",
     3, "4:21: loop over 'j' unrolls to 8 instances (limit 6)"),
    ("forall(i in 1..7) { x[1] >= 1; }", 3, "4:1: loop over 'i' unrolls to 7 instances (limit 6)"),
])
@pytest.mark.parametrize("target", ["flat", None])
def test_a_loop_nest_is_sized_at_each_loop_entry(tmp_path, capsys, monkeypatch, body, code, error,
                                                 target):
    monkeypatch.setattr(passes, "MAX_INSTANCES", 6)
    path, argv = _command(tmp_path, f"model B;\nint x[2] in 1..3;\nconstraint c {{\n{body}\n}}\n",
                          target)
    assert main(argv) == code
    err = capsys.readouterr().err
    # the loop refuses inside the pipeline: no pass report comes before it
    assert err == f"error: {path}:{error}\n" if code else "error" not in err


@pytest.mark.parametrize("decls,code", [
    ("int x[2, 3] in 1..3;", 0),
    ("int n := 0 - 3;\nint x[n, n] in 1..3;", 0),  # two negative dims make no cell
    ("int x[7] in 1..3;", 3),
    ("int x[2, 2, 2] in 1..3;", 3),
])
@pytest.mark.parametrize("target", ["flat", None])
def test_an_array_is_sized_before_its_cells_are_named(tmp_path, capsys, monkeypatch, decls, code,
                                                      target):
    monkeypatch.setattr(passes, "MAX_INSTANCES", 6)
    path, argv = _command(tmp_path, f"model B;\n{decls}\n", target)
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        cells = 7 if "[7]" in decls else 8
        assert err.endswith(f"error: {path}:2:1: array 'x' has {cells} cells (limit 6)\n")
        assert err.count("error:") == 1


def test_compile_flat_of_a_sparse_domain_lists_no_hull(tmp_path):
    _, argv = _command(tmp_path, "int x in {1, 10^12}; constraint c { x >= 1; }", "flat")
    proc = run_capped(*argv, seconds=10.0)
    assert proc.returncode == 0
    assert (tmp_path / "out").read_text() == (
        "var int x in 1..1000000000000;\nconstraint x = 1 or x = 1000000000000;\n"
        "constraint x >= 1;\n"
    )


@pytest.mark.parametrize("bound,code,out,err", [
    ("2^3^4^5", 1, "", "error: the oracle cannot evaluate the constraint x <= 2 ^ {}: a power "
                       "too large to compute exactly (over 100000 bits)\n"),
    ("10^5000", 0, "EQUAL baseline=2 transformed=2\n", ""),
])
def test_check_of_a_huge_power(tmp_path, bound, code, out, err):
    _, argv = _command(tmp_path, f"int x in 1..2; constraint c {{ x <= {bound}; }}", None)
    proc = run_capped(*argv, seconds=10.0)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert proc.stderr == err.format(3 ** 4 ** 5)


@pytest.mark.parametrize("expr", [
    "1e300 * 1e300", "1e300 * 1e300 - 1e300 * 1e300 = 0", "1e308 + 1e308 > 1", "1e200 / 1e-200",
    "10 ^ 5000", "10 ^ 5000 - 10 ^ 5000 = 0",
])
def test_eval_fold_beyond_the_float_range_stays_symbolic(capsys, expr):
    # an infinite float is no value: neither printed nor compared
    assert main(["eval", "-e", expr]) == 0
    out = capsys.readouterr().out
    assert "inf" not in out and "nan" not in out and out not in ("true\n", "false\n")
    assert parse_expression(out) == _Folder({}).fold(parse_expression(expr))


@pytest.mark.parametrize("role", ["model", "data", "verify-against"])
def test_input_that_is_not_utf8_is_a_diagnostic(tmp_path, capsys, role):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"model M;\n\xff\n")
    model, data, verify = FIXTURES / "queens4.som", None, None
    if role == "model":
        model = bad
    elif role == "data":
        data = bad
    else:
        verify = bad
    argv = ["compile", "-m", str(model), "--target", "clp", "-o", str(tmp_path / "out")]
    argv += ["-d", str(data)] if data else []
    argv += ["--verify-against", str(verify)] if verify else []
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: {bad}: not UTF-8 text (byte 0xff at offset 9)"
    assert [line for line in err if line.startswith("error")] == err[-1:]


def test_verify_against(tmp_path):
    out1 = tmp_path / "a.ecl"
    base_args = (
        "compile",
        "-m", str(FIXTURES / "queens4.som"),
        "--target", "clp",
    )
    assert run_cli(*base_args, "-o", str(out1)).returncode == 0
    ok = run_cli(*base_args, "-o", str(tmp_path / "b.ecl"), "--verify-against", str(out1))
    assert ok.returncode == 0
    (tmp_path / "other").write_text("different\n")
    bad = run_cli(
        *base_args, "-o", str(tmp_path / "c.ecl"), "--verify-against", str(tmp_path / "other")
    )
    assert bad.returncode == 1


def test_verify_against_mismatch_in_process(tmp_path, capsys):
    other = tmp_path / "other"
    other.write_text("different\n")
    argv = ["compile", "-m", str(FIXTURES / "queens4.som"), "--target", "clp",
            "-o", str(tmp_path / "a.ecl"), "--verify-against", str(other)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: output differs from {other}"


def test_missing_file_reports_and_fails(tmp_path):
    proc = run_cli(
        "compile", "-m", str(tmp_path / "nope.som"), "--target", "clp",
        "-o", str(tmp_path / "o"),
    )
    assert proc.returncode == 1
    assert proc.stderr.strip() != ""


def test_unwritable_output_is_a_diagnostic(tmp_path, capsys):
    out = tmp_path / "missing" / "q.ecl"
    code = main(["compile", "-m", str(FIXTURES / "queens4.som"), "--target", "clp", "-o", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: [Errno 2] ")


def test_main_callable_in_process(tmp_path):
    out = tmp_path / "q.ecl"
    code = main([
        "compile", "-m", str(FIXTURES / "queens4.som"), "--target", "clp", "-o", str(out)
    ])
    assert code == 0
    assert out.exists()


_Q4 = str(FIXTURES / "queens4.som")


_USAGE_ERRORS = {  # argv -> the refusal
    ("bogus",): "unknown command 'bogus': expected compile, check or eval",
    ("compile", "--target", "nope"): "compile: option --target: 'nope' is not one of clp, flat, pivot",
    (): "no command: expected compile, check or eval",
    ("--target", "clp"): "unknown command '--target': expected compile, check or eval",
    ("check", "-m", _Q4, "--unroll"): "check: unknown option '--unroll'",
    # argparse's unique-prefix abbreviations are gone
    ("compile", "-m", _Q4, "--targ", "clp", "-o", "x"): "compile: unknown option '--targ'",
    ("check", "-m", _Q4, "extra"): "check: unexpected argument 'extra'",
    ("eval", "-e", "1", "-"): "eval: unexpected argument '-'",
    ("check", "-m"): "check: option -m needs a value",
    ("eval", "--expr"): "eval: option --expr needs a value",
    ("compile", "--unroll=yes"): "compile: option --unroll takes no value",
    ("check", "-m", _Q4, "--alldiff=pairs"):
        "check: option --alldiff: 'pairs' is not one of disequalities, relaxation, boolean",
    ("compile", "--target", "clp", "-o", "x"): "compile: missing -m/--model",
    ("compile", "-m", _Q4, "--target", "clp"): "compile: missing -o/--output",
    ("compile", "-m", _Q4, "-o", "x"): "compile: missing --target",
    ("check",): "check: missing -m/--model",
    ("eval",): "eval: missing -e/--expr",
    ("check", "-m", _Q4, "--passes", "loopUnroll,nope"): "unknown pass 'nope'",
}


@pytest.mark.parametrize("args", [list(argv) for argv in _USAGE_ERRORS])
def test_usage_errors(capsys, args):
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"usage error: {_USAGE_ERRORS[tuple(args)]}\n")


@pytest.mark.parametrize("args", [
    ["-h"], ["--help"], ["compile", "-h"], ["check", "--help"], ["eval", "-h"],
    ["compile", "--target", "clp", "--help"],
])
def test_help_prints_the_synopsis(capsys, args):
    assert main(args) == 0
    assert capsys.readouterr() == (cli.__doc__, "")


def test_help_and_a_usage_error_as_a_command():
    help_run, refused = run_cli("--help"), run_cli("compile", "--targ", "clp")
    assert (help_run.returncode, help_run.stdout, help_run.stderr) == (0, cli.__doc__, "")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr == "usage error: compile: unknown option '--targ'\n"


def test_every_option_is_in_the_help_and_the_readme():
    readme = (FIXTURES.parents[1] / "README.md").read_text()
    cli_block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    help_text = cli.__doc__
    words = [*PASS_IDS, *cli.COMMANDS, "-h", "--help"]
    for spellings, _, value in (o for options in cli.COMMANDS.values() for o in options):
        words += [*spellings, *(value if isinstance(value, tuple) else ())]
    for word in words:
        assert word in help_text, word
        assert word in cli_block, word


def test_long_option_with_equals_and_the_last_of_a_repeated_option(tmp_path, capsys):
    spelled = ["compile", f"--model={_Q4}", "--target", "flat", "--target=clp",
               "-o", str(tmp_path / "no"), f"--output={tmp_path / 'a.ecl'}",
               "--alldiff", "boolean", "--alldiff=relaxation"]
    plain = ["compile", "-m", _Q4, "--target", "clp", "-o", str(tmp_path / "b.ecl"),
             "--alldiff", "relaxation"]
    assert main(spelled) == 0
    first = capsys.readouterr()
    assert main(plain) == 0
    assert capsys.readouterr() == first and "alldiffRewrite" in first.err
    assert (tmp_path / "a.ecl").read_text() == (tmp_path / "b.ecl").read_text()
    assert not (tmp_path / "no").exists()
    assert main(["eval", "-e", "1", "--expr=2+3", "-e", "x+0"]) == 0
    assert capsys.readouterr().out == "x\n"


def test_check_oracle_limit_exit_code(tmp_path):
    huge = tmp_path / "huge.som"
    huge.write_text("model H;\nint x[5] in 1..1024;\nconstraint c { x[1] = 1; }\n")
    proc = run_cli("check", "-m", str(huge))
    assert proc.returncode == 3
    assert proc.stderr.strip() != ""


def _limited(monkeypatch, side: str, **limits):
    """Run check's baseline search ("baseline") or its streamed transformed
    search ("transformed") under the given limits."""
    name = "enumerate_solutions" if side == "baseline" else "compare_streaming"
    monkeypatch.setattr(oracle, name, functools.partial(getattr(oracle, name), **limits))


@pytest.mark.parametrize("side", ["baseline", "transformed"])
@pytest.mark.parametrize("limits", [{"max_solutions": 1}, {"max_nodes": 2}])
def test_check_exits_3_when_either_search_stops_at_a_limit(capsys, monkeypatch, side, limits):
    _limited(monkeypatch, side, **limits)
    assert main(["check", "-m", str(FIXTURES / "queens4.som"), "--alldiff", "relaxation"]) == 3
    assert capsys.readouterr() == ("", "error: cannot compare incomplete solution sets\n")


def test_check_reports_the_transformed_error_before_the_baseline_limit(tmp_path, capsys,
                                                                     monkeypatch):
    # the baseline stops at its first solution, x = 0, before x = 2 divides
    # by zero; the transformed search gets there, and its error comes first
    _limited(monkeypatch, "baseline", max_solutions=1)
    model = "model M;\nint x in 0..2;\nconstraint k { 1 / (x - 2) >= -1; }\n"
    _, argv = _command(tmp_path, model, None)
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: the oracle cannot evaluate the constraint 1 / (x - 2) >= -1: division by zero\n"
    )


@pytest.mark.parametrize("transformed,out", [
    ("var int x in 1..3;\nconstraint x = 1;\n", "SUBSET baseline=2 transformed=1\n"),
    ("var int x in 1..3;\nconstraint x >= 2;\n", "DIFFER baseline=2 transformed=2\n"),
    ("var int x in 1..3;\nvar bool z;\nconstraint x <= 2;\n", "EQUAL baseline=2 transformed=4\n"),
    ("var bool z;\nvar int x in 1..3;\n", "SUPERSET baseline=2 transformed=6\n"),
])
def test_check_prints_each_relation_with_the_transformed_count(capsys, monkeypatch, transformed,
                                                               out):
    # the transformed count is every solution, before projection
    programs = {"disequalities": parse_flat("var int x in 1..3;\nconstraint x <= 2;\n"),
                "relaxation": parse_flat(transformed)}
    monkeypatch.setattr(cli, "_lowered", lambda model, cfg: programs[cfg.alldiff_mode])
    assert main(["check", "-m", str(FIXTURES / "queens4.som"), "--alldiff", "relaxation"]) == 0
    assert capsys.readouterr() == (out, "")


# --------------------------------------------------------------------------
# Start-up and exit: per-command imports, lazy package exports, no cyclic
# GC in main, during -m pivotc's imports or in finalization

COMMON = {"pivotc", "pivotc.cli", "pivotc.errors", "pivotc.ir", "pivotc.parser",
          "pivotc.passes", "pivotc.sema"}
PROBE = (
    "import json, sys\n"
    "from pivotc.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('pivotc'))]))\n"
)


_GOLFERS_SMALL = ["-m", str(FIXTURES / "golfers.som"), "-d", str(FIXTURES / "golfers_small.dat")]


@pytest.mark.parametrize("command,extra", [
    (["compile", "--target", "flat", "-m", _Q4],
     {"pivotc.flat", "pivotc.printer", "pivotc.alldiff", "pivotc.unroll"}),
    (["compile", "--target", "clp", "-m", _Q4], {"pivotc.clp"}),
    (["check", "-m", _Q4], {"pivotc.flat", "pivotc.oracle", "pivotc.alldiff", "pivotc.unroll"}),
    # no alldifferent: alldiffRewrite returns the model before its module loads
    (["compile", "--target", "flat", *_GOLFERS_SMALL], {"pivotc.flat", "pivotc.printer", "pivotc.unroll"}),
], ids=["compile-flat", "compile-clp", "check", "compile-flat-no-alldifferent"])
def test_command_imports_only_its_backends(tmp_path, command, extra):
    argv = list(command)
    if command[0] == "compile":
        argv += ["-o", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert set(modules) == COMMON | extra


def test_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["pivotc", "eval", "-e", "1+2"])
    try:
        with pytest.raises(SystemExit) as info:
            cli.entry()
    finally:
        gc.unfreeze()  # entry freezes every object for the interpreter's exit
    assert info.value.code == 0
    assert capsys.readouterr().out == "3\n"


def test_package_attribute_loads_its_module_once(monkeypatch):
    import pivotc
    from pivotc.passes import run_pipeline

    monkeypatch.delitem(vars(pivotc), "run_pipeline", raising=False)
    assert pivotc.run_pipeline is run_pipeline
    assert vars(pivotc)["run_pipeline"] is run_pipeline  # later lookups skip __getattr__
    assert "run_pipeline" in dir(pivotc)
def test_package_exports_every_name_lazily():
    probe = (
        "import sys, pivotc\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('pivotc.'))\n"
        "for name in pivotc.__all__:\n"
        "    exec(f'from pivotc import {name}')\n"
        "    assert name in dir(pivotc), name\n"
        "assert not hasattr(pivotc, 'no_such_name')\n"
        "print(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # what compile (every target), check and eval import, and what reading
    # a command line loads (argparse's parser imported locale), measured
    # against the modules the bare interpreter (site included) has loaded;
    # fractions (which imports decimal and numbers) waits for a division
    probe = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import pivotc.cli, pivotc.flat, pivotc.oracle, pivotc.clp, pivotc.printer\n"
        "pivotc.cli.main(['eval', '-e', '1'])\n"
        f"pivotc.cli.main(['compile', '--target', 'flat', *{_GOLFERS_SMALL!r}, '-o', sys.argv[1]])\n"
        f"pivotc.cli.main(['check', '-m', {_Q4!r}, '--alldiff', 'relaxation'])\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "pivotc.oracle" in loaded and "pivotc.clp" in loaded
    assert not loaded & {"dataclasses", "inspect", "argparse", "gettext", "locale",
                         "fractions", "decimal", "numbers"}


_RATIONAL_PROBE = (
    "import sys\n"
    "from pivotc.cli import main\n"
    "before = 'fractions' in sys.modules\n"
    "code = main(sys.argv[1:])\n"
    "print(before, code, 'fractions' in sys.modules)\n"
)
_THIRD = "model R;\nreal r := 1/3;\nint x in 0..3;\nconstraint c { x * 3 <= r * 6; }\n"
_HALF = "model H;\nint x in 0..3;\nconstraint c { x / 2 <= 1; }\n"
_THIRD_CLP = (
    "r(L):-\n R $= 1/3,\n\n X :: 0..3,\n L = [X],\n\n % c\n X*3 $=< 2,\n\n label_sets(L).\n"
)
_REPORTS = "".join(f"{p}: elements 4 -> 4, rewrites {n}\n"
                   for p, n in [("objectFlatten", 0), ("enumRemove", 0), ("foldConstants", 1)])


@pytest.mark.parametrize("argv,source,stdout,stderr,output", [
    (["compile", "--target", "clp"], _THIRD, "", _REPORTS, _THIRD_CLP),
    (["eval", "-e", "1/3"], None, "1 / 3\n", "", None),
    (["check"], _HALF, "EQUAL baseline=3 transformed=3\n", "", None),  # the oracle's division
], ids=["compile-clp-division", "eval-division", "check-division"])
def test_an_exact_rational_loads_fractions(tmp_path, argv, source, stdout, stderr, output):
    # a fresh process imports fractions at its first exact rational, and
    # prints what it printed when every command imported fractions
    argv = list(argv)
    if source is not None:
        (tmp_path / "m.som").write_text(source)
        argv += ["-m", str(tmp_path / "m.som")]
    if output is not None:
        argv += ["-o", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", _RATIONAL_PROBE, *argv],
                          capture_output=True, text=True)
    *printed, last = proc.stdout.splitlines(keepends=True)
    assert last == "False 0 True\n"
    assert ("".join(printed), proc.stderr) == (stdout, stderr)
    if output is not None:
        assert (tmp_path / "out").read_text() == output


def test_a_real_literal_alone_loads_no_fractions(tmp_path):
    # the oracle reads 0.5 as the double that foldConstants computes with
    (tmp_path / "m.som").write_text(_HALF.replace("x / 2", "x * 0.5"))
    proc = subprocess.run([sys.executable, "-c", _RATIONAL_PROBE, "check", "-m",
                           str(tmp_path / "m.som")], capture_output=True, text=True)
    assert (proc.stdout, proc.stderr) == ("EQUAL baseline=3 transformed=3\nFalse 0 False\n", "")


def _raise(args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", ["ok", "diagnostic", "usage", "oracle_limit", "raises"])
def test_main_restores_the_collector(tmp_path, monkeypatch, enabled, case):
    bad = tmp_path / "bad.som"
    bad.write_text("model M;\nint x in 1..3;\nconstraint c { card(x) = 1; }\n")
    huge = tmp_path / "huge.som"
    huge.write_text("model H;\nint x[5] in 1..1024;\nconstraint c { x[1] = 1; }\n")
    argv, expected = {
        "ok": (["check", "-m", str(FIXTURES / "queens4.som")], 0),
        "diagnostic": (["check", "-m", str(bad)], 1),
        "usage": (["compile", "--target", "nope"], 2),
        "oracle_limit": (["check", "-m", str(huge)], 3),
        "raises": (["eval", "-e", "1"], RuntimeError),
    }[case]
    if case == "raises":
        monkeypatch.setattr(cli, "cmd_eval", _raise)
    collecting = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if expected is RuntimeError:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == expected
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if collecting else gc.disable)()


def test_main_runs_no_collection(tmp_path):
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        code = main(["compile", "-m", str(FIXTURES / "golfers.som"),
                     "-d", str(FIXTURES / "golfers_small.dat"),
                     "--target", "flat", "-o", str(tmp_path / "g.flat")])
    finally:
        gc.callbacks.remove(count)
    assert code == 0
    assert starts == []


# Runs a module as `python -m` does and writes, at exit, how many objects
# are frozen, whether the collector is on, and the module running as
# __main__ at each collection start.
EXIT_PROBE = """\
import atexit, gc, json, runpy, sys
report, module = sys.argv[1:3]
starts = []

def seen(phase, info):
    if phase == "start":
        starts.append(getattr(sys.modules["__main__"].__spec__, "name", None))

def done():
    with open(report, "w") as fh:
        json.dump({"frozen": gc.get_freeze_count(), "on": gc.isenabled(), "starts": starts}, fh)

gc.callbacks.append(seen)
atexit.register(done)
sys.argv = [module, *sys.argv[3:]]
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("module,argv,code", [
    ("pivotc", ["compile", "--target", "flat", "-m", "queens4.som", "-o", "OUT"], 0),
    ("pivotc", ["compile", "--target", "clp", "-m", "queens4.som", "-o", "OUT"], 0),
    ("pivotc", ["check", "-m", "queens4.som", "--alldiff", "relaxation"], 0),
    ("pivotc", ["check", "-m", "bad.som"], 1),
    ("pivotc", ["compile", "--target", "nope"], 2),
    ("pivotc", ["check", "-m", "huge.som"], 3),
    ("pivotc.cli", ["compile", "--target", "flat", "-m", "queens4.som", "-o", "OUT"], 0),
    ("pivotc.cli", ["check", "-m", "bad.som"], 1),
], ids=["flat", "clp", "check", "diagnostic", "usage", "oracle-limit", "cli-flat", "cli-diagnostic"])
def test_command_exits_frozen_after_importing_with_no_collection(tmp_path, capsys, module, argv,
                                                                  code):
    (tmp_path / "bad.som").write_text("model M;\nint x in 1..3;\nconstraint c { card(x) = 1; }\n")
    (tmp_path / "huge.som").write_text("model H;\nint x[5] in 1..1024;\nconstraint c { x[1] = 1; }\n")
    paths = {"queens4.som": str(FIXTURES / "queens4.som"), "bad.som": str(tmp_path / "bad.som"),
             "huge.som": str(tmp_path / "huge.som")}

    def args(out: str) -> list[str]:
        return [str(tmp_path / out) if a == "OUT" else paths.get(a, a) for a in argv]

    def written(out: str) -> str | None:
        return (tmp_path / out).read_text() if (tmp_path / out).exists() else None

    report = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", EXIT_PROBE, str(report), module, *args("probe.out")],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert (code, proc.stdout, proc.stderr) == (main(args("main.out")), *capsys.readouterr())
    assert written("probe.out") == written("main.out")
    report = json.loads(report.read_text())
    assert report["frozen"] > 0
    if module == "pivotc":  # none while pivotc.__main__ runs, and the collector stays off
        assert "pivotc.__main__" not in report["starts"] and not report["on"]
