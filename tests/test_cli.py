import gc
import json
import subprocess
import sys

import pytest

from pivotc import cli
from pivotc.cli import main
from pivotc.oracle import parse_flat
from pivotc.parser import SourceUnit, parse, parse_expression
from pivotc.passes import _Folder

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
    monkeypatch.setattr(cli, "_flat_solutions", lambda model, cfg: pytest.fail("a pipeline ran"))
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


@pytest.mark.parametrize("expr,col", [("1e400", 1), ("-1e400", 2), ("2 * 1.5e999", 5)])
def test_eval_real_literal_beyond_the_float_range_is_a_diagnostic(capsys, expr, col):
    assert main(["eval", f"--expr={expr}"]) == 1
    literal = expr.split()[-1].lstrip("-")
    assert capsys.readouterr() == ("", f"<expr>:1:{col}: error: real literal '{literal}' is out of range\n")


@pytest.mark.parametrize("target,text", [
    ("pivot", "  x * 1.0 <= 1e+300 * 1e+300;\n"),
    ("flat", "constraint x * 1.0 <= 1e+300 * 1e+300;\n"),
    ("clp", " X*1.0 $=< 1e+300*1e+300,\n"),
])
def test_fold_beyond_the_float_range_stays_symbolic(tmp_path, capsys, target, text):
    _, argv = _command(tmp_path, _OVERFLOWING_FOLD, target)
    assert main(argv) == 0
    out = (tmp_path / "out").read_text()
    assert text in out and "inf" not in out
    if target == "pivot":
        assert parse(SourceUnit(out)) == parse(SourceUnit(_OVERFLOWING_FOLD))
    elif target == "flat":
        assert len(parse_flat(out).constraints) == 1


def test_check_of_a_fold_beyond_the_float_range(tmp_path, capsys):
    _, argv = _command(tmp_path, _OVERFLOWING_FOLD, None)
    assert main(argv) == 0
    assert capsys.readouterr() == ("EQUAL baseline=3 transformed=3\n", "")


@pytest.mark.parametrize("expr", [
    "1e300 * 1e300", "1e300 * 1e300 - 1e300 * 1e300 = 0", "1e308 + 1e308 > 1", "1e200 / 1e-200",
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


@pytest.mark.parametrize("args", [["bogus"], ["compile", "--target", "nope"]])
def test_usage_errors(args):
    proc = run_cli(*args)
    assert proc.returncode == 2


def test_check_oracle_limit_exit_code(tmp_path):
    huge = tmp_path / "huge.som"
    huge.write_text("model H;\nint x[5] in 1..1024;\nconstraint c { x[1] = 1; }\n")
    proc = run_cli("check", "-m", str(huge))
    assert proc.returncode == 3
    assert proc.stderr.strip() != ""


# --------------------------------------------------------------------------
# Start-up: per-command imports, lazy package exports, no cyclic GC in main

COMMON = {"pivotc", "pivotc.cli", "pivotc.errors", "pivotc.ir", "pivotc.parser",
          "pivotc.passes", "pivotc.sema"}
PROBE = (
    "import json, sys\n"
    "from pivotc.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('pivotc'))]))\n"
)


@pytest.mark.parametrize("command,extra", [
    (["compile", "--target", "flat"], {"pivotc.flat", "pivotc.printer"}),
    (["compile", "--target", "clp"], {"pivotc.clp"}),
    (["check"], {"pivotc.flat", "pivotc.oracle", "pivotc.printer"}),
], ids=["compile-flat", "compile-clp", "check"])
def test_command_imports_only_its_backends(tmp_path, command, extra):
    argv = [*command, "-m", str(FIXTURES / "queens4.som")]
    if command[0] == "compile":
        argv += ["-o", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert set(modules) == COMMON | extra


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


def test_commands_load_neither_dataclasses_nor_inspect():
    # what compile (every target), check and eval import, measured against
    # the modules the bare interpreter (site included) has already loaded
    probe = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import pivotc.cli, pivotc.flat, pivotc.oracle, pivotc.clp, pivotc.printer\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "pivotc.oracle" in loaded and "pivotc.clp" in loaded
    assert not loaded & {"dataclasses", "inspect"}


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
