"""Expression depth: every pivotc module leaves the interpreter's recursion
limit as it is, and the longest chains and the deepest input the parser
accepts run through every layer under that default limit.  Each check runs
in a child process, so nothing the test process did to the limit counts."""

import json
import subprocess
import sys

import pytest

from pivotc import ir
from pivotc.errors import ParseError
from pivotc.parser import MAX_NESTING, SourceUnit, parse
from pivotc.printer import print_pivot

from conftest import FIXTURES

# Imports every module of the package but the script entry, then runs
# cli.main on each argv
# given, and prints the recursion limit before and after, and each run's
# exit code and standard output.
PROBE = """
import contextlib, importlib, io, json, pkgutil, sys
before = sys.getrecursionlimit()
import pivotc
for info in pkgutil.iter_modules(pivotc.__path__):
    if info.name != "__main__":
        importlib.import_module(f"pivotc.{info.name}")
from pivotc.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append((main(argv), out.getvalue()))
print(json.dumps({"before": before, "after": sys.getrecursionlimit(), "runs": runs}))
"""


def probe(runs: list[list[str]]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(runs)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def every_target(model, tmp_path) -> list[list[str]]:
    runs = [["compile", "-m", str(model), "--target", target, "-o", str(tmp_path / f"out.{target}")]
            for target in ("clp", "flat", "pivot")]
    return runs + [["check", "-m", str(model)]]


def test_no_module_changes_the_recursion_limit(tmp_path):
    out = probe(every_target(FIXTURES / "queens4.som", tmp_path))
    assert out["after"] == out["before"]
    assert [code for code, _ in out["runs"]] == [0, 0, 0, 0]
    assert out["runs"][-1][1].startswith("EQUAL")


@pytest.mark.parametrize("joiner,tail", [(" + ", " >= 0"), (" and ", "")])
def test_long_chains_at_the_default_recursion_limit(tmp_path, joiner, tail):
    # a 20,000-term sum or conjunction is one node with 20,000 operands
    model = tmp_path / "long.som"
    term = "x" if tail else "x >= 0"
    model.write_text(
        f"model L;\nint x in 0..1;\nconstraint c {{\n  {joiner.join([term] * 20_000)}{tail};\n}}\n"
    )
    out = probe(every_target(model, tmp_path))
    assert out["after"] == out["before"]
    assert [code for code, _ in out["runs"]] == [0, 0, 0, 0]
    assert out["runs"][-1][1] == "EQUAL baseline=2 transformed=2\n"
    assert (tmp_path / "out.pivot").read_text() == model.read_text()
    flat = (tmp_path / "out.flat").read_text().splitlines()
    assert flat[1].count(joiner.strip()) == 19_999
    clp = (tmp_path / "out.clp").read_text()
    assert clp.count(" $>= 0") == (1 if tail else 20_000)


def deepest(levels: int, inner: str = "i") -> str:
    """A type-correct model whose one constraint nests levels brackets, each
    level through every binding power: the brackets pass through iff,
    implies, or, and, = , + and *, and the card beside them through union,
    intersect and ^.  The boolean in each bracket counts as an integer."""
    level = "a iff b implies c or d and card(f union g intersect h) = k + m * n ^ 2 * ("
    return (
        "model D;\nenum E := {e1, e2};\nbool a;\nbool b;\nbool c;\nbool d;\n"
        "int set f in 1..2;\nint set g in 1..2;\nint set h in 1..2;\n"
        "int k in 1..2;\nint m in 1..2;\nint n in 1..2;\nE t;\n"
        "main class D {\n  constraint z {\n    alldifferent(k, m);\n    forall(i in 1..1) {\n"
        f"      t = e1 or {level * levels}{inner}{')' * levels};\n"
        "    }\n  }\n}\n"
    )


def test_deepest_input_runs_everywhere_at_the_default_recursion_limit(tmp_path):
    # the statement sits in a loop, one level down, so its expression opens
    # up to MAX_NESTING - 1 brackets
    levels = MAX_NESTING - 1
    model = tmp_path / "deep.som"
    model.write_text(deepest(levels))
    runs = every_target(model, tmp_path)
    runs += [["compile", "-m", str(model), "--target", "clp", "--unroll", "-o", str(tmp_path / "u.clp")]]
    runs += [["check", "-m", str(model), "--alldiff", mode] for mode in ("relaxation", "boolean")]
    out = probe(runs)
    assert out["after"] == out["before"]
    assert [code for code, _ in out["runs"]] == [0] * 7
    assert all(out["runs"][at][1].startswith("EQUAL") for at in (3, 5, 6))
    again = parse(SourceUnit((tmp_path / "out.pivot").read_text()))
    assert print_pivot(again) == (tmp_path / "out.pivot").read_text()
    deep = parse(SourceUnit(deepest(levels)))
    expr = deep.elements[-1].features[0].body[1].body[0].expr
    assert max(_depths(expr)) > 7 * levels
    with pytest.raises(ParseError) as info:
        parse(SourceUnit(deepest(levels + 1)))
    assert [d.message for d in info.value.diagnostics] == ["expression nested too deeply"]


def _depths(e: ir.Expression, depth: int = 1):
    """The depth of each leaf of e."""
    stack = [(e, depth)]
    while stack:
        node, depth = stack.pop()
        children = [
            x for name, many in ir.CHILD_FIELDS[type(node)]
            for x in (getattr(node, name) if many else (getattr(node, name),)) if x is not None
        ]
        if not children:
            yield depth
        stack.extend((x, depth + 1) for x in children)
