"""Tests of the benchmark itself: its checks reject corrupted output, its
queens counter agrees with brute force, and every workload completes at a
tiny size.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import re

import pytest

import checks
import run
import spans


def _tiny(workload: str, tmp_path, seed: int = 7):
    job = run.WORKLOADS[workload](seed, tmp_path, tiny=True)
    sample = run.run_child(("-m", "pivotc", *job.argv), tmp_path)
    assert sample.exit_code == 0
    text = job.output(sample.stdout)
    assert job.check(text) == []
    return job, text


def test_golfers_check_rejects_a_dropped_constraint(tmp_path):
    job, text = _tiny("golfers-flat", tmp_path)
    lines = text.splitlines(keepends=True)
    dropped = next(i for i, line in enumerate(lines) if line.startswith("constraint "))
    assert job.check("".join(lines[:dropped] + lines[dropped + 1:]))


def test_golfers_check_rejects_a_wrong_group_size(tmp_path):
    job, text = _tiny("golfers-flat", tmp_path)
    assert job.check(re.sub(r"(card\(\w+\)) = 2;", r"\1 = 3;", text, count=1))


def test_wide_check_rejects_a_wrong_constant(tmp_path):
    job, text = _tiny("wide-clp", tmp_path)
    corrupted = re.sub(r"^ (C3 \$= )(-?\d+),$", lambda m: f" {m.group(1)}{int(m.group(2)) + 1},",
                       text, count=1, flags=re.M)
    assert corrupted != text
    assert job.check(corrupted)


def test_wide_check_rejects_a_dropped_comparison(tmp_path):
    job, text = _tiny("wide-clp", tmp_path)
    lines = text.splitlines(keepends=True)
    start = lines.index(" % explicit\n")
    goal = next(i for i in range(start, len(lines)) if " $" in lines[i])
    assert job.check("".join(lines[:goal] + lines[goal + 1:]))


def test_queens_check_rejects_a_flipped_verdict(tmp_path):
    job, text = _tiny("queens-check", tmp_path)
    assert text.startswith("SUPERSET ")
    assert job.check(text.replace("SUPERSET", "EQUAL"))


def test_relaxed_queens_counter_matches_brute_force():
    for n in range(1, 7):
        target = n * (n + 1) // 2
        brute = sum(
            1
            for q in itertools.product(range(1, n + 1), repeat=n)
            if sum(q) == target
            and all(abs(q[i] - q[j]) != j - i for i in range(n) for j in range(i + 1, n))
        )
        assert checks.count_relaxed_queens(n) == brute


def test_nine_queens_verdict():
    q = run.gen.queens(0)
    assert checks.expected_verdict(q) == "SUPERSET baseline=352 transformed=26365"


def test_same_seed_same_inputs():
    assert run.gen.wide(5).source == run.gen.wide(5).source
    assert run.gen.wide(5).source != run.gen.wide(6).source
    assert run.gen.golfers(5).data == run.gen.golfers(5).data
    assert run.gen.queens(5).source == run.gen.queens(5).source


def test_self_times_subtract_children():
    records = [
        {"id": 0, "name": "root", "start": 0.0, "end": 10.0, "parent": None, "run": 0},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0, "run": 0},
        {"id": 2, "name": "b", "start": 2.0, "end": 3.0, "parent": 1, "run": 0},
        {"id": 3, "name": "a", "start": 5.0, "end": 6.0, "parent": 0, "run": 0},
        {"id": 4, "name": "a", "start": 0.0, "end": 99.0, "parent": None, "run": 1},
    ]
    assert spans.self_times(records, 0) == {"root": 6.0, "a": 3.0, "b": 1.0}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_completes(workload, tmp_path):
    job = run.WORKLOADS[workload](3, tmp_path, tiny=True)
    tally, values, _ = run.end_to_end(job, tmp_path, seconds=0)
    assert tally.attempted >= run.MIN_ROUNDS and tally.failed == 0
    assert set(values) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in values.values())

    trace_path = tmp_path / "trace.json"
    tally, values = run.traced(job, tmp_path, 0, trace_path)
    assert tally.failed == 0
    assert set(values) == set(run.PER_LAYER_UNITS)
    records = json.loads(trace_path.read_text())["spans"]
    assert {r["name"] for r in records} >= {job.command, "parse", "resolve", "validate"}
    assert values["trace.unattributed_s"] > 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "wide-clp", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
