"""Benchmark of the pivotc compiler and checker.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports pivotc from ``src/`` there
and writes only under ``.bench_work/``.  The seed fixes the generated
inputs.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 runs the workload's ``pivotc`` command as a closed loop, one
client and one child process at a time, for S seconds.  Every output is
checked by checks.py, independently of pivotc.  It reports:

  wall_ref, cpu_ref  the commands' mean wall (CPU) time divided by the mean
                     time of reference.py, a fixed pure-Python program run
                     between the commands.  The speed of a shared machine
                     drifts by up to 1.6x within minutes; the ratio cancels
                     that drift.  The raw medians in seconds are printed
                     above the JSON line, and reported by --trace 1.
  peak_rss_mb        median peak resident memory of a command
  output_bytes       median size of the .flat/.ecl file, or of the verdict
  pass_ratio         commands that exited 0 with correct output / attempted
  setup_s            median time for a fresh interpreter to import pivotc,
                     rescaled to the machine speed of the baseline: the
                     median import time times REFERENCE_SECONDS over the
                     median time of reference.py in the same run.  It is
                     not the raw import time; that is printed above the
                     JSON line as import.wall_s.

--trace 1 alternates the same untraced command with an in-process replay
of it under spans (spans.py), and reports per-layer self times, counts
and ratios, the time no layer span covers, and the tracing overhead.
The spans are written to ``.bench_work/trace-<workload>-<seed>.json``.

Workloads (the reasons are also in BENCHMARK.json):
  golfers-flat  compile --target flat, social golfers w=10 g=10 s=4: the
                paper's flagship model; loopUnroll and lower_to_flat
                dominate, cost per emitted constraint.
  wide-clp      compile --target clp of one wide generated model: the
                front end, objectFlatten, enumRemove, foldConstants and
                emit_clp work; unrolling, lowering and the oracle stay idle.
  queens-check  check --alldiff relaxation on 9-queens: two lowerings and
                two oracle searches, one failure-heavy, one solution-heavy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

SETUP_REPS = 5      # fewest fresh-interpreter imports per run; setup_s is their median
MIN_ROUNDS = 2      # rounds per run, even past the deadline
CHILD_TIMEOUT = 60  # seconds before a command is killed and counted as failed
REFERENCE_SHARE = 0.25  # reference time per round, as a share of the command's
# About the median reference.wall_s of the baseline runs in BASELINE.md,
# which lists the measured values; setup_s is import time at that speed.
REFERENCE_SECONDS = 0.25

END_TO_END_UNITS = {
    "wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB", "output_bytes": "bytes",
    "pass_ratio": "ratio", "setup_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "trace.unattributed_s": "s",
    "trace.total_s": "s",
    "trace.overhead_ratio": "ratio",
    "command.wall_s": "s",
    "command.cpu_s": "s",
    "reference.wall_s": "s",
    "parse.source_bytes": "bytes",
    **{f"{p}.{c}": "count" for p in spans.PASS_FUNCTIONS for c in ("elements_out", "rewrites")},
    "lower_to_flat.vars": "count",
    "lower_to_flat.constraints": "count",
    "emit_flat.bytes": "bytes",
    "emit_clp.bytes": "bytes",
    "enumerate_solutions.solutions": "count",
    "loopUnroll.us_per_constraint": "us",
    "lower_to_flat.us_per_constraint": "us",
    "parse.us_per_kb": "us/KB",
    "enumerate_solutions.us_per_solution": "us",
}


@dataclass(frozen=True)
class Job:
    """One workload's command, its generated inputs and its output check."""
    command: str                 # "compile" or "check"
    argv: tuple[str, ...]        # arguments after `python3 -m pivotc`
    model: Path
    data: Path | None
    out: Path | None             # the file a compile writes
    target: str | None
    modes: tuple[str, ...]       # alldiff mode of each pass pipeline the command runs
    check: Callable[[str], list[str]]

    def output(self, stdout: str) -> str:
        if self.out is None:
            return stdout
        return self.out.read_text(encoding="utf-8") if self.out.exists() else ""


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def golfers_flat(seed: int, work: Path, tiny: bool) -> Job:
    g = gen.golfers(seed, **({"weeks": 3, "groups": 2, "size": 2, "players": 6} if tiny else {}))
    model = _write(work / "golfers.som", gen.GOLFERS_MODEL)
    data = _write(work / "golfers.dat", g.data)
    out = work / "golfers.flat"
    argv = ("compile", "-m", str(model), "-d", str(data), "--target", "flat", "-o", str(out))
    return Job("compile", argv, model, data, out, "flat", ("disequalities",),
               lambda text: checks.check_golfers(text, g))


def wide_clp(seed: int, work: Path, tiny: bool) -> Job:
    w = gen.wide(seed, **({"constraints": 40, "constants": 10, "instances": 3} if tiny else {}))
    model = _write(work / "wide.som", w.source)
    out = work / "wide.ecl"
    argv = ("compile", "-m", str(model), "--target", "clp", "-o", str(out))
    return Job("compile", argv, model, None, out, "clp", ("disequalities",),
               lambda text: checks.check_wide(text, w))


def queens_check(seed: int, work: Path, tiny: bool) -> Job:
    q = gen.queens(seed, n=5 if tiny else 9)
    model = _write(work / "queens.som", q.source)
    want = checks.expected_verdict(q)
    argv = ("check", "-m", str(model), "--alldiff", "relaxation")
    return Job("check", argv, model, None, None, None, ("disequalities", "relaxation"),
               lambda text: checks.check_queens(text, want))


WORKLOADS = {"golfers-flat": golfers_flat, "wide-clp": wide_clp, "queens-check": queens_check}


# --------------------------------------------------------------------------
# Child processes

@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


def run_child(args, cwd: Path) -> Sample:
    """Run `python3 <args>` to completion; usage comes from its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode, stdout)


class Tally:
    """Commands attempted and failed; a failure is a nonzero exit or an
    output that its check rejects."""

    def __init__(self, job: Job):
        self.job = job
        self.attempted = 0
        self.failed = 0

    def record(self, exit_code: int, output: str):
        self.attempted += 1
        problems = [f"exit code {exit_code}"] if exit_code else self.job.check(output)
        if problems:
            self.failed += 1
            print(f"failed: {'; '.join(problems[:3])}", file=sys.stderr)


@dataclass
class Rounds:
    """What the closed loop measured, one entry per round."""
    tally: Tally
    reference: list[Sample] = field(default_factory=list)
    imports: list[float] = field(default_factory=list)
    commands: list[Sample] = field(default_factory=list)
    output_bytes: list[int] = field(default_factory=list)


def _checked(sample: Sample, what: str) -> Sample:
    if sample.exit_code != 0:
        raise SystemExit(f"{what} failed with exit code {sample.exit_code}")
    return sample


def closed_loop(job: Job, work: Path, seconds: float, extra=None) -> Rounds:
    """One client, one child process at a time, for `seconds`.  Each round
    runs a bare ``import pivotc``, the workload's command, ``extra(round)``
    in process if given, and then the reference program until it has taken
    REFERENCE_SHARE of the command's time.  A round starts only if the
    longest round so far still fits before the deadline."""
    _checked(run_child(("-m", "pivotc", "--help"), work), "warm-up")  # writes the bytecode caches
    rounds = Rounds(Tally(job))
    longest = 0.0
    deadline = time.perf_counter() + seconds
    while len(rounds.commands) < MIN_ROUNDS or time.perf_counter() + longest <= deadline:
        started = time.perf_counter()
        rounds.imports.append(_checked(run_child(("-c", "import pivotc"), work), "import").wall_s)
        if job.out is not None:
            job.out.unlink(missing_ok=True)
        s = run_child(("-m", "pivotc", *job.argv), work)
        output = job.output(s.stdout)
        rounds.tally.record(s.exit_code, output)
        rounds.commands.append(s)
        rounds.output_bytes.append(len(output.encode("utf-8")))
        if extra is not None:
            extra(len(rounds.commands) - 1)
        spent = 0.0
        while spent < REFERENCE_SHARE * s.wall_s:
            rounds.reference.append(_checked(run_child((str(REFERENCE),), work), "reference"))
            spent += rounds.reference[-1].wall_s
        longest = max(longest, time.perf_counter() - started)
    while len(rounds.imports) < SETUP_REPS:
        rounds.imports.append(_checked(run_child(("-c", "import pivotc"), work), "import").wall_s)
    return rounds


def end_to_end(job: Job, work: Path, seconds: float) -> tuple[Tally, dict, dict]:
    r = closed_loop(job, work, seconds)
    raw = _raw_times(r)
    mean = statistics.fmean
    return r.tally, {
        # Means, not medians: both sides then integrate the machine's speed
        # over the same interleaved stretch of time, and the speed cancels.
        "wall_ref": mean(c.wall_s for c in r.commands) / mean(c.wall_s for c in r.reference),
        "cpu_ref": mean(c.cpu_s for c in r.commands) / mean(c.cpu_s for c in r.reference),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in r.commands),
        "output_bytes": statistics.median(r.output_bytes),
        "pass_ratio": (r.tally.attempted - r.tally.failed) / r.tally.attempted,
        "setup_s": raw["import.wall_s"] / raw["reference.wall_s"] * REFERENCE_SECONDS,
    }, raw


def _raw_times(r: Rounds) -> dict[str, float]:
    return {
        "command.wall_s": statistics.median(c.wall_s for c in r.commands),
        "command.cpu_s": statistics.median(c.cpu_s for c in r.commands),
        "reference.wall_s": statistics.median(c.wall_s for c in r.reference),
        "import.wall_s": statistics.median(r.imports),
    }


def _import_pivotc():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pivotc

    if SRC not in Path(pivotc.__file__).resolve().parents:
        raise SystemExit(f"imported pivotc from {pivotc.__file__}, not from {SRC}")
    return pivotc


def traced(job: Job, work: Path, seconds: float, trace_path: Path) -> tuple[Tally, dict[str, float]]:
    pivotc = _import_pivotc()
    counts = spans.pass_counts(pivotc, job)
    counts["parse.source_bytes"] = job.model.stat().st_size + (
        job.data.stat().st_size if job.data else 0)
    tracer = spans.Tracer()
    replays: list[tuple[str, float, dict[str, float]]] = []

    def replay(round_no: int):
        tracer.run = round_no
        root = len(tracer.spans)
        text, layer_counts = spans.replay(pivotc, tracer, job)
        counts.update(layer_counts)
        total = tracer.spans[root]["end"] - tracer.spans[root]["start"]
        replays.append((text, total, spans.self_times(tracer.spans, round_no)))

    r = closed_loop(job, work, seconds, replay)
    tracer.dump(trace_path)
    for text, _, _ in replays:
        r.tally.record(0, text)

    layer_runs = [times for _, _, times in replays]
    metrics = {
        f"{layer}.self_s": statistics.median(t.get(layer, 0.0) for t in layer_runs)
        for layer in spans.LAYERS
    }
    metrics["trace.unattributed_s"] = statistics.median(t[job.command] for t in layer_runs)
    metrics["trace.total_s"] = statistics.median(total for _, total, _ in replays)
    raw = _raw_times(r)
    for name in ("command.wall_s", "command.cpu_s", "reference.wall_s"):
        metrics[name] = raw[name]
    metrics["trace.overhead_ratio"] = (
        metrics["trace.total_s"] + raw["import.wall_s"]) / raw["command.wall_s"]
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("count", "bytes"):
            metrics[name] = counts.get(name, 0)

    def per(numerator: str, denominator: str, scale: float) -> float:
        base = metrics[denominator]
        return metrics[numerator] * scale / base if base else 0.0

    metrics["loopUnroll.us_per_constraint"] = per("loopUnroll.self_s", "lower_to_flat.constraints", 1e6)
    metrics["lower_to_flat.us_per_constraint"] = per("lower_to_flat.self_s", "lower_to_flat.constraints", 1e6)
    metrics["parse.us_per_kb"] = per("parse.self_s", "parse.source_bytes", 1e6 * 1024)
    metrics["enumerate_solutions.us_per_solution"] = per(
        "enumerate_solutions.self_s", "enumerate_solutions.solutions", 1e6)
    return r.tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "pivotc" / "__init__.py").is_file():
        print(f"error: no pivotc sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = WORKLOADS[args.workload](args.seed, work, tiny=False)
    if args.trace:
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tally, values = traced(job, work, args.seconds, trace_path)
        units = PER_LAYER_UNITS
    else:
        tally, values, raw = end_to_end(job, work, args.seconds)
        units = END_TO_END_UNITS
        for name, value in raw.items():
            print(f"{name:38s} {value:>14.6g} s")
    for name, unit in units.items():
        print(f"{name:38s} {values[name]:>14.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
