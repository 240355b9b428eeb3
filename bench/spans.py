"""In-memory spans and the traced, in-process replay of one workload.

A span is a flat record ``{"id", "name", "start", "end", "parent", "run"}``
with times from ``time.perf_counter`` in seconds; ``parent`` is the id of
the enclosing span (None for the root) and ``run`` numbers the repetition
the span belongs to.  Spans stay in memory until ``Tracer.dump`` writes
them all at once.

The replay calls the public entry point of each layer the way the
``pivotc`` command does, with a span around each call.  Spans sit in the
benchmark, around those calls, not inside pivotc: a pass's span therefore
includes the ``resolve`` calls that pass makes internally.  The replay
leaves out what the command does only to report, the element counts
``run_pipeline`` takes around each pass and the printing of its reports.
No workload's command reads flat text back, so ``parse_flat`` gets no span;
a layer that a workload does not call reports a self time of 0.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

PASS_FUNCTIONS = {
    "objectFlatten": "object_flatten",
    "enumRemove": "enum_remove",
    "alldiffRewrite": "alldiff_rewrite",
    "loopUnroll": "loop_unroll",
    "foldConstants": "fold_constants",
}
LAYERS = (
    "parse", "resolve", "validate", *PASS_FUNCTIONS, "lower_to_flat",
    "emit_flat", "emit_clp", "enumerate_solutions", "compare_solutions",
)
# cmd_check spells its verdicts inline, so they are repeated here; a drift
# shows as a failed check of the replay's verdict line.
VERDICTS = {"equal": "EQUAL", "superset": "SUPERSET", "subset": "SUBSET",
            "incomparable": "DIFFER"}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def dump(self, path: Path):
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")


def self_times(spans: list[dict], run: int) -> dict[str, float]:
    """Per span name, the summed time of that run's spans not covered by
    their child spans."""
    mine = [s for s in spans if s["run"] == run]
    children: dict[int, list[tuple[float, float]]] = {}
    for s in mine:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    totals: dict[str, float] = {}
    for s in mine:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return totals


def configs(job) -> list[tuple[tuple[str, ...], str]]:
    """(passes, alldiff mode) of each pipeline the job's command runs, from
    the CLI's own default pass lists."""
    from pivotc import cli

    flat = cli.DEFAULT_PASSES + cli.FLAT_EXTRA_PASSES
    passes = cli.DEFAULT_PASSES if job.target == "clp" else flat
    return [(passes, mode) for mode in job.modes]


def _front(pivotc, tracer: Tracer, job) -> object:
    unit = pivotc.SourceUnit(
        job.model.read_text(encoding="utf-8"),
        job.data.read_text(encoding="utf-8") if job.data else None,
        str(job.model),
        str(job.data) if job.data else "<data>",
    )
    with tracer.span("parse"):
        model = pivotc.parse(unit)
    with tracer.span("resolve"):
        model = pivotc.resolve(model)
    with tracer.span("validate"):
        diags = pivotc.validate(model)
    if diags:
        raise pivotc.ParseError(diags)
    return model


def _pipeline(pivotc, tracer: Tracer, model, passes, mode: str):
    with tracer.span("resolve"):  # run_pipeline resolves on entry
        model = pivotc.resolve(model)
    for pass_id in passes:
        fn = getattr(pivotc, PASS_FUNCTIONS[pass_id])
        with tracer.span(pass_id):
            model = fn(model, mode) if pass_id == "alldiffRewrite" else fn(model)
    return model


def replay(pivotc, tracer: Tracer, job) -> tuple[str, dict[str, int]]:
    """Run the job's command in process under spans.  Returns the text the
    command would write (the output file, or the verdict line for check)
    and the counts the layers produced."""
    counts: dict[str, int] = {}
    with tracer.span(job.command):
        model = _front(pivotc, tracer, job)
        if job.command == "check":
            programs, solutions = [], []
            for passes, mode in configs(job):
                lowered = _pipeline(pivotc, tracer, model, passes, mode)
                with tracer.span("lower_to_flat"):
                    programs.append(pivotc.lower_to_flat(lowered))
                with tracer.span("enumerate_solutions"):
                    solutions.append(pivotc.enumerate_solutions(programs[-1]))
            base, full = solutions
            projection = [v.name for v in programs[0].vars]
            with tracer.span("compare_solutions"):
                relation = pivotc.compare_solutions(full, base, projection)
            text = f"{VERDICTS[relation]} baseline={len(base)} transformed={len(full)}\n"
            counts["enumerate_solutions.solutions"] = len(base) + len(full)
        else:
            (passes, mode), = configs(job)
            lowered = _pipeline(pivotc, tracer, model, passes, mode)
            if job.target == "flat":
                with tracer.span("lower_to_flat"):
                    program = pivotc.lower_to_flat(lowered)
                with tracer.span("emit_flat"):
                    text = pivotc.emit_flat(program)
                programs = [program]
                counts["emit_flat.bytes"] = len(text.encode("utf-8"))
            else:
                with tracer.span("emit_clp"):
                    text = pivotc.emit_clp(lowered, pivotc.ClpEmitOptions())
                programs = []
                counts["emit_clp.bytes"] = len(text.encode("utf-8"))
            job.out.write_text(text, encoding="utf-8", newline="\n")
    counts["lower_to_flat.vars"] = sum(len(p.vars) for p in programs)
    counts["lower_to_flat.constraints"] = sum(len(p.constraints) for p in programs)
    return text, counts


def pass_counts(pivotc, job) -> dict[str, int]:
    """Elements after and rewrites applied per pass, summed over the
    pipelines the command runs, from untimed ``run_pipeline`` reports."""
    model = _front(pivotc, Tracer(), job)
    counts: dict[str, int] = {}
    for passes, mode in configs(job):
        _, reports = pivotc.run_pipeline(model, pivotc.PassConfig(passes, mode))
        for r in reports:
            key = f"{r.pass_id}.elements_out"
            counts[key] = counts.get(key, 0) + r.elements_after
            key = f"{r.pass_id}.rewrites"
            counts[key] = counts.get(key, 0) + r.rewrites_applied
    return counts
