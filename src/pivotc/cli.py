"""Command-line driver: frontend -> pass pipeline -> backend, plus an
oracle-backed equivalence checker and an expression evaluator.

Subcommands:
  compile -m M [-d D] --target clp|flat|pivot [--passes ...]
          [--alldiff MODE] [--unroll] -o OUT [--verify-against FILE]
  check   -m M [-d D] [--passes ...] [--alldiff MODE]
  eval    -e EXPR

Exit codes: 0 success, 1 diagnostics, 2 usage error, 3 oracle limit.
The commands raise; ``main`` alone maps a failure to its exit code and
stderr text.  Pass reports go to stderr; payload only ever goes to the
output file.

Start-up and exit are a fixed cost of every command, so the backends
(``clp``, ``flat``, ``oracle``, ``printer``) are imported inside the
commands that use them, ``main`` runs with the cyclic garbage collector
off, and ``entry`` freezes every object before the interpreter exits.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import ir
from .errors import CompileError, OracleLimitError, ParseError
from .parser import SourceUnit, parse, parse_expression
from .passes import (
    ALLDIFF_MODES, PASS_IDS, PassConfig, _Folder, check_pipeline, model_features, run_pipeline,
)
from .sema import resolve, validate

DEFAULT_PASSES = ("objectFlatten", "enumRemove", "foldConstants")
FLAT_EXTRA_PASSES = ("alldiffRewrite", "loopUnroll")

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_ORACLE_LIMIT = 3

# check's verdict, printed first on its line, per relation of the
# transformed model's solutions to the baseline's (as compare_solutions and
# compare_streaming name it)
VERDICTS = {
    "equal": "EQUAL",
    "superset": "SUPERSET",
    "subset": "SUBSET",
    "incomparable": "DIFFER",
}


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; a CompileError naming the file if it is
    not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CompileError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None


def _load_unit(model_path: str, data_path: str | None) -> SourceUnit:
    model_text = _read_text(model_path)
    data_text = None if data_path is None else _read_text(data_path)
    return SourceUnit(model_text, data_text, model_path, data_path or "<data>")


def _front(model_path: str, data_path: str | None) -> ir.Model:
    """Parse, resolve and validate; raises ParseError/CompileError."""
    unit = _load_unit(model_path, data_path)
    model = parse(unit)
    model = resolve(model)
    diags = validate(model)
    if diags:
        raise ParseError(diags)
    return model


def _pass_config(args) -> PassConfig:
    """The passes args ask for; ValueError on an unknown or repeated pass id."""
    if args.passes:
        passes = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    elif getattr(args, "target", None) == "flat":
        passes = DEFAULT_PASSES + FLAT_EXTRA_PASSES
    elif args.alldiff:
        passes = DEFAULT_PASSES + ("alldiffRewrite",)
    else:
        passes = DEFAULT_PASSES
    if getattr(args, "unroll", False) and "loopUnroll" not in passes:
        passes = passes + ("loopUnroll",)
    return PassConfig(passes, args.alldiff or "disequalities")


def cmd_compile(args) -> int:
    model = _front(args.model, args.data)
    model, reports = run_pipeline(model, args.cfg, args.target)
    for r in reports:
        print(str(r), file=sys.stderr)
    if args.target == "clp":
        from .clp import ClpEmitOptions, emit_clp

        payload = emit_clp(model, ClpEmitOptions(label_sets=not args.no_label))
    elif args.target == "flat":
        from .flat import emit_flat, lower_to_flat

        # drop each stage's input once the next is built: a lower peak
        program, model = lower_to_flat(model), None
        payload, program = emit_flat(program), None
    else:
        from .printer import print_pivot

        payload = print_pivot(model)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        for at in range(0, len(payload), 1 << 16):  # no second full copy of the text
            fh.write(payload[at:at + (1 << 16)])
    if args.verify_against is not None:
        if _read_text(args.verify_against) != payload:
            raise CompileError(f"output differs from {args.verify_against}")
    return EXIT_OK


def _lowered(model: ir.Model, cfg: PassConfig):
    from .flat import lower_to_flat

    return lower_to_flat(run_pipeline(model, cfg, "flat")[0])


def cmd_check(args) -> int:
    from .oracle import compare_streaming, enumerate_solutions

    base_cfg = PassConfig(DEFAULT_PASSES + FLAT_EXTRA_PASSES, "disequalities")
    # the oracle needs fully lowered models
    passes = args.cfg.passes + tuple(p for p in FLAT_EXTRA_PASSES if p not in args.cfg.passes)
    full_cfg = PassConfig(passes, args.cfg.alldiff_mode)
    model = _front(args.model, args.data)
    check_pipeline(model_features(model), full_cfg.passes, "flat")  # before the baseline runs
    base_sols = enumerate_solutions(_lowered(model, base_cfg))
    # the transformed side's solutions are counted and looked up, not kept
    relation, count = compare_streaming(_lowered(model, full_cfg), base_sols)
    print(f"{VERDICTS[relation]} baseline={len(base_sols)} transformed={count}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .printer import print_expression

    expr = parse_expression(args.expr)
    print(print_expression(_Folder({}).fold(expr)))
    return EXIT_OK


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pivotc",
        description="constraint-model compiler (object-oriented source -> clp/flat)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="run the transformation chain and emit a target")
    c.add_argument("-m", "--model", required=True, help="model file (.som)")
    c.add_argument("-d", "--data", help="data file (.dat)")
    c.add_argument("--target", required=True, choices=("clp", "flat", "pivot"))
    c.add_argument("--passes", help="comma-separated pass list: " + ",".join(PASS_IDS))
    c.add_argument("--alldiff", choices=ALLDIFF_MODES, help="alldifferent rewrite mode")
    c.add_argument("--unroll", action="store_true", help="append loopUnroll")
    c.add_argument("--no-label", action="store_true", help="omit the labeling goal (clp)")
    c.add_argument("-o", "--output", required=True, help="output path")
    c.add_argument("--verify-against", help="fail unless the output matches this file")
    c.set_defaults(func=cmd_compile)

    k = sub.add_parser("check", help="oracle-compare the transformed model with a baseline")
    k.add_argument("-m", "--model", required=True)
    k.add_argument("-d", "--data")
    k.add_argument("--passes")
    k.add_argument("--alldiff", choices=ALLDIFF_MODES)
    k.set_defaults(func=cmd_check)

    e = sub.add_parser("eval", help="parse and fold a standalone expression")
    e.add_argument("-e", "--expr", required=True)
    e.set_defaults(func=cmd_eval)
    return top


def main(argv=None) -> int:
    """Run one command; the one place that turns a failure into its
    message on stderr and its exit code."""
    # A command builds immutable, acyclic trees and exits; the collector
    # would scan them many times and free almost nothing.  The caller's
    # setting comes back on every way out.
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = _build_argparser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else 0
        if args.command != "eval":
            try:
                args.cfg = _pass_config(args)
            except ValueError as exc:
                print(f"usage error: {exc}", file=sys.stderr)
                return EXIT_USAGE
        return args.func(args)
    except ParseError as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except OracleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_LIMIT
    except (OSError, CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    finally:
        if collecting:
            gc.enable()


def entry():  # console_scripts hook, and where -m pivotc and -m pivotc.cli end
    code = main()
    # Finalization runs full collections over every object the loaded
    # modules hold, even with the collector off; frozen objects are left
    # out.  Refcounting still frees acyclic objects, and atexit handlers
    # and stream flushes still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
