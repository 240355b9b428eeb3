"""pivotc: compile an object-oriented constraint model to CLP, flat or
pivot text, check a rewrite configuration against a baseline with the
brute-force oracle, or fold an expression.

usage: pivotc compile -m MODEL [-d DATA] --target clp|flat|pivot -o OUT
                      [--passes P1,P2,...] [--alldiff MODE] [--unroll]
                      [--no-label] [--verify-against FILE]
       pivotc check -m MODEL [-d DATA] [--passes P1,P2,...] [--alldiff MODE]
       pivotc eval -e EXPR
       pivotc -h | --help

options:
  -m, --model MODEL      model file (.som)
  -d, --data DATA        data file (.dat)
  --target T             clp, flat or pivot
  -o, --output OUT       output path
  --passes P1,P2,...     comma-separated pass list, from objectFlatten,
                         enumRemove, alldiffRewrite, loopUnroll, foldConstants
  --alldiff MODE         alldifferent rewrite: disequalities, relaxation or
                         boolean
  --unroll               append loopUnroll
  --no-label             omit the labeling goal (clp)
  --verify-against FILE  fail unless the output equals this file
  -e, --expr EXPR        the expression to parse and fold
  -h, --help             print this synopsis and exit

A value follows its option as the next argument, taken as it is even if
it starts with '-', or a long option's '=': --expr=-1.  A repeated option
keeps its last value.

Exit codes: 0 success, 1 diagnostics, 2 usage error, 3 oracle limit.
"""

# The commands raise; ``main`` alone maps a failure to its exit code and
# stderr text.  Pass reports go to stderr; payload only ever goes to the
# output file.
#
# Start-up and exit are a fixed cost of every command, so the command line
# is read from one table (``COMMANDS``) without argparse, the backends
# (``clp``, ``flat``, ``oracle``, ``printer``) are imported inside the
# commands that use them, ``main`` runs with the cyclic garbage collector
# off, and ``entry`` freezes every object before the interpreter exits.

from __future__ import annotations

import gc
import sys
from pathlib import Path
from types import SimpleNamespace

from . import ir
from .errors import CompileError, OracleLimitError, ParseError
from .parser import SourceUnit, parse, parse_expression
from .passes import (
    ALLDIFF_MODES, PassConfig, _Folder, check_pipeline, model_features, run_pipeline,
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


def _report(reports):
    for r in reports:
        print(str(r), file=sys.stderr)


def cmd_compile(args) -> int:
    model = _front(args.model, args.data)
    if args.target == "flat":
        from .flat import emit_flat, lower_pipeline

        # drop each stage's input once the next is built: a lower peak
        program, model = lower_pipeline(model, args.cfg, _report), None
        payload, program = emit_flat(program), None
    else:
        model, reports = run_pipeline(model, args.cfg, args.target)
        _report(reports)
        if args.target == "clp":
            from .clp import ClpEmitOptions, emit_clp

            payload = emit_clp(model, ClpEmitOptions(label_sets=not args.no_label))
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
    from .flat import lower_pipeline

    return lower_pipeline(model, cfg)


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


# Each command's options: (spellings, required, value), where value is None
# for any text, a tuple of the values allowed, or SWITCH for an option that
# takes none.  An option's attribute is its last spelling without dashes.
SWITCH = "switch"
_MODEL = (("-m", "--model"), True, None)
_DATA = (("-d", "--data"), False, None)
_PASSES = (("--passes",), False, None)
_ALLDIFF = (("--alldiff",), False, ALLDIFF_MODES)
COMMANDS = {
    "compile": (
        _MODEL, _DATA, (("--target",), True, ("clp", "flat", "pivot")),
        (("-o", "--output"), True, None), _PASSES, _ALLDIFF, (("--unroll",), False, SWITCH),
        (("--no-label",), False, SWITCH), (("--verify-against",), False, None),
    ),
    "check": (_MODEL, _DATA, _PASSES, _ALLDIFF),
    "eval": ((("-e", "--expr"), True, None),),
}
_HELP = ("-h", "--help")


def _attribute(option) -> str:
    return option[0][-1].lstrip("-").replace("-", "_")


def _parse_argv(argv: list[str]) -> SimpleNamespace | None:
    """argv's command and options as the namespace the cmd_* functions
    read, or None for -h/--help; a ValueError names what it refuses."""
    if not argv:
        raise ValueError("no command: expected compile, check or eval")
    command, rest = argv[0], argv[1:]
    if command in _HELP:
        return None
    if command not in COMMANDS:
        raise ValueError(f"unknown command '{command}': expected compile, check or eval")
    options = COMMANDS[command]
    spelled = {spelling: option for option in options for spelling in option[0]}
    args = SimpleNamespace(command=command)
    for option in options:
        setattr(args, _attribute(option), False if option[2] is SWITCH else None)
    at = 0
    while at < len(rest):
        token = rest[at]
        at += 1
        if token in _HELP:
            return None
        name, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        option = spelled.get(name)
        if option is None:
            if token.startswith("-") and token != "-":
                raise ValueError(f"{command}: unknown option '{name}'")
            raise ValueError(f"{command}: unexpected argument '{token}'")
        allowed = option[2]
        if allowed is SWITCH:
            if eq:
                raise ValueError(f"{command}: option {name} takes no value")
            setattr(args, _attribute(option), True)
            continue
        if not eq:
            if at == len(rest):
                raise ValueError(f"{command}: option {name} needs a value")
            value = rest[at]
            at += 1
        if allowed is not None and value not in allowed:
            raise ValueError(
                f"{command}: option {name}: '{value}' is not one of {', '.join(allowed)}"
            )
        setattr(args, _attribute(option), value)
    missing = ["/".join(o[0]) for o in options if o[1] and getattr(args, _attribute(o)) is None]
    if missing:
        raise ValueError(f"{command}: missing {', '.join(missing)}")
    return args


def main(argv=None) -> int:
    """Run one command; the one place that turns a failure into its
    message on stderr and its exit code."""
    # A command builds immutable, acyclic trees and exits; the collector
    # would scan them many times and free almost nothing.  The caller's
    # setting comes back on every way out.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
            if args is None:  # -OO strips the docstring
                print(__doc__ or "usage: pivotc compile|check|eval [options]\n", end="")
                return EXIT_OK
            if args.command != "eval":
                args.cfg = _pass_config(args)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        run = {"compile": cmd_compile, "check": cmd_check, "eval": cmd_eval}[args.command]
        return run(args)
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
