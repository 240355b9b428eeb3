"""Line reach of the pivotc package under the tests: an opt-in pytest plugin.

    PYTHONPATH=src:tests python -m pytest -p reach [pytest args]

It traces the run with ``sys.settrace`` (coverage.py is not a dependency,
and Python 3.11 has no ``sys.monitoring``) and ends with, per module of
``pivotc``, the function-body lines that no test ran.  Only ``-p reach``
loads it, so a plain run is untouched; a traced run is several times
slower.  It also loads a derandomized hypothesis profile, so property
tests draw the same examples on every traced run and two reports of the
same tree agree.  Lines that only a child process runs (``run_cli``
tests) count as unreached, and so does code compiled at run time
(``<ir methods>``, ``<oracle search>``), which has no lines in the
package's files.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
import threading
from pathlib import Path

from hypothesis import settings

_PACKAGE = Path(importlib.util.find_spec("pivotc").origin).parent
_PREFIX = str(_PACKAGE) + "/"
_ran: set[tuple[str, int]] = set()  # (file, line)


def _trace_lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    # only frames of the package get a line tracer
    return _trace_lines if frame.f_code.co_filename.startswith(_PREFIX) else None


def _function_lines(code) -> set[int]:
    """The lines of every function body compiled into code, without the
    def lines: a call reports no line event for them."""
    lines = set()
    if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
        lines = {line for _start, _end, line in code.co_lines() if line is not None}
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= _function_lines(const)
    return lines


def unreached() -> dict[str, list[int]]:
    """Per module file, the sorted function-body lines never traced."""
    out = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        out[path.name] = sorted(
            line for line in _function_lines(code) if (str(path), line) not in _ran
        )
    return out


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_load_initial_conftests(early_config, parser, args):
    # before the test modules make their settings, which inherit the profile
    settings.register_profile("reach", derandomize=True)
    settings.load_profile("reach")
    # before the conftests import pivotc, so import-time calls count too
    sys.settrace(_trace_calls)
    threading.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("pivotc function-body lines no test ran")
    total = 0
    for name, lines in unreached().items():
        total += len(lines)
        if lines:
            terminalreporter.write_line(f"{name}: {len(lines)}: {_ranges(lines)}")
    terminalreporter.write_line(f"total: {total}")
