"""Independent checks of what the compiler writes.

The checks read the output as text and compare it with facts the
generators derived on their own (see gen.py).  None of them imports
pivotc, so a bug in pivotc's reader or evaluator cannot hide a bug in its
writer.  Each check returns a list of problems; empty means the output is
correct.
"""

from __future__ import annotations

import re

from gen import Golfers, Queens, Wide

# --------------------------------------------------------------------------
# golfers-flat

_SET_VAR = re.compile(r"var set of 1\.\.(\d+) ([A-Za-z_][A-Za-z0-9_]*);")
_NAME = r"([A-Za-z_][A-Za-z0-9_]*)"
_SHAPES = {
    "meet_at_most_once": re.compile(rf"constraint card\({_NAME} intersect {_NAME}\) <= 1;"),
    "disjoint_in_week": re.compile(rf"constraint card\({_NAME} intersect {_NAME}\) = 0;"),
    "group_size": re.compile(rf"constraint card\({_NAME}\) = (\d+);"),
}


def check_golfers(text: str, g: Golfers) -> list[str]:
    problems: list[str] = []
    declared: set[str] = set()
    counts = dict.fromkeys(_SHAPES, 0)
    constraint_lines = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        m = _SET_VAR.fullmatch(line)
        if m:
            if int(m.group(1)) != g.players:
                problems.append(f"line {lineno}: universe 1..{m.group(1)}, want 1..{g.players}")
            declared.add(m.group(2))
            continue
        if not line.startswith("constraint "):
            problems.append(f"line {lineno}: unexpected line {line[:60]!r}")
            continue
        constraint_lines += 1
        for shape, pattern in _SHAPES.items():
            m = pattern.fullmatch(line)
            if m:
                break
        else:
            problems.append(f"line {lineno}: unexpected constraint {line[:60]!r}")
            continue
        counts[shape] += 1
        names = m.groups()[:1] if shape == "group_size" else m.groups()
        if shape == "group_size" and int(m.group(2)) != g.size:
            problems.append(f"line {lineno}: group size {m.group(2)}, want {g.size}")
        for name in names:
            if name not in declared:
                problems.append(f"line {lineno}: undeclared variable {name}")
    if len(declared) != g.set_vars:
        problems.append(f"{len(declared)} set variables, want {g.set_vars}")
    want = g.constraint_counts()
    if constraint_lines != sum(want.values()):
        problems.append(f"{constraint_lines} constraint lines, want {sum(want.values())}")
    for shape, n in want.items():
        if counts[shape] != n:
            problems.append(f"{counts[shape]} {shape} constraints, want {n}")
    return problems


# --------------------------------------------------------------------------
# wide-clp

_CONST_GOAL = re.compile(r" C(\d+) \$= (-?\d+),")
_CLP_OPS = {"<=": "$=<", ">=": "$>=", "<": "$<", ">": "$>", "!=": "$\\="}
_COMPARISON = re.compile(r" (\$=<|\$>=|\$\\=|\$=|\$<|\$>) ")


def check_wide(text: str, w: Wide) -> list[str]:
    problems: list[str] = []
    lines = text.splitlines()
    seen: dict[str, int] = {}
    for line in lines:
        m = _CONST_GOAL.fullmatch(line)
        if m:
            seen[f"c{m.group(1)}"] = int(m.group(2))
    for name, value in w.constants.items():
        if name not in seen:
            problems.append(f"constant {name} not emitted")
        elif seen[name] != value:
            problems.append(f"constant {name} = {seen[name]}, want {value}")
    if len(seen) != len(w.constants):
        problems.append(f"{len(seen)} constant goals, want {len(w.constants)}")

    try:
        start = lines.index(" % explicit")
    except ValueError:
        return problems + ["no '% explicit' block"]
    ops: list[str] = []
    for line in lines[start + 1:]:
        if not line.strip():
            break
        m = _COMPARISON.search(line)
        if m:
            ops.append(m.group(1))
    want = [_CLP_OPS[op] for op in w.comparisons]
    if len(ops) != len(want):
        problems.append(f"{len(ops)} comparison goals in the explicit block, want {len(want)}")
    elif ops != want:
        i = next(k for k, (a, b) in enumerate(zip(ops, want)) if a != b)
        problems.append(f"explicit goal {i + 1} uses {ops[i]}, want {want[i]}")
    return problems


# --------------------------------------------------------------------------
# queens-check

# OEIS A000170: number of ways to place n non-attacking queens, n = 0..12.
A000170 = (1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724, 2680, 14200)


def count_relaxed_queens(n: int) -> int:
    """Placements q[1..n] in 1..n with no two queens on a diagonal and
    sum(q) = n(n+1)/2: the solutions of n-queens once alldifferent is
    replaced by its sum relaxation."""
    target = n * (n + 1) // 2
    rows: list[int] = []

    def extend(col: int, total: int) -> int:
        if col == n:
            return 1 if total == target else 0
        left = n - col - 1
        found = 0
        for v in range(1, n + 1):
            t = total + v
            if t + left > target or t + left * n < target:
                continue
            if any(abs(u - v) == col - c for c, u in enumerate(rows)):
                continue
            rows.append(v)
            found += extend(col + 1, t)
            rows.pop()
        return found

    return extend(0, 0)


def expected_verdict(q: Queens) -> str:
    """The relaxation keeps every n-queens solution and may add more."""
    base, relaxed = A000170[q.n], count_relaxed_queens(q.n)
    return f"{'EQUAL' if relaxed == base else 'SUPERSET'} baseline={base} transformed={relaxed}"


def check_queens(stdout: str, want: str) -> list[str]:
    if stdout.splitlines() != [want]:
        return [f"printed {stdout.strip()[:80]!r}, want {want!r}"]
    return []
