"""Seeded input generators for the benchmark workloads.

Each generator returns the text the compiler reads plus the facts the
independent output checks need, computed here from the generator's own
parameters and arithmetic, never by pivotc.  The seed changes names,
values and operators but not the shape of a model, so every seed asks the
compiler for about the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

KEYWORDS = {
    "and", "card", "class", "constraint", "diff", "else", "enum", "false",
    "forall", "if", "iff", "implies", "in", "int", "intersect", "main",
    "model", "not", "or", "real", "bool", "set", "true", "union",
}


def _names(rng: random.Random, count: int, prefix: str, taken: set[str],
           length: int = 4) -> list[str]:
    """Distinct lower-case identifiers, none a keyword or already taken."""
    out: list[str] = []
    while len(out) < count:
        name = prefix + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(length))
        if name not in taken and name not in KEYWORDS:
            taken.add(name)
            out.append(name)
    return out


# --------------------------------------------------------------------------
# golfers-flat: the paper's social golfers model with generated data

# The model of tests/fixtures/golfers.som, copied so that the workload stays
# the same when the test fixtures change.
GOLFERS_MODEL = """\
main class SocialGolfers {
  Week weekSched[w];
  constraint differentGroups {
    forall(w1 in 1..w)
      forall(w2 in w1+1..w)
        forall(g1 in 1..g)
          forall(g2 in 1..g) {
            card(weekSched[w1].groupSched[g1].players intersect
                 weekSched[w2].groupSched[g2].players) <= 1;
          }
  }
}

class Group {
  Name set players;
  constraint groupSize {
    card(players) = s;
  }
}

class Week {
  Group groupSched[g];
  constraint playOncePerWeek {
    forall(g1 in 1..g)
      forall(g2 in g1+1..g) {
        card(groupSched[g1].players intersect groupSched[g2].players) = 0;
      }
  }
}
"""


@dataclass(frozen=True)
class Golfers:
    data: str
    weeks: int
    groups: int
    size: int
    players: int

    @property
    def set_vars(self) -> int:
        return self.weeks * self.groups

    def constraint_counts(self) -> dict[str, int]:
        """Expected flat constraints by shape, from the model's loop bounds."""
        w, g = self.weeks, self.groups
        return {
            "meet_at_most_once": comb(w, 2) * g * g,
            "disjoint_in_week": w * comb(g, 2),
            "group_size": w * g,
        }


def golfers(seed: int, weeks: int = 10, groups: int = 10, size: int = 4,
            players: int = 40) -> Golfers:
    rng = random.Random(seed)
    names = _names(rng, players, "p", set())
    data = (
        f"// social golfers data, seed {seed}\n"
        f"enum Name := {{{', '.join(names)}}};\n"
        f"int s := {size};\n"
        f"int w := {weeks};\n"
        f"int g := {groups};\n"
    )
    return Golfers(data, weeks, groups, size, players)


# --------------------------------------------------------------------------
# queens-check: n-queens with alldifferent, checked under the relaxation

@dataclass(frozen=True)
class Queens:
    source: str
    n: int


def queens(seed: int, n: int = 9) -> Queens:
    rng = random.Random(seed)
    model, cls, arr, zone, i, j = _names(rng, 6, "", set())
    cells = ", ".join(f"{arr}[{k}]" for k in range(1, n + 1))
    source = (
        f"model {model.capitalize()};\n"
        f"int n := {n};\n"
        f"main class {cls.capitalize()} {{\n"
        f"  int {arr}[n] in 1..n;\n"
        f"  constraint {zone} {{\n"
        f"    alldifferent({cells});\n"
        f"    forall({i} in 1..n)\n"
        f"      forall({j} in {i}+1..n) {{\n"
        f"        abs({arr}[{i}] - {arr}[{j}]) != {j} - {i};\n"
        f"      }}\n"
        f"  }}\n"
        f"}}\n"
    )
    return Queens(source, n)


# --------------------------------------------------------------------------
# wide-clp: one wide model that the clp target keeps structured

@dataclass(frozen=True)
class Wide:
    source: str
    constants: dict[str, int]  # declared name -> value the chain evaluates to
    comparisons: list[str]     # operator of each explicit constraint, in order


WIDE_CELLS = 60  # length of the integer array x the constraints read
WIDE_TAGS = 12   # members of the Tag enum


def wide(seed: int, constraints: int = 1500, constants: int = 200,
         instances: int = 20) -> Wide:
    # Shapes follow the index, not the seed, so that every seed yields nearly
    # the same work and output size.
    rng = random.Random(seed)
    taken: set[str] = set()
    tag_names = _names(rng, WIDE_TAGS, "t", taken, 7)
    inst_names = _names(rng, instances, "o", taken, 7)

    consts: dict[str, int] = {}
    lines = ["model Wide;", f"enum Tag := {{{', '.join(tag_names)}}};"]
    for k in range(1, constants + 1):
        name = f"c{k}"
        value = rng.randint(100, 999)  # the offset d makes every constant 3 digits
        consts[name] = value
        if k == 1:
            lines.append(f"int {name} := {value};")
            continue
        a, b = f"c{rng.randint(1, k - 1)}", f"c{rng.randint(1, k - 1)}"
        if k % 3 == 0:
            d = value - consts[f"c{k - 1}"]
            lines.append(f"int {name} := c{k - 1} + ({d});")
        elif k % 3 == 1:
            d = value - (consts[a] - consts[b])
            lines.append(f"int {name} := {a} - {b} + ({d});")
        else:
            d = value - (2 * consts[a] - consts[b])
            lines.append(f"int {name} := 2 * {a} - {b} + ({d});")
    lines.append(f"int nx := {WIDE_CELLS};")
    lines += [
        "class Part {",
        "  Tag set tags;",
        "  int w in 0..50;",
        "  constraint own { card(tags) <= 4; }",
        "}",
        "main class Wide {",
    ]
    lines += [f"  Part {o};" for o in inst_names]
    lines.append("  int x[nx] in 0..99;")
    lines.append("  constraint explicit {")

    ops = ["<=", ">=", "<", ">", "!="]
    comparisons: list[str] = []

    def cell() -> str:
        return f"x[{rng.randint(1, WIDE_CELLS)}]"

    for i in range(constraints):
        op = rng.choice(ops)
        form = i % 4
        c = f"c{rng.randint(1, constants)}"
        if form == 0:
            a, b, e, f = (rng.randint(2, 9) for _ in range(4))
            text = (f"{a}*{cell()} + {b}*{cell()} - {e}*{cell()} + {f}*{cell()} "
                    f"{op} {c} + {rng.randint(10, 99)}")
        elif form == 1:
            p, q = rng.sample(inst_names, 2)
            text = f"{p}.w + {q}.w + {cell()} {op} {c} - {rng.choice(('c1', 'c2', 'c3'))}"
        elif form == 2:
            p, q = rng.sample(inst_names, 2)
            text = f"card({p}.tags intersect {q}.tags) {op} {rng.randint(1, 4)}"
        else:
            t1, t2 = rng.sample(tag_names, 2)
            text = f"card({rng.choice(inst_names)}.tags union {{{t1}, {t2}}}) {op} {rng.randint(2, 6)}"
        comparisons.append(op)
        lines.append(f"    {text};")
    lines.append("  }")
    lines.append("  constraint chain {")
    lines.append("    forall(i in 1..nx-1) {")
    lines.append("      x[i] <= x[i+1] + c1;")
    lines.append("    }")
    lines.append("  }")
    lines.append("}")
    return Wide("\n".join(lines) + "\n", consts, comparisons)
