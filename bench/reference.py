"""Fixed pure-Python work that the benchmark runs next to each command.

It builds, evaluates and prints trees of small frozen dataclasses, the kind
of work pivotc does, and imports nothing from pivotc.  The benchmark divides
a run's mean command time by this program's mean time in the same run,
so a change in the machine's speed between runs cancels out while a change
in pivotc does not.  Changing this file makes times before and after the
change incomparable.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Node:
    op: str
    left: object
    right: object


def build(depth: int, k: int):
    if depth == 0:
        return k
    return Node("+*-"[k % 3], build(depth - 1, 2 * k), build(depth - 1, 2 * k + 1))


def evaluate(n, env: dict):
    if not isinstance(n, Node):
        return env.get(n, n)
    a, b = evaluate(n.left, env), evaluate(n.right, env)
    return a + b if n.op == "+" else a * b % 1009 if n.op == "*" else a - b


def show(n) -> str:
    if not isinstance(n, Node):
        return str(n)
    return f"({show(n.left)} {n.op} {show(n.right)})"


total = 0
for r in range(10):
    tree = build(13, r)
    total += evaluate(tree, {i: i % 7 for i in range(0, 4096, 3)})
    total += len(show(tree))
print(total)
