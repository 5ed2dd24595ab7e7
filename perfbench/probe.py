"""A fixed piece of pure-Python work that gauges the host's current speed.

    python3 perfbench/probe.py

Prints the seconds that work() took.  It imports nothing from rackgraph, so
no change to the program can change it; only the host can.  On a shared host,
other tenants slow every process by up to about 1.7x for minutes at a time,
and the fastest probe of a run tells how fast the host was while that run
measured (see run.py).
"""

import time
from fractions import Fraction

SOURCE = "\n".join(
    f"def f{i}(x, y):\n    return [x * k + y for k in range({i})] if x else {{'k': {i}}}"
    for i in range(200)
)


def work() -> int:
    """Rational arithmetic, dict and list churn, a small elimination mod p
    and bytecode compilation: the kinds of work a rackgraph command does."""
    acc = Fraction(0)
    for i in range(1, 5000):
        acc += Fraction(i % 23 - 11, i % 19 + 1)
    table: dict[tuple[int, int], int] = {}
    for i in range(80000):
        key = ((i * 7919) % 1009, i % 7)
        table[key] = table.get(key, 0) + i
    p, n = 10007, 64
    rows = [[(i * 31 + j * j * 17 + 3) % p for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    code = compile(SOURCE, "<probe>", "exec")
    return acc.numerator % 7 + len(table) + rank + len(code.co_consts)


if __name__ == "__main__":
    start = time.perf_counter()
    work()
    print(time.perf_counter() - start)
