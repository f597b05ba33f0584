"""A fixed reference kernel, timed every 50 ms to track the machine's speed.

The machine this benchmark was written on shares its cores with other
tenants: the same operation's time swings by up to 2x within seconds, and a
run's median time moved by 20-40% between runs (interquartile range over
five runs).  Timing the kernel next to each operation did not help long
operations: a snakeboard ``run_battery`` takes seconds and the contention
changes while it runs (per-operation spread still 15%).  So a SIGALRM timer
runs the kernel every ``INTERVAL_S`` seconds, also in the middle of an
operation, and an operation's cost is its time, less the kernel time spent
inside it, in units of the mean kernel time sampled during it.  That brought
the spread of one snakeboard battery's cost down to 2%.

The kernel mixes what algmech spends its time on (a recursive walk of a
small expression tree, dict bindings, math calls, small numpy arrays, a 3x3
inverse and an einsum) and uses no algmech code, so a change to algmech
moves only the numerator.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter
INTERVAL_S = 0.05

_TREE = ("+", ("*", "x", ("sin", "y")),
         ("-", ("/", ("cos", "x"), ("+", "y", 2.0)), ("*", ("*", "x", "y"), 0.5)))
_MATRIX = np.array([[2.0, 0.1, 0.0], [0.1, 3.0, 0.2], [0.0, 0.2, 1.5]])


def _eval(node, env):
    if isinstance(node, str):
        return env[node]
    if isinstance(node, float):
        return node
    op = node[0]
    if op == "sin":
        return math.sin(_eval(node[1], env))
    if op == "cos":
        return math.cos(_eval(node[1], env))
    a, b = _eval(node[1], env), _eval(node[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b if op == "*" else a / b


def kernel() -> float:
    """Fixed work of about 2.5 ms on an idle core of the machine above."""
    acc = 0.0
    for i in range(60):
        env = {"x": i * 1e-3, "y": 0.5}
        values = np.array([_eval(_TREE, env) for _ in range(9)]).reshape(3, 3)
        inverse = np.linalg.inv(_MATRIX + 0.01 * values)
        acc += float(np.einsum("ab,b,a->", inverse, values[0], values[1]))
    return acc


class Sampler:
    """Runs ``kernel`` from a SIGALRM handler every ``INTERVAL_S`` while entered.

    ``stolen`` is the total time spent in the handler, to be subtracted
    from any interval that contains handler runs.
    """

    def __init__(self):
        self.starts = []
        self.times = []
        self.stolen = 0.0

    def _tick(self, signum, frame):
        start = clock()
        kernel()
        elapsed = clock() - start
        self.starts.append(start)
        self.times.append(elapsed)
        self.stolen += elapsed

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, start: float, end: float) -> float:
        """Mean kernel time over samples within one interval of ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, end + INTERVAL_S)
        if lo == hi:  # no tick landed nearby; take the nearest one
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        return statistics.fmean(self.times[lo:hi])
