"""The unit of time the benchmark reports: seconds at the reference speed.

The host the benchmark was built on (a 2-vCPU Xeon VM at 2.1 GHz running
Python 3.11.7) alternates, for seconds to minutes at a time, between a fast
state and one 1.6 to 1.9 times slower, with no sign of it inside the VM: no
steal time, no other process.  A whole run can fall in either state, so raw
seconds spread between runs far beyond any useful bound.

The benchmark therefore times, next to the operations, a fixed kernel of
exact arithmetic in the same style as alglength (rational and GF(p)
elimination in plain Python) and reports ``raw seconds * (REFERENCE_S /
kernel seconds) ** SENSITIVITY``: the time the operation would take when the
kernel takes REFERENCE_S, its fast-state time on that host.  The kernel and
the two constants are part of the unit: changing any of them changes every
reported time, so none may change between two measurements that are
compared.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0015
# The kernel slows more than alglength's code when the host turns slow.  Over
# twenty 20 s runs per workload, a run's time against its kernel time had
# slopes (in logs) of 0.68 (oracle-sweep), 0.81 (wide-exact), 0.92
# (deep-filtration) and 1.01 (cli-files).  Scaling by the kernel ratio to a
# power near their median keeps the two states level on average.
SENSITIVITY = 0.85
RECALIBRATE_S = 0.2  # the slow and fast states each last far longer than this
REPEATS = 3


def _eliminate(rows, p):
    basis = {}
    for v in rows:
        v = list(v)
        for j, c in enumerate(v):
            if not c:
                continue
            if j not in basis:
                inv = pow(c, -1, p) if p else 1 / c
                basis[j] = [(x * inv) % p for x in v] if p else [x * inv for x in v]
                break
            row = basis[j]
            v = [(x - c * r) % p for x, r in zip(v, row)] if p else [x - c * r for x, r in zip(v, row)]
    return len(basis)


def kernel() -> int:
    """Fixed work: rank of two 10 x 10 integer matrices, over Q and over GF(10007)."""
    rows = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3) for j in range(10)] for i in range(10)]
    ints = [[(i * i * 31 + j * 17) % 10007 for j in range(10)] for i in range(10)]
    return _eliminate(rows, None) + _eliminate(ints, 10007)


class Clock:
    """Converts raw seconds to reference seconds at the speed measured around them."""

    def __init__(self):
        self.kernel_s = 0.0
        self._at = float("-inf")

    def calibrate(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        self.kernel_s = best
        self._at = perf_counter()
        return best

    def timed(self, fn):
        """Run ``fn``; returns (result or exception, raw seconds, reference seconds).

        The kernel is timed before ``fn`` when the last timing is older than
        RECALIBRATE_S, and again after a call that took longer than that, so
        a change of state during a long call is averaged over.
        """
        if perf_counter() - self._at >= RECALIBRATE_S:
            self.calibrate()
        before = self.kernel_s
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the caller counts it as a failed operation
            out = exc
        raw = perf_counter() - t0
        kernel_s = (before + self.calibrate()) / 2 if raw >= RECALIBRATE_S else before
        return out, raw, raw * (REFERENCE_S / kernel_s) ** SENSITIVITY
