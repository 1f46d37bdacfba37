"""Structural checks on characteristic sequences.

A sequence produced by a generating set is always an addition chain: every
term of value >= 2 is the sum of two earlier terms (possibly the same index
twice), which forces the power bound m_h <= 2^(h-1).  For locally-complex
algebras the two earlier terms can be chosen at distinct indices (an addition
chain without doubling), which tightens the bound to the Fibonacci numbers.
``CHECKS`` is the one list of these checks, by their ``verify --checks`` token.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import KOutOfRange, RangeError, WellformednessError


def fibonacci(i: int) -> int:
    """F_1 = F_2 = 1, F_i = F_{i-1} + F_{i-2}; exact for any i >= 1."""
    if i < 1:
        raise RangeError(f"Fibonacci index must be >= 1, got {i}")
    a, b = 1, 1
    for _ in range(i - 1):
        a, b = b, a + b
    return a


def is_wellformed_sequence(seq) -> bool:
    m = tuple(seq)
    if not m or m[0] != 0:
        return False
    if any(not isinstance(x, int) for x in m):
        return False
    if any(m[t] < 1 for t in range(1, len(m))):
        return False
    return all(m[t] <= m[t + 1] for t in range(len(m) - 1))


def ensure_wellformed(seq) -> tuple[int, ...]:
    m = tuple(seq)
    if not is_wellformed_sequence(m):
        raise WellformednessError(
            f"sequence {m} must start with 0 and be non-decreasing over positive terms"
        )
    return m


@dataclass(frozen=True)
class ChainCheck:
    """Addition-chain verdict with one witness decomposition per index."""

    ok: bool
    strict: bool
    witnesses: tuple[tuple[int, int, int], ...]  # (h, t1, t2) with m[t1]+m[t2]=m[h]
    failures: tuple[tuple[int, int], ...]  # (h, m[h]) with no decomposition


@dataclass(frozen=True)
class BoundCheck:
    """Pointwise bound verdict; ``equalities`` lists indices attaining it."""

    ok: bool
    failures: tuple[tuple[int, int], ...]  # (h, m[h]) exceeding the bound
    equalities: tuple[int, ...]


def check_addition_chain(seq, strict: bool = False) -> ChainCheck:
    """Each m_h >= 2 must split as m_{t1} + m_{t2} with 0 < t1 <= t2 < h.

    With ``strict`` the indices must differ (t1 < t2): the "no doubling"
    variant that characteristic sequences of locally-complex algebras obey.
    The witness is the smallest t1, then the smallest t2.  The terms are
    non-decreasing, so t1 starts where m_{t1} + m_{h-1} >= m_h and stops
    once 2 m_{t1} > m_h, and t2 is the first index of the value
    m_h - m_{t1} unless the lowest allowed index is later.  At most
    quadratic in the length of the sequence.
    """
    m = ensure_wellformed(seq)
    first: dict[int, int] = {}  # value -> its lowest index; equal values are contiguous
    witnesses = []
    failures = []
    for h, value in enumerate(m):
        first.setdefault(value, h)
        if value < 2:
            continue
        found = None
        for t1 in range(bisect_left(m, value - m[h - 1], 1, h), h):
            if 2 * m[t1] > value:
                break
            t2 = max(first.get(value - m[t1], h), t1 + 1 if strict else t1)
            if t2 < h and m[t2] + m[t1] == value:
                found = (h, t1, t2)
                break
        if found:
            witnesses.append(found)
        else:
            failures.append((h, value))
    return ChainCheck(
        ok=not failures,
        strict=strict,
        witnesses=tuple(witnesses),
        failures=tuple(failures),
    )


def check_power_bound(seq) -> BoundCheck:
    """m_h <= 2^(h-1) for all h >= 1."""
    m = ensure_wellformed(seq)
    failures = []
    equalities = []
    for h in range(1, len(m)):
        bound = 1 << (h - 1)
        if m[h] > bound:
            failures.append((h, m[h]))
        elif m[h] == bound:
            equalities.append(h)
    return BoundCheck(ok=not failures, failures=tuple(failures), equalities=tuple(equalities))


def check_fibonacci_bound(seq, k: int = 1) -> BoundCheck:
    """Fibonacci bound for sequences of locally-complex generating sets.

    For k = 1 this is the pointwise bound m_h <= F_h, vacuous on the
    unit-only sequence (0,).  For k >= 2 (a set with k generators
    independent modulo the unit) it requires m_1 = ... = m_k = 1 and
    m_{k+h} <= F_{h+2} for -1 <= h <= N-k.
    """
    m = ensure_wellformed(seq)
    N = len(m) - 1
    if k != 1 and not 1 <= k <= N:
        raise KOutOfRange(f"k = {k} outside 1..{N}")
    failures = []
    equalities = []
    if k == 1:
        fib_prev, fib = 0, 1  # (F_0, F_1); fib tracks F_h below
        for h in range(1, len(m)):
            if m[h] > fib:
                failures.append((h, m[h]))
            elif m[h] == fib:
                equalities.append(h)
            fib_prev, fib = fib, fib_prev + fib
        return BoundCheck(
            ok=not failures, failures=tuple(failures), equalities=tuple(equalities)
        )
    for t in range(1, k + 1):
        if m[t] != 1:
            failures.append((t, m[t]))
    for h in range(-1, N - k + 1):
        bound = fibonacci(h + 2)
        value = m[k + h]
        if value > bound:
            failures.append((k + h, value))
        elif value == bound:
            equalities.append(k + h)
    return BoundCheck(
        ok=not failures, failures=tuple(failures), equalities=tuple(equalities)
    )


def _fibonacci_bound_k(m) -> BoundCheck:
    """The k-generator bound with k read off the sequence: the number of
    terms equal to 1, i.e. the generators independent modulo the unit."""
    k = m.count(1)
    if k < 1:
        raise KOutOfRange("fib-k needs at least one generator outside the unit span")
    return check_fibonacci_bound(m, k)


# The sequence checks: token -> (JSON report key, check of a well-formed
# sequence).  Reports list the verdicts in this order.
CHECKS = {
    "chain": ("addition_chain", check_addition_chain),
    "chain-strict": (
        "strict_addition_chain", lambda m: check_addition_chain(m, strict=True)
    ),
    "power": ("power_bound", check_power_bound),
    "fib": ("fibonacci_bound", check_fibonacci_bound),
    "fib-k": ("k_bound", _fibonacci_bound_k),
}


@dataclass(frozen=True)
class BoundReport:
    """Verdicts of the requested checks, keyed by ``CHECKS`` token in table order."""

    wellformed: bool
    checks: Mapping[str, ChainCheck | BoundCheck]

    def ok(self) -> bool:
        return self.wellformed and all(c.ok for c in self.checks.values())


def verify_sequence(seq, checks: Iterable[str]) -> BoundReport:
    """Run the named ``CHECKS`` on one sequence, each once, reported in table order.

    A sequence that is not well formed gets no verdicts.  An unknown token
    raises RangeError.
    """
    wanted = set(checks)
    unknown = sorted(wanted - CHECKS.keys())
    if unknown:
        raise RangeError(f"unknown checks {unknown}; choose from {', '.join(CHECKS)}")
    m = tuple(seq)
    if not is_wellformed_sequence(m):
        return BoundReport(wellformed=False, checks={})
    verdicts = {t: CHECKS[t][1](m) for t in CHECKS if t in wanted}
    return BoundReport(wellformed=True, checks=verdicts)
