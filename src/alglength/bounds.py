"""Structural checks on characteristic sequences.

A sequence produced by a generating set is always an addition chain: every
term of value >= 2 is the sum of two earlier terms (possibly the same index
twice), which forces the power bound m_h <= 2^(h-1).  For locally-complex
algebras the two earlier terms can be chosen at distinct indices (an addition
chain without doubling), which tightens the bound to the Fibonacci numbers.
``CHECKS`` is the one list of these checks, by their ``verify --checks`` token.
The witness search, :func:`witness_pair`, also builds the family tables.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Mapping

from .errors import KOutOfRange, RangeError, WellformednessError, require_int


def _fibonacci_numbers():
    """F_1, F_2, F_3, ... without end."""
    a, b = 1, 1
    while True:
        yield a
        a, b = b, a + b


def fibonacci(i: int) -> int:
    """F_1 = F_2 = 1, F_i = F_{i-1} + F_{i-2}; exact for any i >= 1."""
    require_int(i, "Fibonacci index", 1)
    return next(islice(_fibonacci_numbers(), i - 1, None))


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


def witness_pair(m, h: int, strict: bool = False, latest: bool = False, taken=()):
    """The first pair (t1, t2) not in ``taken`` with m_t1 + m_t2 = m_h and
    0 < t1 <= t2 < h (t1 < t2 when ``strict``), or None: t1 ascending
    (descending with ``latest``), then t2 ascending.  ``m`` is well formed, so
    m_h - m_(h-1) <= m_t1 <= m_h / 2, and each t2 is a run of equal terms.
    """
    value = m[h]
    low = bisect_left(m, value - m[h - 1], 1, h)
    high = bisect_right(m, value // 2, low, h)
    for t1 in reversed(range(low, high)) if latest else range(low, high):
        rest = value - m[t1]
        t2 = bisect_left(m, rest, t1 + 1 if strict else t1, h)
        while t2 < h and m[t2] == rest:
            if (t1, t2) not in taken:
                return t1, t2
            t2 += 1
    return None


def check_addition_chain(seq, strict: bool = False) -> ChainCheck:
    """Each m_h >= 2 must split as m_{t1} + m_{t2} with 0 < t1 <= t2 < h.

    With ``strict`` the indices must differ (t1 < t2): the "no doubling"
    variant that characteristic sequences of locally-complex algebras obey.
    The witness is :func:`witness_pair`'s, the smallest t1, then the
    smallest t2.  At most quadratic in the length of the sequence.
    """
    m = ensure_wellformed(seq)
    witnesses, failures = [], []
    for h, value in enumerate(m):
        if value >= 2:
            pair = witness_pair(m, h, strict)
            if pair:
                witnesses.append((h, *pair))
            else:
                failures.append((h, value))
    return ChainCheck(
        ok=not failures,
        strict=strict,
        witnesses=tuple(witnesses),
        failures=tuple(failures),
    )


def _pointwise(m, bounds: Iterable[int], first: int = 1) -> BoundCheck:
    """m_h <= b_h for h >= 1, with b_1, b_2, ... taken from ``bounds`` in turn.

    Every index above its bound is a failure; an index equal to it is an
    equality when it is at least ``first``.
    """
    failures = []
    equalities = []
    for h, (value, bound) in enumerate(zip(m[1:], bounds), 1):
        if value > bound:
            failures.append((h, value))
        elif value == bound and h >= first:
            equalities.append(h)
    return BoundCheck(ok=not failures, failures=tuple(failures), equalities=tuple(equalities))


def check_power_bound(seq) -> BoundCheck:
    """m_h <= 2^(h-1) for all h >= 1."""
    m = ensure_wellformed(seq)
    return _pointwise(m, map((1).__lshift__, range(len(m) - 1)))


def check_fibonacci_bound(seq, k: int = 1) -> BoundCheck:
    """Fibonacci bound for sequences of locally-complex generating sets.

    For k = 1 this is the pointwise bound m_h <= F_h, vacuous on the
    unit-only sequence (0,).  For k >= 2 (a set with k generators
    independent modulo the unit) it requires m_1 = ... = m_k = 1 and
    m_{k+h} <= F_{h+2} for -1 <= h <= N-k.  Every term of a well-formed
    sequence is >= 1, so both are one pointwise bound: 1 at indices
    1..k-2, then F_1, F_2, ... from index k-1 on.  Equalities are listed
    from index k-1 on.
    """
    m = ensure_wellformed(seq)
    N = len(m) - 1
    if type(k) is not int or (k != 1 and not 1 <= k <= N):
        raise KOutOfRange(f"k = {k!r} is not an int in 1..{N}")
    return _pointwise(m, chain(repeat(1, k - 2), _fibonacci_numbers()), first=k - 1)


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
