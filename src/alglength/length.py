"""Span filtration, characteristic sequence, and length of a generating set.

Notation used throughout this module: for a set S of elements of an algebra
A, a *word* is a fully bracketed product of elements of S, L_k denotes the
linear span of all words of length at most k (the unit counts as the word of
length 0), and the *length* l(S) is the least k with L_k = A.  The
*characteristic sequence* lists, for each k in order, as many copies of k as
the dimension jump dim L_k - dim L_{k-1}; it starts with a single 0 and,
when S generates, has exactly dim A terms, the last one equal to l(S).

New spanning candidates for L_k are products f*g of recorded fresh-basis
vectors whose lengths sum to exactly k: every word of length k splits into
two shorter words, and expanding each factor over the fresh bases of the
lower layers bilinearly leaves, modulo L_{k-1}, only products of fresh
vectors with length-sum k.  The word-enumeration oracle cross-checks this
candidate restriction.

Termination.  By the candidate restriction, dim L_k can change only at
k = a + b where a and b are lengths of nonempty fresh groups, so the engine
keeps those sums in a min-heap and visits only them.  When the heap is empty
no candidate is left and the filtration is stable for ever.  This is the
general stabilization window (if the last growth happened at step g and
nothing grew through step 2g, nothing ever grows), and it needs no rule of
its own: every pending sum is at most 2g.

The locally-complex window (opt-in via ``lc_shortcut``) is the one rule
left: if the last growth increased the dimension by exactly 1, stability is
already certain at step 2g-1, so the run stops before visiting 2g.  The gap
families in :mod:`alglength.families` witness that neither window can be
shortened further.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

from .algebra import Algebra, Vector, check_lc_basis, coerce_genset
from .echelon import EchelonSubspace
from .errors import NotLocallyComplex

STOP_FULL_DIM = "reached_full_dim"
STOP_WINDOW = "stabilized_window"
STOP_LC_WINDOW = "stabilized_lc_window"


def dims_from_charseq(terms: Sequence[int], kmax: int) -> list[int]:
    """dim L_0, ..., dim L_kmax: dim L_k is the number of terms <= k.

    For the partial sequence of a finished non-generating run the dims stay
    constant after the last term, so any ``kmax`` gives the true dims.
    """
    return [bisect_right(terms, k) for k in range(kmax + 1)]


@dataclass(frozen=True)
class LengthReport:
    """Result of a length computation.

    ``length`` is None when S does not generate; ``stop_reason`` says why the
    run ended.  ``charseq`` holds the terms of the characteristic sequence,
    partial in the non-generating case.
    ``fresh_basis`` lists the nonempty groups of basis increments by word
    length (length 0 is the unit).
    """

    n: int
    charseq: tuple[int, ...]
    length: Optional[int]
    stop_reason: str
    fresh_basis: tuple[tuple[int, tuple[Vector, ...]], ...] = field(default=())

    @property
    def is_generating(self) -> bool:
        return self.length is not None

    @property
    def dims(self) -> tuple[int, ...]:
        """dim L_0, ..., dim L_k up to the step k where the run stopped.

        That step is l(S) for a generating set.  Otherwise it is the end of
        the window after the last growth g, the last term of the sequence:
        2g, or 2g-1 for the locally-complex window (1 when S never leaves
        the unit span).
        """
        kmax = self.length
        if kmax is None:
            g = self.charseq[-1]
            kmax = max(2 * g - (self.stop_reason == STOP_LC_WINDOW), 1)
        return tuple(dims_from_charseq(self.charseq, kmax))


def _insert_all(
    acc: EchelonSubspace, vectors: Iterable[Vector]
) -> tuple[EchelonSubspace, tuple[Vector, ...]]:
    """Insert ``vectors`` in order; returns the new span and the added rows."""
    group = []
    for v in vectors:
        acc, row = acc.insert(v)
        if row is not None:
            group.append(row)
    return acc, tuple(group)


def compute_length(
    algebra: Algebra,
    gens: Sequence[Sequence],
    *,
    lc_shortcut: bool = False,
) -> LengthReport:
    """Compute the characteristic sequence of S and l(S).

    L_1 is span(unit, S); the result therefore depends on S only through
    that span.  Each visited step k inserts the products f*g over fresh
    groups of lengths a and b with a + b = k and a, b >= 1, taken in
    ascending a, then in group order; the rows that grow the span form the
    fresh group of length k.  With ``lc_shortcut`` the tighter
    locally-complex window is used; it requires a basis that passes
    :func:`check_lc_basis`, which an algebra with ``lc_flag`` set has passed.
    """
    gens = coerce_genset(algebra, gens)
    if lc_shortcut and not (algebra.lc_flag or check_lc_basis(algebra)):
        raise NotLocallyComplex("lc_shortcut requires a locally-complex basis")
    n = algebra.n
    acc, unit_row = EchelonSubspace.empty(algebra.field, n).insert(algebra.unit())
    fresh: dict[int, tuple[Vector, ...]] = {0: (unit_row,)}
    pending: list[int] = []  # heap of unvisited sums of nonempty fresh lengths
    k, group = 0, ()
    if n > 1:
        k = 1
        acc, group = _insert_all(acc, gens)
    g, by_one = 0, False  # step and +1-ness of the last growth
    length: Optional[int] = None
    while True:
        if group:
            fresh[k] = group
            for b in fresh:
                if b:
                    heappush(pending, k + b)
            g, by_one = k, len(group) == 1
        if acc.dim == n:
            length, stop = k, STOP_FULL_DIM
            break
        if lc_shortcut and by_one and (not pending or pending[0] >= 2 * g):
            stop = STOP_LC_WINDOW
            break
        if not pending:
            stop = STOP_WINDOW
            break
        k = heappop(pending)
        while pending and pending[0] == k:
            heappop(pending)
        acc, group = _insert_all(
            acc,
            (
                algebra.multiply(f, h)
                for a, left in fresh.items()
                if 0 < a < k and k - a in fresh
                for f in left
                for h in fresh[k - a]
            ),
        )

    return LengthReport(
        n=n,
        charseq=tuple(a for a, rows in fresh.items() for _ in rows),
        length=length,
        stop_reason=stop,
        fresh_basis=tuple(fresh.items()),
    )

