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

Termination.  By the candidate restriction, dim L_k can change only at k = 1,
where S joins, and at k = a + b for lengths a, b of nonempty fresh groups, so
the engine's min-heap visits step 1 (S), then only those sums.  When it is
empty no candidate is left and the filtration is stable for ever.  This is the
general stabilization window (if the last growth happened at step g and
nothing grew through step 2g, nothing ever grows), and it needs no rule of
its own: every pending sum is at most 2g.

The locally-complex window (after a growth by exactly 1 at g, stability is
certain from 2g-1 on) needs no rule either.  Fresh f, h of positive length
have no unit part, so over a locally-complex basis (``lc_flag``) f*f and
f*h + h*f lie in span(1), and the engine forms only the f*h whose left row
joined first; any other is spanned when its turn comes.  A last growth of
one row at g leaves step 2g no pair, so the heap empties.
The gap families in :mod:`alglength.families` witness that neither window
can be shortened further.

Every run starts from L_0 = span(e_0), the unit's span, which depends only
on the field and n.  It is built once per (field, n) and shared: ``insert``
returns a new :class:`EchelonSubspace` and never changes the one it is
called on, so no run can change the start of another.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from typing import Optional, Sequence

from .algebra import Algebra, Vector, check_lc_basis, coerce_genset
from .echelon import EchelonSubspace
from .errors import BudgetExceeded, NotLocallyComplex, require_int
from .fields import Field

STOP_FULL_DIM = "reached_full_dim"
STOP_WINDOW = "stabilized_window"
STOP_LC_WINDOW = "stabilized_lc_window"
# Largest kmax of a dims list, which has kmax + 1 entries.
MAX_KMAX = 1 << 20


def require_kmax(kmax: int) -> None:
    """RangeError unless ``kmax`` is an int >= 0, BudgetExceeded above :data:`MAX_KMAX`."""
    require_int(kmax, "kmax", 0)
    if kmax > MAX_KMAX:
        raise BudgetExceeded(f"kmax {kmax} exceeds the limit {MAX_KMAX}")


def dims_from_charseq(terms: Sequence[int], kmax: int) -> list[int]:
    """dim L_0, ..., dim L_kmax: dim L_k is the number of terms <= k.

    For the partial sequence of a finished non-generating run the dims stay
    constant after the last term, so any ``kmax`` gives the true dims.
    A ``kmax`` above :data:`MAX_KMAX` raises BudgetExceeded.
    """
    require_kmax(kmax)
    return [bisect_right(terms, k) for k in range(kmax + 1)]


@dataclass(frozen=True)
class LengthReport:
    """Result of a length computation.

    ``charseq`` holds the terms of the characteristic sequence, partial in
    the non-generating case; ``stop_reason`` says why the run ended.
    ``fresh_rows`` holds the engine's integer echelon rows by word length,
    which :attr:`fresh_basis` scales to field scalars.
    """

    charseq: tuple[int, ...]
    stop_reason: str
    field: Field
    fresh_rows: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]

    @property
    def is_generating(self) -> bool:
        return self.stop_reason == STOP_FULL_DIM

    @property
    def length(self) -> Optional[int]:
        """l(S), the last term of the sequence; None when S does not generate."""
        return self.charseq[-1] if self.is_generating else None

    @property
    def fresh_basis(self) -> tuple[tuple[int, tuple[Vector, ...]], ...]:
        """The nonempty groups of basis increments by word length (length 0
        is the unit): each the residue of its product modulo the span before
        it, scaled to 1 at its pivot."""
        if self.field.modulus is not None:  # GF(p) rows are 1 at the pivot
            return self.fresh_rows
        return tuple(
            (a, tuple(_monic(row) for row in rows)) for a, rows in self.fresh_rows
        )

    @property
    def dims(self) -> tuple[int, ...]:
        """dim L_0, ..., dim L_k up to the step k from which the span is
        known to be stable.

        That step is l(S) for a generating set.  Otherwise it is the end of
        the window after the last growth g, the last term of the sequence:
        2g, or 2g-1 for the locally-complex window (1 when S never leaves
        the unit span).  A k above :data:`MAX_KMAX` raises BudgetExceeded.
        """
        kmax = self.charseq[-1]
        if not self.is_generating:
            kmax = max(2 * kmax - (self.stop_reason == STOP_LC_WINDOW), 1)
        return tuple(dims_from_charseq(self.charseq, kmax))


def _monic(row: tuple[int, ...]) -> Vector:
    """An integer row over Q divided by its pivot entry."""
    lead = next(x for x in row if x)
    return tuple(Fraction(x, lead) for x in row)


@lru_cache(maxsize=64)
def _unit_span(field: Field, n: int) -> EchelonSubspace:
    """L_0 = span(e_0) in F^n, where every run starts, one per (field, n)."""
    return EchelonSubspace(field, n).insert((field.one,) + (field.zero,) * (n - 1))[0]


def compute_length(
    algebra: Algebra,
    gens: Sequence[Sequence],
    *,
    lc_shortcut: bool = False,
) -> LengthReport:
    """Compute the characteristic sequence of S and l(S).

    L_1 is span(unit, S); the result therefore depends on S only through
    that span.  The run starts from L_0, the unit's span, built once per
    (field, n) and shared, which is safe as an :class:`EchelonSubspace`
    never changes.  The heap visits step 1, which inserts S in order, then
    the sums of fresh lengths: step k inserts the products f*h over fresh
    groups of lengths a and b with a + b = k and a, b >= 1, in ascending a,
    then in group order.  Each candidate's nonzero residue modulo the span so far
    joins the fresh group of length k; the run stops once the span is the
    whole algebra or the heap is empty.  The engine runs on the integer rows of
    :class:`EchelonSubspace` and :meth:`Algebra.scaled_product`, which scale
    each vector by a nonzero constant and so leave every span and every
    residue up to a scalar as it is.  Each left operand is its nonzero
    ``(i, c)``, read once when its row joins.  Fresh rows of positive length
    are 0 at the unit coordinate, so the unit law, which ``scaled_product``
    leaves out, adds nothing to their products.  Over a basis that passes
    :func:`check_lc_basis` (``lc_flag``) only the f*h with f inserted before
    h are formed: a < b, or a = b, f first.  ``lc_shortcut`` refuses other
    bases and labels a stop after a one-row last growth STOP_LC_WINDOW.
    """
    gens = coerce_genset(algebra, gens)
    if lc_shortcut and not (algebra.lc_flag or check_lc_basis(algebra)):
        raise NotLocallyComplex("lc_shortcut requires a locally-complex basis")
    n = algebra.n
    acc = _unit_span(algebra.field, n)
    fresh: dict[int, tuple[tuple[int, ...], ...]] = {0: acc.rows}
    lefts: dict[int, list[list[tuple[int, int]]]] = {}  # each row's nonzero (i, c)
    pending = [1]  # heap of unvisited steps: 1 (S), then sums of fresh lengths
    strict = algebra.lc_flag  # form only the f*h with f inserted before h
    while acc.dim < n and pending:
        k = heappop(pending)
        while pending and pending[0] == k:
            heappop(pending)
        top = k // 2 if strict else k - 1  # the largest left length
        candidates = gens if k == 1 else (
            algebra.scaled_product(f, h)
            for a, left in lefts.items()
            if a <= top and k - a in fresh
            for t, f in enumerate(left, 1)
            for h in fresh[k - a][t if 2 * a == k and strict else 0 :]
        )
        group = []
        for v in candidates:
            acc, row = acc.insert(v)
            if row is not None:
                group.append(row)
                if acc.dim == n:  # a full span cannot grow
                    break
        if group:
            fresh[k] = tuple(group)
            lefts[k] = [[(i, c) for i, c in enumerate(row) if c] for row in group]
            for b in lefts:
                heappush(pending, k + b)

    last = max(fresh)  # the step of the last growth, 0 if S adds nothing
    lc_stop = lc_shortcut and last > 0 and len(fresh[last]) == 1
    stop = STOP_FULL_DIM if acc.dim == n else STOP_LC_WINDOW if lc_stop else STOP_WINDOW
    return LengthReport(
        charseq=tuple(a for a, rows in fresh.items() for _ in rows),
        stop_reason=stop,
        field=algebra.field,
        fresh_rows=tuple(fresh.items()),
    )

