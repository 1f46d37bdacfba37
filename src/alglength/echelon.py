"""Subspaces held as integer row-echelon bases, grown by fraction-free elimination.

An :class:`EchelonSubspace` stores a basis as rows in insertion order.  Each
row is 0 left of its pivot and 0 at the pivot of every older row, so
reducing against the rows in that order clears every pivot; the rows are
not back-substituted, so equal spans may have different rows.  Rows hold
ints: over Q each row is primitive (the gcd of its entries is 1) with a
positive pivot entry, over GF(p) each row is 1 at its pivot.

A span does not change when a vector is scaled, so reduction never divides
(Bareiss, Math. Comp. 1968): against a row with pivot entry r, a vector with
entry c there becomes ``(r/g)*v - (c/g)*row`` with ``g = gcd(r, c)``.  Over
GF(p), r = 1, so that is the usual ``v - c*row``, taken on ints congruent to
the residues and reduced mod p once per vector.  The residue is a nonzero
multiple of the one vector of v + span(rows) that is 0 at every pivot, so
up to a scalar it depends only on the span and not on which echelon basis
of it is stored.  Insertion makes the residue primitive (over Q) or 1 at its
pivot (over GF(p)) and appends it; no older row changes.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence

from .errors import ShapeError
from .fields import Field, Scalar

Vector = tuple  # tuple[Scalar, ...]


class EchelonSubspace:
    """Immutable subspace of F^ambient held as integer echelon rows, in insertion order."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(
        self,
        field: Field,
        ambient: int,
        rows: tuple[tuple[int, ...], ...] = (),
        pivots: tuple[int, ...] = (),
    ):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def empty(cls, field: Field, ambient: int) -> "EchelonSubspace":
        if ambient < 0:
            raise ShapeError(f"ambient dimension must be >= 0, got {ambient}")
        return cls(field, ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence[Scalar]) -> list[int]:
        """A nonzero multiple of the residue of ``v``, as ints; 0 iff v is spanned.

        ``v`` holds field scalars or ints.  Over Q its denominators are
        cleared first.  Over GF(p) any ints congruent to it mod p give the
        same result, the residue in [0, p): each row is 1 at its pivot, so
        the row op is ``v - c*row`` with ``c = v[pivot] mod p``, taken on
        ints, and the entries are reduced once, at the end.
        """
        if len(v) != self.ambient:
            raise ShapeError(
                f"vector of length {len(v)} in a {self.ambient}-dimensional space"
            )
        mod = self.field.modulus
        if mod is not None:
            out = v
            for row, p in zip(self.rows, self.pivots):
                c = out[p]
                if c:  # most engine entries are 0: test before taking the residue
                    c %= mod
                    if c:
                        out = [x - c * y for x, y in zip(out, row)]
            return [x % mod for x in out]
        if set(map(type, v)) == {int}:  # the engine's vectors: nothing to clear
            out = list(v)
        else:
            d = lcm(*{x.denominator for x in v})
            out = [x.numerator * (d // x.denominator) for x in v]
        for row, p in zip(self.rows, self.pivots):
            c = out[p]
            if c:
                r = row[p]
                g = gcd(r, c)
                r, c = r // g, c // g
                out = [r * x - c * y for x, y in zip(out, row)]
        return out

    def insert(self, v: Sequence[Scalar]) -> tuple["EchelonSubspace", Optional[tuple]]:
        """Insert ``v``; returns (new space, added row) with row None when spanned.

        The added row is the residue of ``v`` at insertion time, made
        primitive with a positive pivot (Q) or 1 at its pivot (GF(p)); it
        extends the previous basis and is what the length engine records as
        a fresh-basis vector.
        """
        residue = self.reduce(v)
        if not any(residue):
            return self, None
        pivot = next(j for j, x in enumerate(residue) if x)
        mod = self.field.modulus
        if mod is None:
            g = gcd(*residue)
            if residue[pivot] < 0:
                g = -g
            newrow = tuple(x // g for x in residue)
        else:
            lead_inv = self.field.inv(residue[pivot])
            newrow = tuple((x * lead_inv) % mod for x in residue)
        rows, pivots = self.rows + (newrow,), self.pivots + (pivot,)
        return EchelonSubspace(self.field, self.ambient, rows, pivots), newrow

    def __repr__(self) -> str:
        return f"EchelonSubspace(dim={self.dim}, ambient={self.ambient})"
