"""Subspaces held as row-echelon bases, grown by plain Gaussian elimination.

An :class:`EchelonSubspace` stores a basis as rows with strictly increasing
pivot columns.  Each row is 1 at its pivot, 0 left of it, and 0 at the pivot
of every row inserted before it; the rows are not back-substituted, so equal
spans may have different rows.

Insertion reduces the new vector against the current rows, picks the leftmost
surviving nonzero coordinate as its pivot, scales the pivot to 1 and slots the
row in by pivot; no older row changes.  The residue is the one vector of
v + span(rows) that is 0 at every pivot, so it depends only on the span and
not on which echelon basis of it is stored.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from .errors import ShapeError
from .fields import Field, Scalar

Vector = tuple  # tuple[Scalar, ...]


class EchelonSubspace:
    """Immutable subspace of F^ambient held as a row-echelon basis."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(
        self,
        field: Field,
        ambient: int,
        rows: tuple[Vector, ...] = (),
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

    def _check_shape(self, v: Sequence[Scalar]) -> None:
        if len(v) != self.ambient:
            raise ShapeError(
                f"vector of length {len(v)} in a {self.ambient}-dimensional space"
            )

    def reduce(self, v: Sequence[Scalar]) -> list[Scalar]:
        """Eliminate the pivot coordinates of ``v``; the residue is 0 iff v is spanned."""
        self._check_shape(v)
        mod = self.field.modulus
        out = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = out[p]
            if c:
                if mod is None:
                    out = [x - c * r for x, r in zip(out, row)]
                else:
                    out = [(x - c * r) % mod for x, r in zip(out, row)]
        return out

    def insert(self, v: Sequence[Scalar]) -> tuple["EchelonSubspace", Optional[Vector]]:
        """Insert ``v``; returns (new space, added row) with row None when spanned.

        The added row is the normalized reduction of ``v`` at insertion time;
        it extends the previous basis and is what the length engine records as
        a fresh-basis vector.
        """
        residue = self.reduce(v)
        pivot = next((j for j, x in enumerate(residue) if x), None)
        if pivot is None:
            return self, None
        mod = self.field.modulus
        lead_inv = self.field.inv(residue[pivot])
        if mod is None:
            newrow = tuple(x * lead_inv for x in residue)
        else:
            newrow = tuple((x * lead_inv) % mod for x in residue)
        at = bisect_left(self.pivots, pivot)
        rows = self.rows[:at] + (newrow,) + self.rows[at:]
        pivots = self.pivots[:at] + (pivot,) + self.pivots[at:]
        return EchelonSubspace(self.field, self.ambient, rows, pivots), newrow

    def __repr__(self) -> str:
        return f"EchelonSubspace(dim={self.dim}, ambient={self.ambient})"
