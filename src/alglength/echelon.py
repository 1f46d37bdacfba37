"""Subspaces maintained in canonical reduced row-echelon form.

An :class:`EchelonSubspace` stores a basis as RREF rows with strictly
increasing pivot columns.  Because the reduced form is unique, two objects
span the same subspace exactly when their ``rows`` are equal, which makes
span-stabilization tests (L_m == L_n iff equal dims) structural comparisons.

Insertion is incremental: reduce the new vector against the current rows,
pick the leftmost surviving nonzero coordinate as its pivot, scale the pivot
to 1, and eliminate that column from the older rows.  The result does not
depend on insertion order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Sequence

from .errors import ShapeError
from .fields import Field, Scalar

Vector = tuple  # tuple[Scalar, ...]


class EchelonSubspace:
    """Immutable subspace of F^ambient held as a reduced-echelon basis."""

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

    @classmethod
    def spanned_by(
        cls, field: Field, ambient: int, vectors: Iterable[Sequence[Scalar]]
    ) -> "EchelonSubspace":
        space = cls.empty(field, ambient)
        for v in vectors:
            space, _ = space.insert(tuple(v))
        return space

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

    def contains(self, v: Sequence[Scalar]) -> bool:
        return not any(self.reduce(v))

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
        field = self.field
        mod = field.modulus
        lead_inv = field.inv(residue[pivot])
        if mod is None:
            newrow = tuple(x * lead_inv for x in residue)
        else:
            newrow = tuple((x * lead_inv) % mod for x in residue)
        # Clear the new pivot column from the existing rows to stay reduced.
        updated = []
        for row in self.rows:
            c = row[pivot]
            if c:
                if mod is None:
                    row = tuple(x - c * nr for x, nr in zip(row, newrow))
                else:
                    row = tuple((x - c * nr) % mod for x, nr in zip(row, newrow))
            updated.append(row)
        at = bisect_left(self.pivots, pivot)
        rows = tuple(updated[:at]) + (newrow,) + tuple(updated[at:])
        pivots = self.pivots[:at] + (pivot,) + self.pivots[at:]
        return EchelonSubspace(self.field, self.ambient, rows, pivots), newrow

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EchelonSubspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"EchelonSubspace(dim={self.dim}, ambient={self.ambient})"

