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
of it is stored.  Insertion appends the residue made primitive (over Q) or 1
at its pivot (over GF(p)) by :func:`normal_row`; no older row changes.

Over GF(p) from ambient dimension :data:`~alglength.algebra.PACK_MIN_N` on,
each row is also kept packed, in the slot layout of the packed structure
constants (:mod:`alglength.algebra`), and a vector is reduced packed: the
row op is ``x += (p - c) * row`` on one integer, with c the vector's pivot
slot mod p, which keeps every slot nonnegative and clears the pivot mod p.
The vector is unpacked and reduced mod p once, at the end.  A packed vector,
such as :meth:`Algebra.scaled_product <alglength.algebra.Algebra.scaled_product>`
returns over packed cells, is reduced as it is; a packed 0 is spanned and
costs one test.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence

from .algebra import pack_limbs, pack_slots, unpack_slots
from .errors import ShapeError, require_int
from .fields import Field, Scalar, require_field

Vector = tuple  # tuple[Scalar, ...]


def normal_row(field: Field, residue: Sequence[int]) -> tuple:
    """The one int row on the line of a nonzero int vector: primitive with a
    positive lead over Q, 1 at the lead over GF(p) (for residues in [0, p)).
    A residue that is so already, as every one over GF(2) is, is kept."""
    for lead in residue:
        if lead:
            break
    mod = field.modulus
    if mod is None:
        g = gcd(*residue)
        if lead < 0:
            g = -g
        return tuple(residue) if g == 1 else tuple([x // g for x in residue])
    if lead == 1:
        return tuple(residue)
    lead_inv = field.inv(lead)
    return tuple([x * lead_inv % mod for x in residue])


class EchelonSubspace:
    """Immutable subspace of F^ambient held as integer echelon rows, in insertion order.

    Over GF(p), ``_packed`` holds the rows packed in slots of ``_limbs``
    limbs, with ``_limbs`` read off the field and ambient dimension by
    :func:`~alglength.algebra.pack_limbs`; where it is 0, ``_packed`` is empty.
    """

    __slots__ = ("field", "ambient", "rows", "pivots", "_limbs", "_packed")

    def __init__(self, field: Field, ambient: int):
        """The zero subspace; a non-Field raises FieldMismatch, a bad ambient ShapeError."""
        require_field(field)
        require_int(ambient, "ambient dimension", 0, ShapeError)
        self.field = field
        self.ambient = ambient
        self.rows = self.pivots = self._packed = ()
        self._limbs = pack_limbs(field, ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence[Scalar] | int) -> list[int]:
        """A nonzero multiple of the residue of ``v``, as ints; 0 iff v is spanned.

        ``v`` holds field scalars or ints, or is an int, a packed vector
        where rows are packed.  Over Q its denominators are cleared first.
        Over GF(p) any ints congruent to it mod p give the same result, the
        residue in [0, p): each row is 1 at its pivot, so the row op is
        ``v - c*row`` with ``c = v[pivot] mod p``, taken on ints, and the
        entries are reduced once, at the end.
        """
        limbs = self._limbs
        if not (limbs and type(v) is int) and len(v) != self.ambient:
            raise ShapeError(
                f"vector of length {len(v)} in a {self.ambient}-dimensional space"
            )
        mod = self.field.modulus
        if limbs:
            x = v if type(v) is int else pack_slots([c % mod for c in v], limbs)
            width = 64 * limbs
            mask = (1 << width) - 1
            for row, p in zip(self._packed, self.pivots):
                c = (x >> width * p & mask) % mod
                if c:
                    x += (mod - c) * row
            return [c % mod for c in unpack_slots(x, self.ambient, limbs)]
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

    def insert(self, v: Sequence[Scalar] | int) -> tuple["EchelonSubspace", Optional[tuple]]:
        """Insert ``v``; returns (new space, added row) with row None when spanned.

        ``v`` is what :meth:`reduce` takes; a packed 0 is spanned at once.
        The added row is :func:`normal_row` of the residue of ``v`` at
        insertion time.  It extends the previous basis and is what the
        length engine records as a fresh-basis vector.
        """
        if not v and type(v) is int:  # a packed 0
            return self, None
        residue = self.reduce(v)
        if not any(residue):
            return self, None
        newrow = normal_row(self.field, residue)
        pivot = next(j for j, x in enumerate(newrow) if x)
        grown = object.__new__(EchelonSubspace)  # no __init__: self's limbs carry over
        grown.field, grown.ambient, grown._limbs = self.field, self.ambient, self._limbs
        grown.rows, grown.pivots = self.rows + (newrow,), self.pivots + (pivot,)
        grown._packed = self._packed + (pack_slots(newrow, self._limbs),) if self._limbs else ()
        return grown, newrow

    def __repr__(self) -> str:
        return f"EchelonSubspace(dim={self.dim}, ambient={self.ambient})"
