"""Finite-dimensional algebras given by structure-constant tables.

An algebra of dimension n is described by the products of its basis elements:
``e_i * e_j = sum_k c[i][j][k] e_k``.  Basis element 0 is always the unit:
:meth:`Algebra.from_products`, the one constructor, takes only the non-unit
products, and multiplication applies ``e_0 * e_j = e_j = e_j * e_0``
itself, so the unit law holds by construction.
Multiplication of arbitrary vectors extends the table bilinearly.  Only the
nonzero non-unit structure constants are stored, so an algebra with a few
nonzero products in a large basis costs O(n) plus their number, not n^3.

The stored constants are integers: over Q the table times the common
denominator D of its entries (1 for integer tables), over GF(p) the residues.
A span does not change when a vector is scaled, so the length engine works
on :meth:`Algebra.scaled_product`, the stored products' share of D times
the product with no field step, the word oracle on ``_product``, which adds
the unit law's share and reduces mod p, and only ``multiply`` divides by D.

Over GF(p), from dimension :data:`PACK_MIN_N` on, each cell e_i * e_j is
packed into one big integer (Kronecker substitution): coordinate k sits in a
slot of w bits at bit w * k, where w is 64 * m bits with m the fewest limbs
for which (n-1)^2 (p-1)^3 + n (p-1)^2 < 2^w.  A product of residue vectors
sums at most (n-1)^2 terms u_i v_j c, each at most (p-1)^3, into every slot,
and one big-int multiply-add per stored cell replaces a loop over its
coordinates, or, for a row that :meth:`Algebra.left_operator` turned into
packed columns, one per column.  Those columns are the blocks of one sum of
wide rows, each table row's cells end to end in one integer, built at its
first use and kept where it takes at most twice its cells' bits, so that an
operator costs one multiply-add per term of its row u.
:meth:`Algebra.scaled_product` returns that sum still packed, and
:class:`~alglength.echelon.EchelonSubspace` reduces it in the same layout:
each of its at most n row ops adds at most (p-1)^2 to a slot, so no slot
carries into the next.  Other tables keep each cell's ``(k, c)`` pairs:
over Q the operands are unbounded integers, so no slot width fits them, and
in a smaller GF(p) table a product has too few coordinates to repay the
unpack.

The "locally complex" basis predicate checks the multiplication-table face of
that class of real algebras: every non-unit basis element squares to -1 and
distinct non-unit basis elements anticommute.  It is only defined over the
rationals (standing in for the reals; the tables involved have integer
entries, and ranks over Q and R agree for rational data).  Two wider facts
are read off the table over every field: it is commutative when
e_i e_j = e_j e_i for all i, j, and quadratic when x^2 lies in span(1, x)
for every x, which the locally-complex bases satisfy.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import chain
from math import lcm

from .errors import (
    BudgetExceeded,
    EmptyGeneratingSet,
    PrimeFieldNotAllowed,
    RangeError,
    ShapeError,
    require_int,
)
from .fields import Field, Scalar, require_field

Vector = tuple  # tuple[Scalar, ...]
GenSet = tuple  # tuple[Vector, ...], nonempty
# Most bits the integral structure constants may take together: over Q the
# bits of their common denominator times their number (entries with many
# distinct denominators would otherwise each carry all of them), over GF(p)
# the bits of the packed cells (a cell spanning coordinates k0..k1 takes
# k1 - k0 + 1 slots, however few of them are nonzero).
MAX_TABLE_BITS = 1 << 27
# Smallest dimension whose GF(p) tables are packed.  Below it the unpack and
# the operand reduction of a product cost more than its loop over (k, c)
# pairs.  Measured on dense random tables, packed against pairs: GF(2) and
# GF(3) +28-30 % at n = 4, +3-22 % at n = 6, -1 to -22 % at n = 8 and
# -26-31 % at n = 10.  Larger primes gain earlier (GF(101): -25 % at n = 4).
# Echelon rows share the threshold; packing cells and rows from n = 4 on
# instead made the bench's oracle-sweep (GF(2) and GF(3) at n = 4-7) slower
# in 5 of 5 pairs of 12 s runs: median wall_s +12 %, op_p50_ms +22 %.
PACK_MIN_N = 8
# Slots of one 64-bit limb are read as machine words where the byte order
# allows it; wider slots, or a big-endian host, go through int.from_bytes.
_WORDS = sys.byteorder == "little"
# A non-unit basis name: what the file format's basis line can hold.
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _is_coordinates(v) -> bool:
    """Whether ``v`` reads as a coordinate sequence; bytes are not numbers.
    A tuple or a list, what callers pass, skips the slower ABC check."""
    return type(v) in (tuple, list) or (
        isinstance(v, Sequence) and not isinstance(v, (bytes, bytearray))
    )


def slot_limbs(n: int, p: int) -> int:
    """m, the fewest 64-bit limbs with (n-1)^2 (p-1)^3 + n (p-1)^2 < 2^(64 m)."""
    return max(1, -(-((n - 1) ** 2 * (p - 1) ** 3 + n * (p - 1) ** 2).bit_length() // 64))


def pack_limbs(field: Field, n: int) -> int:
    """Limbs per slot of the packed vectors of dimension n over ``field``; 0
    where vectors are not packed (over Q, or below :data:`PACK_MIN_N`)."""
    mod = field.modulus
    return slot_limbs(n, mod) if mod is not None and n >= PACK_MIN_N else 0


def pack_slots(slots: Sequence[int], limbs: int) -> int:
    """Nonnegative ints, each below 2^(64 limbs), as one integer, slot 0 lowest."""
    if limbs == 1 and _WORDS:
        return int.from_bytes(array("Q", slots), "little")
    return int.from_bytes(b"".join(c.to_bytes(8 * limbs, "little") for c in slots), "little")


def _pack_cell(coords: dict, limbs: int) -> tuple:
    """``(shift, packed)`` of the nonzero coordinates ``coords``, a nonempty
    ``{k: c}`` mapping in ascending k."""
    keys = list(coords)
    k0 = keys[0]
    slots = [0] * (keys[-1] + 1 - k0)
    for k, c in coords.items():
        slots[k - k0] = c
    return 64 * limbs * k0, pack_slots(slots, limbs)


def unpack_slots(x: int, count: int, limbs: int) -> list:
    """The first ``count`` slots of a packed nonnegative integer."""
    raw = x.to_bytes(8 * limbs * count, "little")
    if limbs == 1 and _WORDS:
        return memoryview(raw).cast("Q").tolist()
    size = 8 * limbs
    return [int.from_bytes(raw[s : s + size], "little") for s in range(0, len(raw), size)]


def _require_pair(i, j, n: int) -> None:
    """RangeError unless i and j are ints with 1 <= i, j < n, a non-unit cell."""
    if not (type(i) is type(j) is int and 0 < i < n and 0 < j < n):
        raise RangeError(f"product indices ({i!r},{j!r}) must be non-unit basis indices")


class Algebra:
    """Sparse integral structure constants with bilinear multiplication.

    Attributes:
        n: dimension (number of basis elements, the unit included).
        field: coefficient field.
        basis_names: n labels, "1" and then distinct :data:`NAME_RE` names.
        lc_flag: whether the basis passes :func:`check_lc_basis`, read off
            the table at construction; False over GF(p).
        commutative: whether every e_i * e_j equals e_j * e_i.
        quadratic: whether some vector t gives e_i^2 in span(1) + t_i e_i
            and e_i e_j + e_j e_i in span(1) + t_j e_i + t_i e_j for i != j,
            so that x^2 lies in span(1, x) for every x; True where
            ``lc_flag`` is (t = 0).
        denominator: D, the least common denominator of the structure
            constants over Q; 1 over GF(p).

    ``_rows[i]`` maps j >= 1 to the nonzero cell e_i * e_j; ``_rows[0]`` is
    empty.  A packed cell (``_limbs`` > 0) is ``(shift, packed)`` with
    ``packed = sum_k c[i][j][k] 2^(w (k - k0))`` and ``shift = w k0``, k0 the
    cell's lowest nonzero coordinate and w = 64 * ``_limbs`` bits, and
    ``_row_bits[i]`` sums the bits of row i's packed cells.  Otherwise a cell
    is its nonzero ``(k, c)`` pairs, k ascending, with ``c`` the int
    D * c[i][j][k].  ``_wide`` maps each packed row that a left operator has
    read to its :meth:`_wide_row`.  ``_wide``, ``lc_flag``, ``commutative``
    and ``quadratic`` are derived from ``_rows``, so ``__eq__`` ignores
    them; the three flags are public, read-only by convention, and
    ``commutative`` and ``quadratic`` choose the length engine's pairs.
    """

    __slots__ = (
        "n", "field", "basis_names", "lc_flag", "commutative", "quadratic",
        "denominator", "_rows", "_limbs", "_row_bits", "_wide",
    )

    @classmethod
    def from_products(
        cls,
        field: Field,
        n: int,
        products: Mapping[tuple[int, int], Mapping[int, Scalar] | Sequence[Scalar]],
        basis_names: Sequence[str] | None = None,
    ) -> "Algebra":
        """Build a unital algebra from the non-unit products; the rest is zero.

        ``products`` maps ``(i, j)`` with ``1 <= i, j < n`` to either a sparse
        ``{k: coeff}`` mapping or a full coordinate sequence; a sequence is
        read as the mapping ``{k: value[k]}``.  Products involving the unit
        follow from the unit law; a key with a 0 index raises RangeError, as
        does an index or coordinate index that is not an int below n.  Costs
        O(n) plus the size of ``products`` plus the packed slots, if any;
        more than :data:`MAX_TABLE_BITS` of them raises BudgetExceeded.
        ``lc_flag`` is :func:`check_lc_basis` over Q, which stops at the
        first cell that fails, e_1^2 on most tables, and False over GF(p).
        ``commutative`` and ``quadratic`` (:func:`_is_quadratic`, skipped
        where ``lc_flag`` holds) are each one pass over the stored cells
        that stops at the first that fails.
        Other ``basis_names`` than that attribute allows raise ShapeError,
        since no file could hold them, as does a ``products`` that is not a
        mapping; a ``field`` that is not a :class:`Field` raises
        FieldMismatch.
        """
        require_field(field)
        require_int(n, "dimension", 1)
        if not isinstance(products, Mapping):
            raise ShapeError(
                f"products must map index pairs (i, j) to cells, got a {type(products).__name__}"
            )
        mod = field.modulus
        limbs = pack_limbs(field, n)
        bits = 0
        row_bits = [0] * n
        rows = [{} for _ in range(n)]
        indices = set(range(n))
        coerce = field.coerce
        for key, value in products.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ShapeError(f"product key {key!r} is not an index pair (i, j)")
            i, j = key
            _require_pair(i, j, n)
            if not isinstance(value, Mapping):
                if not (_is_coordinates(value) and len(value) == n):
                    raise ShapeError(
                        f"product ({i},{j}) must be a {{k: coeff}} mapping "
                        f"or a sequence of {n} coordinates"
                    )
                value = dict(enumerate(value))
            # 2.0 and Fraction(2) are in ``indices`` too, so the types are checked apart.
            if not (indices.issuperset(value) and {int}.issuperset(map(type, value))):
                bad = next(k for k in value if type(k) is not int or k not in indices)
                raise RangeError(f"coordinate index {bad!r} out of range")
            coords = {k: c for k in sorted(value) if (c := coerce(value[k]))}
            if coords:
                rows[i][j] = _pack_cell(coords, limbs) if limbs else tuple(coords.items())
            if limbs and coords:
                cell_bits = rows[i][j][1].bit_length()
                row_bits[i] += cell_bits
                bits += cell_bits
                if bits > MAX_TABLE_BITS:
                    raise BudgetExceeded(
                        f"packed GF({mod}) cells of {64 * limbs}-bit slots exceed "
                        f"{MAX_TABLE_BITS} bits"
                    )
        denominator = 1
        if mod is None:
            constants = [c for row in rows for cell in row.values() for _, c in cell]
            denominator = lcm(*{c.denominator for c in constants})
            if denominator.bit_length() * len(constants) > MAX_TABLE_BITS:
                raise BudgetExceeded(
                    f"{len(constants)} structure constants over a common denominator "
                    f"of {denominator.bit_length()} bits exceed {MAX_TABLE_BITS} bits"
                )
            for row in rows:
                for j, cell in row.items():
                    row[j] = tuple(
                        (k, c.numerator * (denominator // c.denominator)) for k, c in cell
                    )
        if basis_names is None:
            basis_names = ("1",) + tuple(f"e{i}" for i in range(1, n))
        else:
            basis_names = tuple(basis_names)
            if len(basis_names) != n:
                raise ShapeError("basis_names length must equal the dimension")
            rest = basis_names[1:]
            valid = all(isinstance(s, str) and NAME_RE.fullmatch(s) for s in rest)
            if not (basis_names[0] == "1" and valid and len(set(rest)) == len(rest)):
                raise ShapeError(f"basis names must be '1', then distinct {NAME_RE.pattern}")
        algebra = cls.__new__(cls)
        algebra.n = n
        algebra.field = field
        algebra.basis_names = basis_names
        algebra.denominator = denominator
        algebra._rows = tuple(rows)
        algebra._limbs = limbs
        algebra._row_bits = tuple(row_bits)
        algebra._wide = {}
        algebra.lc_flag = mod is None and check_lc_basis(algebra)
        algebra.commutative = all(
            rows[j].get(i) == cell for i, row in enumerate(rows) for j, cell in row.items()
        )
        algebra.quadratic = algebra.lc_flag or _is_quadratic(algebra)
        return algebra

    def terms(self, i: int, j: int) -> list[tuple[int, Scalar]]:
        """The nonzero ``(k, c[i][j][k])`` of a non-unit e_i * e_j, k ascending.

        i and j must be ints with ``1 <= i, j < n``, as :meth:`from_products`
        keys are, or the call raises RangeError.
        """
        _require_pair(i, j, self.n)
        cell = self._cell_terms(self._rows[i].get(j, ()))
        if self.field.modulus is not None:
            return list(cell)
        return [(k, Fraction(c, self.denominator)) for k, c in cell]

    def _cell_terms(self, cell: tuple) -> Sequence[tuple[int, int]]:
        """The nonzero ``(k, c)`` of a stored cell, k ascending, c its int."""
        if not (self._limbs and cell):
            return cell
        shift, packed = cell
        width = 64 * self._limbs
        slots = unpack_slots(packed, -(-packed.bit_length() // width), self._limbs)
        return [(shift // width + t, c) for t, c in enumerate(slots) if c]

    # ----- vectors -------------------------------------------------------

    def basis_vector(self, i: int) -> Vector:
        if not (type(i) is int and 0 <= i < self.n):
            raise RangeError(f"basis index {i!r} out of range for dimension {self.n}")
        z, o = self.field.zero, self.field.one
        return tuple(o if j == i else z for j in range(self.n))

    def unit(self) -> Vector:
        return self.basis_vector(0)

    def coerce_vector(self, v: Sequence[Scalar]) -> Vector:
        if not _is_coordinates(v):
            raise ShapeError(f"a vector must be a coordinate sequence, got a {type(v).__name__}")
        if len(v) != self.n:
            raise ShapeError(f"vector of length {len(v)}, algebra dimension {self.n}")
        return tuple(self.field.coerce(x) for x in v)

    # ----- multiplication ------------------------------------------------

    def left_operator(self, row: Sequence[int]) -> list | dict:
        """u = ``row``, an int vector, as :meth:`scaled_product` takes the left
        factor of many products.

        Over packed cells that is u's left-multiplication operator, one packed
        column ``sum_i u_i packed_ij << shift_ij`` per j, u read mod p, each
        slot at most (n-1) (p-1)^2, so that a product is one multiply-add per
        column.  Its at most n - 1 columns of n slots are built only where the
        cells that they sum take as many bits; otherwise, and over other
        tables, it is u's nonzero ``(i, u_i)``.  Over the rows kept wide
        (:meth:`_wide_row`) the columns are the blocks of ``sum_i u_i W_i``,
        one multiply-add per term: a column slot stays below 2^w, so no block
        of n slots carries into the next.  Each other row adds its cells one
        by one.
        """
        if not self._limbs:
            return [(i, c) for i, c in enumerate(row) if c]
        mod = self.field.modulus
        terms = [(i, r) for i, c in enumerate(row) if c and (r := c % mod)]
        bound = (self.n - 1) * self.n * 64 * self._limbs  # one row of cells stays below it
        if len(terms) < 2 or sum(self._row_bits[i] for i, _ in terms) < bound:
            return terms
        rows, wide, acc, rest = self._rows, self._wide, 0, []
        for i, c in terms:
            w = wide.get(i)
            if w is None:
                w = wide[i] = self._wide_row(i)
            if w:
                acc += c * w
            else:
                rest.append((i, c))
        size = 8 * self._limbs * self.n  # bytes of a column block
        raw = memoryview(acc.to_bytes(size * self.n, "little"))
        cols = {
            j: col
            for j in range(1, self.n)
            if (col := int.from_bytes(raw[j * size : (j + 1) * size], "little"))
        }
        for i, c in rest:
            for j, (shift, packed) in rows[i].items():
                cols[j] = cols.get(j, 0) + c * (packed << shift)
        return cols

    def _wide_row(self, i: int) -> int:
        """W_i, packed row i's cells end to end: ``sum_j packed_ij << (shift_ij
        + j n w)``, column j in block j of n slots.  0 for an empty row, and
        for one whose W_i would take more than twice its cells' bits
        (``_row_bits[i]``), so the wide rows stay within twice the table's."""
        row = self._rows[i]
        if not row:
            return 0
        size = 8 * self._limbs * self.n  # bytes of a column block
        top = max(row)
        shift, packed = row[top]
        if 8 * size * top + shift + packed.bit_length() > 2 * self._row_bits[i]:
            return 0
        blocks = [bytes(size)] * (top + 1)
        for j, (shift, packed) in row.items():
            blocks[j] = (packed << shift).to_bytes(size, "little")
        return int.from_bytes(b"".join(blocks), "little")

    def scaled_product(self, left: Iterable | dict, v: Sequence[Scalar]) -> list | int:
        """The stored products' share of D * (u*v): not divided by D, not
        reduced mod p, and without the unit law's share, which is zero when
        u_0 = v_0 = 0, as for the length engine's fresh rows.

        ``left`` is what :meth:`left_operator` returns for u, packed columns
        to sum times v_j, or it yields the ``(i, u_i)`` of u, zeros skipped,
        so ``enumerate(u)`` will do.  Over packed cells the operands
        are residues in [0, p) and the result is one packed int whose slots,
        each at most (n-1)^2 (p-1)^3, are congruent to its coordinates mod p;
        otherwise a list of n.  Either is what
        :meth:`~alglength.echelon.EchelonSubspace.reduce` takes.
        """
        rows = self._rows
        if not self._limbs:
            out = [0] * self.n
            for i, ui in left:
                if ui:
                    for j, cell in rows[i].items():
                        vj = v[j]
                        if vj:
                            coef = ui * vj
                            for k, c in cell:
                                out[k] += coef * c
            return out
        acc = 0
        if type(left) is dict:
            for j, col in left.items():
                vj = v[j]
                if vj:
                    acc += vj * col
            return acc
        for i, ui in left:
            if ui:
                part = 0
                for j, (shift, packed) in rows[i].items():
                    vj = v[j]
                    if vj:
                        part += (vj * packed) << shift
                acc += ui * part
        return acc

    def multiply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        """Bilinear product u*v, exact, as field scalars.

        The operands are coerced as :meth:`coerce_vector` does: any ints or
        Fractions with an image in the field, n of them.
        """
        out = self._product(self.coerce_vector(u), self.coerce_vector(v))
        if self.field.modulus is not None:
            return tuple(out)
        return tuple([Fraction(x, self.denominator) for x in out])

    def _product(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
        """D * (u*v) over Q, not divided by D, and the residues of u*v in
        [0, p) over GF(p): :meth:`scaled_product` plus the unit law's share
        ``D (u_0 v + v_0 u - u_0 v_0 e_0)``.  Over Q, int operands give ints."""
        out = self.scaled_product(enumerate(u), v)
        if self._limbs:
            out = unpack_slots(out, self.n, self._limbs)
        u0, v0 = u[0], v[0]
        if u0 or v0:
            du0, dv0 = self.denominator * u0, self.denominator * v0
            out = [x + du0 * y + dv0 * z for x, y, z in zip(out, v, u)]
            out[0] -= du0 * v0
        mod = self.field.modulus
        return out if mod is None else [x % mod for x in out]

    # ----- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.denominator == other.denominator
            and self._rows == other._rows
            and self.basis_names == other.basis_names
        )

    def __repr__(self) -> str:
        return f"Algebra(dim={self.n}, field={self.field.descriptor()})"


def require_algebra(algebra) -> None:
    """Raise ShapeError unless ``algebra`` is an :class:`Algebra`."""
    if not isinstance(algebra, Algebra):
        raise ShapeError(f"expected an Algebra, got a {type(algebra).__name__}")


def check_lc_basis(algebra: Algebra) -> bool:
    """Check the locally-complex basis conditions on the given basis.

    Requires a rational coefficient field; raises PrimeFieldNotAllowed
    otherwise.  For every i >= 1 the square e_i*e_i must be -1 (that is,
    -e_0), and for i != j >= 1 the products must anticommute: every nonzero
    e_i*e_j needs e_j*e_i to be its negation, which also rejects a product
    that is zero on one side only.
    """
    require_algebra(algebra)
    if algebra.field.modulus is not None:
        raise PrimeFieldNotAllowed(
            "locally-complex is a real-algebra notion; table is over "
            + algebra.field.descriptor()
        )
    rows = algebra._rows
    minus_one = ((0, -algebra.denominator),)
    for i in range(1, algebra.n):
        row = rows[i]
        if row.get(i) != minus_one:
            return False
        for j, cell in row.items():
            if j != i and rows[j].get(i) != tuple((k, -c) for k, c in cell):
                return False
    return True


def _is_quadratic(algebra: Algebra) -> bool:
    """Whether the stored cells give :attr:`Algebra.quadratic`.

    t_i is e_i^2's coordinate at e_i, and every other non-unit coordinate of
    e_i^2 must be 0.  Each pair i != j with a stored cell is then read once,
    so the cost is the stored cells plus n for each i with t_i != 0: a pair
    with no cell has e_i e_j + e_j e_i = 0, which needs t_i = t_j = 0.
    """
    rows, n, mod = algebra._rows, algebra.n, algebra.field.modulus
    terms = algebra._cell_terms
    t = [0] * n
    for i in range(1, n):
        for k, c in terms(rows[i].get(i, ())):
            if k == i:
                t[i] = c
            elif k:
                return False
    for i in range(1, n):
        for j, cell in rows[i].items():
            back = rows[j].get(i)
            if j == i or (j < i and back):  # e_i^2, or a pair read at (j, i)
                continue
            s = {i: -t[j], j: -t[i]}
            for k, c in chain(terms(cell), terms(back or ())):
                s[k] = s.get(k, 0) + c
            s[0] = 0
            if any(x % mod for x in s.values()) if mod else any(s.values()):
                return False
    return all(
        j == i or j in rows[i] or i in rows[j]
        for i in range(1, n) if t[i]
        for j in range(1, n)
    )


def coerce_genset(algebra: Algebra, vectors: Sequence[Sequence[Scalar]]) -> GenSet:
    """Validate a generating set: nonempty, right shape, in-field coordinates.

    Returns each vector as ints on its line, the one place where generators'
    denominators are cleared: over Q times their lcm, over GF(p) its residues."""
    require_algebra(algebra)
    if not isinstance(vectors, Iterable):
        raise ShapeError(f"a generating set must be iterable, got a {type(vectors).__name__}")
    vecs = tuple(algebra.coerce_vector(v) for v in vectors)
    if not vecs:
        raise EmptyGeneratingSet("a generating set must contain at least one vector")
    if algebra.field.modulus is None:
        lcms = [lcm(*{x.denominator for x in v}) for v in vecs]
        vecs = tuple(
            tuple([x.numerator * (d // x.denominator) for x in v]) for v, d in zip(vecs, lcms)
        )
    return vecs
