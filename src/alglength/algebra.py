"""Finite-dimensional algebras given by structure-constant tables.

An algebra of dimension n is described by the products of its basis elements:
``e_i * e_j = sum_k c[i][j][k] e_k``.  Basis element 0 is always the unit:
:meth:`Algebra.from_products`, the one constructor, writes
``e_0 * e_j = e_j`` and ``e_i * e_0 = e_i`` itself and takes only the
non-unit products, so the unit law holds by construction.
Multiplication of arbitrary vectors extends the table bilinearly.  Only the
nonzero structure constants are stored, so an algebra with a few nonzero
products in a large basis costs O(n) plus their number, not n^3.

The "locally complex" basis predicate checks the multiplication-table face of
that class of real algebras: every non-unit basis element squares to -1 and
distinct non-unit basis elements anticommute.  It is only defined over the
rationals (standing in for the reals; the tables involved have integer
entries, and ranks over Q and R agree for rational data).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import (
    EmptyGeneratingSet,
    NotLocallyComplex,
    PrimeFieldNotAllowed,
    RangeError,
    ShapeError,
)
from .fields import Field, Scalar

Vector = tuple  # tuple[Scalar, ...]
GenSet = tuple  # tuple[Vector, ...], nonempty


class Algebra:
    """Sparse structure constants with bilinear multiplication.

    Attributes:
        n: dimension (number of basis elements, the unit included).
        field: coefficient field.
        basis_names: n labels; index 0 is always "1".
        lc_flag: claim that the basis passes :func:`check_lc_basis`, checked
            at construction.

    The products are stored only where nonzero: ``_rows[i]`` maps j to the
    nonzero ``(k, coeff)`` pairs of e_i * e_j, k ascending, the unit products
    included.
    """

    __slots__ = ("n", "field", "basis_names", "lc_flag", "_rows")

    @classmethod
    def from_products(
        cls,
        field: Field,
        n: int,
        products: Mapping[tuple[int, int], Mapping[int, Scalar] | Sequence[Scalar]],
        basis_names: Sequence[str] | None = None,
        lc_flag: bool = False,
    ) -> "Algebra":
        """Build a unital algebra from the non-unit products; the rest is zero.

        ``products`` maps ``(i, j)`` with ``1 <= i, j < n`` to either a sparse
        ``{k: coeff}`` mapping or a full coordinate sequence.  Products
        involving the unit are written here from the unit law; a key with a
        0 index raises RangeError.  Costs O(n) plus the size of ``products``.
        """
        if n < 1:
            raise RangeError(f"dimension must be >= 1, got {n}")
        one = field.one
        rows = [{0: ((i, one),)} for i in range(n)]
        rows[0] = {j: ((j, one),) for j in range(n)}
        indices = set(range(n))
        for key, value in products.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ShapeError(f"product key {key!r} is not an index pair (i, j)")
            i, j = key
            if not (i in indices and j in indices and i and j):
                raise RangeError(
                    f"product indices ({i!r},{j!r}) must be non-unit basis indices"
                )
            if isinstance(value, Mapping):
                if not indices.issuperset(value):
                    bad = next(k for k in value if k not in indices)
                    raise RangeError(f"coordinate index {bad!r} out of range")
                coords = {k: field.coerce(c) for k, c in value.items()}
                cell = tuple((k, coords[k]) for k in sorted(coords) if coords[k])
            else:
                if not (isinstance(value, Sequence) and len(value) == n):
                    raise ShapeError(
                        f"product ({i},{j}) must be a {{k: coeff}} mapping "
                        f"or a sequence of {n} coordinates"
                    )
                cell = tuple((k, c) for k, c in enumerate(map(field.coerce, value)) if c)
            if cell:
                rows[i][j] = cell
        if basis_names is None:
            basis_names = ("1",) + tuple(f"e{i}" for i in range(1, n))
        else:
            basis_names = tuple(basis_names)
            if len(basis_names) != n:
                raise ShapeError("basis_names length must equal the dimension")
        algebra = cls.__new__(cls)
        algebra.n = n
        algebra.field = field
        algebra.basis_names = basis_names
        algebra.lc_flag = bool(lc_flag)
        algebra._rows = tuple(rows)
        if algebra.lc_flag and not check_lc_basis(algebra):
            raise NotLocallyComplex(
                "lc flag is set but the basis fails the locally-complex check"
            )
        return algebra

    # ----- vectors -------------------------------------------------------

    def basis_vector(self, i: int) -> Vector:
        if not 0 <= i < self.n:
            raise RangeError(f"basis index {i} out of range for dimension {self.n}")
        z, o = self.field.zero, self.field.one
        return tuple(o if j == i else z for j in range(self.n))

    def unit(self) -> Vector:
        return self.basis_vector(0)

    def coerce_vector(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.n:
            raise ShapeError(f"vector of length {len(v)}, algebra dimension {self.n}")
        return tuple(self.field.coerce(x) for x in v)

    # ----- multiplication ------------------------------------------------

    def multiply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        """Bilinear product: (u*v)_k = sum_{i,j} u_i v_j c[i][j][k], exact.

        Visits only the stored products e_i * e_j with u_i nonzero.
        """
        n = self.n
        if len(u) != n or len(v) != n:
            raise ShapeError("operand length does not match the algebra dimension")
        mod = self.field.modulus
        acc = [self.field.zero] * n
        rows = self._rows
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, cell in rows[i].items():
                vj = v[j]
                if vj:
                    coef = ui * vj
                    for k, c in cell:
                        acc[k] += coef * c
        if mod is not None:
            acc = [x % mod for x in acc]
        return tuple(acc)

    # ----- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self._rows == other._rows
            and self.basis_names == other.basis_names
            and self.lc_flag == other.lc_flag
        )

    def __hash__(self):
        return hash((self.field, tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        return f"Algebra(dim={self.n}, field={self.field.descriptor()})"


def check_lc_basis(algebra: Algebra) -> bool:
    """Check the locally-complex basis conditions on the given basis.

    Requires a rational coefficient field; raises PrimeFieldNotAllowed
    otherwise.  For every i >= 1 the square e_i*e_i must be -1 (that is,
    -e_0), and for i != j >= 1 the products must anticommute: every nonzero
    e_i*e_j needs e_j*e_i to be its negation, which also rejects a product
    that is zero on one side only.
    """
    if algebra.field.modulus is not None:
        raise PrimeFieldNotAllowed(
            "locally-complex is a real-algebra notion; table is over "
            + algebra.field.descriptor()
        )
    rows = algebra._rows
    minus_one = ((0, -algebra.field.one),)
    for i in range(1, algebra.n):
        row = rows[i]
        if row.get(i) != minus_one:
            return False
        for j, cell in row.items():
            if j and j != i and rows[j].get(i) != tuple((k, -c) for k, c in cell):
                return False
    return True


def coerce_genset(algebra: Algebra, vectors: Sequence[Sequence[Scalar]]) -> GenSet:
    """Validate a generating set: nonempty, right shape, in-field coordinates."""
    vecs = tuple(algebra.coerce_vector(v) for v in vectors)
    if not vecs:
        raise EmptyGeneratingSet("a generating set must contain at least one vector")
    return vecs
