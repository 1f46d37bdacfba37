"""Finite-dimensional algebras given by structure-constant tables.

An algebra of dimension n is described by the products of its basis elements:
``e_i * e_j = sum_k c[i][j][k] e_k``.  Basis element 0 is always the unit, so
a valid table satisfies ``e_0 * e_j = e_j`` and ``e_i * e_0 = e_i``.
Multiplication of arbitrary vectors extends the table bilinearly.

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
    FieldMismatch,
    NonUnital,
    NotLocallyComplex,
    PrimeFieldNotAllowed,
    RangeError,
    ShapeError,
)
from .fields import Field, Scalar

Vector = tuple  # tuple[Scalar, ...]
GenSet = tuple  # tuple[Vector, ...], nonempty


def _default_names(n: int) -> tuple[str, ...]:
    return ("1",) + tuple(f"e{i}" for i in range(1, n))


class Algebra:
    """Structure-constant table with bilinear multiplication.

    Attributes:
        n: dimension (number of basis elements, the unit included).
        field: coefficient field.
        table: ``table[i][j]`` is the product e_i * e_j as a coordinate tuple.
        basis_names: n labels; index 0 is always "1".
        lc_flag: claim that the basis passes :func:`check_lc_basis`, checked
            at construction even when ``validate`` is false.
    """

    __slots__ = ("n", "field", "table", "basis_names", "lc_flag", "_entries")

    def __init__(
        self,
        field: Field,
        table: Sequence[Sequence[Sequence[Scalar]]],
        basis_names: Sequence[str] | None = None,
        lc_flag: bool = False,
        validate: bool = True,
    ):
        n = len(table)
        if n < 1:
            raise ShapeError("an algebra needs at least the unit basis element")
        coerced = []
        for i, block in enumerate(table):
            if len(block) != n:
                raise ShapeError(f"table row {i} has {len(block)} entries, expected {n}")
            row = []
            for j, vec in enumerate(block):
                if len(vec) != n:
                    raise ShapeError(
                        f"product ({i},{j}) has {len(vec)} coordinates, expected {n}"
                    )
                row.append(tuple(field.coerce(x) for x in vec))
            coerced.append(tuple(row))
        self.n = n
        self.field = field
        self.table = tuple(coerced)
        if basis_names is None:
            basis_names = _default_names(n)
        else:
            basis_names = tuple(basis_names)
            if len(basis_names) != n:
                raise ShapeError("basis_names length must equal the dimension")
        self.basis_names = basis_names
        self.lc_flag = bool(lc_flag)
        # Sparse view for multiplication: nonzero (k, coeff) pairs per (i, j).
        self._entries = tuple(
            tuple(
                tuple((k, c) for k, c in enumerate(vec) if c)
                for vec in block
            )
            for block in self.table
        )
        if validate:
            self.ensure_unital()
        if self.lc_flag and not check_lc_basis(self):
            raise NotLocallyComplex(
                "lc flag is set but the basis fails the locally-complex check"
            )

    @classmethod
    def from_products(
        cls,
        field: Field,
        n: int,
        products: Mapping[tuple[int, int], Mapping[int, Scalar] | Sequence[Scalar]],
        basis_names: Sequence[str] | None = None,
        lc_flag: bool = False,
        validate: bool = True,
    ) -> "Algebra":
        """Build a unital table from the non-unit products; the rest is zero.

        ``products`` maps ``(i, j)`` with ``1 <= i, j < n`` to either a sparse
        ``{k: coeff}`` mapping or a full coordinate sequence.  Products
        involving the unit are implied by the unit law and must not appear.
        """
        if n < 1:
            raise RangeError(f"dimension must be >= 1, got {n}")
        zero = field.zero
        one = field.one
        table = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for j in range(n):
            table[0][j][j] = one
            table[j][0][j] = one
        table[0][0][0] = one
        for (i, j), value in products.items():
            if not (1 <= i < n and 1 <= j < n):
                raise RangeError(
                    f"product indices ({i},{j}) must be non-unit basis indices"
                )
            if isinstance(value, Mapping):
                vec = [zero] * n
                for k, c in value.items():
                    if not 0 <= k < n:
                        raise RangeError(f"coordinate index {k} out of range")
                    vec[k] = field.coerce(c)
            else:
                if len(value) != n:
                    raise ShapeError(f"product ({i},{j}) has wrong length")
                vec = [field.coerce(c) for c in value]
            table[i][j] = vec
        return cls(field, table, basis_names, lc_flag, validate)

    # ----- vectors -------------------------------------------------------

    def zero_vector(self) -> Vector:
        return (self.field.zero,) * self.n

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

    def basis_index(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise FieldMismatch(f"unknown basis name {name!r}") from None

    # ----- multiplication ------------------------------------------------

    def multiply(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
        """Bilinear product: (u*v)_k = sum_{i,j} u_i v_j c[i][j][k], exact."""
        n = self.n
        if len(u) != n or len(v) != n:
            raise ShapeError("operand length does not match the algebra dimension")
        mod = self.field.modulus
        acc = [self.field.zero] * n
        entries = self._entries
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = entries[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                cell = row[j]
                if not cell:
                    continue
                coef = ui * vj
                for k, c in cell:
                    acc[k] += coef * c
        if mod is not None:
            acc = [x % mod for x in acc]
        return tuple(acc)

    # ----- validation ----------------------------------------------------

    def ensure_unital(self) -> None:
        if not validate_unital(self):
            raise NonUnital("basis element 0 does not act as a two-sided unit")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.table == other.table
            and self.basis_names == other.basis_names
            and self.lc_flag == other.lc_flag
        )

    def __hash__(self):
        return hash((self.field, self.table))

    def __repr__(self) -> str:
        return f"Algebra(dim={self.n}, field={self.field.descriptor()})"


def validate_unital(algebra: Algebra) -> bool:
    """True iff c[0][j][k] = delta_jk and c[i][0][k] = delta_ik entrywise."""
    n = algebra.n
    table = algebra.table
    one = algebra.field.one
    for j in range(n):
        for k in range(n):
            expect = one if k == j else algebra.field.zero
            if table[0][j][k] != expect or table[j][0][k] != expect:
                return False
    return True


def check_lc_basis(algebra: Algebra) -> bool:
    """Check the locally-complex basis conditions on the given basis.

    Requires a rational coefficient field; raises PrimeFieldNotAllowed
    otherwise.  For every i >= 1 the square e_i*e_i must be -1 (that is,
    -e_0), and for i != j >= 1 the products must anticommute.
    """
    if algebra.field.modulus is not None:
        raise PrimeFieldNotAllowed(
            "locally-complex is a real-algebra notion; table is over "
            + algebra.field.descriptor()
        )
    n = algebra.n
    table = algebra.table
    minus_one = -algebra.field.one
    zero = algebra.field.zero
    for i in range(1, n):
        square = table[i][i]
        if square[0] != minus_one or any(square[k] != zero for k in range(1, n)):
            return False
    for i in range(1, n):
        for j in range(i + 1, n):
            if any(a != -b for a, b in zip(table[i][j], table[j][i])):
                return False
    return True


def coerce_genset(algebra: Algebra, vectors: Sequence[Sequence[Scalar]]) -> GenSet:
    """Validate a generating set: nonempty, right shape, in-field coordinates."""
    vecs = tuple(algebra.coerce_vector(v) for v in vectors)
    if not vecs:
        raise EmptyGeneratingSet("a generating set must contain at least one vector")
    return vecs
