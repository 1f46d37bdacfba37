import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from alglength import (
    Algebra,
    BudgetExceeded,
    GF,
    QQ,
    FieldMismatch,
    PrimeFieldNotAllowed,
    RangeError,
    ShapeError,
    check_lc_basis,
    coerce_genset,
    compute_length,
    enumerate_words_spans,
    make_example,
    parse_algebra,
    parse_gens,
    serialize_algebra,
)
from alglength.algebra import MAX_TABLE_BITS, PACK_MIN_N, slot_limbs, unpack_slots

from helpers import (
    assert_unit_law,
    dense_check_lc_basis,
    dense_is_commutative,
    dense_is_quadratic,
    dense_table,
    random_commutative_products,
    random_lc_products,
    random_products,
    random_quadratic_products,
    random_unital_algebra,
    random_vector,
    reduced_span,
)


def test_power2_square_rule():
    algebra, _ = make_example("power2", 4)
    e1 = algebra.basis_vector(1)
    assert algebra.multiply(e1, e1) == algebra.basis_vector(2)


def test_unit_is_neutral():
    algebra, _ = make_example("power2", 4)
    e3 = algebra.basis_vector(3)
    assert algebra.multiply(algebra.unit(), e3) == e3
    assert algebra.multiply(e3, algebra.unit()) == e3


def test_fib_lc_antisymmetric_products():
    algebra, _ = make_example("fib-lc", 5)
    e1, e2, e3 = (algebra.basis_vector(i) for i in (1, 2, 3))
    assert algebra.multiply(e1, e2) == e3
    assert algebra.multiply(e2, e1) == tuple(-x for x in e3)


def test_multiply_shape_error():
    algebra, _ = make_example("power2", 4)
    with pytest.raises(ShapeError):
        algebra.multiply((Fraction(1),), algebra.unit())


@pytest.mark.parametrize(
    "call",
    [
        lambda A: compute_length(A, None),
        lambda A: compute_length(A, [5]),
        lambda A: compute_length(A, [b"\x00\x01\x00\x00"]),
        lambda A: enumerate_words_spans(A, None, 3),
        lambda A: A.multiply(None, None),
        lambda A: A.multiply({0: 1}, A.unit()),
        lambda A: parse_algebra(serialize_algebra(A).encode()),
        lambda A: parse_algebra(None),
        lambda A: parse_gens(b"e1", A),
    ],
)
def test_a_genset_that_is_not_iterable_or_a_vector_that_is_not_a_sequence(call):
    algebra, _ = make_example("power2", 4)
    with pytest.raises(ShapeError):
        call(algebra)


def test_dimension_names_and_basis_index_errors():
    for n in (0, 2.0, True):
        message = f"dimension must be an int >= 1, got {n!r}"
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            Algebra.from_products(QQ, n, {})
    with pytest.raises(ShapeError):
        Algebra.from_products(QQ, 3, {}, basis_names=("1", "a"))
    algebra, _ = make_example("power2", 4)
    for i in (4, -1, 1.0):
        with pytest.raises(RangeError):
            algebra.basis_vector(i)


def test_bilinearity_random():
    rng = random.Random(7)
    for p in (2, 5):
        algebra = random_unital_algebra(rng, 4, p)
        field = algebra.field
        for _ in range(25):
            u = random_vector(rng, 4, p)
            w = random_vector(rng, 4, p)
            v = random_vector(rng, 4, p)
            a, b = rng.randrange(p), rng.randrange(p)
            left = algebra.multiply(
                tuple((a * x + b * y) % p for x, y in zip(u, w)), v
            )
            expect = tuple(
                (a * s + b * t) % p
                for s, t in zip(algebra.multiply(u, v), algebra.multiply(w, v))
            )
            assert left == expect
            right = algebra.multiply(
                v, tuple((a * x + b * y) % p for x, y in zip(u, w))
            )
            expect = tuple(
                (a * s + b * t) % p
                for s, t in zip(algebra.multiply(v, u), algebra.multiply(v, w))
            )
            assert right == expect
            assert algebra.multiply(algebra.unit(), v) == v
            assert algebra.multiply(v, algebra.unit()) == v
            assert field.coerce(0) == 0


def test_validate_unital_families_and_corrupt_table():
    for family, n in (("power2", 5), ("stall-chain", 3), ("fib-lc", 4)):
        algebra, _ = make_example(family, n)
        assert_unit_law(algebra)
    # a unit annihilating e_1 cannot be built: products of the unit are refused
    for key in ((0, 1), (1, 0)):
        with pytest.raises(RangeError):
            Algebra.from_products(QQ, 3, {key: [0, 0, 0]})


def test_validate_unital_dim_one():
    algebra = Algebra.from_products(QQ, 1, {})
    assert algebra.multiply(algebra.unit(), algebra.unit()) == (1,)
    assert_unit_law(algebra)


def test_from_products_is_the_only_constructor():
    with pytest.raises(TypeError):
        Algebra(QQ, [[[1]]])


def test_check_lc_basis():
    for family, n in (("fib-lc", 3), ("fib-lc", 6), ("lc-gap7", None), ("lc-gap-family", 4)):
        algebra, _ = make_example(family, n)
        assert check_lc_basis(algebra)
        assert algebra.lc_flag
    power2, _ = make_example("power2", 4)
    assert not check_lc_basis(power2)
    # the complex numbers: dim 2, e_1^2 = -1
    complexes = Algebra.from_products(QQ, 2, {(1, 1): {0: -1}})
    assert check_lc_basis(complexes)


def test_check_lc_basis_rejects_prime_fields():
    algebra, _ = make_example("fib-lc", 4, GF(3))
    assert not algebra.lc_flag
    with pytest.raises(PrimeFieldNotAllowed):
        check_lc_basis(algebra)


def test_lc_flag_is_derived():
    complexes = Algebra.from_products(QQ, 2, {(1, 1): {0: -1}})
    assert complexes.lc_flag
    power2, _ = make_example("power2", 4)
    assert not power2.lc_flag
    assert not Algebra.from_products(GF(3), 2, {(1, 1): {0: -1}}).lc_flag


def test_lc_quadraticity_on_pure_imaginaries():
    # Squares of vectors with zero unit coordinate stay in span{1, x}.
    rng = random.Random(13)
    algebra, _ = make_example("fib-lc", 6)
    for _ in range(30):
        x = (Fraction(0),) + tuple(Fraction(rng.randint(-3, 3)) for _ in range(5))
        square = algebra.multiply(x, x)
        # must be scalar: the non-unit coordinates of x*x vanish
        assert all(c == 0 for c in square[1:])


def _broken(rng, products, n, forward):
    """A copy of ``products`` with one pair i != j made one-sided: a
    one-coordinate e_i e_j and no e_j e_i, where i < j if ``forward``."""
    i, j = sorted(rng.sample(range(1, n), 2), reverse=not forward)
    cell = [0] * n
    cell[rng.randrange(n)] = 1
    broken = {**products, (i, j): cell}
    broken.pop((j, i), None)
    return broken


def test_symmetry_flags_agree_with_dense_reference():
    # Each flag is read off the stored cells, packed from n = 8 on over
    # GF(p), and agrees with a dense reference on field scalars: on built
    # commutative and quadratic tables (t = 0, or some t_i != 0), on each
    # with one pair made one-sided, either way round, and on random tables.
    rng = random.Random(403)
    fields = (QQ, GF(2), GF(3), GF(101), GF(10007))
    broken = {"commutative": 0, "quadratic": 0}
    for trial in range(150):
        field, n = fields[trial % 5], rng.randint(3, 11)
        p = field.modulus
        cases = [
            ("commutative", random_commutative_products(rng, n, p)),
            ("quadratic", random_quadratic_products(rng, n, p, twisted=trial % 2 == 0)),
            (None, random_products(rng, n, p)),
        ]
        for kind, products in cases[:2]:
            cases += [(None, _broken(rng, products, n, forward)) for forward in (True, False)]
        for kind, products in cases:
            algebra = Algebra.from_products(field, n, products)
            table = dense_table(n, products)
            commutative, quadratic = dense_is_commutative(field, table), dense_is_quadratic(field, table)
            assert (algebra.commutative, algebra.quadratic) == (commutative, quadratic), trial
            if kind is not None:
                assert getattr(algebra, kind), (trial, kind)
            else:
                broken["commutative"] += not commutative
                broken["quadratic"] += not quadratic
    assert min(broken.values()) > 300


def test_symmetry_flags_on_the_families_and_dense_tables():
    for field in (QQ, GF(2), GF(10007)):
        power2, _ = make_example("power2", 12, field)
        assert (power2.commutative, power2.quadratic) == (True, False)
        fib, _ = make_example("fib-lc", 12, field)
        assert (fib.commutative, fib.quadratic) == (field == GF(2), True)
        stall, _ = make_example("stall-chain", 12, field)
        assert (stall.commutative, stall.quadratic) == (False, False)
    rng = random.Random(404)
    for field, n in ((QQ, 9), (GF(2), 6), (GF(101), 12), (GF(10007), 30)):
        products = {
            (i, j): [rng.randrange(1, 101) for _ in range(n)]
            for i in range(1, n) for j in range(1, n)
        }
        dense = Algebra.from_products(field, n, products)
        assert not dense.commutative and not dense.quadratic


@pytest.mark.parametrize("p", [2, 3])
def test_a_quadratic_table_squares_every_x_into_span_of_one_and_x(p):
    # Over GF(2) and GF(3) at n <= 5 every x is checked, unit part included.
    rng = random.Random(405 + p)
    field = GF(p)
    for trial in range(6):
        n = 3 + trial % 3
        products = random_quadratic_products(rng, n, p, twisted=trial % 2 == 0)
        algebra = Algebra.from_products(field, n, products)
        assert algebra.quadratic
        for x in product(range(p), repeat=n):
            line = reduced_span(field, n, [algebra.unit(), x])
            square = reduced_span(field, n, [algebra.unit(), x, algebra.multiply(x, x)])
            assert square.dim == line.dim, (trial, x)


def test_coerce_vector_field_mismatch():
    algebra, _ = make_example("power2", 4, GF(2))
    with pytest.raises(FieldMismatch):
        algebra.coerce_vector((Fraction(1, 2), 0, 0, 0))


def test_coerce_genset_returns_int_rows_on_the_generators_lines():
    # The one place where a generator's denominators are cleared: over Q each
    # vector comes back times the lcm of its denominators, over GF(p) as its
    # residues, as ints either way.
    algebra = Algebra.from_products(QQ, 4, {})
    gens = [
        (Fraction(1, 2), Fraction(-2, 3), 0, 5),
        (0, 0, 0, 0),
        [Fraction(3, 4), 1, 2, Fraction(-1, 6)],
        (Fraction(4, 2), 6, 0, -2),
    ]
    rows = coerce_genset(algebra, gens)
    assert rows == ((3, -4, 0, 30), (0, 0, 0, 0), (9, 12, 24, -2), (2, 6, 0, -2))
    assert all(type(x) is int for row in rows for x in row)
    prime = Algebra.from_products(GF(7), 4, {})
    assert coerce_genset(prime, gens[:1]) == ((4, 4, 0, 5),)


@pytest.mark.parametrize(
    "field, n", [(QQ, 5), (GF(7), PACK_MIN_N - 1), (GF(7), PACK_MIN_N + 1)],
    ids=["Q", "GF7", "GF7-packed"],
)
def test_terms_reads_a_non_unit_cell_or_refuses_the_indices(field, n):
    # terms(i, j) is e_i * e_j as multiply gives it, for 1 <= i, j < n, the
    # from_products keys; any other index is refused rather than read as
    # some other cell (-1, 1.0) or as an unstored unit product (0).
    rng = random.Random(n)
    algebra = Algebra.from_products(field, n, random_products(rng, n, field.modulus))
    assert bool(algebra._limbs) == (n > PACK_MIN_N)
    cells = 0
    for i in range(1, n):
        for j in range(1, n):
            product = algebra.multiply(algebra.basis_vector(i), algebra.basis_vector(j))
            assert algebra.terms(i, j) == [(k, c) for k, c in enumerate(product) if c]
            cells += any(product)
    assert cells > n
    for i, j in ((0, 1), (1, 0), (0, 0), (-1, 3), (3, -1), (1, 1.0), (True, 1), (n, 1), (1, n)):
        with pytest.raises(RangeError, match="must be non-unit basis indices"):
            algebra.terms(i, j)


def test_table_coercion_and_equality():
    a1 = Algebra.from_products(QQ, 3, {(1, 1): {2: 1}})
    a2 = Algebra.from_products(QQ, 3, {(1, 1): {2: Fraction(1)}})
    assert a1 == a2


@pytest.mark.parametrize(
    "products,error",
    [
        ({(1, 1): {"a": 1}}, RangeError),
        ({("x", 1): {2: 1}}, RangeError),
        ({(1,): {2: 1}}, ShapeError),
        ({(1, 1, 1): {2: 1}}, ShapeError),
        ({(1, 1): 5}, ShapeError),
        ({(0, 1): {1: 1}}, RangeError),
        ({(1, 0): {1: 1}}, RangeError),
        ({(1, 1): {2.0: 1}}, RangeError),
        ({(1, 1): {Fraction(2): 1}}, RangeError),
        ({(1.0, 1): {2: 1}}, RangeError),
        ({(1, Fraction(1)): {2: 1}}, RangeError),
        # A tuple stands for basis names that no file can hold, given with no
        # products and padded to the dimension with e3, e4, ...
        (("x", "a", "b"), ShapeError),
        (("1", "a", "a"), ShapeError),
        (("1", "a b", "c"), ShapeError),
        (("1", "a", "1"), ShapeError),
        ([], ShapeError),
        ([((1, 1), {2: 1})], ShapeError),
        # bytes of the length of the dimension, 5 and 9: not coordinates
        ({(1, 1): b"abcde"}, ShapeError),
        ({(1, 1): bytearray(b"abcdefghi")}, ShapeError),
    ],
)
def test_from_products_rejects_malformed_arguments(products, error):
    names = products if isinstance(products, tuple) else None
    # Over GF(101), n = 9 packs the cells and n = 5 keeps (k, c) pairs.
    for field in (QQ, GF(101)):
        for n in (5, 9):
            with pytest.raises(error):
                if names is None:
                    Algebra.from_products(field, n, products)
                else:
                    padded = names + tuple(f"e{i}" for i in range(3, n))
                    Algebra.from_products(field, n, {}, basis_names=padded)


def test_basis_names_round_trip_through_a_file():
    products = {(1, 1): {2: 1}, (2, 1): {0: Fraction(-1, 2), 1: 3}}
    for field in (QQ, GF(7)):
        algebra = Algebra.from_products(field, 3, products, basis_names=("1", "x_1", "Y2"))
        assert parse_algebra(serialize_algebra(algebra)) == algebra


@pytest.mark.parametrize("n", [5, 9])
def test_multiply_coerces_its_operands(n):
    algebra, _ = make_example("power2", n, GF(101))
    half_e1 = [0] * n
    half_e1[1] = Fraction(1, 2)
    # (e1/2)^2 = e2/4, and 4 * 76 = 1 mod 101.
    assert algebra.multiply(half_e1, half_e1) == tuple(76 if k == 2 else 0 for k in range(n))
    for field in (QQ, GF(101)):
        algebra, _ = make_example("power2", n, field)
        with pytest.raises(FieldMismatch):
            algebra.multiply(algebra.unit(), [0.5] + [0] * (n - 1))


MERSENNE31 = 2**31 - 1


def _dense_product(table, u, v, p=None):
    """u*v from the full table, reduced mod p unless p is None (over Q)."""
    n = len(table)
    out = (sum(u[i] * v[j] * table[i][j][k] for i in range(n) for j in range(n)) for k in range(n))
    return tuple(out if p is None else (x % p for x in out))


def test_slot_limbs():
    # (n-1)^2 (p-1)^3 < 2^(64 m): one limb for every bench table, two at p = 2^31 - 1.
    assert slot_limbs(1, MERSENNE31) == 1
    assert slot_limbs(40, 10007) == slot_limbs(4096, 10007) == 1
    assert slot_limbs(2, MERSENNE31) == slot_limbs(12, MERSENNE31) == 2
    assert slot_limbs(4096, 2) == 1
    # The bound covers a product's slot, at most (n-1)^2 (p-1)^3, and n row
    # ops of at most (p-1)^2 each: at n = 10, p = 610678 the product alone
    # would fit in one limb.
    assert 9**2 * 610677**3 < 2**64 <= 9**2 * 610677**3 + 10 * 610677**2
    assert slot_limbs(10, 610678) == 2
    # ... but no limb count of a prime below changes from the product's bound.
    for p in (2, 3, 5, 7, 101, 10007, 65537, 1000003, MERSENNE31):
        for n in range(PACK_MIN_N, 4101):
            product_bits = ((n - 1) ** 2 * (p - 1) ** 3).bit_length()
            assert slot_limbs(n, p) == max(1, -(-product_bits // 64)), (n, p)


def test_packed_multiply_matches_dense_reference():
    # Operands need not be residues: negative ints and ints >= p as well.
    # Over Q the constants are fractions, so D > 1.  The last operands of
    # each trial are nonzero at the unit, so the unit law adds its share.
    rng = random.Random(403)
    denominators = set()
    for trial in range(180):
        p = (2, 3, 101, 10007, MERSENNE31, None)[trial % 6]
        n = rng.randint(1, 12)
        products = random_products(rng, n, p, density=rng.choice((0.2, 0.6, 1.0)))
        algebra = Algebra.from_products(QQ if p is None else GF(p), n, products)
        denominators.add(algebra.denominator)
        table = dense_table(n, products)

        def coordinate():
            if p is None:
                return rng.choice(
                    (0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                )
            return rng.choice((0, rng.randrange(p), -rng.randrange(3 * p), p + rng.randrange(p)))

        def unit_coordinate():  # nonzero in the field
            x = coordinate()
            while not (x % p if p else x):
                x = coordinate()
            return x

        for t in range(5):
            u, v = ([coordinate() for _ in range(n)] for _ in range(2))
            if t == 4:
                u[0], v[0] = unit_coordinate(), unit_coordinate()
            assert algebra.multiply(u, v) == _dense_product(table, u, v, p), (trial, u, v)
    assert {1, 2, 3, 6} <= denominators
    # The engine's product over packed cells, n = 8-30: scaled_product of a
    # left_operator, on random tables and on tables in which the products of
    # e_1..e_(m-1), which hold the operands, lie in span(e_0..e_(m-1)).  The
    # left operand may hold non-residues, which left_operator reads mod p.
    # Both operands are 0 at the unit, as fresh rows are, so the unit law
    # adds nothing.  A row of one term is kept as its (i, c), as is a row of
    # a few terms over sparse cells; most others are packed columns.
    kinds = set()
    for trial in range(30):
        p = (101, 10007, MERSENNE31)[trial % 3]
        n = rng.randint(PACK_MIN_N, 30)
        m = rng.randint(3, n - 1) if trial % 2 else n
        density = rng.choice((0.1, 0.5, 1.0))
        products = {
            (i, j): {k: rng.randrange(p) for k in range(m if max(i, j) < m else n)}
            for i in range(1, n)
            for j in range(1, n)
            if rng.random() < density
        }
        algebra = Algebra.from_products(GF(p), n, products)
        table = dense_table(n, products)
        for t in range(4):
            support = rng.sample(range(1, m), rng.randint(1, m - 1))
            u, v = [0] * n, [0] * n
            for i in support:
                u[i] = rng.choice((rng.randrange(p), -rng.randrange(3 * p), p + rng.randrange(p)))
            for i in rng.sample(range(1, m), rng.randint(1, m - 1)):
                v[i] = rng.randrange(p)
            left = algebra.left_operator(u)
            kinds.add((type(left), len(support) > 1))
            got = unpack_slots(algebra.scaled_product(left, v), n, slot_limbs(n, p))
            assert [x % p for x in got] == list(_dense_product(table, u, v, p)), (trial, u, v)
    assert kinds == {(dict, True), (list, True), (list, False)}


def _cell_operator(algebra, u, p):
    """Per-cell reference of a packed left operator: the nonzero columns
    sum_i (u_i mod p) e_i e_j, packed, one per j."""
    width = 64 * slot_limbs(algebra.n, p)
    cols = {}
    for i in range(1, algebra.n):
        for j in range(1, algebra.n):
            for k, c in algebra.terms(i, j):
                cols[j] = cols.get(j, 0) + ((u[i] % p) * c << width * k)
    return {j: col for j, col in cols.items() if col}


@pytest.mark.parametrize("p", [2, 101, 10007, MERSENNE31])
def test_wide_row_operators_are_exact(p):
    # Each packed left operator is the per-cell sum over its rows, whether a
    # row adds its wide row W_i or its cells one by one, and its products are
    # the dense reference's.  Tables of n = 8-40: dense, closed-block (the
    # products of e_1..e_(m-1), which hold u, lie in span(e_0..e_(m-1))),
    # sparse (one-coordinate cells), and last a mixed one: dense rows (i = 0
    # mod 3), the only ones kept wide, sparse rows (i = 1 mod 3) whose cells
    # share two columns with each other and with the dense rows, and empty
    # rows (i = 2 mod 3), all in one dense u.  u holds negative ints and ints
    # >= p, which left_operator reads mod p.
    rng = random.Random(p)

    def entry():  # nonzero mod p
        x = 0
        while not x % p:
            x = rng.choice((rng.randrange(p), -rng.randrange(3 * p), p + rng.randrange(p)))
        return x

    added = set()  # whether a row was added as its W_i, per row of a dict operator
    for kind in ("dense", "closed", "sparse", "dense", "closed", "sparse", "mixed"):
        n = rng.randint(20, 40) if kind == "mixed" else rng.randint(PACK_MIN_N, 40)
        m = rng.randint(3, n - 1) if kind == "closed" else n
        products = {}
        for i in range(1, n):
            for j in range(1, n):
                top = m if max(i, j) < m else n
                if kind == "sparse" and rng.random() < 0.3:
                    products[i, j] = {rng.randrange(n): rng.randrange(1, p)}
                elif kind in ("dense", "closed") or (kind == "mixed" and i % 3 == 0):
                    products[i, j] = {k: rng.randrange(p) for k in range(top)}
            if kind == "mixed" and i % 3 == 1:
                products[i, n - 1] = {rng.randrange(n): rng.randrange(1, p)}
                products[i, n - 2] = {rng.randrange(n): rng.randrange(1, p)}
        algebra = Algebra.from_products(GF(p), n, products)
        table = dense_table(n, products)
        for t in range(3):
            support = range(1, m) if t == 0 else rng.sample(range(1, m), rng.randint(1, m - 1))
            u, v = [0] * n, [0] * n
            for i in support:
                u[i] = entry()
            for i in rng.sample(range(1, m), rng.randint(1, m - 1)):
                v[i] = rng.randrange(p)
            left = algebra.left_operator(u)
            if type(left) is dict:
                assert left == _cell_operator(algebra, u, p), (kind, n, u)
                added.update(bool(algebra._wide[i]) for i in support)
            else:
                assert left == [(i, x % p) for i, x in enumerate(u) if x % p]
            got = unpack_slots(algebra.scaled_product(left, v), n, slot_limbs(n, p))
            assert [x % p for x in got] == list(_dense_product(table, u, v, p)), (kind, n, u)
            if kind == "mixed" and t == 0:
                wide = {i for i in support if algebra._wide[i]}
                assert type(left) is dict and wide == set(range(3, n, 3))
    assert added == {True, False}


def test_the_wide_row_cache_stays_within_twice_the_cells_bits():
    # Engine runs fill the cache; each row kept wide takes at most twice its
    # cells' bits, and the algebra still equals a fresh copy of itself.
    rng = random.Random(405)
    for p, n, m in ((101, 12, 12), (10007, 24, 24), (10007, 30, 12), (MERSENNE31, 16, 16)):
        products = {
            (i, j): {k: rng.randrange(p) for k in range(m if max(i, j) < m else n)}
            for i in range(1, n)
            for j in range(1, n)
        }
        algebra = Algebra.from_products(GF(p), n, products)
        gens = tuple(tuple([0] + [rng.randrange(p) for _ in range(1, m)] + [0] * (n - m))
                     for _ in range(2))
        compute_length(algebra, gens)
        assert any(algebra._wide.values())
        for i, wide in algebra._wide.items():
            assert wide.bit_length() <= 2 * algebra._row_bits[i], (p, n, i)
        assert algebra == Algebra.from_products(GF(p), n, products)
        assert algebra == parse_algebra(serialize_algebra(algebra))


def test_packed_budget_admits_dense_tables_and_sparse_families():
    rng = random.Random(404)
    n, p = 64, 10007
    products = {
        (i, j): [rng.randrange(p) for _ in range(n)] for i in range(1, n) for j in range(1, n)
    }
    algebra = Algebra.from_products(GF(p), n, products)
    u, v = ([rng.randrange(p) for _ in range(n)] for _ in range(2))
    assert algebra.multiply(u, v) == _dense_product(dense_table(n, products), u, v, p)
    # power2 at MAX_N packs one slot per cell.  The bound is this build's
    # tracemalloc peak when cells were stored as (k, c) pairs (Python 3.11).
    make_example("power2", 8, GF(3))
    tracemalloc.start()
    try:
        make_example("power2", 4096, GF(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_445_000


def test_packed_budget_counts_slots_not_terms():
    # One {e1, e4095} cell spans 4095 slots of 64 bits, 32 KB.
    n = 4096
    cell = {1: 1, n - 1: 1}
    spread = {(1, j): cell for j in range(1, MAX_TABLE_BITS // (64 * (n - 1)) + 1)}
    Algebra.from_products(GF(101), n, spread)
    spread[(2, 1)] = cell
    with pytest.raises(BudgetExceeded):
        Algebra.from_products(GF(101), n, spread)


def test_dense_and_sparse_constructors_agree():
    # every product as a full coordinate sequence vs as a {k: coeff} mapping
    rng = random.Random(401)
    fields = (QQ, GF(2), GF(3), GF(101), GF(10007), GF(MERSENNE31))
    for trial in range(240):
        field = fields[trial % 6]
        n = rng.randint(1, 12)  # GF(p) tables are packed from n = 8 on
        if field is QQ and trial % 8 == 0:
            products = random_lc_products(rng, n)
        else:
            products = random_products(rng, n, field.modulus)
        table = dense_table(n, products)
        rows = {key: table[key[0]][key[1]] for key in products}
        sparse_rows = {
            key: {k: c for k, c in enumerate(vec) if c} for key, vec in rows.items()
        }
        dense = Algebra.from_products(field, n, rows)
        sparse = Algebra.from_products(field, n, sparse_rows)
        assert dense == sparse
        text = serialize_algebra(dense)
        assert serialize_algebra(sparse) == text
        assert parse_algebra(text) == dense
        for i in range(n):
            for j in range(n):
                product = dense.multiply(dense.basis_vector(i), dense.basis_vector(j))
                assert product == tuple(field.coerce(c) for c in table[i][j])


def _corruptions(rng, field, products, n):
    """(kind, products) copies with one pair (i, j) replaced: a product that
    is nonzero on one side only, and e_j e_i equal to e_i e_j."""
    if n < 3:
        return []
    i, j = rng.sample(range(1, n), 2)
    nonzero = [0] * n
    nonzero[rng.randrange(n)] = rng.choice((1, -2, Fraction(1, 3))) if field is QQ else 1
    one_sided = {**products, (i, j): list(nonzero), (j, i): [0] * n}
    symmetric = {**products, (i, j): list(nonzero), (j, i): list(nonzero)}
    return [("one-sided", one_sided), ("symmetric", symmetric)]


def test_sparse_checks_agree_with_dense_reference():
    rng = random.Random(402)
    for trial in range(200):
        n = rng.randint(2, 7)
        if trial % 2 == 0:
            field, products = QQ, random_lc_products(rng, n)
        elif trial % 4 == 1:
            field, products = QQ, random_products(rng, n, None)
        else:
            field = GF(rng.choice((2, 3, 101)))
            products = random_products(rng, n, field.modulus)
        cases = [("clean", products)] + _corruptions(rng, field, products, n)
        for kind, prods in cases:
            algebra = Algebra.from_products(field, n, prods)
            assert_unit_law(algebra)
            if field.modulus is None:
                lc = check_lc_basis(algebra)
                assert lc == dense_check_lc_basis(field, dense_table(n, prods)), (trial, kind)
                if trial % 2 == 0:
                    assert lc == (kind == "clean"), (trial, kind)
