import random
import time
from fractions import Fraction

import pytest

from alglength import (
    Algebra,
    BruteForceResult,
    BudgetExceeded,
    GF,
    PrimeFieldRequired,
    QQ,
    RangeError,
    ShapeError,
    brute_force_algebra_length,
    compute_length,
    dims_from_charseq,
    enumerate_words_spans,
    gaussian_binomial,
    make_example,
    subspace_count,
)
import alglength.oracle
from alglength.length import MAX_KMAX
from alglength.oracle import PRODUCT_BUDGET, SUBSPACE_BUDGET, iter_rref_bases

from helpers import random_genset, random_products, random_unital_algebra, random_vector


def test_negative_indices_are_range_errors():
    algebra, gens = make_example("power2", 4)
    for call in (
        lambda: enumerate_words_spans(algebra, gens, -1),
        lambda: enumerate_words_spans(algebra, gens, 2.0),
    ):
        with pytest.raises(RangeError):
            call()


def test_words_spans_power2():
    algebra, gens = make_example("power2", 4)
    assert enumerate_words_spans(algebra, gens, 4) == [1, 2, 3, 3, 4]


def test_words_spans_kmax_zero():
    algebra, gens = make_example("stall-chain", 2)
    assert enumerate_words_spans(algebra, gens, 0) == [1]


def test_words_spans_fib_lc():
    algebra, gens = make_example("fib-lc", 5)
    assert enumerate_words_spans(algebra, gens, 3) == [1, 3, 4, 5]
    terms = compute_length(algebra, gens).charseq
    assert dims_from_charseq(terms, 3) == [1, 3, 4, 5]


def test_words_spans_over_millions_of_candidate_words():
    # Candidate words of lengths 1..kmax: 1,033,412 for one generator at
    # kmax 14, 2,350,484 for four at kmax 7 and 318,380,772 for lc-gap7's
    # three at kmax 10.  Their lines are few, and the oracle spans lines.
    power2, one = make_example("power2", 4)
    four = tuple(power2.basis_vector(i) for i in (1, 2, 3, 1))
    lc_gap7, _ = make_example("lc-gap7")
    three = tuple(lc_gap7.basis_vector(i) for i in (1, 2, 3))
    for algebra, gens, kmax in ((power2, one, 14), (power2, four, 7), (lc_gap7, three, 10)):
        terms = compute_length(algebra, gens).charseq
        assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(terms, kmax)


def test_words_spans_one_generator_at_the_largest_kmax():
    # power2 has few distinct word lines, and its span fills at length 32.
    algebra, gens = make_example("power2", 7)
    start = time.perf_counter()
    dims = enumerate_words_spans(algebra, gens, MAX_KMAX)
    assert time.perf_counter() - start < 1.0
    assert dims == dims_from_charseq(compute_length(algebra, gens).charseq, MAX_KMAX)


def test_words_budget_for_huge_kmax_is_immediate():
    # The span of e1 is full at length 4, so a kmax up to MAX_KMAX costs
    # only its dims list, and one above it is refused before any work.
    algebra, gens = make_example("power2", 4)
    for kmax in (8000, MAX_KMAX, MAX_KMAX + 1, 2**40):
        start = time.perf_counter()
        if kmax > MAX_KMAX:
            with pytest.raises(BudgetExceeded, match=f"kmax {kmax} exceeds the limit {MAX_KMAX}"):
                enumerate_words_spans(algebra, gens, kmax)
        else:
            assert enumerate_words_spans(algebra, gens, kmax) == [1, 2, 3, 3] + [4] * (kmax - 3)
        assert time.perf_counter() - start < 0.5


def test_words_budget_enforced(monkeypatch):
    # The unit's lines never die out: V_k = {1} for every k, so step k forms
    # k - 1 pairs, all memo hits but the first, one distinct product of cost
    # cells + n = 2 + 4.  So the budget is passed at the first k with
    # k (k - 1) / 2 + 6 > budget, whatever kmax is.
    algebra, _ = make_example("power2", 4)
    unit = (algebra.unit(),)
    budget = 1000
    refused_at = next(k for k in range(2, budget) if k * (k - 1) // 2 + 6 > budget)
    assert refused_at == 46
    monkeypatch.setattr(alglength.oracle, "PRODUCT_BUDGET", budget)
    assert enumerate_words_spans(algebra, unit, refused_at - 1) == [1] * refused_at
    for kmax in (refused_at, 100, MAX_KMAX):
        with pytest.raises(BudgetExceeded) as info:
            enumerate_words_spans(algebra, unit, kmax)
        assert str(info.value) == (
            f"the words of lengths 1..{refused_at} (kmax={kmax}, n=4) exceed the {budget} "
            "products budget at 1 a pair of lines and 6 (cells + n) a distinct product"
        )


def test_oracle_agrees_with_engine_on_families():
    cases = [
        ("power2", 4, 5),
        ("power2", 5, 7),
        ("stall-chain", 2, 6),
        ("stall-chain", 3, 7),
        ("fib-lc", 4, 6),
        ("fib-lc", 5, 6),
        ("lc-gap7", None, 5),
        ("lc-gap-family", 3, 7),
    ]
    for family, n, kmax in cases:
        algebra, gens = make_example(family, n)
        if len(gens) > 2 and kmax > 5:
            kmax = 5
        terms = compute_length(algebra, gens).charseq
        assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(
            terms, kmax
        ), family


def test_oracle_agrees_with_engine_on_random_tables():
    rng = random.Random(211)
    for _ in range(20):
        algebra = random_unital_algebra(rng, rng.randint(2, 4), rng.choice((2, 3)))
        gens = random_genset(rng, algebra, max_size=2)
        terms = compute_length(algebra, gens).charseq
        assert enumerate_words_spans(algebra, gens, 7) == dims_from_charseq(terms, 7)


def _count_products(monkeypatch):
    """Patch ``Algebra._product``, the word oracle's product, to count calls."""
    calls = []
    product = Algebra._product

    def counting(self, u, v):
        calls.append(None)
        return product(self, u, v)

    monkeypatch.setattr(Algebra, "_product", counting)
    return calls


def test_the_word_oracle_stops_once_the_span_is_full(monkeypatch):
    # A dense GF(3) table on which one generator's span stays at dim
    # n - 1 = 4 through step 4 and fills at step 5: the words of length 5
    # are evaluated, and no longer word at any kmax up to the budget's 13.
    rng = random.Random(86)
    algebra = random_unital_algebra(rng, 5, 3)
    gens = (random_vector(rng, 5, 3, nonzero=True),)
    terms = compute_length(algebra, gens).charseq
    assert terms == (0, 1, 2, 3, 5)
    formed = _count_products(monkeypatch)
    counts = []
    for kmax in range(14):
        start = len(formed)
        assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(terms, kmax)
        counts.append(len(formed) - start)
    assert counts[4] < counts[5]
    assert counts[5:] == [counts[5]] * 9


def test_the_word_oracle_forms_no_product_on_the_dim_one_algebra(monkeypatch):
    algebra = Algebra.from_products(GF(3), 1, {})
    formed = _count_products(monkeypatch)
    for kmax in range(14):
        assert enumerate_words_spans(algebra, [(2,)], kmax) == [1] * (kmax + 1)
    assert not formed


def _closed_algebra(rng, field, n):
    """A dense table in which span(e_0, ..., e_(n-2)) is a subalgebra.

    Over GF(p) the block is dense.  Over Q it is graded, e_i e_j in
    span(e_k : max(i, j) < k < n - 1), so that words of height n - 2 vanish
    and the word values stay few up to the largest kmax.
    """
    p = field.modulus

    def entry():
        return rng.randrange(p) if p else rng.randint(-3, 3)

    products = {}
    for i in range(1, n):
        for j in range(1, n):
            if n - 1 in (i, j):
                products[i, j] = [entry() for _ in range(n)]
            else:
                low = 0 if p else max(i, j) + 1
                products[i, j] = [entry() if low <= k < n - 1 else 0 for k in range(n)]
    return Algebra.from_products(field, n, products)


@pytest.mark.parametrize(
    "field, n, size",
    [(GF(2), 5, 1), (GF(2), 6, 2), (GF(3), 5, 1), (GF(3), 6, 2), (QQ, 5, 1), (QQ, 6, 2)],
    ids=["GF2-1", "GF2-2", "GF3-1", "GF3-2", "Q-1", "Q-2"],
)
def test_the_word_oracle_matches_the_engine_on_closed_subalgebras(field, n, size):
    # Generators in span(e_1, ..., e_(n-2)), inside the closed block, never
    # generate: their span stays at dim n - 1.  Over GF(p) their lines never
    # die out, so the oracle runs to kmax; over Q the graded block's words
    # vanish from height n - 2 on, so it stops long before MAX_KMAX.
    rng = random.Random(1009 * n + size)
    algebra = _closed_algebra(rng, field, n)
    p = field.modulus or 7
    gens = [(0,) + random_vector(rng, n - 2, p, nonzero=True) + (0,) for _ in range(size)]
    report = compute_length(algebra, gens)
    assert report.dims[-1] == n - 1
    kmax = {1: 13, 2: 9}[size] if field.modulus else MAX_KMAX
    assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(report.charseq, kmax)


def test_the_products_budget_refuses_a_large_field_at_once():
    # One generator inside a closed dim-29 block of a dim-30 GF(10007)
    # table: nearly every word line is distinct, so the products grow about
    # 3x per length and kmax 13 would take minutes.  A product costs
    # cells + n, with all 29^2 non-unit cells stored, so the budget allows
    # fewer than PRODUCT_BUDGET // 871 = 6888 of them.
    rng = random.Random(30)
    algebra = _closed_algebra(rng, GF(10007), 30)
    gens = [(0,) + random_vector(rng, 28, 10007, nonzero=True) + (0,)]
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        enumerate_words_spans(algebra, gens, 13)
    assert time.perf_counter() - start < 5.0
    assert PRODUCT_BUDGET // (29**2 + 30) == 6888
    assert str(info.value) == (
        "the words of lengths 1..10 (kmax=13, n=30) exceed the 6000000 products budget "
        "at 1 a pair of lines and 871 (cells + n) a distinct product"
    )


def test_the_products_budget_admits_a_sparse_table_at_the_largest_size():
    # power2 at n = 4096 stores 4094 cells, so a product costs 8190 and the
    # budget allows fewer than 733 of them; kmax 13 forms 15.  The other
    # families at their largest size take kmax 13 or 9 too, each well within
    # a second.  The engine has no kmax stop and would take hours here, so
    # the dims come from each family's sequence.
    cases = [
        ("power2", 4096, 13, (0, 1, 2, 4, 8)),
        ("stall-chain", 4096, 13, tuple(range(14))),
        ("fib-lc", 4096, 9, (0, 1, 1, 2, 3, 5, 8)),
        ("lc-gap-family", 4092, 9, (0, 1, 1, *range(2, 10))),
    ]
    for family, n, kmax, terms in cases:
        algebra, gens = make_example(family, n)
        start = time.perf_counter()
        assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(terms, kmax)
        assert time.perf_counter() - start < 1.0, family


@pytest.mark.parametrize(
    "family, n", [("power2", 14), ("stall-chain", 100), ("fib-lc", 14), ("lc-gap-family", 40)]
)
def test_the_word_oracle_agrees_with_the_engine_on_whole_sequences(family, n):
    # kmax = l(S): every term is checked, up to 4096 for power2 n = 14.
    algebra, gens = make_example(family, n)
    terms = compute_length(algebra, gens).charseq
    assert enumerate_words_spans(algebra, gens, terms[-1]) == dims_from_charseq(terms, terms[-1])


def test_the_word_oracle_agrees_on_fractional_tables_and_generators():
    # Over Q the oracle's lines are integer rows: reduce clears the
    # generators' denominators, and every product is D times u*v.
    rng = random.Random(4099)
    denominators = set()
    for trial in range(30):
        n = rng.randint(2, 5)
        algebra = Algebra.from_products(QQ, n, random_products(rng, n, None))
        denominators.add(algebra.denominator)
        gens = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(rng.randint(1, 2))
        ]
        terms = compute_length(algebra, gens).charseq
        assert enumerate_words_spans(algebra, gens, 8) == dims_from_charseq(terms, 8), trial
    assert len(denominators) > 2


@pytest.mark.parametrize("n, size", [(8, 1), (8, 2), (9, 1), (9, 2)])
def test_the_word_oracle_matches_the_engine_on_packed_tables(n, size):
    # GF(101) at n >= PACK_MIN_N packs the cells, so the oracle's product
    # unpacks them; every set here generates, so the oracle stops early.
    rng = random.Random(1013 * n + size)
    algebra = random_unital_algebra(rng, n, 101)
    assert algebra._limbs
    gens = [random_vector(rng, n, 101, nonzero=True) for _ in range(size)]
    report = compute_length(algebra, gens)
    assert report.is_generating
    kmax = {1: 13, 2: 9}[size]
    assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(report.charseq, kmax)


def test_gaussian_binomials():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(2, 3, 2) == gaussian_binomial(0, 1, 5) == 0  # r > m
    assert subspace_count(3, 2) == 16
    assert subspace_count(3, 3) == 28


def test_iter_rref_bases_lists_each_subspace_once():
    for p in (2, 3):
        for m in range(4):
            for r in range(m + 1):
                bases = list(iter_rref_bases(p, m, r))
                assert len(set(bases)) == len(bases) == gaussian_binomial(m, r, p)
                assert all(len(basis) == r for basis in bases)


@pytest.mark.parametrize("p, m, rank", [(2, 3, -1), (2, 2.0, 1), (True, 2, 1), (1, 2, 1)])
def test_iter_rref_bases_refuses_bad_arguments(p, m, rank):
    with pytest.raises(RangeError):
        list(iter_rref_bases(p, m, rank))


def test_brute_force_power2_gf2():
    algebra, _ = make_example("power2", 3, GF(2))
    result = brute_force_algebra_length(algebra)
    assert result.length == 2  # = 2^(3-2)
    assert any(v[1] == 1 for v in result.witness)  # witness involves e_1
    assert result.subspaces_tested == subspace_count(2, 2) - 1  # rank-0 skipped


def test_brute_force_zero_products_dim3():
    # every product of non-unit elements is zero: only L_1 = A generates
    algebra = Algebra.from_products(GF(2), 3, {})
    result = brute_force_algebra_length(algebra)
    assert result.length == 1


def test_brute_force_dim1():
    algebra = Algebra.from_products(GF(2), 1, {})
    result = brute_force_algebra_length(algebra)
    assert result == BruteForceResult(0, (algebra.unit(),), 1, 1)


def test_brute_force_dim2_always_length_one():
    rng = random.Random(223)
    for _ in range(5):
        algebra = random_unital_algebra(rng, 2, 2)
        assert brute_force_algebra_length(algebra).length == 1


def test_brute_force_requires_prime_field():
    algebra, _ = make_example("power2", 3)
    with pytest.raises(PrimeFieldRequired):
        brute_force_algebra_length(algebra)


@pytest.mark.parametrize(
    "not_an_algebra", [None, "x", make_example("power2", 3, GF(2))], ids=["None", "str", "pair"]
)
@pytest.mark.parametrize(
    "call",
    [lambda a: enumerate_words_spans(a, [(0, 1, 0)], 3), brute_force_algebra_length],
    ids=["enumerate_words_spans", "brute_force_algebra_length"],
)
def test_an_oracle_refuses_what_is_not_an_algebra(call, not_an_algebra):
    with pytest.raises(ShapeError, match="expected an Algebra, got a"):
        call(not_an_algebra)


def test_brute_force_budget():
    algebra, _ = make_example("power2", 8, GF(2))
    with pytest.raises(BudgetExceeded) as info:
        brute_force_algebra_length(algebra)
    assert subspace_count(7, 2) > SUBSPACE_BUDGET
    assert str(info.value).startswith(f"{subspace_count(7, 2)} subspaces contain the unit")


def test_brute_force_dominates_engine_lengths():
    rng = random.Random(227)
    for _ in range(8):
        algebra = random_unital_algebra(rng, 3, 2)
        result = brute_force_algebra_length(algebra)
        assert result.length <= 2  # 2^(n-2) for n = 3
        for _ in range(5):
            gens = random_genset(rng, algebra, max_size=2)
            report = compute_length(algebra, gens)
            if report.is_generating:
                assert result.length >= report.length
        witness_report = compute_length(algebra, result.witness)
        assert witness_report.length == result.length
