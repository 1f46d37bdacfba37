import pytest

from alglength import (
    GF,
    QQ,
    Algebra,
    BudgetExceeded,
    FieldMismatch,
    RangeError,
    check_addition_chain,
    check_lc_basis,
    compute_length,
    enumerate_words_spans,
    fibonacci,
    make_example,
)
from alglength.families import MAX_N, _realize

from helpers import assert_unit_law


@pytest.mark.parametrize(
    "family,n,dim",
    [
        ("power2", 3, 3),
        ("power2", 7, 7),
        ("stall-chain", 2, 4),
        ("stall-chain", 5, 7),
        ("fib-lc", 3, 3),
        ("fib-lc", 9, 9),
        ("lc-gap7", None, 7),
        ("lc-gap-family", 3, 7),
        ("lc-gap-family", 6, 10),
    ],
)
def test_families_build_unital(family, n, dim):
    algebra, gens = make_example(family, n)
    assert algebra.n == dim
    assert_unit_law(algebra)
    assert gens and all(len(v) == dim for v in gens)


@pytest.mark.parametrize(
    "family,n",
    [("power2", 2), ("stall-chain", 1), ("fib-lc", 2), ("lc-gap-family", 2), ("lc-gap7", 5),
     ("power2", 3.5), ("lc-gap7", 7.0)],
)
def test_out_of_range_parameters(family, n):
    with pytest.raises(RangeError):
        make_example(family, n)


@pytest.mark.parametrize("field", [3, "rational", None])
def test_field_must_be_a_field(field):
    with pytest.raises(FieldMismatch):
        make_example("power2", 4, field)


def test_size_parameter_budget():
    with pytest.raises(BudgetExceeded):
        make_example("power2", MAX_N + 1)
    algebra, _ = make_example("power2", MAX_N)
    assert algebra.n == MAX_N


def test_unknown_family():
    with pytest.raises(RangeError, match="unknown family 'octonions'"):
        make_example("octonions", 8)
    for family in ("power2", "octonions"):  # a missing n is reported first
        with pytest.raises(RangeError, match="needs the size parameter n"):
            make_example(family)


def test_power2_lengths_attain_power_bound():
    for n in range(3, 9):
        algebra, gens = make_example("power2", n)
        report = compute_length(algebra, gens)
        assert report.length == 2 ** (n - 2)
        assert report.charseq == (0,) + tuple(2**h for h in range(n - 1))


def test_fib_lc_lengths_attain_fibonacci_bound():
    for n in range(3, 10):
        algebra, gens = make_example("fib-lc", n)
        report = compute_length(algebra, gens)
        assert report.length == fibonacci(n - 1)
        assert report.charseq == (0,) + tuple(
            fibonacci(h) for h in range(1, n)
        )


def test_fib_lc_4_cross_checked_with_oracle():
    algebra, gens = make_example("fib-lc", 4)
    report = compute_length(algebra, gens)
    assert report.length == 2 == fibonacci(3)
    assert report.charseq == (0, 1, 1, 2)
    assert enumerate_words_spans(algebra, gens, 3) == [1, 3, 4, 4]


def test_stall_chain_dims_profile():
    for n in range(2, 7):
        algebra, gens = make_example("stall-chain", n)
        report = compute_length(algebra, gens)
        dims = report.dims
        assert report.length == 2 * n
        for k in range(n + 1):
            assert dims[k] == k + 1
        assert all(dims[k] == n + 1 for k in range(n, 2 * n))
        assert dims[2 * n] == n + 2
        assert report.charseq == tuple(range(n + 1)) + (2 * n,)


def test_lc_gap_family_dims_profile():
    for n in range(3, 7):
        algebra, gens = make_example("lc-gap-family", n)
        report = compute_length(algebra, gens)
        dims = report.dims
        assert dims[n - 1] == n + 1
        assert all(dims[k] == n + 3 for k in range(n, 2 * n))
        assert dims[2 * n] == n + 4
        assert report.length == 2 * n


def test_lc_families_pass_lc_check():
    for family, n in (("fib-lc", 5), ("lc-gap7", None), ("lc-gap-family", 3)):
        algebra, _ = make_example(family, n)
        assert algebra.lc_flag and check_lc_basis(algebra)


def test_families_over_prime_fields():
    for family, n in (("power2", 4), ("stall-chain", 2), ("fib-lc", 4)):
        algebra, gens = make_example(family, n, GF(2))
        assert_unit_law(algebra)
        assert not algebra.lc_flag
        assert compute_length(algebra, gens).is_generating


def test_power2_over_gf2_same_length():
    # integer structure constants: the filtration profile survives reduction mod 2
    for n in (3, 4, 5):
        rational, gens_q = make_example("power2", n)
        modular, gens_p = make_example("power2", n, GF(2))
        assert (
            compute_length(rational, gens_q).charseq
            == compute_length(modular, gens_p).charseq
        )


def _lc(dim, pairs):
    products = {(m, m): {0: -1} for m in range(1, dim)}
    for (i, j), k in pairs:
        products[(i, j)], products[(j, i)] = {k: 1}, {k: -1}
    return products


# family -> (least n, n -> (dim, products, generator indices)), each table
# written from its rule in the families module docstring.
TABLE_RULES = {
    "power2": (3, lambda n: (n, {(k, k): {k + 1: 1} for k in range(1, n - 1)}, (1,))),
    "stall-chain": (2, lambda n: (
        n + 2,
        {(1, 1): {2: 1}, (n, n): {n + 1: 1}, **{(1, i): {i + 1: 1} for i in range(2, n)}},
        (1,),
    )),
    "fib-lc": (3, lambda n: (
        n, _lc(n, [((k, k + 1), k + 2) for k in range(1, n - 2)]), (1, 2)
    )),
    "lc-gap7": (None, lambda n: (
        7, _lc(7, [((1, 2), 4), ((1, 3), 5), ((4, 5), 6)]), (1, 2, 3)
    )),
    "lc-gap-family": (3, lambda n: (
        n + 4,
        _lc(n + 4, [((1, i), i + 1) for i in range(2, n + 1)]
            + [((2, n), n + 2), ((n + 1, n + 2), n + 3)]),
        (1, 2),
    )),
}


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["Q", "GF10007"])
@pytest.mark.parametrize("family", list(TABLE_RULES))
def test_family_tables_follow_their_rules(family, field):
    least, rule = TABLE_RULES[family]
    for n in [None] if least is None else [*range(least, 41), MAX_N]:
        dim, products, gen_indices = rule(n)
        algebra, gens = make_example(family, n, field)
        assert algebra == Algebra.from_products(field, dim, products), (family, n)
        assert gens == tuple(algebra.basis_vector(i) for i in gen_indices)


def test_a_sequence_with_no_unused_pair_is_refused():
    # (0, 1, 2, 2) is an addition chain, but 2 = 1 + 1 can name only one basis vector.
    assert check_addition_chain((0, 1, 2, 2)).ok
    for lc, h in ((False, 3), (True, 2)):  # lc has no doubling: 1 + 1 is not a pair
        with pytest.raises(RangeError, match=f"term {h} = 2 "):
            _realize((0, 1, 2, 2), lc, False)


def _doubling_sequences(length):
    """Every (0, 1, m_2, ...) of at most ``length`` terms with m_(h-1) <= m_h <= 2 m_(h-1)."""
    stack = [(0, 1)]
    while stack:
        seq = stack.pop()
        yield seq
        if len(seq) < length:
            stack += [seq + (m,) for m in range(seq[-1], 2 * seq[-1] + 1)]


def test_realized_sequences_round_trip():
    realized = 0
    for seq in _doubling_sequences(7):
        for lc in (False, True):
            for latest in (False, True):
                try:
                    products = _realize(seq, lc, latest)
                except RangeError:
                    continue
                realized += 1
                algebra = Algebra.from_products(QQ, len(seq), products)
                gens = [algebra.basis_vector(h) for h, value in enumerate(seq) if value == 1]
                report = compute_length(algebra, gens)
                assert report.is_generating and report.charseq == seq, (seq, lc, latest)
                if lc:
                    assert algebra.lc_flag, seq
                    assert compute_length(algebra, gens, lc_shortcut=True).charseq == seq
    assert realized == 584
