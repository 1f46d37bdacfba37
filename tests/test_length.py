import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import alglength.length
from alglength import (
    Algebra,
    BudgetExceeded,
    GF,
    QQ,
    EmptyGeneratingSet,
    NotLocallyComplex,
    STOP_FULL_DIM,
    STOP_LC_WINDOW,
    STOP_WINDOW,
    ShapeError,
    brute_force_algebra_length,
    check_lc_basis,
    compute_length,
    dims_from_charseq,
    enumerate_words_spans,
    make_example,
    parse_gens,
    serialize_algebra,
    verify_sequence,
)
from alglength.algebra import PACK_MIN_N, slot_limbs
from alglength.echelon import EchelonSubspace
from alglength.length import MAX_KMAX

from helpers import (
    assert_filtration_identity,
    find_generating_set,
    find_non_generating_set,
    initial_state,
    layer_step,
    left_rows,
    mixed_equal_span_set,
    nested_generating_pair,
    random_commutative_products,
    random_genset,
    random_lc_products,
    random_products,
    random_quadratic_products,
    random_unital_algebra,
    random_vector,
    count_calls,
    record_calls,
    reference_charseq,
    reference_run,
    run_fields,
)


def test_power2_4_reference_run():
    algebra, gens = make_example("power2", 4)
    report = compute_length(algebra, gens)
    assert report.length == 4
    assert report.charseq == (0, 1, 2, 4)
    assert report.dims == (1, 2, 3, 3, 4)
    assert report.stop_reason == STOP_FULL_DIM
    assert report.is_generating
    assert_filtration_identity(report)


def test_fib_lc_5_reference_run():
    algebra, gens = make_example("fib-lc", 5)
    report = compute_length(algebra, gens)
    assert report.length == 3
    assert report.charseq == (0, 1, 1, 2, 3)
    assert report.dims == (1, 3, 4, 5)


def test_full_basis_has_length_one():
    for family, n in (("power2", 5), ("fib-lc", 6)):
        algebra, _ = make_example(family, n)
        gens = tuple(algebra.basis_vector(i) for i in range(1, algebra.n))
        report = compute_length(algebra, gens)
        assert report.length == 1
        assert report.charseq == (0,) + (1,) * (algebra.n - 1)


def test_stall_chain_plateau():
    algebra, gens = make_example("stall-chain", 3)
    report = compute_length(algebra, gens)
    assert report.charseq == (0, 1, 2, 3, 6)
    assert report.dims == (1, 2, 3, 4, 4, 4, 5)


def test_lc_gap7_dims():
    algebra, gens = make_example("lc-gap7")
    report = compute_length(algebra, gens)
    assert report.dims == (1, 4, 6, 6, 7)
    assert report.length == 4


def test_layer_step_power2():
    # The reference stepper keeps empty groups; the engine's fresh_basis
    # lists only the nonempty ones.
    algebra, gens = make_example("power2", 4)
    state = initial_state(algebra, gens)
    assert state.dims == [1, 2]
    state = layer_step(algebra, state)  # k = 2: e1*e1 = e2
    assert state.dims == [1, 2, 3]
    assert state.fresh[2] == [algebra.basis_vector(2)]
    state = layer_step(algebra, state)  # k = 3: e1*e2 and e2*e1 are zero
    assert state.dims == [1, 2, 3, 3]
    assert state.fresh[3] == []
    report = compute_length(algebra, gens)
    assert report.dims[:4] == (1, 2, 3, 3)
    groups = dict(report.fresh_basis)
    assert groups[2] == (algebra.basis_vector(2),)
    assert 3 not in groups


def test_layer_step_fib_lc_growth_by_one():
    algebra, gens = make_example("fib-lc", 5)
    state = initial_state(algebra, gens)
    state = layer_step(algebra, state)
    state = layer_step(algebra, state)  # k = 3: e2*e3 = e4 is the only growth
    assert state.dims[-1] - state.dims[-2] == 1
    assert len(dict(compute_length(algebra, gens).fresh_basis)[3]) == 1


def test_is_generating_cases():
    algebra, _ = make_example("power2", 4)
    e1 = algebra.basis_vector(1)
    e2 = algebra.basis_vector(2)
    assert compute_length(algebra, (e1,)).is_generating
    # Oracle: exhaustive word enumeration from {e2} saturates at dim 3.
    oracle_dims = enumerate_words_spans(algebra, (e2,), 8)
    assert max(oracle_dims) == 3
    assert not compute_length(algebra, (e2,)).is_generating
    assert not compute_length(algebra, (algebra.unit(),)).is_generating


def test_unit_only_degenerate_window():
    algebra, _ = make_example("power2", 4)
    report = compute_length(algebra, (algebra.unit(),))
    assert report.length is None
    assert report.stop_reason == STOP_WINDOW
    assert report.dims == (1, 1)
    assert report.charseq == (0,)


def test_charseq_partial_flag():
    # A partial sequence is one whose run does not generate.
    algebra, _ = make_example("power2", 4)
    report = compute_length(algebra, (algebra.basis_vector(2),))
    assert not report.is_generating
    assert report.charseq == (0, 1, 2)
    generating = compute_length(algebra, (algebra.basis_vector(1),))
    assert generating.is_generating
    assert generating.charseq == (0, 1, 2, 4)


def test_dims_from_charseq_examples():
    examples = (
        ((1, 2, 3, 3, 4), (0, 1, 2, 4)),
        ((1, 4, 6, 6, 7), (0, 1, 1, 1, 2, 2, 4)),
        ((1, 5), (0, 1, 1, 1, 1)),
    )
    for dims, terms in examples:
        assert reference_charseq(dims) == terms
        assert dims_from_charseq(terms, len(dims) - 1) == list(dims)
    assert dims_from_charseq((0, 1, 2, 4), 6) == [1, 2, 3, 3, 4, 4, 4]
    assert dims_from_charseq((0,), 0) == [1]


def test_dims_past_max_kmax_are_refused_at_once():
    # power2 at n = 30 has l(S) = 2^28: its dims would hold 2^28 + 1 entries.
    report = compute_length(*make_example("power2", 30))
    assert report.length == 2**28
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"kmax {2**28} exceeds the limit {MAX_KMAX}"):
        report.dims
    assert time.perf_counter() - start < 1.0
    with pytest.raises(BudgetExceeded):
        dims_from_charseq((0,), MAX_KMAX + 1)


def test_lc_shortcut_requires_lc_basis():
    algebra, gens = make_example("power2", 4)
    with pytest.raises(NotLocallyComplex):
        compute_length(algebra, gens, lc_shortcut=True)


def _count_lc_checks(monkeypatch):
    calls = []
    check = alglength.length.check_lc_basis

    def counting(algebra):
        calls.append(algebra)
        return check(algebra)

    monkeypatch.setattr(alglength.length, "check_lc_basis", counting)
    return calls


def test_lc_shortcut_trusts_the_checked_flag(monkeypatch):
    algebra, gens = make_example("fib-lc", 8)
    calls = _count_lc_checks(monkeypatch)
    assert compute_length(algebra, gens, lc_shortcut=True).length == 13
    assert calls == []


def test_lc_shortcut_checks_an_unflagged_basis(monkeypatch):
    power2, gens = make_example("power2", 4)
    assert not power2.lc_flag
    calls = _count_lc_checks(monkeypatch)
    with pytest.raises(NotLocallyComplex):
        compute_length(power2, gens, lc_shortcut=True)
    assert len(calls) == 1


def test_lc_shortcut_single_generator_stops_early():
    algebra, _ = make_example("fib-lc", 5)
    e1 = (algebra.basis_vector(1),)
    fast = compute_length(algebra, e1, lc_shortcut=True)
    assert fast.length is None
    assert fast.stop_reason == STOP_LC_WINDOW
    assert fast.dims == (1, 2)  # stops right after the +1 growth at step 1
    slow = reference_run(algebra, e1, kmax=1 << (algebra.n - 1))
    assert slow.length is None
    assert slow.dims[-1] == fast.dims[-1] == 2


def test_deep_filtrations_finish_fast():
    # Only sums of fresh lengths are visited, not every k up to l(S).
    for family, n, length in (("power2", 18, 2**16), ("fib-lc", 30, 514229)):
        algebra, gens = make_example(family, n)
        t0 = time.perf_counter()
        report = compute_length(algebra, gens)
        assert time.perf_counter() - t0 < 1.0
        assert report.length == length


def test_empty_genset_rejected():
    algebra, _ = make_example("power2", 4)
    with pytest.raises(EmptyGeneratingSet):
        compute_length(algebra, ())


@pytest.mark.parametrize(
    "not_an_algebra", [None, "x", make_example("power2", 4)], ids=["None", "str", "pair"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda a: compute_length(a, [(0, 1, 0, 0)]),
        lambda a: compute_length(a, [(0, 1, 0, 0)], lc_shortcut=True),
        check_lc_basis,
        serialize_algebra,
        lambda a: parse_gens("e1", a),
    ],
    ids=["compute_length", "lc_shortcut", "check_lc_basis", "serialize_algebra", "parse_gens"],
)
def test_what_is_not_an_algebra_is_refused(call, not_an_algebra):
    with pytest.raises(ShapeError, match="expected an Algebra, got a"):
        call(not_an_algebra)


def test_dim_one_algebra_has_length_zero():
    algebra = Algebra.from_products(QQ, 1, {})
    report = compute_length(algebra, (algebra.unit(),))
    assert report.length == 0
    assert report.charseq == (0,)


def test_length_and_is_generating_for_each_stop_reason():
    power2, _ = make_example("power2", 4)
    fib, _ = make_example("fib-lc", 5)
    unit_only = Algebra.from_products(QQ, 1, {})
    # (algebra, generator index, lc_shortcut, stop reason, generating, length)
    cases = (
        (power2, 1, False, STOP_FULL_DIM, True, 4),
        (power2, 2, False, STOP_WINDOW, False, None),
        (fib, 1, True, STOP_LC_WINDOW, False, None),
        (unit_only, 0, False, STOP_FULL_DIM, True, 0),
    )
    for algebra, i, lc, stop, generating, length in cases:
        report = compute_length(algebra, (algebra.basis_vector(i),), lc_shortcut=lc)
        assert report.stop_reason == stop
        assert report.is_generating is generating
        assert report.length == length


def test_sequence_has_n_terms_and_ends_at_length():
    rng = random.Random(101)
    for _ in range(40):
        algebra = random_unital_algebra(rng, rng.randint(2, 4), rng.choice((2, 3)))
        gens = find_generating_set(rng, algebra)
        report = compute_length(algebra, gens)
        assert report.is_generating
        assert len(report.charseq) == algebra.n
        assert report.charseq[-1] == report.length
        assert_filtration_identity(report)


def test_fresh_count_matches_multiplicity():
    for family, n in (("power2", 5), ("fib-lc", 6), ("stall-chain", 3)):
        algebra, gens = make_example(family, n)
        report = compute_length(algebra, gens)
        counts = {length: len(vs) for length, vs in report.fresh_basis}
        for k in set(report.charseq):
            assert counts.get(k, 0) == list(report.charseq).count(k)


def test_equal_spans_give_identical_results():
    rng = random.Random(103)
    done = 0
    while done < 20:
        algebra = random_unital_algebra(rng, rng.randint(2, 4), rng.choice((2, 3)))
        gens = find_generating_set(rng, algebra)
        other = mixed_equal_span_set(rng, algebra, gens)
        if not other:
            continue
        r0 = compute_length(algebra, gens)
        r1 = compute_length(algebra, other)
        assert (r0.dims, r0.charseq, r0.length) == (
            r1.dims,
            r1.charseq,
            r1.length,
        )
        done += 1


def test_nested_spans_monotone_length():
    rng = random.Random(107)
    done = 0
    while done < 10:
        algebra = random_unital_algebra(rng, rng.randint(3, 4), rng.choice((2, 3)))
        pair = nested_generating_pair(rng, algebra, tries=20)
        if pair is None:
            continue
        s0, s1 = pair
        l0 = compute_length(algebra, s0).length
        l1 = compute_length(algebra, s1).length
        assert l0 is not None and l1 is not None and l0 >= l1
        done += 1


def test_window_agrees_with_full_run():
    rng = random.Random(109)
    done = 0
    while done < 15:
        algebra = random_unital_algebra(rng, rng.randint(2, 4), rng.choice((2, 3)))
        gens = find_non_generating_set(rng, algebra)
        if gens is None:
            continue
        windowed = compute_length(algebra, gens)
        full = reference_run(algebra, gens, kmax=1 << (algebra.n - 1))
        assert windowed.length is None and full.length is None
        assert windowed.dims[-1] == full.dims[-1]
        done += 1


def test_engine_matches_word_oracle_on_random_algebras():
    rng = random.Random(113)
    for _ in range(12):
        algebra = random_unital_algebra(rng, rng.randint(2, 4), rng.choice((2, 3)))
        gens = random_genset(rng, algebra, max_size=2)
        kmax = 6
        engine = compute_length(algebra, gens).charseq
        assert enumerate_words_spans(algebra, gens, kmax) == dims_from_charseq(
            engine, kmax
        )


def test_engine_matches_reference_stepper():
    rng = random.Random(127)
    for case in range(300):
        n = 2 + case % 5
        algebra = random_unital_algebra(rng, n, (2, 3, 5)[case % 3])
        gens = random_genset(rng, algebra, max_size=rng.randint(1, 3))
        expected = run_fields(reference_run(algebra, gens))
        assert run_fields(compute_length(algebra, gens)) == expected, (case, gens)
    # Packed tables from n = 8 on, GF(2^31 - 1) in two-limb slots; sparse
    # tables give longer filtrations than dense ones.
    for case in range(90):
        n, p = 2 + case % 11, (2, 3, 2**31 - 1)[case % 3]
        products = random_products(rng, n, p, density=(0.15, 0.4, 1.0)[case // 3 % 3])
        algebra = Algebra.from_products(GF(p), n, products)
        gens = random_genset(rng, algebra, max_size=rng.randint(1, 2))
        if case % 2:
            gens = (algebra.basis_vector(1 + case % (n - 1)),)
        expected = run_fields(reference_run(algebra, gens))
        assert run_fields(compute_length(algebra, gens)) == expected, (case, gens)
    # Packed products and rows at the bench's sizes: dense tables, tables
    # whose span(e_0..e_(m-1)) is a subalgebra that holds the generators,
    # and the table whose every entry, like the generator's, is p - 1.
    for p in (101, 10007, 2**31 - 1):
        for n in (16, 22, 28, 34, 40):
            m = n // 2 - 4
            for closed, support in ((n, n), (m, m)):
                products = {
                    (i, j): [rng.randrange(p) if k < (closed if i < m and j < m else n) else 0
                             for k in range(n)]
                    for i in range(1, n)
                    for j in range(1, n)
                }
                algebra = Algebra.from_products(GF(p), n, products)
                gens = tuple(
                    tuple(rng.randrange(p) if k < support else 0 for k in range(n))
                    for _ in range(1 + n // 2 % 2)
                )
                expected = run_fields(reference_run(algebra, gens))
                got = run_fields(compute_length(algebra, gens))
                assert got == expected, (p, n, closed)
        n = 16
        algebra = Algebra.from_products(
            GF(p), n, {(i, j): [p - 1] * n for i in range(1, n) for j in range(1, n)}
        )
        gens = ((p - 1,) * n,)
        expected = run_fields(reference_run(algebra, gens))
        assert run_fields(compute_length(algebra, gens)) == expected, p
    for family, sizes in (
        ("power2", range(3, 11)),
        ("stall-chain", range(2, 9)),
        ("fib-lc", range(3, 12)),
        ("lc-gap7", (None,)),
        ("lc-gap-family", range(3, 8)),
    ):
        for size in sizes:
            algebra, gens = make_example(family, size)
            basis = [algebra.basis_vector(i) for i in range(1, algebra.n)]
            sets = [gens] + [(v,) for v in basis] + list(combinations(basis, 2))
            for lc in (False, True) if algebra.lc_flag else (False,):
                for s in sets:
                    expected = run_fields(reference_run(algebra, s, lc_shortcut=lc))
                    got = run_fields(compute_length(algebra, s, lc_shortcut=lc))
                    assert got == expected, (family, size, lc, s)
    # Seeded locally-complex tables: the engine forms only the products whose
    # left row joined before the right row, the reference every product.  The
    # flag changes only the stop label, so the fresh rows are those of the
    # run without it.
    rng = random.Random(139)
    lc_stops = 0
    for case in range(240):
        n = 2 + case % 8
        density = (0.15, 0.4, 0.7, 1.0)[case // 8 % 4]
        algebra = Algebra.from_products(QQ, n, random_lc_products(rng, n, density))
        assert algebra.lc_flag
        sets = (
            tuple(random_vector(rng, n, 3, nonzero=True) for _ in range(1 + case % 3)),
            (algebra.basis_vector(1 + case % (n - 1)),),
        )
        for gens in sets:
            fast = compute_length(algebra, gens, lc_shortcut=True)
            expected = run_fields(reference_run(algebra, gens, lc_shortcut=True))
            assert run_fields(fast) == expected, (case, gens)
            plain = compute_length(algebra, gens)
            assert (fast.charseq, fast.fresh_rows) == (plain.charseq, plain.fresh_rows)
            lc_stops += fast.stop_reason == STOP_LC_WINDOW
    assert lc_stops > 200


RATIONALS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3))


def test_engine_matches_reference_stepper_over_q_with_fractions():
    # Fractional structure constants and generators: the engine clears the
    # denominators and works on integer rows, the reference on Fractions.
    rng = random.Random(131)
    denominators = set()
    for case in range(160):
        n = 2 + case % 6
        if case % 4 == 3:
            products = random_lc_products(rng, n)
        else:
            density = rng.choice((0.3, 0.6, 1.0))
            products = {
                (i, j): [rng.choice(RATIONALS) for _ in range(n)]
                for i in range(1, n)
                for j in range(1, n)
                if rng.random() < density
            }
        algebra = Algebra.from_products(QQ, n, products)
        denominators.add(algebra.denominator)
        gens = tuple(
            tuple(rng.choice(RATIONALS) for _ in range(n))
            for _ in range(rng.randint(1, 3))
        )
        for lc in (False, True) if case % 4 == 3 else (False,):
            expected = run_fields(reference_run(algebra, gens, lc_shortcut=lc))
            got = run_fields(compute_length(algebra, gens, lc_shortcut=lc))
            assert got == expected, (case, lc, gens)
    assert {1, 3, 6} <= denominators


def test_over_q_the_spans_hold_ints_only(monkeypatch):
    # coerce_genset clears the generators' denominators, so on fractional
    # tables and generators every vector that compute_length or the word
    # oracle inserts holds ints, and the two agree.
    rng = random.Random(137)
    fractional = 0
    inserted = record_calls(monkeypatch, EchelonSubspace, "insert")
    for _ in range(24):
        n = rng.randint(2, 6)
        algebra = Algebra.from_products(QQ, n, random_products(rng, n, None))
        gens = [[rng.choice(RATIONALS) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        fractional += any(type(x) is Fraction for v in gens for x in v)
        terms = compute_length(algebra, gens).charseq
        assert enumerate_words_spans(algebra, gens, 6) == dims_from_charseq(terms, 6)
    monkeypatch.undo()
    assert fractional > 12 and len(inserted) > 100
    assert all(type(x) is int for (v,), _ in inserted for x in v)


def _assert_no_product_after_full_span(monkeypatch, field):
    rng = random.Random(137)
    n = 12
    products = {
        (i, j): [rng.randrange(101) for _ in range(n)]
        for i in range(1, n)
        for j in range(1, n)
    }
    algebra = Algebra.from_products(field, n, products)
    gens = (random_vector(rng, n, 101, nonzero=True),)
    calls = record_calls(monkeypatch, Algebra, "scaled_product")
    report = compute_length(algebra, gens)
    monkeypatch.undo()
    assert report.charseq == (0, 1, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5)
    assert run_fields(report) == run_fields(reference_run(algebra, gens))
    # Replaying the products formed: the last one fills the span, so none
    # was formed after dim n.  Steps 2-5 would form 1 + 2 + 5 + 14 in full.
    space = EchelonSubspace(algebra.field, n)
    for v in ((1,) + (0,) * (n - 1),) + gens:
        space, _ = space.insert(v)
    dims = []
    for _, w in calls:
        space, _ = space.insert(w)
        dims.append(space.dim)
    assert dims[-1] == n and dims[-2] < n
    assert len(calls) < 1 + 2 + 5 + 14


def test_no_product_is_formed_once_the_span_is_full(monkeypatch):
    # GF(101) at n = 12 packs the cells: the engine forms packed products.
    _assert_no_product_after_full_span(monkeypatch, GF(101))


def test_no_product_is_formed_once_the_span_is_full_over_q(monkeypatch):
    _assert_no_product_after_full_span(monkeypatch, QQ)


@pytest.mark.parametrize("field, n", [(QQ, 5), (GF(101), 12)])
def test_no_generator_is_inserted_once_the_span_is_full(monkeypatch, field, n):
    # Step 1 stops drawing from S as later steps stop forming products: the
    # unit's shared span and the n - 1 basis generators fill the span, so the
    # extras that follow them in S are never inserted and no product is
    # formed.  The first run builds the unit's span; later runs insert only S.
    rng = random.Random(29)
    algebra = Algebra.from_products(field, n, random_products(rng, n, field.modulus))
    basis = tuple(algebra.basis_vector(i) for i in range(1, n))
    extras = (random_vector(rng, n, 101, nonzero=True), algebra.unit())
    compute_length(algebra, basis)
    inserted = record_calls(monkeypatch, EchelonSubspace, "insert")
    formed = record_calls(monkeypatch, Algebra, "scaled_product")
    report = compute_length(algebra, basis + extras)
    monkeypatch.undo()
    assert [v for (v,), _ in inserted] == list(basis)
    assert not formed
    assert report.charseq == (0,) + (1,) * (n - 1)
    assert report.stop_reason == STOP_FULL_DIM


def test_dim_one_inserts_nothing(monkeypatch):
    # The unit's shared span is already the whole algebra.
    algebra = Algebra.from_products(QQ, 1, {})
    compute_length(algebra, [(Fraction(3),)])
    inserted = record_calls(monkeypatch, EchelonSubspace, "insert")
    report = compute_length(algebra, [(Fraction(3),), (0,)])
    monkeypatch.undo()
    assert [v for (v,), _ in inserted] == []
    assert report.charseq == (0,)
    assert report.stop_reason == STOP_FULL_DIM


def _report_fields(report):
    return report.charseq, report.stop_reason, report.fresh_rows


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=["Q", "GF2", "GF3", "GF101"])
@pytest.mark.parametrize("n", [7, 12])
def test_runs_from_the_shared_unit_span_match_runs_from_a_fresh_one(monkeypatch, field, n):
    # Every run starts from one span(e_0) per (field, n).  Runs started from
    # a fresh span give the same reports, alone and when runs on two
    # algebras of the same (field, n) take turns, and the shared span keeps
    # dim 1.  n = 12 packs the GF(p) rows.
    rng = random.Random(7 * n + (field.modulus or 0))
    p = field.modulus or 101
    cases = []
    for _ in range(2):
        algebra = Algebra.from_products(field, n, random_products(rng, n, field.modulus))
        cases.append((algebra, (random_vector(rng, n, p, nonzero=True),)))
    shared = alglength.length._unit_span(field, n)
    with monkeypatch.context() as patch:
        patch.setattr(
            alglength.length,
            "_unit_span",
            lambda field, n: EchelonSubspace(field, n).insert((1,) + (0,) * (n - 1))[0],
        )
        fresh = [_report_fields(compute_length(a, gens)) for a, gens in cases]
    assert alglength.length._unit_span(field, n) is shared
    alone = [_report_fields(compute_length(a, gens)) for a, gens in cases]
    turns = [_report_fields(compute_length(a, gens)) for _ in range(2) for a, gens in cases]
    assert alone == fresh and turns == fresh + fresh
    assert fresh[0] != fresh[1]
    assert shared.dim == 1 and shared.rows == ((1,) + (0,) * (n - 1),)


def test_each_left_operand_is_the_support_of_a_fresh_row(monkeypatch):
    # On every field the engine passes scaled_product a fresh row's
    # Algebra.left_operator: the row's nonzero (i, c), or over packed cells
    # possibly its operator, whose terms are read back from the row.  No row
    # of positive length is nonzero at the unit coordinate, so i >= 1.
    rng = random.Random(181)
    for field, n in ((QQ, 7), (GF(101), PACK_MIN_N - 1), (GF(101), 12)):
        products = random_products(rng, n, field.modulus, density=0.6)
        algebra = Algebra.from_products(field, n, products)
        gens = (random_vector(rng, n, 101, nonzero=True),)
        built = record_calls(monkeypatch, Algebra, "left_operator")
        calls = record_calls(monkeypatch, Algebra, "scaled_product")
        report = compute_length(algebra, gens)
        monkeypatch.undo()
        rows = [row for a, group in report.fresh_rows if a for row in group]
        supports = [[(i, c) for i, c in enumerate(row) if c] for row in rows]
        operands = [
            ([(i, c) for i, c in enumerate(f) if c], h) for f, h in left_rows(built, calls)
        ]
        assert calls, field
        for ((left, _), _), (terms, right) in zip(calls, operands):
            assert all(c and i >= 1 for i, c in terms)
            assert terms in supports and right in rows
            if field is QQ or n < PACK_MIN_N:  # the list paths keep the terms
                assert left == terms
        assert max(len(terms) for terms, _ in operands) > 1
    # stall-chain's fresh rows are basis vectors: one term each.
    algebra, gens = make_example("stall-chain", 60, QQ)
    calls = record_calls(monkeypatch, Algebra, "scaled_product")
    compute_length(algebra, gens)
    assert len(calls) == 3600
    assert all(len(terms) == 1 for (terms, _), _ in calls)


def _dense_case(field, n, seed):
    rng = random.Random(seed)
    products = random_products(rng, n, field.modulus, density=0.7)
    return Algebra.from_products(field, n, products), (random_vector(rng, n, 101, nonzero=True),)


@pytest.mark.parametrize(
    "case",
    [
        lambda: make_example("power2", 14),
        lambda: make_example("stall-chain", 48),
        lambda: make_example("fib-lc", 19),  # flagged: strict pairs only
        lambda: make_example("lc-gap-family", 40),
        lambda: _dense_case(QQ, 9, 311),
        lambda: _dense_case(GF(101), 12, 313),  # packed
    ],
    ids=["power2", "stall-chain", "fib-lc", "lc-gap-family", "dense-Q", "dense-GF101"],
)
def test_each_pair_is_formed_once_in_ascending_length_sum(monkeypatch, case):
    # The engine visits each pending sum of fresh lengths once, the least
    # first.  So the length sums of the products it forms never decrease,
    # and no pair of fresh rows is formed twice.  Each left operand is read
    # back to the row it was built from, each right operand is its row.
    algebra, gens = case()
    built = record_calls(monkeypatch, Algebra, "left_operator")
    calls = record_calls(monkeypatch, Algebra, "scaled_product")
    report = compute_length(algebra, gens)
    monkeypatch.undo()
    length = {row: a for a, group in report.fresh_rows for row in group}
    pairs = left_rows(built, calls)
    sums = [length[f] + length[h] for f, h in pairs]
    assert len(set(sums)) > 2
    assert sums == sorted(sums)
    assert len(set(pairs)) == len(pairs)


def test_no_operator_is_built_for_a_group_that_is_never_a_left_operand(monkeypatch):
    # A dense GF(101) table at n = 12 packs its cells.  The span fills at
    # step 5, from g1 * g4 before g4 is ever the left factor, so neither g4,
    # the largest group, nor g5, which fills the span, builds an operator.
    # Each group that is a left factor builds its operators once, in order,
    # and the generator's many terms make a packed operator.
    rng = random.Random(313)
    n = 12
    products = {
        (i, j): [rng.randrange(101) for _ in range(n)] for i in range(1, n) for j in range(1, n)
    }
    algebra = Algebra.from_products(GF(101), n, products)
    gens = (random_vector(rng, n, 101, nonzero=True),)
    built = record_calls(monkeypatch, Algebra, "left_operator")
    formed = record_calls(monkeypatch, Algebra, "scaled_product")
    report = compute_length(algebra, gens)
    monkeypatch.undo()
    assert report.charseq == (0, 1, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5)
    groups = dict(report.fresh_rows)
    assert [row for (row,), _ in built] == [*groups[1], *groups[2], *groups[3]]
    assert {f for f, _ in left_rows(built, formed)} == {*groups[1], *groups[2], *groups[3]}
    assert type(built[0][1]) is dict
    assert run_fields(report) == run_fields(reference_run(algebra, gens))


def _operators_within_the_memory_rule(monkeypatch, algebra, gens):
    """Run the engine; check that each dict operator holds at most the bits
    of the packed cells that it sums, each other left operand is its row's
    (i, c) terms, and the report is the reference stepper's.  Returns the
    recorded ``((row,), operator)`` calls and the bits a row's cells sum."""
    n = algebra.n
    width = 64 * slot_limbs(n, algebra.field.modulus)

    def summed_bits(row):  # of the packed cells e_i e_j with row[i] != 0
        cells = [algebra.terms(i, j) for i, c in enumerate(row) if c for j in range(1, n)]
        return sum(width * (t[-1][0] - t[0][0]) + t[-1][1].bit_length() for t in cells if t)

    built = record_calls(monkeypatch, Algebra, "left_operator")
    report = compute_length(algebra, gens)
    monkeypatch.undo()
    assert report.is_generating and len(built) > 10
    for (row,), left in built:
        if type(left) is dict:
            assert sum(col.bit_length() for col in left.values()) <= summed_bits(row)
        else:
            assert left == [(i, c) for i, c in enumerate(row) if c]
    assert run_fields(report) == run_fields(reference_run(algebra, gens))
    return built, summed_bits


def _sparse_packed_case(seed, terms):
    """A dim-100 GF(10007) table of 6n cells, each of ``terms`` coordinates
    drawn at random (two may coincide), and one dense generator row."""
    rng = random.Random(seed)
    n, p = 100, 10007
    products = {}
    while len(products) < 6 * n:
        cell = {rng.randrange(n): rng.randrange(1, p) for _ in range(terms)}
        products[rng.randrange(1, n), rng.randrange(1, n)] = cell
    algebra = Algebra.from_products(GF(p), n, products)
    return algebra, ((0,) + random_vector(rng, n - 1, p, nonzero=True),)


def test_operators_over_a_sparse_table_stay_within_the_memory_rule(monkeypatch):
    # Each cell is one coordinate.  Each operator built holds at most the
    # bits of the cells that it sums; a row whose packed columns would hold
    # more, as the generator's would, stays its (i, c) terms.  No table row
    # is kept wide, as each W_i would take more than twice its cells' bits.
    # The report is the reference stepper's.
    algebra, gens = _sparse_packed_case(641, 1)
    n = algebra.n
    width = 64 * slot_limbs(n, algebra.field.modulus)

    def column_bits(row):  # of the columns sum_i row_i e_i e_j, i >= 1, packed
        cols = {}
        for i, c in enumerate(row[1:], 1):
            for j in range(1, n):
                for k, x in algebra.terms(i, j):
                    cols[j] = cols.get(j, 0) + (c * x << width * k)
        return sum(col.bit_length() for col in cols.values())

    built, summed_bits = _operators_within_the_memory_rule(monkeypatch, algebra, gens)
    generator = built[0][0][0]
    assert column_bits(generator) > summed_bits(generator)
    assert type(built[0][1]) is list
    assert not any(map(algebra._wide_row, range(n)))


def test_operators_over_a_spread_table_stay_within_the_memory_rule(monkeypatch):
    # Each cell has two coordinates, anywhere in 0..99, so a cell spans
    # about a third of the slots on average and a many-term row's cells sum more bits
    # than its operator's columns can hold: the operators are built as
    # dicts, and the bound on their bits is met.
    algebra, gens = _sparse_packed_case(643, 2)
    built, _ = _operators_within_the_memory_rule(monkeypatch, algebra, gens)
    assert type(built[0][1]) is dict


def test_only_nonzero_packed_products_reach_a_row_op(monkeypatch):
    # stall-chain forms every pair of fresh rows, almost all of them zero; a
    # packed zero is spanned without a call to reduce.
    algebra, gens = make_example("stall-chain", 60, GF(10007))
    formed = record_calls(monkeypatch, Algebra, "scaled_product")
    reduced = record_calls(monkeypatch, EchelonSubspace, "reduce")
    report = compute_length(algebra, gens)
    monkeypatch.undo()
    assert report.charseq == (0, 1) + tuple(range(2, 61)) + (120,)
    nonzero = [w for _, w in formed if w]
    assert [v for (v,), _ in reduced if type(v) is int] == nonzero
    assert (len(formed), len(nonzero)) == (3600, 60)


@pytest.mark.parametrize(
    "family, size, plain, strict",
    [("fib-lc", 19, 287, 136), ("lc-gap-family", 40, 1762, 861), ("lc-gap7", None, 23, 10)],
)
def test_lc_shortcut_forms_only_the_strict_products(monkeypatch, family, size, plain, strict):
    # A locally-complex table is quadratic: f*f and f*h + h*f lie in
    # span(1) for fresh f, h of positive length.  So over Q, flagged, with
    # lc_shortcut or without, and over GF(10007), unflagged but quadratic,
    # the engine forms only f*h with f's row inserted before h's.  With its
    # symmetry flags cleared the GF(10007) table forms every pair, ``plain``
    # of them, and every report is the same.
    reports = []
    for field, lc, clear in ((QQ, False, False), (QQ, True, False),
                             (GF(10007), False, False), (GF(10007), False, True)):
        algebra, gens = make_example(family, size, field)
        assert algebra.lc_flag == (field is QQ) and algebra.quadratic
        if clear:
            algebra.commutative = algebra.quadratic = False
        built = record_calls(monkeypatch, Algebra, "left_operator")
        calls = record_calls(monkeypatch, Algebra, "scaled_product")
        report = compute_length(algebra, gens, lc_shortcut=lc)
        monkeypatch.undo()
        reports.append(report)
        order = [row for _, group in report.fresh_rows for row in group]
        pairs = [(order.index(f), order.index(h)) for f, h in left_rows(built, calls)]
        if clear:
            assert any(t == s for t, s in pairs) and any(t > s for t, s in pairs)
        else:
            assert all(t < s for t, s in pairs)
        assert len(calls) == (plain if clear else strict), (field, lc, clear)
    assert _report_fields(reports[0]) == _report_fields(reports[1])
    assert reports[0].charseq == reports[2].charseq
    assert _report_fields(reports[2]) == _report_fields(reports[3])


@pytest.mark.parametrize(
    "family, length, pairs, every",
    [("fib-lc", 8, 16324, 36193), ("power2", 32, 22157, 32615)],
)
def test_brute_force_forms_each_unordered_pair_once_on_symmetric_tables(
        monkeypatch, family, length, pairs, every):
    # fib-lc over GF(2) is quadratic (and, in characteristic 2, commutative);
    # power2 is commutative.  Brute-force l(A) over the 2,824 subspaces
    # forms ``pairs`` products, and ``every`` with the flags cleared, for the
    # same result.
    results = []
    for clear, expected in ((False, pairs), (True, every)):
        algebra, _ = make_example(family, 7, GF(2))
        assert algebra.commutative
        if clear:
            algebra.commutative = algebra.quadratic = False
        count = count_calls(monkeypatch, Algebra, "scaled_product")
        results.append(brute_force_algebra_length(algebra))
        monkeypatch.undo()
        assert count[0] == expected
    assert results[0] == results[1]
    assert (results[0].length, results[0].subspaces_tested) == (length, 2824)


@pytest.mark.parametrize(
    "family, n, field, products",
    [("fib-lc", 400, GF(10007), 79003), ("power2", 200, QQ, 19701)],
    ids=["fib-lc-400-GF10007", "power2-200-Q"],
)
def test_one_run_forms_each_unordered_pair_once(monkeypatch, family, n, field, products):
    # All pairs would be 158,402 and 39,204 products.
    algebra, gens = make_example(family, n, field)
    count = count_calls(monkeypatch, Algebra, "scaled_product")
    report = compute_length(algebra, gens)
    monkeypatch.undo()
    assert report.is_generating and len(report.charseq) == n
    assert count[0] == products


def _symmetric_products(rng, kind, n, p):
    if kind == "commutative":
        return random_commutative_products(rng, n, p)
    return random_quadratic_products(rng, n, p, density=0.3, twisted=kind == "twisted")


def _some_gens(rng, field, n, trial):
    """One or two basis vectors on even trials, random rows on odd ones."""
    if trial % 2 == 0:
        return tuple(
            tuple(int(k == i) for k in range(n))
            for i in rng.sample(range(1, n), min(n - 1, rng.randint(1, 2)))
        )
    draw = (lambda: rng.randint(-2, 2)) if field.modulus is None else (
        lambda: rng.randrange(field.modulus))
    return tuple(tuple(draw() for _ in range(n)) for _ in range(rng.randint(1, 2)))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=["Q", "GF2", "GF3", "GF101"])
@pytest.mark.parametrize("kind", ["commutative", "quadratic", "twisted"])
def test_symmetric_tables_form_each_pair_once_and_match_the_reference(
        monkeypatch, field, kind):
    # On a commutative table the engine forms f*h only where f's row joined
    # no later than h's, f*f included; on a quadratic one, with t = 0 or
    # with some t_i != 0 ("twisted"), only where f's row joined first.  Each
    # report is the reference stepper's and the one that every pair gives,
    # with the flags cleared.  From n = 8 on the GF(p) tables are packed.
    rng = random.Random(f"{kind} {field.modulus}")
    squares = 0
    for trial, n in enumerate((3, 5, 6, 7, 8, 9, 10, 10)):
        algebra = Algebra.from_products(field, n, _symmetric_products(rng, kind, n, field.modulus))
        assert algebra.commutative if kind == "commutative" else algebra.quadratic
        gens = _some_gens(rng, field, n, trial)
        built = record_calls(monkeypatch, Algebra, "left_operator")
        calls = record_calls(monkeypatch, Algebra, "scaled_product")
        report = compute_length(algebra, gens)
        monkeypatch.undo()
        order = [row for _, group in report.fresh_rows for row in group]
        pairs = [(order.index(f), order.index(h)) for f, h in left_rows(built, calls)]
        assert all(t < s if algebra.quadratic else t <= s for t, s in pairs)
        squares += sum(t == s for t, s in pairs)
        assert run_fields(report) == run_fields(reference_run(algebra, gens)), (trial, n)
        algebra.commutative = algebra.quadratic = False
        assert _report_fields(compute_length(algebra, gens)) == _report_fields(report)
    assert squares > 0 if kind == "commutative" else squares == 0


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=["Q", "GF2", "GF3", "GF101"])
def test_quadratic_tables_give_strict_chains_under_the_fibonacci_bound(field):
    # The paper proves both for locally-complex bases from f*f and
    # f*h + h*f in lower layers, which every quadratic table gives, over
    # every field: each fresh row is a product of two distinct fresh rows.
    # power2, commutative but not quadratic, needs e_1 e_1.
    rng = random.Random(field.modulus or 7)
    lengths = []
    for trial in range(60):
        n = rng.randint(3, 11)
        products = random_quadratic_products(rng, n, field.modulus, density=0.3,
                                             twisted=trial % 2 == 0)
        algebra = Algebra.from_products(field, n, products)
        report = compute_length(algebra, _some_gens(rng, field, n, 0))
        if report.is_generating:
            verdicts = verify_sequence(report.charseq, ["chain-strict", "fib"])
            assert verdicts.wellformed, report.charseq
            assert all(v.ok for v in verdicts.checks.values()), report.charseq
            lengths.append(report.length)
    assert len(lengths) >= 4 and max(lengths) >= 5
    algebra, gens = make_example("power2", 6, field)
    verdicts = verify_sequence(compute_length(algebra, gens).charseq, ["chain-strict", "fib"])
    assert not any(v.ok for v in verdicts.checks.values())
