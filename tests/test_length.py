import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import alglength.length
from alglength import (
    Algebra,
    BudgetExceeded,
    EchelonSubspace,
    GF,
    QQ,
    EmptyGeneratingSet,
    NotLocallyComplex,
    STOP_FULL_DIM,
    STOP_LC_WINDOW,
    STOP_WINDOW,
    ShapeError,
    check_lc_basis,
    compute_length,
    dims_from_charseq,
    enumerate_words_spans,
    make_example,
)
from alglength.algebra import PACK_MIN_N
from alglength.length import MAX_KMAX

from helpers import (
    assert_filtration_identity,
    find_generating_set,
    find_non_generating_set,
    initial_state,
    layer_step,
    mixed_equal_span_set,
    nested_generating_pair,
    random_genset,
    random_lc_products,
    random_products,
    random_unital_algebra,
    random_vector,
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
    ],
    ids=["compute_length", "lc_shortcut", "check_lc_basis"],
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
    # Seeded locally-complex tables: under lc_shortcut the engine forms only
    # the products whose left row joined before the right row, the reference
    # every product.  The fresh rows are those of the run without the flag.
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


def _record_calls(monkeypatch, cls, name):
    """Patch ``cls.name`` to record each call's arguments and result."""
    calls = []
    method = getattr(cls, name)

    def recording(self, *args):
        calls.append((args, method(self, *args)))
        return calls[-1][1]

    monkeypatch.setattr(cls, name, recording)
    return calls


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
    calls = _record_calls(monkeypatch, Algebra, "scaled_product")
    report = compute_length(algebra, gens)
    monkeypatch.undo()
    assert report.charseq == (0, 1, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5)
    assert run_fields(report) == run_fields(reference_run(algebra, gens))
    # Replaying the products formed: the last one fills the span, so none
    # was formed after dim n.  Steps 2-5 would form 1 + 2 + 5 + 14 in full.
    space = EchelonSubspace(algebra.field, n)
    for v in (algebra.unit(),) + gens:
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
    inserted = _record_calls(monkeypatch, EchelonSubspace, "insert")
    formed = _record_calls(monkeypatch, Algebra, "scaled_product")
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
    inserted = _record_calls(monkeypatch, EchelonSubspace, "insert")
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
            lambda field, n: EchelonSubspace(field, n).insert(cases[0][0].unit())[0],
        )
        fresh = [_report_fields(compute_length(a, gens)) for a, gens in cases]
    assert alglength.length._unit_span(field, n) is shared
    alone = [_report_fields(compute_length(a, gens)) for a, gens in cases]
    turns = [_report_fields(compute_length(a, gens)) for _ in range(2) for a, gens in cases]
    assert alone == fresh and turns == fresh + fresh
    assert fresh[0] != fresh[1]
    assert shared.dim == 1 and shared.rows == ((1,) + (0,) * (n - 1),)


def test_each_left_operand_is_the_support_of_a_fresh_row(monkeypatch):
    # On every field the engine passes scaled_product a fresh row's nonzero
    # (i, c), read when the row joined; no row of positive length is nonzero
    # at the unit coordinate, so i >= 1.
    rng = random.Random(181)
    for field, n in ((QQ, 7), (GF(101), PACK_MIN_N - 1), (GF(101), 12)):
        products = random_products(rng, n, field.modulus, density=0.6)
        algebra = Algebra.from_products(field, n, products)
        gens = (random_vector(rng, n, 101, nonzero=True),)
        calls = _record_calls(monkeypatch, Algebra, "scaled_product")
        report = compute_length(algebra, gens)
        monkeypatch.undo()
        rows = [row for a, group in report.fresh_rows if a for row in group]
        supports = [[(i, c) for i, c in enumerate(row) if c] for row in rows]
        assert calls, field
        for (terms, right), _ in calls:
            assert all(c and i >= 1 for i, c in terms)
            assert terms in supports and right in rows
        assert max(len(terms) for (terms, _), _ in calls) > 1
    # stall-chain's fresh rows are basis vectors: one term each.
    algebra, gens = make_example("stall-chain", 60, QQ)
    calls = _record_calls(monkeypatch, Algebra, "scaled_product")
    compute_length(algebra, gens)
    assert len(calls) == 3600
    assert all(len(terms) == 1 for (terms, _), _ in calls)


def test_only_nonzero_packed_products_reach_a_row_op(monkeypatch):
    # stall-chain forms every pair of fresh rows, almost all of them zero; a
    # packed zero is spanned without a call to reduce.
    algebra, gens = make_example("stall-chain", 60, GF(10007))
    formed = _record_calls(monkeypatch, Algebra, "scaled_product")
    reduced = _record_calls(monkeypatch, EchelonSubspace, "reduce")
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
    # Over a locally-complex basis f*f and f*h + h*f lie in span(1) for
    # fresh f, h of positive length, so under lc_shortcut only f*h with f's
    # row inserted before h's is formed, and the report stays the same.
    algebra, gens = make_example(family, size)
    counts, reports = [], []
    for lc in (False, True):
        calls = _record_calls(monkeypatch, Algebra, "scaled_product")
        report = compute_length(algebra, gens, lc_shortcut=lc)
        monkeypatch.undo()
        counts.append(len(calls))
        reports.append(_report_fields(report))
        order = [row for _, group in report.fresh_rows for row in group]
        supports = [[(i, c) for i, c in enumerate(row) if c] for row in order]
        pairs = [(supports.index(terms), order.index(right)) for (terms, right), _ in calls]
        if lc:
            assert all(t < s for t, s in pairs)
        else:
            assert any(t == s for t, s in pairs) and any(t > s for t, s in pairs)
    assert counts == [plain, strict]
    assert reports[0] == reports[1]
