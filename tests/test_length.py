import random
import time
from itertools import combinations

import pytest

import alglength.length
from alglength import (
    Algebra,
    GF,
    QQ,
    EmptyGeneratingSet,
    NotLocallyComplex,
    STOP_FULL_DIM,
    STOP_LC_WINDOW,
    STOP_WINDOW,
    compute_length,
    dims_from_charseq,
    enumerate_words_spans,
    make_example,
)

from helpers import (
    assert_filtration_identity,
    find_generating_set,
    find_non_generating_set,
    initial_state,
    layer_step,
    mixed_equal_span_set,
    nested_generating_pair,
    random_genset,
    random_unital_algebra,
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
    complexes = Algebra.from_products(QQ, 2, {(1, 1): {0: -1}})
    assert not complexes.lc_flag
    calls = _count_lc_checks(monkeypatch)
    report = compute_length(complexes, (complexes.basis_vector(1),), lc_shortcut=True)
    assert report.length == 1
    assert len(calls) == 1
    power2, gens = make_example("power2", 4)
    with pytest.raises(NotLocallyComplex):
        compute_length(power2, gens, lc_shortcut=True)
    assert len(calls) == 2


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


def test_dim_one_algebra_has_length_zero():
    algebra = Algebra.from_products(QQ, 1, {})
    report = compute_length(algebra, (algebra.unit(),))
    assert report.length == 0
    assert report.charseq == (0,)


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
