"""Shared builders for randomized suites (seeded, deterministic), the dense
reference stepper that the event-driven engine is checked against, and the
dense-table reference for the sparse locally-complex check."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from alglength import (
    STOP_FULL_DIM,
    STOP_LC_WINDOW,
    STOP_WINDOW,
    Algebra,
    EchelonSubspace,
    GF,
    compute_length,
)
from alglength.algebra import Vector


def random_unital_algebra(rng: random.Random, n: int, p: int) -> Algebra:
    """Random GF(p) structure table with the unit law forced."""
    products = {
        (i, j): [rng.randrange(p) for _ in range(n)]
        for i in range(1, n)
        for j in range(1, n)
    }
    return Algebra.from_products(GF(p), n, products)


def assert_unit_law(algebra: Algebra) -> None:
    """e_0 * e_j = e_j = e_j * e_0 for every basis element e_j."""
    unit = algebra.unit()
    for j in range(algebra.n):
        e_j = algebra.basis_vector(j)
        assert algebra.multiply(unit, e_j) == e_j == algebra.multiply(e_j, unit), j


def random_products(rng: random.Random, n: int, p: Optional[int], density: float = 0.4):
    """Seeded non-unit products over GF(p), or over Q when ``p`` is None.

    Each cell (i, j) is present with probability ``density``, as a full
    coordinate list or as a ``{k: coeff}`` mapping in shuffled key order; both
    forms may hold zero coefficients, and a present cell may be all zero.
    """

    def scalar():
        if rng.random() < 0.5:
            return 0
        if p is None:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randrange(p)

    products = {}
    for i in range(1, n):
        for j in range(1, n):
            if rng.random() < density:
                vec = [scalar() for _ in range(n)]
                if rng.random() < 0.5:
                    items = [(k, c) for k, c in enumerate(vec) if c or rng.random() < 0.3]
                    rng.shuffle(items)
                    products[(i, j)] = dict(items)
                else:
                    products[(i, j)] = vec
    return products


def random_lc_products(rng: random.Random, n: int, density: float = 0.4):
    """Seeded products over Q that pass the locally-complex check: squares
    -1 and each present pair (i, j), i < j, with e_j e_i = -(e_i e_j)."""
    products = {(i, i): {0: -1} for i in range(1, n)}
    for i in range(1, n):
        for j in range(i + 1, n):
            if rng.random() < density:
                vec = [rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(n)]
                products[(i, j)] = vec
                products[(j, i)] = [-c for c in vec]
    return products


def dense_table(n: int, products) -> list:
    """The full n x n x n table of ``products`` with the unit law filled in."""
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        table[0][j][j] = 1
        table[j][0][j] = 1
    for (i, j), value in products.items():
        vec = [0] * n
        if isinstance(value, dict):
            for k, c in value.items():
                vec[k] = c
        else:
            vec = list(value)
        table[i][j] = vec
    return table


def dense_check_lc_basis(field, table) -> bool:
    """Reference for ``check_lc_basis`` over Q: squares -1, then every pair."""
    n = len(table)
    for i in range(1, n):
        square = table[i][i]
        if square[0] != -field.one or any(square[k] != 0 for k in range(1, n)):
            return False
    for i in range(1, n):
        for j in range(i + 1, n):
            if any(a != -b for a, b in zip(table[i][j], table[j][i])):
                return False
    return True


def random_vector(rng: random.Random, n: int, p: int, nonzero: bool = False):
    while True:
        v = tuple(rng.randrange(p) for _ in range(n))
        if not nonzero or any(v):
            return v


def random_genset(rng: random.Random, algebra: Algebra, max_size: int = 2):
    p = algebra.field.modulus
    size = rng.randint(1, max_size)
    return tuple(
        random_vector(rng, algebra.n, p, nonzero=True) for _ in range(size)
    )


def full_basis_genset(algebra: Algebra):
    return tuple(algebra.basis_vector(i) for i in range(1, algebra.n))


def find_generating_set(rng: random.Random, algebra: Algebra, tries: int = 25):
    """A random generating set; falls back to the full basis (always works)."""
    for _ in range(tries):
        gens = random_genset(rng, algebra, max_size=min(3, algebra.n))
        if compute_length(algebra, gens).is_generating:
            return gens
    return full_basis_genset(algebra)


def find_non_generating_set(rng: random.Random, algebra: Algebra, tries: int = 40):
    for _ in range(tries):
        gens = random_genset(rng, algebra, max_size=2)
        if not compute_length(algebra, gens).is_generating:
            return gens
    return None


def span_with_unit(algebra: Algebra, gens) -> EchelonSubspace:
    space, _ = EchelonSubspace.empty(algebra.field, algebra.n).insert(algebra.unit())
    for v in gens:
        space, _ = space.insert(tuple(algebra.field.coerce(x) for x in v))
    return space


def mixed_equal_span_set(rng: random.Random, algebra: Algebra, gens):
    """A different set with the same span(unit, S): invertible triangular mix
    of the non-unit echelon rows plus random unit multiples."""
    p = algebra.field.modulus
    space = span_with_unit(algebra, gens)
    nonunit = [r for r, piv in zip(space.rows, space.pivots) if piv != 0]
    unit = algebra.unit()
    out = []
    for i, base in enumerate(nonunit):
        a = rng.randrange(1, p)
        v = [a * x % p for x in base]
        for other in nonunit[:i]:
            c = rng.randrange(p)
            v = [(x + c * y) % p for x, y in zip(v, other)]
        c = rng.randrange(p)
        v = [(x + c * u) % p for x, u in zip(v, unit)]
        out.append(tuple(v))
    rng.shuffle(out)
    return tuple(out)


def nested_generating_pair(rng: random.Random, algebra: Algebra, tries: int = 40):
    """(S0, S1) both generating with span(unit,S0) strictly inside span(unit,S1)."""
    n = algebra.n
    p = algebra.field.modulus
    for _ in range(tries):
        size = rng.randint(1, 2)
        s0 = tuple(random_vector(rng, n, p, nonzero=True) for _ in range(size))
        space = span_with_unit(algebra, s0)
        if space.dim >= n:
            continue
        if not compute_length(algebra, s0).is_generating:
            continue
        while True:
            w = random_vector(rng, n, p, nonzero=True)
            if not space.contains(w):
                break
        return s0, s0 + (w,)
    return None


def assert_filtration_identity(report) -> None:
    """dims[k] must equal max{t | m_t <= k} + 1 at every recorded step."""
    m = report.charseq
    dims = report.dims
    assert all(a <= b for a, b in zip(dims, dims[1:]))
    assert dims[0] == 1 and dims[-1] <= report.n
    for k, d in enumerate(dims):
        expected = max(t for t, value in enumerate(m) if value <= k) + 1
        assert d == expected, (dims, m, k)


@dataclass
class LayerState:
    """One step of the dense reference stepper.

    ``acc`` spans L_k; ``fresh[length]`` holds the echelon-reduced basis
    increments contributed at that word length (length 0 is the unit);
    ``dims[i]`` is dim L_i for i <= k.
    """

    acc: EchelonSubspace
    fresh: dict[int, list[Vector]]
    dims: list[int]
    k: int

    def fresh_groups(self) -> tuple[tuple[int, tuple[Vector, ...]], ...]:
        return tuple(
            (length, tuple(vs))
            for length, vs in sorted(self.fresh.items())
            if vs
        )


def layer_step(algebra: Algebra, state: LayerState) -> LayerState:
    """Advance the filtration from L_k to L_{k+1}.

    Candidates are the products f*g over fresh groups of lengths a and b with
    a + b = k+1 and a, b >= 1, taken in ascending a, then in group order.
    Vectors that grow the span are recorded as the fresh group of length k+1.
    """
    target = state.k + 1
    acc = state.acc
    group: list[Vector] = []
    lengths = sorted(a for a, vs in state.fresh.items() if a >= 1 and vs)
    available = set(lengths)
    for a in lengths:
        b = target - a
        if b < 1 or b not in available:
            continue
        right = state.fresh[b]
        for f in state.fresh[a]:
            for g in right:
                acc, row = acc.insert(algebra.multiply(f, g))
                if row is not None:
                    group.append(row)
    fresh = dict(state.fresh)
    fresh[target] = group
    return LayerState(acc=acc, fresh=fresh, dims=state.dims + [acc.dim], k=target)


def initial_state(algebra: Algebra, gens) -> LayerState:
    """The state at k = 1 (k = 0 for a dimension-one algebra)."""
    acc, unit_row = EchelonSubspace.empty(algebra.field, algebra.n).insert(
        algebra.unit()
    )
    if algebra.n == 1:
        return LayerState(acc=acc, fresh={0: [unit_row]}, dims=[1], k=0)
    group1 = []
    for v in gens:
        acc, row = acc.insert(tuple(algebra.field.coerce(x) for x in v))
        if row is not None:
            group1.append(row)
    return LayerState(
        acc=acc, fresh={0: [unit_row], 1: group1}, dims=[1, acc.dim], k=1
    )


def reference_charseq(dims) -> tuple[int, ...]:
    terms = [0]
    for k in range(1, len(dims)):
        terms.extend([k] * (dims[k] - dims[k - 1]))
    return tuple(terms)


@dataclass(frozen=True)
class ReferenceRun:
    dims: tuple[int, ...]
    charseq: tuple[int, ...]
    length: Optional[int]
    stop_reason: str
    fresh_basis: tuple[tuple[int, tuple[Vector, ...]], ...]


def reference_run(
    algebra: Algebra, gens, *, lc_shortcut: bool = False, kmax: int | None = None
) -> ReferenceRun:
    """Dense reference stepper: visits every k and applies coded windows.

    With ``kmax`` None a non-generating run stops by the stabilization
    windows, coded as rules: at step 2g after the last growth g, or with
    ``lc_shortcut`` at 2g-1 when that growth was by exactly 1.  With
    ``kmax`` set the windows are off and the run steps to ``kmax`` unless
    the full dimension comes first; its stop reason is then ``"kmax"``.
    """
    n = algebra.n
    state = initial_state(algebra, gens)
    last_growth = 1 if state.k == 1 and state.dims[1] > 1 else 0
    last_increment = state.dims[-1] - 1
    length = None
    while True:
        if state.dims[-1] == n:
            length, stop = state.k, STOP_FULL_DIM
            break
        if kmax is None:
            if last_growth == 0:
                stop = STOP_WINDOW
                break
            if lc_shortcut and last_increment == 1 and state.k >= 2 * last_growth - 1:
                stop = STOP_LC_WINDOW
                break
            if state.k >= 2 * last_growth:
                stop = STOP_WINDOW
                break
        elif state.k >= kmax:
            stop = "kmax"
            break
        state = layer_step(algebra, state)
        if state.dims[-1] > state.dims[-2]:
            last_growth = state.k
            last_increment = state.dims[-1] - state.dims[-2]
    dims = tuple(state.dims)
    return ReferenceRun(
        dims=dims,
        charseq=reference_charseq(dims),
        length=length,
        stop_reason=stop,
        fresh_basis=state.fresh_groups(),
    )


def run_fields(run) -> tuple:
    """The fields on which the engine and the reference stepper must agree."""
    return (run.dims, run.charseq, run.length, run.stop_reason, run.fresh_basis)
