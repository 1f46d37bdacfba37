"""Independent brute-force checkers for the length engine.

``enumerate_words_spans`` evaluates every fully bracketed word over every
letter assignment, level by level, and records the span dimensions.  It
never applies the engine's fresh-pair candidate restriction, so it serves as
an oracle for it.  A span depends only on the values spanned, so each length
keeps the set of its words' values: a word of length k is the product of a
value of length a and one of length k - a, so words with equal values add
one product, not one each.  Products are memoized on operand values, since
a value can occur at several lengths.  The enumeration stops once the span is
the whole algebra: L_(k-1) <= L_k <= A, so a full span stays full.  That rule
uses only the monotone chain and dim L_k <= n, not the engine's candidate
restriction or its stopping windows, so the oracle still checks both, on every
word up to the length at which the span fills.

``brute_force_algebra_length`` computes l(A) over a prime field by exhausting
subspaces.  Since the length of S depends on S only through span(unit, S),
it suffices to enumerate the subspaces V containing the unit, take a basis
of V extended from the unit, and drop the unit; the maximum length over the
generating ones is l(A).  Subspaces of the quotient by the unit are listed
as reduced-echelon bases, which enumerates each V exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .algebra import Algebra, GenSet, Vector, coerce_genset, require_algebra
from .echelon import EchelonSubspace
from .errors import BudgetExceeded, PrimeFieldRequired, require_int
from .length import compute_length

# Most subspaces brute_force_algebra_length enumerates.
SUBSPACE_BUDGET = 4096
# Most candidate words enumerate_words_spans evaluates, over all k <= kmax.
WORD_BUDGET = 1_000_000
# Most distinct products enumerate_words_spans forms, times n^2, about the row
# ops that one product and its reduce cost.  Over a large field nearly every
# word value is distinct, so products, not words, bound the time.  Over twice
# what any test, bench operation or CLI comparison run uses (23,620 products
# at n = 6); at n = 30 it allows 2,222 products, under a second.
PRODUCT_BUDGET = 2_000_000


def catalan(m: int) -> int:
    require_int(m, "Catalan index", 0)
    return comb(2 * m, m) // (m + 1)


def bracketed_word_count(num_letters: int, k: int) -> int:
    """Number of bracketed words of length exactly k over num_letters letters."""
    require_int(num_letters, "letter count", 0)
    require_int(k, "word length", 1)
    return catalan(k - 1) * num_letters**k


def enumerate_words_spans(algebra: Algebra, gens, kmax: int) -> list[int]:
    """Exact dims of L_0..L_kmax by exhaustive bracketed-word evaluation.

    V_1 is the set of generators and V_k = {u*v : u in V_a, v in V_(k-a),
    1 <= a < k} is the set of values of the words of length k; L_k is the
    span of the unit and V_1, ..., V_k.  Every value of V_k is inserted.
    Once L_(k-1) is the whole algebra, dim L_k, ..., dim L_kmax are n and no
    word of length k or more is evaluated.

    Raises BudgetExceeded when the words of lengths 1..kmax number more than
    :data:`WORD_BUDGET`, counted up to kmax even when the span fills sooner.
    The count is summed k by k and the refusal comes as soon as the budget is
    passed, so a huge kmax costs nothing to refuse.  Raises BudgetExceeded
    too, before forming it, on the distinct product past
    :data:`PRODUCT_BUDGET` // n^2.
    """
    require_int(kmax, "kmax", 0)
    gens = coerce_genset(algebra, gens)
    total = 0
    for k in range(1, kmax + 1):
        total += bracketed_word_count(len(gens), k)
        if total > WORD_BUDGET:
            raise BudgetExceeded(
                f"{total} candidate words of lengths 1..{k} (kmax={kmax}, "
                f"{len(gens)} generators) exceed the {WORD_BUDGET} words budget"
            )
    space, _ = EchelonSubspace(algebra.field, algebra.n).insert(algebra.unit())
    dims = [space.dim]
    multiply = algebra._product  # the values are field vectors already
    memo: dict[tuple[Vector, Vector], Vector] = {}
    most = PRODUCT_BUDGET // algebra.n**2
    values: dict[int, set[Vector]] = {}
    for k in range(1, kmax + 1):
        if space.dim == algebra.n:  # L_(k-1) <= L_k <= A: a full span stays full
            return dims + [space.dim] * (kmax + 1 - k)
        level = set(gens) if k == 1 else set()
        for a in range(1, k):
            right = values[k - a]
            for u in values[a]:
                for v in right:
                    w = memo.get((u, v))
                    if w is None:
                        if len(memo) == most:
                            raise BudgetExceeded(
                                f"more than {most} distinct products by word length {k} "
                                f"(kmax={kmax}, n={algebra.n}) exceed the "
                                f"{PRODUCT_BUDGET} // n^2 products budget"
                            )
                        w = memo[u, v] = multiply(u, v)
                    level.add(w)
        values[k] = level
        for w in level:
            space, _ = space.insert(w)
        dims.append(space.dim)
    return dims


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an m-dimensional space over GF(q)."""
    require_int(m, "m", 0)
    require_int(r, "r", 0)
    require_int(q, "q", 2)
    if r > m:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(m: int, q: int) -> int:
    require_int(m, "m", 0)
    return sum(gaussian_binomial(m, r, q) for r in range(m + 1))


def iter_rref_bases(p: int, m: int, rank: int):
    """Yield every rank-``rank`` reduced-echelon basis over GF(p)^m, once each."""
    require_int(p, "p", 2)
    require_int(m, "m", 0)
    require_int(rank, "rank", 0)
    cols = range(m)
    for pivots in combinations(cols, rank):
        pivot_set = set(pivots)
        free_positions = [
            (i, j)
            for i in range(rank)
            for j in range(pivots[i] + 1, m)
            if j not in pivot_set
        ]
        for assignment in product(range(p), repeat=len(free_positions)):
            rows = [[0] * m for _ in range(rank)]
            for i in range(rank):
                rows[i][pivots[i]] = 1
            for (i, j), value in zip(free_positions, assignment):
                rows[i][j] = value
            yield tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class BruteForceResult:
    length: int
    witness: GenSet
    subspaces_tested: int
    generating_count: int


def brute_force_algebra_length(algebra: Algebra) -> BruteForceResult:
    """l(A) over a prime field, with a maximizing generating set as witness.

    Enumerates the subspaces containing the unit (as bases of the quotient
    by the unit, lifted with a leading zero coordinate), runs the engine on
    each lifted basis, and keeps the maximum length; ties go to the
    lexicographically smallest witness.
    """
    require_algebra(algebra)
    p = algebra.field.modulus
    if p is None:
        raise PrimeFieldRequired("brute force enumerates GF(p)^n; field is rational")
    n = algebra.n
    if n == 1:
        unit = algebra.unit()
        return BruteForceResult(0, (unit,), 1, 1)
    count = subspace_count(n - 1, p)
    if count > SUBSPACE_BUDGET:
        raise BudgetExceeded(
            f"{count} subspaces contain the unit in GF({p})^{n}, budget is "
            f"{SUBSPACE_BUDGET}"
        )
    # The whole quotient (rank n-1) generates, since with the unit it spans
    # A, so some subspace beats this placeholder.
    best: tuple[int, GenSet] = (-1, ())
    tested = 0
    generating = 0
    for rank in range(1, n):
        for rows in iter_rref_bases(p, n - 1, rank):
            gens = tuple((0,) + row for row in rows)
            tested += 1
            length = compute_length(algebra, gens).length
            if length is None:
                continue
            generating += 1
            if length > best[0] or (length == best[0] and gens < best[1]):
                best = (length, gens)
    return BruteForceResult(best[0], best[1], tested, generating)
