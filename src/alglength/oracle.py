"""Independent brute-force checkers for the length engine.

``enumerate_words_spans`` evaluates every fully bracketed word over every
letter assignment, level by level, and records the span dimensions.  It is
deliberately naive (no word is skipped or merged with an equal one), so it
serves as an oracle for the engine's fresh-pair candidate restriction.  Two
caches keep it affordable without changing what gets enumerated: word values
of each length are stored so a word of length k costs exactly one product of
its two child values, and products are memoized on operand values.

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

from .algebra import Algebra, GenSet, Vector, coerce_genset
from .echelon import EchelonSubspace
from .errors import BudgetExceeded, NoGeneratingSet, PrimeFieldRequired, RangeError
from .length import compute_length

DEFAULT_KMAX_LIMIT = 10
DEFAULT_GENS_LIMIT = 3
# Most subspaces brute_force_algebra_length enumerates.
SUBSPACE_BUDGET = 4096
# Most candidate words enumerate_words_spans evaluates, over all k <= kmax.
WORD_BUDGET = 1_000_000
# Largest kmax for which the candidate words are counted; the count is a sum
# of kmax big Catalan numbers, too costly for huge kmax.
COUNT_KMAX_LIMIT = 64


def catalan(m: int) -> int:
    if m < 0:
        raise RangeError(f"Catalan index must be >= 0, got {m}")
    return comb(2 * m, m) // (m + 1)


def bracketed_word_count(num_letters: int, k: int) -> int:
    """Number of bracketed words of length exactly k over num_letters letters."""
    if k < 1:
        raise RangeError(f"word length must be >= 1, got {k}")
    return catalan(k - 1) * num_letters**k


def iter_word_values(algebra: Algebra, gens: GenSet, kmax: int):
    """Yield (k, values) where values lists every word of length k, in order.

    Each bracketed word appears as its own entry: words of length k are the
    concatenation over splits a + b = k (a ascending) of the products of
    every length-a word with every length-b word.
    """
    gens = coerce_genset(algebra, gens)
    cache: dict[tuple[Vector, Vector], Vector] = {}
    multiply = algebra.multiply
    by_len: dict[int, list[Vector]] = {1: list(gens)}
    if kmax >= 1:
        yield 1, by_len[1]
    for k in range(2, kmax + 1):
        out: list[Vector] = []
        for a in range(1, k):
            right = by_len[k - a]
            for u in by_len[a]:
                for v in right:
                    key = (u, v)
                    w = cache.get(key)
                    if w is None:
                        w = multiply(u, v)
                        cache[key] = w
                    out.append(w)
        by_len[k] = out
        yield k, out


def enumerate_words_spans(
    algebra: Algebra,
    gens,
    kmax: int,
) -> list[int]:
    """Exact dims of L_0..L_kmax by exhaustive bracketed-word evaluation.

    Raises BudgetExceeded for kmax above 10, more than 3 generators, or more
    than :data:`WORD_BUDGET` candidate words in total.
    """
    if kmax < 0:
        raise RangeError(f"kmax must be >= 0, got {kmax}")
    gens = coerce_genset(algebra, gens)
    what, total = f"kmax={kmax}, {len(gens)} generators", None
    if kmax <= COUNT_KMAX_LIMIT:
        total = sum(bracketed_word_count(len(gens), k) for k in range(1, kmax + 1))
        what = f"{total} candidate words ({what})"
    if kmax > DEFAULT_KMAX_LIMIT or len(gens) > DEFAULT_GENS_LIMIT or total > WORD_BUDGET:
        raise BudgetExceeded(
            f"{what} exceeds the kmax<={DEFAULT_KMAX_LIMIT}, "
            f"|S|<={DEFAULT_GENS_LIMIT}, {WORD_BUDGET} words budget",
            count=total,
        )
    space, _ = EchelonSubspace.empty(algebra.field, algebra.n).insert(algebra.unit())
    dims = [space.dim]
    seen: set[Vector] = set()
    for _, values in iter_word_values(algebra, gens, kmax):
        for w in values:
            if w not in seen:
                seen.add(w)
                space, _ = space.insert(w)
        dims.append(space.dim)
    return dims


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an m-dimensional space over GF(q)."""
    if r < 0 or r > m:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(m: int, q: int) -> int:
    return sum(gaussian_binomial(m, r, q) for r in range(m + 1))


def iter_rref_bases(p: int, m: int, rank: int):
    """Yield every rank-``rank`` reduced-echelon basis over GF(p)^m, once each."""
    if rank == 0:
        yield ()
        return
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
            f"{SUBSPACE_BUDGET}",
            count=count,
        )
    best: tuple[int, GenSet] | None = None
    tested = 0
    generating = 0
    for rank in range(1, n):
        for rows in iter_rref_bases(p, n - 1, rank):
            gens = tuple((0,) + row for row in rows)
            tested += 1
            report = compute_length(algebra, gens)
            if report.length is None:
                continue
            generating += 1
            if (
                best is None
                or report.length > best[0]
                or (report.length == best[0] and gens < best[1])
            ):
                best = (report.length, gens)
    if best is None:
        raise NoGeneratingSet(
            "no subspace generates; the structure table is corrupt"
        )
    return BruteForceResult(best[0], best[1], tested, generating)
