"""Independent brute-force checkers for the length engine.

``enumerate_words_spans`` evaluates every fully bracketed word over every
letter assignment, level by level, and records the span dimensions.  It
never applies the engine's fresh-pair candidate restriction, so it serves as
an oracle for it.  A span depends only on the lines its values span, and the
product is bilinear, so each length keeps the lines of its words' nonzero
values, as integer rows (:func:`~alglength.echelon.normal_row`): words on
one line add one product, and a zero word adds none, nor do the words it is
a factor of.  Products are memoized on operand lines, since a line can occur
at several lengths.  The enumeration stops once the span is the whole
algebra (L_(k-1) <= L_k <= A), or once every longer word has a zero factor.
Neither rule uses the engine's candidate restriction or its stopping
windows, so the oracle checks both, on every word up to where it stops.

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

from .algebra import Algebra, GenSet, coerce_genset, require_algebra
from .echelon import normal_row
from .errors import BudgetExceeded, PrimeFieldRequired, require_int
from .length import _unit_span, compute_length, require_kmax

# Most subspaces brute_force_algebra_length enumerates.
SUBSPACE_BUDGET = 4096
# Most work enumerate_words_spans does: 1 for each pair of lines it
# multiplies, memo hits included, and for each distinct product the table's
# stored non-unit cells, one multiply-add each, plus n.  Pairs bound lines
# that never die out: the unit alone is refused at word length 3,465.
# Products bound a large field, where most lines are distinct: a dense
# dim-30 GF(10007) table allows fewer than 6,888.  Each refusal takes about
# 3-4 s on a 2.0 GHz Xeon.
PRODUCT_BUDGET = 6_000_000


def enumerate_words_spans(algebra: Algebra, gens, kmax: int) -> list[int]:
    """Exact dims of L_0..L_kmax by exhaustive bracketed-word evaluation.

    V_1 is the set of generators and V_k = {u*v : u in V_a, v in V_(k-a),
    1 <= a < k} is the set of values of the words of length k; L_k is the
    span of L_0, the unit's span that engine runs share, and V_1, ..., V_k.
    V_k is held as the lines of its nonzero values, and each is inserted.
    ``kmax`` is checked by :func:`~alglength.length.require_kmax`.  Raises
    BudgetExceeded once the work passes :data:`PRODUCT_BUDGET`, charged for
    the pairs of lines of lengths a and k - a before any is multiplied and
    for a new product before it is formed.
    """
    require_kmax(kmax)
    gens = coerce_genset(algebra, gens)
    field, n = algebra.field, algebra.n
    space = _unit_span(field, n)
    gens = {normal_row(field, r) for r in gens if any(r)}  # V_1 as lines
    dims = [space.dim]
    cost = sum(map(len, algebra._rows)) + n
    spent = 0

    def charge(amount: int) -> None:
        nonlocal spent
        spent += amount
        if spent > PRODUCT_BUDGET:
            raise BudgetExceeded(
                f"the words of lengths 1..{k} (kmax={kmax}, n={n}) exceed the "
                f"{PRODUCT_BUDGET} products budget at 1 a pair of lines and "
                f"{cost} (cells + n) a distinct product"
            )

    memo: dict[tuple[tuple, tuple], tuple] = {}
    lines: dict[int, set[tuple]] = {}  # the nonempty V_k, k ascending
    for k in range(1, kmax + 1):
        # A full span stays full; past twice the longest nonempty length, the
        # last key, every word has a zero factor.  V_1 is the generators.
        if space.dim == n or k > 2 * next(reversed(lines), 1):
            return dims + [space.dim] * (kmax + 1 - k)
        level = set(gens) if k == 1 else set()
        for a, left in lines.items():
            right = lines.get(k - a)
            if right:
                charge(len(left) * len(right))
                for u in left:
                    for v in right:
                        w = memo.get((u, v))
                        if w is None:
                            charge(cost)
                            w = algebra._product(u, v)
                            w = memo[u, v] = normal_row(field, w) if any(w) else ()
                        if w:
                            level.add(w)
        if level:
            lines[k] = level
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
