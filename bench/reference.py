"""Expected values computed apart from alglength.

Nothing here imports alglength.  The closed forms restate the paper's
extremal families; the counting functions restate standard combinatorics;
the filtration is a deliberately naive span closure (L_k = L_{k-1} plus every
product of a basis vector of L_a with one of L_b, a + b = k) over GF(p) or Q,
written with its own elimination.  A product table is a dict
``{(i, j): {k: coeff}}`` over non-unit indices; basis element 0 is the unit.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def fibonacci(i: int) -> int:
    """F_1 = F_2 = 1."""
    a, b = 1, 1
    for _ in range(i - 1):
        a, b = b, a + b
    return a


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^m (product formula)."""
    num = den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def proper_unit_subspaces(n: int, p: int) -> int:
    """Subspaces of GF(p)^n that contain the unit and are larger than its span."""
    return sum(gaussian_binomial(n - 1, r, p) for r in range(1, n))


# ----- characteristic sequences and dims ---------------------------------


def charseq_from_dims(dims) -> tuple[int, ...]:
    terms = [0]
    for k in range(1, len(dims)):
        terms.extend([k] * (dims[k] - dims[k - 1]))
    return tuple(terms)


def dims_from_charseq(terms, kmax: int) -> list[int]:
    """dim L_k is the number of terms <= k."""
    return [sum(1 for t in terms if t <= k) for k in range(kmax + 1)]


def power2_charseq(n: int, shifted: bool = False) -> tuple[int, ...]:
    """S = {e1}: (0, 1, 2, ..., 2^(n-2)); S = {e2}: (0, 1, ..., 2^(n-3))."""
    top = n - 2 if shifted else n - 1
    return (0,) + tuple(1 << i for i in range(top))


def fib_charseq(n: int, shifted: bool = False) -> tuple[int, ...]:
    """S = {e1, e2}: (0, F_1, ..., F_(n-1)); S = {e2, e3}: up to F_(n-2)."""
    top = n - 2 if shifted else n - 1
    return (0,) + tuple(fibonacci(i) for i in range(1, top + 1))


def stall_charseq(n: int) -> tuple[int, ...]:
    return tuple(range(n + 1)) + (2 * n,)


def lc_gap_family_charseq(n: int) -> tuple[int, ...]:
    return (0, 1, 1) + tuple(range(2, n)) + (n, n, 2 * n)


LC_GAP7_CHARSEQ = (0, 1, 1, 1, 2, 2, 4)


def generic_dims(n: int, s: int) -> list[int]:
    """dims of L_0.. for s generic elements of a generic dense algebra of dim n.

    Until the space fills, words are as independent as in the free magma:
    C(k-1) * s^k bracketed words of length k.
    """
    dims = [1]
    k = 0
    while dims[-1] < n:
        k += 1
        dims.append(min(n, dims[-1] + catalan(k - 1) * s**k))
    return dims


def generic_margin(n: int, s: int) -> int:
    """Smallest |n - free-magma count| over the layers before the space fills.

    A margin of 0 means some layer has exactly as many words as free
    dimensions, where a random table over a small field is singular with
    probability about 1/p; each unit of margin divides that by about p.
    """
    total, k, margin = 1, 0, n
    while total < n:
        k += 1
        total += catalan(k - 1) * s**k
        margin = min(margin, abs(n - total))
    return margin


# ----- bounds -------------------------------------------------------------


def is_addition_chain(terms, strict: bool = False) -> bool:
    """Every term >= 2 is m_t1 + m_t2 with 1 <= t1 <= t2 < h (t1 < t2 if strict)."""
    seen: Counter = Counter()
    for h, value in enumerate(terms):
        if value >= 2:
            found = False
            for a in seen:
                b = value - a
                if b not in seen:
                    continue
                if a != b or not strict or seen[a] >= 2:
                    found = True
                    break
            if not found:
                return False
        if h >= 1:
            seen[value] += 1
    return True


def meets_power_bound(terms) -> bool:
    return all(terms[h] <= 1 << (h - 1) for h in range(1, len(terms)))


def meets_fibonacci_bound(terms) -> bool:
    return all(terms[h] <= fibonacci(h) for h in range(1, len(terms)))


# ----- exact linear algebra ----------------------------------------------


class Span:
    """Echelon basis of a subspace of F^n; ``p`` is None for Q."""

    def __init__(self, n: int, p: int | None):
        self.n = n
        self.p = p
        self.rows: dict[int, list] = {}  # pivot -> row with 1 at the pivot

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, v) -> bool:
        p = self.p
        v = [x % p for x in v] if p else [Fraction(x) for x in v]
        for j in range(self.n):
            c = v[j]
            if not c:
                continue
            row = self.rows.get(j)
            if row is None:
                inv = pow(c, -1, p) if p else 1 / c
                v = [(x * inv) % p for x in v] if p else [x * inv for x in v]
                self.rows[j] = v
                return True
            v = [(x - c * r) % p for x, r in zip(v, row)] if p else [x - c * r for x, r in zip(v, row)]
        return False


def multiply(products, n: int, u, v, p: int | None) -> list:
    out = [0] * n
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            c = ui * vj
            if i == 0:
                out[j] += c
            elif j == 0:
                out[i] += c
            else:
                for k, x in products.get((i, j), {}).items():
                    out[k] += c * x
    return [x % p for x in out] if p else out


def filtration_dims(products, n: int, gens, kmax: int, p: int | None) -> list[int]:
    """dims of L_0..L_kmax by the naive closure, stopping early at the full space."""
    unit = [1] + [0] * (n - 1)
    span = Span(n, p)
    span.add(unit)
    bases = [[unit]]
    dims = [1]
    for k in range(1, kmax + 1):
        fresh = list(gens) if k == 1 else [
            multiply(products, n, x, y, p)
            for a in range(1, k)
            for x in bases[a]
            for y in bases[k - a]
        ]
        for w in fresh:
            span.add(w)
        bases.append(list(span.rows.values()))
        dims.append(span.dim)
        if span.dim == n:
            break
    return dims


def generating_length(products, n: int, gens, p: int | None) -> int | None:
    """l(S) by the naive closure, or None if S does not reach F^n by 2^(n-2)."""
    dims = filtration_dims(products, n, gens, max(1, 1 << max(n - 2, 0)), p)
    return len(dims) - 1 if dims[-1] == n else None


# ----- family tables, as the paper states them -----------------------------


def power2_products(n: int) -> dict:
    return {(k, k): {k + 1: 1} for k in range(1, n - 1)}


def fib_lc_products(n: int) -> dict:
    products = {(m, m): {0: -1} for m in range(1, n)}
    for k in range(1, n - 2):
        products[(k, k + 1)] = {k + 2: 1}
        products[(k + 1, k)] = {k + 2: -1}
    return products
