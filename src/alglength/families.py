"""The built-in algebra families with their canonical generating sets.

Each family is extremal or a counterexample for one of the structural
results that this package verifies:

* ``power2`` (dim n, n >= 3): e_k^2 = e_{k+1} up to e_{n-2}, everything else
  zero; S = {e_1}.  Each fresh word is the square of the previous one, so
  the characteristic sequence is (0, 1, 2, 4, ..., 2^(n-2)) and the power
  bound is attained at every index.
* ``stall-chain`` (dim n+2, n >= 2): e_1^2 = e_2, e_1 e_i = e_{i+1} for
  i = 2..n-1, e_n^2 = e_{n+1}; S = {e_1}.  The filtration climbs one
  dimension per step up to step n, stalls through step 2n-1, and jumps at
  step 2n: the general stabilization window cannot be shortened.
* ``fib-lc`` (dim n, n >= 3): anticommuting basis with squares -1 and
  e_k e_{k+1} = e_{k+2}; S = {e_1, e_2}.  Fresh words multiply like the
  Fibonacci recurrence, giving the sequence (0, 1, 1, 2, ..., F_{n-1}).
* ``lc-gap7`` (dim 7): two independent degree-2 products feed a single
  degree-4 product; S = {e_1, e_2, e_3}.  dims = (1, 4, 6, 6, 7), showing
  that the tighter locally-complex window needs the "+1 growth" condition.
* ``lc-gap-family`` (dim n+4, n >= 3): a chain under e_1 plus one extra
  product of the two step-n newcomers; S = {e_1, e_2}.  dims plateau at
  n+3 over steps n..2n-1 and reach n+4 at step 2n.

The three ``lc-*``/``fib-lc`` families pass the locally-complex basis check,
so ``lc_flag`` is set, when built over the rationals (the default).  Over a
prime field the tables are still valid (signs reduce mod p) and unflagged,
but still quadratic (:attr:`~alglength.algebra.Algebra.quadratic`).
Each family is its characteristic sequence, an addition chain, written as a
table by :func:`_realize`; the generators are the terms equal to 1.
"""

from __future__ import annotations

from itertools import islice

from .algebra import Algebra, GenSet
from .bounds import _fibonacci_numbers, witness_pair
from .errors import BudgetExceeded, RangeError
from .fields import QQ, Field

# Largest size parameter n accepted: time and memory of an instance grow with n.
MAX_N = 4096


def _realize(terms, lc: bool, latest: bool) -> dict:
    """The products of a well-formed sequence: e_t1 e_t2 = e_h for each m_h >= 2.

    (t1, t2) is the first :func:`~alglength.bounds.witness_pair` that is not
    yet a key, i.e. that no earlier term took.  With ``lc`` the pairs are
    strict, e_t2 e_t1 = -e_h and every e_t^2 = -1: keys that no strict pair
    can equal.  A term with no pair left raises RangeError.
    """
    index = [*range(len(terms))]  # one int object per index keeps the keys small
    products = {(t, t): {0: -1} for t in index[1:]} if lc else {}
    for h, value in enumerate(terms):
        if value >= 2:
            pair = witness_pair(terms, h, lc, latest, products)
            if pair is None:
                raise RangeError(f"term {h} = {value} has no unused pair of earlier terms")
            t1, t2 = index[pair[0]], index[pair[1]]
            products[t1, t2] = {index[h]: 1}
            if lc:
                products[t2, t1] = {index[h]: -1}
    return products


# name -> (least n, the sequence of size n, lc, latest); lc-gap7 takes no n.
# With the first pair, fib-lc would have e_1 e_3 = e_4, not e_2 e_3 = e_4.
_FAMILIES = {
    "power2": (3, lambda n: [0, *(1 << k for k in range(n - 1))], False, False),
    "stall-chain": (2, lambda n: [*range(n + 1), 2 * n], False, False),
    "fib-lc": (3, lambda n: [0, *islice(_fibonacci_numbers(), n - 1)], True, True),
    "lc-gap7": (None, lambda n: [0, 1, 1, 1, 2, 2, 4], True, False),
    "lc-gap-family": (3, lambda n: [0, 1, *range(1, n + 1), n, 2 * n], True, False),
}
FAMILY_NAMES = tuple(_FAMILIES)


def make_example(family: str, n: int | None = None, field: Field = QQ) -> tuple[Algebra, GenSet]:
    """Build one family instance and its canonical generating set.

    ``n`` is the family size parameter (dimension for power2 and fib-lc,
    dimension minus 2 for stall-chain, dimension minus 4 for lc-gap-family;
    lc-gap7 takes none).  Raises RangeError on out-of-range parameters and
    BudgetExceeded for n above :data:`MAX_N`.
    """
    if n is not None:
        if type(n) is not int:
            raise RangeError(f"size parameter must be an int, got {n!r}")
        if n > MAX_N:
            raise BudgetExceeded(f"size parameter {n} exceeds the limit {MAX_N}")
    elif family != "lc-gap7":
        raise RangeError(f"family {family!r} needs the size parameter n")
    if family not in _FAMILIES:
        raise RangeError(f"unknown family {family!r}; choose from {FAMILY_NAMES}")
    least, sequence, lc, latest = _FAMILIES[family]
    if least is None:
        if n not in (None, 7):
            raise RangeError("lc-gap7 is the fixed dimension-7 instance")
    elif n < least:
        raise RangeError(f"{family} needs n >= {least}, got {n}")
    terms = sequence(n)
    dim, k = len(terms), terms.count(1)
    products = _realize(terms, lc, latest)
    del terms  # power2's terms reach 2^(n-2): free them before the table is built
    algebra = Algebra.from_products(field, dim, products)
    return algebra, tuple(algebra.basis_vector(i) for i in range(1, k + 1))
