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

The three ``lc-*``/``fib-lc`` families pass the locally-complex basis check
when built over the rationals (the default).  Over a prime field the tables
are still valid (signs reduce mod p) but carry ``lc_flag = False``.
"""

from __future__ import annotations

from .algebra import Algebra, GenSet
from .errors import BudgetExceeded, RangeError
from .fields import QQ, Field

FAMILY_NAMES = ("power2", "stall-chain", "fib-lc", "lc-gap7", "lc-gap-family")

_LC_FAMILIES = {"fib-lc", "lc-gap7", "lc-gap-family"}
# Largest size parameter n accepted: time and memory of an instance grow with n.
MAX_N = 4096


def _power2(n: int, field: Field):
    if n < 3:
        raise RangeError(f"power2 needs n >= 3, got {n}")
    products = {(k, k): {k + 1: 1} for k in range(1, n - 1)}
    return n, products, (1,)


def _stall_chain(n: int, field: Field):
    if n < 2:
        raise RangeError(f"stall-chain needs n >= 2, got {n}")
    dim = n + 2
    products = {(1, 1): {2: 1}, (n, n): {n + 1: 1}}
    for i in range(2, n):
        products[(1, i)] = {i + 1: 1}
    return dim, products, (1,)


def _fib_lc(n: int, field: Field):
    if n < 3:
        raise RangeError(f"fib-lc needs n >= 3, got {n}")
    products = {(m, m): {0: -1} for m in range(1, n)}
    for k in range(1, n - 2):
        products[(k, k + 1)] = {k + 2: 1}
        products[(k + 1, k)] = {k + 2: -1}
    return n, products, (1, 2)


def _lc_gap7(n: int | None, field: Field):
    if n is not None and n != 7:
        raise RangeError("lc-gap7 is the fixed dimension-7 instance")
    products = {(m, m): {0: -1} for m in range(1, 7)}
    for (i, j), k in (((1, 2), 4), ((1, 3), 5), ((4, 5), 6)):
        products[(i, j)] = {k: 1}
        products[(j, i)] = {k: -1}
    return 7, products, (1, 2, 3)


def _lc_gap_family(n: int, field: Field):
    if n < 3:
        raise RangeError(f"lc-gap-family needs n >= 3, got {n}")
    dim = n + 4
    products = {(m, m): {0: -1} for m in range(1, dim)}
    pairs = [((1, i), i + 1) for i in range(2, n + 1)]
    pairs.append(((2, n), n + 2))
    pairs.append(((n + 1, n + 2), n + 3))
    for (i, j), k in pairs:
        products[(i, j)] = {k: 1}
        products[(j, i)] = {k: -1}
    return dim, products, (1, 2)


def make_example(family: str, n: int | None = None, field: Field = QQ) -> tuple[Algebra, GenSet]:
    """Build one family instance and its canonical generating set.

    ``n`` is the family size parameter (dimension for power2 and fib-lc,
    dimension minus 2 for stall-chain, dimension minus 4 for lc-gap-family;
    lc-gap7 takes none).  Raises RangeError on out-of-range parameters and
    BudgetExceeded for n above :data:`MAX_N`.
    """
    if n is not None and n > MAX_N:
        raise BudgetExceeded(f"size parameter {n} exceeds the limit {MAX_N}", count=None)
    if family == "lc-gap7":
        dim, products, gen_indices = _lc_gap7(n, field)
    else:
        if n is None:
            raise RangeError(f"family {family!r} needs the size parameter n")
        if family == "power2":
            dim, products, gen_indices = _power2(n, field)
        elif family == "stall-chain":
            dim, products, gen_indices = _stall_chain(n, field)
        elif family == "fib-lc":
            dim, products, gen_indices = _fib_lc(n, field)
        elif family == "lc-gap-family":
            dim, products, gen_indices = _lc_gap_family(n, field)
        else:
            raise RangeError(f"unknown family {family!r}; choose from {FAMILY_NAMES}")
    lc = family in _LC_FAMILIES and field.modulus is None
    algebra = Algebra.from_products(field, dim, products, lc_flag=lc)
    gens = tuple(algebra.basis_vector(i) for i in gen_indices)
    return algebra, gens
