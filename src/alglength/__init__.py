"""Exact computation of length functions of non-associative algebras.

The package computes, for an algebra given by a structure-constant table
and a finite set S of elements, the span filtration L_0 <= L_1 <= ... of
words in S, the characteristic sequence of dimension jumps, and the least k
with L_k equal to the whole algebra.  It ships the extremal example
families, verifiers for the addition-chain / power / Fibonacci bounds that
such sequences obey, and brute-force oracles (full bracketed-word
enumeration, and exhaustive l(A) over prime fields).

All arithmetic is exact: rationals or GF(p).
"""

from .algebra import Algebra, check_lc_basis, coerce_genset
from .bounds import (
    CHECKS,
    BoundCheck,
    BoundReport,
    ChainCheck,
    check_addition_chain,
    check_fibonacci_bound,
    check_power_bound,
    fibonacci,
    is_wellformed_sequence,
    verify_sequence,
)
from .errors import (
    AlgLengthError,
    BadScalar,
    BudgetExceeded,
    DivisionByZero,
    DuplicateProduct,
    EmptyGeneratingSet,
    FieldMismatch,
    KOutOfRange,
    NotGenerating,
    NotLocallyComplex,
    ParseError,
    PrimeFieldNotAllowed,
    PrimeFieldRequired,
    RangeError,
    ShapeError,
    UnknownBasisName,
    WellformednessError,
)
from .families import FAMILY_NAMES, make_example
from .fields import GF, QQ, Field, PrimeField, RationalField
from .fileformat import parse_algebra, parse_gens, serialize_algebra
from .length import (
    LengthReport,
    STOP_FULL_DIM,
    STOP_LC_WINDOW,
    STOP_WINDOW,
    compute_length,
    dims_from_charseq,
)
from .oracle import (
    BruteForceResult,
    brute_force_algebra_length,
    enumerate_words_spans,
    gaussian_binomial,
    subspace_count,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgLengthError",
    "BadScalar",
    "BoundCheck",
    "BoundReport",
    "BruteForceResult",
    "BudgetExceeded",
    "CHECKS",
    "ChainCheck",
    "DivisionByZero",
    "DuplicateProduct",
    "EmptyGeneratingSet",
    "FAMILY_NAMES",
    "Field",
    "FieldMismatch",
    "GF",
    "KOutOfRange",
    "LengthReport",
    "NotGenerating",
    "NotLocallyComplex",
    "ParseError",
    "PrimeField",
    "PrimeFieldNotAllowed",
    "PrimeFieldRequired",
    "QQ",
    "RangeError",
    "RationalField",
    "STOP_FULL_DIM",
    "STOP_LC_WINDOW",
    "STOP_WINDOW",
    "ShapeError",
    "UnknownBasisName",
    "WellformednessError",
    "brute_force_algebra_length",
    "check_addition_chain",
    "check_fibonacci_bound",
    "check_lc_basis",
    "check_power_bound",
    "coerce_genset",
    "compute_length",
    "dims_from_charseq",
    "enumerate_words_spans",
    "fibonacci",
    "gaussian_binomial",
    "is_wellformed_sequence",
    "make_example",
    "parse_algebra",
    "parse_gens",
    "serialize_algebra",
    "subspace_count",
    "verify_sequence",
]
