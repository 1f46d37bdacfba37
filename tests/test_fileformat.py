import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from alglength import (
    FAMILY_NAMES,
    QQ,
    AlgLengthError,
    BadScalar,
    DuplicateProduct,
    GF,
    NotLocallyComplex,
    ParseError,
    UnknownBasisName,
    check_lc_basis,
    compute_length,
    make_example,
    parse_algebra,
    parse_gens,
    serialize_algebra,
)

POWER2_4 = """\
alglength-algebra v1
field rational
dim 4
basis 1 e1 e2 e3
prod e1 e1 = e2
prod e2 e2 = e3
"""

FIB_LC_4 = """\
alglength-algebra v1
field rational
dim 4
# anticommuting basis, squares -1
basis 1 e1 e2 e3
prod e1 e1 = -1*1
prod e2 e2 = -1*1
prod e3 e3 = -1*1
prod e1 e2 = e3
prod e2 e1 = -1*e3
lc true
"""


def test_parse_power2_file_matches_family():
    algebra = parse_algebra(POWER2_4)
    family, gens = make_example("power2", 4)
    assert algebra == family
    assert compute_length(algebra, gens).length == 4


def test_parse_fib_lc_file_passes_lc_check():
    algebra = parse_algebra(FIB_LC_4)
    assert algebra.lc_flag and check_lc_basis(algebra)
    family, _ = make_example("fib-lc", 4)
    assert algebra == family


def test_lc_flag_is_read_off_the_table():
    # Without a claim, or with "lc false", a passing table is flagged and
    # serializes with "lc true"; so does the unit-only algebra over Q.
    unclaimed = FIB_LC_4.replace("lc true\n", "")
    for text in (unclaimed, unclaimed + "lc false\n"):
        algebra = parse_algebra(text)
        assert algebra.lc_flag
        assert serialize_algebra(algebra) == serialize_algebra(parse_algebra(FIB_LC_4))
    unit_only = parse_algebra("alglength-algebra v1\nfield rational\ndim 1\nbasis 1\n")
    assert serialize_algebra(unit_only).endswith("basis 1\nlc true\n")


def test_unit_products_must_not_be_listed():
    text = POWER2_4 + "prod 1 e1 = e1\n"
    with pytest.raises(ParseError) as info:
        parse_algebra(text)
    assert "unit" in str(info.value)


def test_duplicate_product_rejected():
    text = POWER2_4 + "prod e1 e1 = e3\n"
    with pytest.raises(DuplicateProduct):
        parse_algebra(text)


def test_unknown_basis_name():
    text = POWER2_4 + "prod e1 e9 = e3\n"
    with pytest.raises(UnknownBasisName) as info:
        parse_algebra(text)
    assert info.value.line == 7


def test_bad_scalar_has_line_number():
    text = POWER2_4.replace("prod e2 e2 = e3", "prod e2 e2 = 2/4*e3")
    with pytest.raises(BadScalar) as info:
        parse_algebra(text)
    assert info.value.line == 6


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        (lambda t: t.replace("alglength-algebra v1", "algebra v2"), "header"),
        (lambda t: t.replace("field rational", "field real"), "field"),
        (lambda t: t.replace("dim 4", "dim four"), "dim"),
        (lambda t: t.replace("basis 1 e1 e2 e3", "basis 1 e1 e2"), "basis"),
        (lambda t: t.replace("basis 1 e1 e2 e3", "basis 1 e1 e1 e3"), "duplicate"),
        (lambda t: t + "lc true\nlc false\n", "duplicate lc"),
        (lambda t: t + "unknown directive\n", "directive"),
        (lambda t: t.replace("= e3", "= e3 +"), "empty term"),
        (lambda t: t.replace("= e3", "= 1"), "explicit scalar"),
        (lambda t: t.replace("= e3", "= e1 + e9"), "unknown basis name 'e9'"),
        (lambda t: t.split("\n")[0] + "\n", "end of file"),
        (lambda t: t.replace("dim 4", "dim 0"), "dimension must be >= 1"),
        (lambda t: t.replace("basis 1 e1 e2 e3", "basis 1 e1 e2 3x"), "invalid basis name"),
        (lambda t: t + "lc maybe\n", "expected 'lc true' or 'lc false'"),
        (lambda t: t + "prod e1 e2 e3\n", "expected 'prod <name> <name> = <terms>'"),
        (lambda t: t + "prod e9 e1 = e2\n", "unknown basis name 'e9'"),
    ],
)
def test_malformed_files(mutation, fragment):
    with pytest.raises(ParseError) as info:
        parse_algebra(mutation(POWER2_4))
    assert fragment in str(info.value)


@pytest.mark.parametrize("token", ["\u00b2", "\u0663", "\uff13", "3\u00b2", "-3", "x"],
                         ids=["superscript", "arabic-indic", "fullwidth", "mixed", "sign", "name"])
@pytest.mark.parametrize("line", ["field prime {}", "dim {}"], ids=["field", "dim"])
def test_field_and_dim_take_ascii_digits_only(line, token):
    # str.isdigit accepts all of the first four; int() refuses the
    # superscript and reads the other scripts' digits as 3.
    old = "field rational" if line.startswith("field") else "dim 4"
    with pytest.raises(ParseError) as info:
        parse_algebra(POWER2_4.replace(old, line.format(token)))
    lineno, what = (2, "field prime <p>") if line.startswith("field") else (3, "dim <n>")
    assert str(info.value) == f"line {lineno}: {what} must be ASCII digits 0-9, got {token!r}"


def test_false_lc_claim_rejected():
    with pytest.raises(NotLocallyComplex):
        parse_algebra(POWER2_4 + "lc true\n")


def test_prime_field_file():
    text = """\
alglength-algebra v1
field prime 5
dim 3
basis 1 a b
prod a a = 3*b + 2*1
"""
    algebra = parse_algebra(text)
    assert algebra.field == GF(5)
    a = algebra.basis_vector(1)
    assert algebra.multiply(a, a) == (2, 0, 3)
    with pytest.raises(ParseError):
        parse_algebra(text.replace("prime 5", "prime 6"))


def test_each_file_coordinate_is_coerced_once(monkeypatch):
    # A coordinate listed in several terms is summed, then coerced once.
    calls = []
    coerce = type(GF(5)).coerce
    monkeypatch.setattr(type(GF(5)), "coerce", lambda f, x: calls.append(x) or coerce(f, x))
    text = """\
alglength-algebra v1
field prime 5
dim 3
basis 1 a b
prod a a = 3*b + 4*b + 2*1 + b
prod b a = 4*a + 1*a
"""
    algebra = parse_algebra(text)
    assert sorted(calls) == [2, 5, 8]
    a, b = algebra.basis_vector(1), algebra.basis_vector(2)
    assert algebra.multiply(a, a) == (2, 0, 3)
    assert algebra.multiply(b, a) == (0, 0, 0)


def test_lc_true_on_prime_field_rejected():
    text = """\
alglength-algebra v1
field prime 3
dim 2
basis 1 i
prod i i = -1*1
lc true
"""
    from alglength import PrimeFieldNotAllowed

    with pytest.raises(PrimeFieldNotAllowed):
        parse_algebra(text)


@pytest.mark.parametrize(
    "family,n,field",
    [
        ("power2", 5, None),
        ("stall-chain", 3, None),
        ("fib-lc", 6, None),
        ("lc-gap7", None, None),
        ("lc-gap-family", 4, None),
        ("power2", 4, 2),
        ("fib-lc", 4, 3),
    ],
)
def test_round_trip_families(family, n, field):
    field_obj = GF(field) if field else None
    algebra, _ = (
        make_example(family, n, field_obj) if field_obj else make_example(family, n)
    )
    text = serialize_algebra(algebra)
    again = parse_algebra(text)
    assert again == algebra
    assert serialize_algebra(again) == text


def test_parse_gens_names_and_rows():
    algebra = parse_algebra(POWER2_4)
    gens = parse_gens("e1,e2", algebra)
    assert gens == (algebra.basis_vector(1), algebra.basis_vector(2))
    gens = parse_gens("[1, 0, 1/2, 0]", algebra)
    assert gens[0][2] == algebra.field.parse("1/2")
    gens = parse_gens("e1;[0, 1, 0, 0]", algebra)
    assert len(gens) == 2
    gens = parse_gens("1", algebra)
    assert gens == (algebra.unit(),)


def test_parse_gens_errors():
    algebra = parse_algebra(POWER2_4)
    with pytest.raises(UnknownBasisName):
        parse_gens("e7", algebra)
    with pytest.raises(ParseError):
        parse_gens("[1, 0]", algebra)
    with pytest.raises(ParseError):
        parse_gens("[1, 0, 0, 0", algebra)
    with pytest.raises(ParseError):
        parse_gens("", algebra)
    with pytest.raises(ParseError, match="empty coordinate row"):
        parse_gens("[]", algebra)
    with pytest.raises(BadScalar):
        parse_gens("[1, 0, 2/4, 0]", algebra)


def test_large_sparse_file_parses_in_linear_time_and_memory():
    n = 2000
    lines = [
        "alglength-algebra v1",
        "field prime 10007",
        f"dim {n}",
        "basis 1 " + " ".join(f"e{i}" for i in range(1, n)),
        "prod e1 e1 = e2",
        "prod e1 e2 = 5*e700",
        "prod e2 e1 = 10006*e700",
        "prod e700 e700 = 3*1 + e1999",
        "prod e1999 e5 = e1",
    ]
    text = "\n".join(lines) + "\n"
    start = time.perf_counter()
    algebra = parse_algebra(text)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        parse_algebra(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert serialize_algebra(algebra) == text
    e700 = algebra.basis_vector(700)
    square = algebra.multiply(e700, e700)
    assert (square[0], square[1999], sum(1 for c in square if c)) == (3, 1, 2)


# Characters that mean something to the format and a few that do not;
# a mutation may also draw any character of the text it mutates.
_FUZZ_CHARS = st.sampled_from(list(" \n\t#*+=-/0123456789[];,1e_xé\x00"))


_FUZZ_SIZES = {"power2": 5, "stall-chain": 3, "fib-lc": 5, "lc-gap7": None, "lc-gap-family": 3}


def _fuzz_sources():
    """(file text, generator spec, algebra) of every family over Q and GF(3)."""
    sources = []
    for family in FAMILY_NAMES:
        for field in (QQ, GF(3)):
            algebra, gens = make_example(family, _FUZZ_SIZES[family], field)
            rows = ";".join("[" + ", ".join(map(str, v)) + "]" for v in gens)
            names = ",".join(algebra.basis_names[1:3])
            sources.append((serialize_algebra(algebra), f"{names};{rows}", algebra))
    return sources


_FUZZ_SOURCES = _fuzz_sources()


@st.composite
def _mutated(draw, text):
    """``text`` after a few random inserts, deletes and replaces."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars)))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        c = draw(st.one_of(_FUZZ_CHARS, st.sampled_from(text)))
        if kind == "insert":
            chars.insert(at, c)
        elif at < len(chars):
            chars[at : at + 1] = [] if kind == "delete" else [c]
    return "".join(chars)


@st.composite
def _fuzz_cases(draw):
    text, spec, algebra = draw(st.sampled_from(_FUZZ_SOURCES))
    return draw(_mutated(text)), draw(_mutated(spec)), algebra


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_fuzz_cases())
def test_mutated_files_and_specs_parse_or_raise_alglength_errors(case):
    text, spec, algebra = case
    try:
        parsed = parse_algebra(text)
    except AlgLengthError:
        pass
    else:
        assert parse_algebra(serialize_algebra(parsed)) == parsed
    try:
        gens = parse_gens(spec, algebra)
    except AlgLengthError:
        pass
    else:
        assert all(len(v) == algebra.n for v in gens)
