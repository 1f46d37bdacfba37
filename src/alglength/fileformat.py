"""The v1 algebra text format and generator-spec parsing.

Format (UTF-8, line oriented, ``#`` starts a comment):

    alglength-algebra v1
    field rational            # or: field prime <p>
    dim <n>
    basis 1 <name_1> ... <name_{n-1}>
    prod <name_i> <name_j> = <term> (+ <term>)*
    lc true|false             # optional claim; lc true is checked

A term is ``<scalar>*<name_k>``, a bare ``<name_k>``, or ``<scalar>*1`` for
the unit component; scalars match ``-?[0-9]+(/[0-9]+)?`` and fractions must
be in lowest terms.  Unlisted non-unit products are zero; products involving
the unit are implied by the unit law and must not be listed.  Parsing checks
an ``lc true`` claim; ``lc_flag`` is read off the table, whatever the file
says, and :func:`serialize_algebra` writes ``lc true`` when it is set.

Generator specs (the CLI ``--gens`` argument) are ``;``-separated: either a
comma-separated list of basis names (sugar for the corresponding unit
coordinate vectors) or one coordinate row like ``[1, 0, 1/2, 0]``.
"""

from __future__ import annotations

import re

from .algebra import NAME_RE, Algebra, GenSet, check_lc_basis, require_algebra
from .errors import (
    BadScalar,
    DuplicateProduct,
    NotLocallyComplex,
    ParseError,
    ShapeError,
    UnknownBasisName,
)
from .fields import GF, QQ, Field, RangeError, Scalar

MAGIC = "alglength-algebra v1"


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_digits(text: str, what: str, lineno: int | None = None) -> int:
    """int() of ``what``, a token of ASCII digits 0-9: the one check of such a token.

    It reads a file's ``dim`` and ``field prime`` lines and the CLI's ``--n``,
    ``--kmax`` and ``--field prime:<p>``.  Any other token is a ParseError that
    names it: ``str.isdigit`` also accepts superscripts and other scripts'
    digits, which int() refuses or reads.  More digits than int() converts is
    a ParseError too.
    """
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{what} must be ASCII digits 0-9, got {text!r}", lineno)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"number of {len(text)} digits is out of range", lineno) from None


def parse_prime_field(text: str, what: str, lineno: int | None = None) -> Field:
    """GF(p) of ``what``, a token of ASCII digits: a p that is not a prime is
    a ParseError, and one above the modulus limit stays BudgetExceeded."""
    try:
        return GF(parse_digits(text, what, lineno))
    except RangeError as exc:
        raise ParseError(str(exc), lineno) from None


def _parse_term(term: str, names: dict[str, int], field: Field, lineno: int):
    term = term.strip()
    if not term:
        raise ParseError("empty term", lineno)
    if "*" in term:
        scalar_text, _, name = term.partition("*")
        name = name.strip()
        try:
            coeff = field.parse(scalar_text.strip())
        except BadScalar as exc:
            raise BadScalar(str(exc), lineno) from None
    else:
        name = term
        if name == "1":
            raise ParseError(
                "the unit term needs an explicit scalar, write <scalar>*1", lineno
            )
        coeff = field.one
    if name == "1":
        return 0, coeff
    if name not in names:
        raise UnknownBasisName(f"unknown basis name {name!r}", lineno)
    return names[name], coeff


def parse_algebra(text: str) -> Algebra:
    """Parse the v1 format into a unital algebra; a non-str ``text`` is ShapeError."""
    if not isinstance(text, str):
        raise ShapeError(f"algebra text must be a str, got a {type(text).__name__}")
    lines = _meaningful_lines(text)

    def next_line(what: str) -> tuple[int, str]:
        try:
            return next(lines)
        except StopIteration:
            raise ParseError(f"unexpected end of file, expected {what}") from None

    lineno, line = next_line("the header line")
    if line != MAGIC:
        raise ParseError(f"expected header {MAGIC!r}", lineno)

    lineno, line = next_line("a field line")
    parts = line.split()
    if parts == ["field", "rational"]:
        field: Field = QQ
    elif len(parts) == 3 and parts[:2] == ["field", "prime"]:
        field = parse_prime_field(parts[2], "field prime <p>", lineno)
    else:
        raise ParseError("expected 'field rational' or 'field prime <p>'", lineno)

    lineno, line = next_line("a dim line")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ParseError("expected 'dim <n>'", lineno)
    n = parse_digits(parts[1], "dim <n>", lineno)
    if n < 1:
        raise ParseError("dimension must be >= 1", lineno)

    lineno, line = next_line("a basis line")
    parts = line.split()
    if len(parts) != n + 1 or parts[0] != "basis" or parts[1] != "1":
        raise ParseError(
            f"expected 'basis 1' followed by {n - 1} names for dim {n}", lineno
        )
    names: dict[str, int] = {}
    for idx, name in enumerate(parts[2:], 2):
        if not NAME_RE.fullmatch(name):
            raise ParseError(f"invalid basis name {name!r}", lineno)
        if name in names or name == "1":
            raise ParseError(f"duplicate basis name {name!r}", lineno)
        names[name] = idx - 1

    products: dict[tuple[int, int], dict[int, Scalar]] = {}
    lc_claim = None
    for lineno, line in lines:
        parts = line.split(None, 1)
        if parts[0] == "lc":
            if lc_claim is not None:
                raise ParseError("duplicate lc line", lineno)
            claim = parts[1].strip() if len(parts) == 2 else ""
            if claim not in ("true", "false"):
                raise ParseError("expected 'lc true' or 'lc false'", lineno)
            lc_claim = claim == "true"
            continue
        if parts[0] != "prod":
            raise ParseError(f"unexpected directive {parts[0]!r}", lineno)
        m = re.match(r"^prod\s+(\S+)\s+(\S+)\s*=\s*(.+)$", line)
        if not m:
            raise ParseError("expected 'prod <name> <name> = <terms>'", lineno)
        left, right, rhs = m.groups()
        if left == "1" or right == "1":
            raise ParseError(
                "products involving the unit are implied and must not be listed",
                lineno,
            )
        if left not in names:
            raise UnknownBasisName(f"unknown basis name {left!r}", lineno)
        if right not in names:
            raise UnknownBasisName(f"unknown basis name {right!r}", lineno)
        key = (names[left], names[right])
        if key in products:
            raise DuplicateProduct(f"product {left} {right} defined twice", lineno)
        vec: dict[int, Scalar] = {}
        for term in rhs.split("+"):
            k, coeff = _parse_term(term, names, field, lineno)
            vec[k] = vec.get(k, 0) + coeff  # from_products coerces each coordinate
        products[key] = vec

    ordered = ["1"] + sorted(names, key=names.get)
    algebra = Algebra.from_products(field, n, products, basis_names=ordered)
    if lc_claim and not (algebra.lc_flag or check_lc_basis(algebra)):
        raise NotLocallyComplex("lc flag is set but the basis fails the locally-complex check")
    return algebra


def _format_term(k: int, coeff, names) -> str:
    if k == 0:
        return f"{coeff}*1"
    if coeff == 1:
        return names[k]
    return f"{coeff}*{names[k]}"


def serialize_algebra(algebra: Algebra) -> str:
    """Canonical v1 text; ``parse_algebra(serialize_algebra(A))`` equals A."""
    require_algebra(algebra)
    out = [MAGIC, f"field {algebra.field.descriptor()}", f"dim {algebra.n}"]
    out.append("basis " + " ".join(algebra.basis_names))
    names = algebra.basis_names
    for i in range(1, algebra.n):
        for j in sorted(algebra._rows[i]):
            terms = [_format_term(k, c, names) for k, c in algebra.terms(i, j)]
            out.append(f"prod {names[i]} {names[j]} = " + " + ".join(terms))
    if algebra.lc_flag:
        out.append("lc true")
    return "\n".join(out) + "\n"


def parse_gens(text: str, algebra: Algebra) -> GenSet:
    """Parse a ``--gens`` argument into coordinate vectors of the algebra."""
    require_algebra(algebra)
    if not isinstance(text, str):
        raise ShapeError(f"a generator spec must be a str, got a {type(text).__name__}")
    vectors = []
    for spec in text.split(";"):
        spec = spec.strip()
        if not spec:
            raise ParseError("empty generator spec")
        if spec.startswith("["):
            if not spec.endswith("]"):
                raise ParseError(f"unterminated coordinate row {spec!r}")
            entries = [s.strip() for s in spec[1:-1].split(",")]
            if entries == [""]:
                raise ParseError("empty coordinate row")
            if len(entries) != algebra.n:
                raise ParseError(
                    f"coordinate row has {len(entries)} entries, "
                    f"algebra dimension is {algebra.n}"
                )
            vectors.append(tuple(algebra.field.parse(e) for e in entries))
        else:
            for name in (s.strip() for s in spec.split(",")):
                if name == "1":
                    vectors.append(algebra.unit())
                    continue
                if name not in algebra.basis_names:
                    raise UnknownBasisName(f"unknown basis name {name!r}")
                vectors.append(algebra.basis_vector(algebra.basis_names.index(name)))
    return tuple(vectors)
