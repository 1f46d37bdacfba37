"""The four workloads: each builds a fixed list of operations from a seed.

A workload is called as ``workload(rng, workdir)``.  That call makes every
seeded input and every expected value, with no call into alglength, and
returns ``build(ag)``, which builds the algebras through the program and
returns the operations.  Only ``build`` belongs to the timed set-up.  It
drops each input once it is built, so the inputs do not add to peak memory;
each ``build`` is therefore called once.

An operation is a call into alglength's public API with its own check.  The
seed picks coefficients, random tables and generator vectors; it never picks
sizes, so every seed asks for the same amount of work.  Checks compare with
:mod:`reference` (closed forms, counting formulas, a naive filtration) or
with properties the paper proves; none compares with a saved output.

The program is reached only through ``ag``, the namespace returned by
``run.import_program`` (the alglength package); functions are looked up on
it at call time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

import reference as ref


@dataclass
class Op:
    id: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]  # returns the names of the checks that failed
    direct_compute_length: int = 0  # calls to compute_length made by run() itself


# ----- shared checks ------------------------------------------------------


def sequence_failures(terms, strict: bool = False, fib: bool = False) -> list:
    bad = []
    if not ref.is_addition_chain(terms):
        bad.append("addition_chain")
    if strict and not ref.is_addition_chain(terms, strict=True):
        bad.append("strict_addition_chain")
    if not ref.meets_power_bound(terms):
        bad.append("power_bound")
    if fib and not ref.meets_fibonacci_bound(terms):
        bad.append("fibonacci_bound")
    return bad


def report_failures(report, expected, generating: bool, strict=False, fib=False) -> list:
    terms = tuple(report.charseq)
    bad = sequence_failures(terms, strict, fib)
    if terms != tuple(expected):
        bad.append("charseq")
    if report.is_generating != generating:
        bad.append("is_generating")
    if report.length != (expected[-1] if generating else None):
        bad.append("length")
    return bad


# ----- seeded inputs ------------------------------------------------------


def _nonzero(rng, p):
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))


def basis_gens(rng, dim: int, indices, p=None) -> list:
    """c_i e_(idx_i) + d_i * 1 in random order: the span of (1, S) stays that of the basis vectors."""
    gens = []
    for idx in indices:
        v = [0] * dim
        v[idx] = _nonzero(rng, p)
        v[0] = rng.randrange(p) if p else rng.randint(-5, 5)
        gens.append(v)
    rng.shuffle(gens)
    return gens


def _entry(rng, p):
    return rng.randrange(p) if p else rng.randint(-3, 3)


def dense_products(rng, n: int, p, closed: int = 0) -> dict:
    """Random dense table; with ``closed`` = m, span(e_0..e_(m-1)) is a subalgebra."""
    values = range(p) if p else range(-3, 4)  # the range of _entry
    products = {}
    for i in range(1, n):
        for j in range(1, n):
            top = closed if closed and i < closed and j < closed else n
            products[(i, j)] = {k: c for k, c in enumerate(rng.choices(values, k=top)) if c}
    return products


def random_vectors(rng, n: int, s: int, p, support: int = 0) -> list:
    top = support or n
    return [[_entry(rng, p) if k < top else 0 for k in range(n)] for _ in range(s)]


def same_span_gens(rng, gens, p) -> list:
    """M * S + unit multiples with M random and invertible: span(1, S) is unchanged."""
    s = len(gens)
    while True:
        m = [[_entry(rng, p) for _ in range(s)] for _ in range(s)]
        det = m[0][0] if s == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if (det % p) if p else det:
            break
    out = []
    for row in m:
        v = [sum(c * g[k] for c, g in zip(row, gens)) for k in range(len(gens[0]))]
        v[0] += _entry(rng, p)
        out.append([x % p for x in v] if p else v)
    return out


def drain(items: list):
    """Yield the items in order, dropping each from ``items``."""
    items.reverse()
    while items:
        yield items.pop()


def length_op(ag, op_id: str, algebra, gens, check, lc: bool = False) -> Op:
    def run():
        return ag.compute_length(algebra, gens, lc_shortcut=lc)

    return Op(op_id, "compute_length", run, check)


# ----- deep-filtration ----------------------------------------------------


def deep_filtration(rng, workdir: Path):
    cases = []  # (op id, family, n, gens, lc_shortcut, check)

    def add(family, n, dim, indices, expected, generating, lc=False, lc_family=False):
        tag = "S" + "".join(str(i) for i in indices)
        check = partial(report_failures, expected=expected, generating=generating,
                        strict=lc_family, fib=lc_family and generating)
        cases.append((f"{family}/{n}/{tag}{'/lc' if lc else ''}", family, n,
                      basis_gens(rng, dim, indices), lc, check))

    for n in range(3, 15):
        add("power2", n, n, [1], ref.power2_charseq(n), True)
        add("power2", n, n, [2], ref.power2_charseq(n, shifted=True), False)
    for n in range(4, 20):
        for lc in (False, True):
            add("fib-lc", n, n, [1, 2], ref.fib_charseq(n), True, lc, True)
            add("fib-lc", n, n, [2, 3], ref.fib_charseq(n, shifted=True), False, lc, True)
    for n in range(4, 49, 4):
        add("stall-chain", n, n + 2, [1], ref.stall_charseq(n), True)
    for n in range(4, 41, 4):
        for lc in (False, True):
            add("lc-gap-family", n, n + 4, [1, 2], ref.lc_gap_family_charseq(n), True, lc, True)
    for lc in (False, True):
        add("lc-gap7", None, 7, [1, 2, 3], ref.LC_GAP7_CHARSEQ, True, lc, True)

    def build(ag) -> list[Op]:
        return [length_op(ag, op_id, ag.make_example(family, n)[0], gens, check, lc)
                for op_id, family, n, gens, lc, check in cases]

    return build


# ----- wide-exact ---------------------------------------------------------

# Sizes keep every layer of the generic filtration at least 2 away from the
# free-magma count (reference.generic_margin), where a random table over a
# small field would be singular with probability about 1/p.
WIDE_GF = {101: (12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 26),
           10007: (12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 28, 30)}
WIDE_Q = (12,)
WIDE_CLOSED = ((101, 30, 12), (101, 36, 17), (10007, 32, 14), (10007, 40, 20), (None, 14, 12))
MODP = 10007


def same_span_ops(ag, charseqs: dict, base: str, algebra, gens, alt, expected) -> list[Op]:
    """S, then a second S with the same span(1, S), which must give the same sequence."""

    def check(report):
        bad = report_failures(report, expected, True)
        charseqs[base] = tuple(report.charseq)
        return bad

    def check_alt(report):
        bad = report_failures(report, expected, True)
        if charseqs.get(base) != tuple(report.charseq):
            bad.append("same_span")
        return bad

    return [length_op(ag, base, algebra, gens, check),
            length_op(ag, base + "/same-span", algebra, alt, check_alt)]


def modp_check(charseqs: dict, base: str, expected_dims):
    """Over GF(p), dim L_k is at most its value over Q for the same integer table."""

    def check(report):
        terms = tuple(report.charseq)
        bad = sequence_failures(terms)
        q_terms = charseqs.get(base)
        kmax = len(expected_dims) + 1
        if q_terms is None or any(
            a > b for a, b in zip(ref.dims_from_charseq(terms, kmax),
                                  ref.dims_from_charseq(q_terms, kmax))
        ):
            bad.append("modp_dims_le_q")
        if terms != ref.charseq_from_dims(expected_dims):
            bad.append("charseq")
        return bad

    return check


def wide_exact(rng, workdir: Path):
    generic = []  # (op id, p, n, products, gens, same-span gens, dims, charseq)
    closed = []  # (op id, p, n, products, gens, charseq)
    stalls = []  # (op id, p, n, gens, charseq)

    def draw(p, n, s):
        assert ref.generic_margin(n, s) >= 2, (p, n, s)
        products = dense_products(rng, n, p)
        gens = random_vectors(rng, n, s, p)
        dims = ref.generic_dims(n, s)
        generic.append((f"dense/{p or 'Q'}/{n}/s{s}", p, n, products, gens,
                        same_span_gens(rng, gens, p), dims, ref.charseq_from_dims(dims)))

    for p, sizes in WIDE_GF.items():
        for n in sizes:
            for s in (1, 2):
                draw(p, n, s)
    for n in WIDE_Q:
        for s in (1, 2):
            draw(None, n, s)
    for p, n, m in WIDE_CLOSED:
        for s in (1, 2):
            assert ref.generic_margin(m, s) >= 2, (p, m, s)
            closed.append((f"closed/{p or 'Q'}/{n}/m{m}/s{s}", p, n,
                           dense_products(rng, n, p, closed=m),
                           random_vectors(rng, n, s, p, support=m),
                           ref.charseq_from_dims(ref.generic_dims(m, s))))
    for p in (None, MODP):
        for n in (60, 120):
            stalls.append((f"stall-chain/{p or 'Q'}/{n}", p, n,
                           basis_gens(rng, n + 2, [1], p), ref.stall_charseq(n)))

    def build(ag) -> list[Op]:
        ops: list[Op] = []
        charseqs: dict = {}  # sequences a check leaves for a later operation's check in the pass

        def field_of(p):
            return ag.GF(p) if p else ag.QQ

        for base, p, n, products, gens, alt, dims, expected in drain(generic):
            algebra = ag.Algebra.from_products(field_of(p), n, products)
            ops += same_span_ops(ag, charseqs, base, algebra, gens, alt, expected)
            if p is None:
                modp = ag.Algebra.from_products(ag.GF(MODP), n, products)
                ops.append(length_op(ag, f"{base}/mod{MODP}", modp, gens,
                                     modp_check(charseqs, base, dims)))
        for op_id, p, n, products, gens, expected in drain(closed):
            algebra = ag.Algebra.from_products(field_of(p), n, products)
            ops.append(length_op(ag, op_id, algebra, gens,
                                 partial(report_failures, expected=expected, generating=False)))
        for op_id, p, n, gens, expected in stalls:
            algebra, _ = ag.make_example("stall-chain", n, field_of(p))
            ops.append(length_op(ag, op_id, algebra, gens,
                                 partial(report_failures, expected=expected, generating=True)))
        return ops

    return build


# ----- oracle-sweep -------------------------------------------------------

# (p, n, random tables) for brute-force l(A); power2 and fib-lc run at each.
BRUTE = ((2, 7, 1), (2, 6, 4), (2, 5, 8), (3, 5, 8))
WITNESS_MAX_N = 6
# (p, n, |S|, kmax, algebras) for word-enumeration cross-checks.
ENUM = tuple((p, n, 1, 8, 7) for p in (2, 3) for n in (4, 5, 6, 7)) + tuple(
    (p, n, 2, 7, 3) for p in (2, 3) for n in (4, 5, 6, 7)
)


def brute_check(name: str, products, p: int, n: int):
    def check(result):
        bad = []
        if result.subspaces_tested != ref.proper_unit_subspaces(n, p):
            bad.append("subspaces_tested")
        if not 1 <= result.length <= 1 << (n - 2):
            bad.append("power_bound")
        if name == "power2" and result.length != 1 << (n - 2):
            bad.append("power2_length")
        if n <= WITNESS_MAX_N:
            witness = [[int(x) % p for x in v] for v in result.witness]
            if ref.generating_length(products, n, witness, p) != result.length:
                bad.append("witness_length")
        return bad

    return check


def words_check(naive: list, kmax: int):
    def check(out):
        dims, report = out
        terms = tuple(report.charseq)
        bad = sequence_failures(terms)
        if list(dims) != ref.dims_from_charseq(terms, kmax):
            bad.append("words_vs_charseq")
        if list(dims) != naive:
            bad.append("words_vs_naive")
        return bad

    return check


def oracle_sweep(rng, workdir: Path):
    brute = []  # (op id, p, n, family or None, products, check)
    words = []  # (op id, p, n, products, gens, kmax, check)
    for p, n, randoms in BRUTE:
        tables = [("power2", ref.power2_products(n)), ("fib-lc", ref.fib_lc_products(n))]
        tables += [(f"rand{i}", dense_products(rng, n, p)) for i in range(randoms)]
        for name, products in tables:
            family = name if name in ("power2", "fib-lc") else None
            brute.append((f"brute/GF{p}/{n}/{name}", p, n, family, products,
                          brute_check(name, products, p, n)))
    for p, n, s, kmax, count in ENUM:
        for i in range(count):
            products = dense_products(rng, n, p)
            gens = random_vectors(rng, n, s, p)
            naive = ref.filtration_dims(products, n, gens, kmax, p)
            naive += [naive[-1]] * (kmax + 1 - len(naive))
            words.append((f"words/GF{p}/{n}/s{s}/k{kmax}/{i}", p, n, products, gens, kmax,
                          words_check(naive, kmax)))

    def build(ag) -> list[Op]:
        ops: list[Op] = []
        for op_id, p, n, family, products, check in brute:
            if family:
                algebra, _ = ag.make_example(family, n, ag.GF(p))
            else:
                algebra = ag.Algebra.from_products(ag.GF(p), n, products)

            def run(algebra=algebra):
                return ag.brute_force_algebra_length(algebra)

            ops.append(Op(op_id, "brute_force", run, check))
        for op_id, p, n, products, gens, kmax, check in words:
            algebra = ag.Algebra.from_products(ag.GF(p), n, products)

            def run(algebra=algebra, gens=gens, kmax=kmax):
                return (ag.enumerate_words_spans(algebra, gens, kmax),
                        ag.compute_length(algebra, gens))

            ops.append(Op(op_id, "words_vs_engine", run, check, direct_compute_length=1))
        return ops

    return build


# ----- cli-files ----------------------------------------------------------

# (family, n, field option, dim, generator indices, locally complex)
CLI_FAMILIES = (
    ("power2", 6, "rational", 6, (1,), False),
    ("power2", 9, "prime:2", 9, (1,), False),
    ("power2", 12, "rational", 12, (1,), False),
    ("fib-lc", 7, "rational", 7, (1, 2), True),
    ("fib-lc", 10, "prime:3", 10, (1, 2), False),
    ("fib-lc", 13, "rational", 13, (1, 2), True),
    ("fib-lc", 16, "rational", 16, (1, 2), True),
    ("stall-chain", 8, "rational", 10, (1,), False),
    ("stall-chain", 20, "prime:10007", 22, (1,), False),
    ("stall-chain", 30, "rational", 32, (1,), False),
    ("lc-gap-family", 6, "rational", 10, (1, 2), True),
    ("lc-gap-family", 12, "rational", 16, (1, 2), True),
    ("lc-gap-family", 24, "rational", 28, (1, 2), True),
    ("lc-gap7", None, "rational", 7, (1, 2, 3), True),
)
ALL_COMMANDS = ("length", "charseq", "verify", "dims")
# (dim, field option, chain products, commands): a stall chain of the given
# length placed on random basis elements of a large, otherwise empty table.
CLI_SPARSE = ((100, "rational", 5, ALL_COMMANDS),
              (150, "prime:10007", 5, ("length", "verify", "dims")))


def _closed_form(family, n):
    return {
        "power2": lambda: ref.power2_charseq(n),
        "fib-lc": lambda: ref.fib_charseq(n),
        "stall-chain": lambda: ref.stall_charseq(n),
        "lc-gap-family": lambda: ref.lc_gap_family_charseq(n),
        "lc-gap7": lambda: ref.LC_GAP7_CHARSEQ,
    }[family]()


def _prime(option: str):
    return int(option.split(":")[1]) if option.startswith("prime:") else None


def _gens_arg(gens, p) -> str:
    return ";".join("[" + ", ".join(str(x % p if p else x) for x in v) + "]" for v in gens)


def sparse_text(rng, dim: int, option: str, chain: int):
    """Canonical v1 text of a sparse table and the generator x_0 of its stall chain.

    x_0 x_0 = c x_1, x_0 x_i = c x_(i+1), x_chain x_chain = c x_(chain+1) on
    random distinct basis elements, plus two products no word of x_0 reaches;
    its characteristic sequence is the stall chain's for n = chain + 1.
    """
    p = _prime(option)
    xs = rng.sample(range(1, dim), chain + 4)
    pairs = [((xs[0], xs[0]), xs[1])]
    pairs += [((xs[0], xs[i]), xs[i + 1]) for i in range(1, chain)]
    pairs.append(((xs[chain], xs[chain]), xs[chain + 1]))
    pairs.append(((xs[chain + 2], xs[chain + 3]), xs[chain + 2]))
    pairs.append(((xs[chain + 3], xs[chain + 3]), xs[0]))
    names = ["1"] + [f"e{i}" for i in range(1, dim)]
    field_line = "field rational" if p is None else f"field prime {p}"
    lines = ["alglength-algebra v1", field_line, f"dim {dim}", "basis " + " ".join(names)]
    for (i, j), k in sorted(pairs):
        c = _nonzero(rng, p)
        lines.append(f"prod {names[i]} {names[j]} = " + (names[k] if c == 1 else f"{c}*{names[k]}"))
    gen = [0] * dim
    gen[xs[0]] = _nonzero(rng, p)
    gen[0] = rng.randrange(p) if p else rng.randint(-5, 5)
    return "\n".join(lines) + "\n", [gen]


def charseq_check(result, expected) -> list:
    bad = sequence_failures(tuple(result["charseq"]))
    return bad + ([] if tuple(result["charseq"]) == expected else ["charseq"])


def length_check(result, expected, generating: bool) -> list:
    bad = charseq_check(result, expected)
    if result["generating"] != generating:
        bad.append("generating")
    if result["length"] != (expected[-1] if generating else None):
        bad.append("length")
    return bad


def verify_check(result, expected) -> list:
    bad = [] if result["all_ok"] and all(result["checks"].values()) else ["verify_all_ok"]
    return bad + ([] if tuple(result["charseq"]) == expected else ["charseq"])


def dims_check(result, expected, kmax: int) -> list:
    return [] if result["dims"] == ref.dims_from_charseq(expected, kmax) else ["dims"]


def cli_files(rng, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    families = []  # (index, family, n, field option, locally complex, --gens, charseq)
    for idx, (family, n, option, dim, indices, lc) in enumerate(CLI_FAMILIES):
        p = _prime(option)
        families.append((idx, family, n, option, lc,
                         _gens_arg(basis_gens(rng, dim, indices, p), p), _closed_form(family, n)))
    sparse = []  # (name, path, --gens, charseq, commands)
    for idx, (dim, option, chain, names) in enumerate(CLI_SPARSE):
        text, gens = sparse_text(rng, dim, option, chain)
        path = workdir / f"sparse{idx}.alg"
        path.write_text(text, encoding="utf-8")
        sparse.append((f"sparse/{dim}/{option}", path, _gens_arg(gens, _prime(option)),
                       ref.stall_charseq(chain + 1), names))

    def build(ag) -> list[Op]:
        ops: list[Op] = []

        def cli(argv):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return ag.cli.main(argv)

        def command_op(op_id, path: Path, argv, json_check):
            out = workdir / f"{len(ops)}.json"

            def run():
                return cli(argv + ["--algebra", str(path), "--json", str(out)])

            def check(rc):
                if rc != 0:
                    return ["exit_code"]
                payload = json.loads(out.read_text(encoding="utf-8"))
                bad = []
                if payload["input"]["sha256"] != hashlib.sha256(path.read_bytes()).hexdigest():
                    bad.append("input_sha256")
                return bad + json_check(payload["result"])

            ops.append(Op(op_id, "cli:" + argv[0], run, check))

        def commands(name, path, gens_arg, expected, generating, lc, names):
            base = ["--gens", gens_arg]
            checks = "chain,chain-strict,power,fib,fib-k,lc" if lc else "chain,power"
            check_length = partial(length_check, expected=expected, generating=generating)
            check_charseq = partial(charseq_check, expected=expected)
            command_op(f"{name}/length", path, ["length"] + base, check_length)
            if "charseq" in names:
                command_op(f"{name}/charseq", path, ["charseq"] + base, check_charseq)
            if lc:
                for cmd, chk in (("length", check_length), ("charseq", check_charseq)):
                    command_op(f"{name}/{cmd}/lc", path, [cmd, "--lc-shortcut"] + base, chk)
            command_op(f"{name}/verify", path, ["verify", "--checks", checks] + base,
                       partial(verify_check, expected=expected))
            kmax = expected[-1] + 2
            command_op(f"{name}/dims", path, ["dims", "--kmax", str(kmax)] + base,
                       partial(dims_check, expected=expected, kmax=kmax))

        for idx, family, n, option, lc, gens_arg, expected in families:
            p = _prime(option)
            algebra, _ = ag.make_example(family, n, ag.GF(p) if p else ag.QQ)
            text = ag.serialize_algebra(algebra)
            path = workdir / f"family{idx}.alg"
            path.write_text(text, encoding="utf-8")
            name = f"{family}/{n}/{option}"
            generated = workdir / f"generated{idx}.alg"
            out = workdir / f"generated{idx}.json"
            argv = ["gen-example", "--family", family, "--field", option,
                    "--out", str(generated), "--json", str(out)]
            if n is not None:
                argv += ["--n", str(n)]

            def run_gen(argv=argv):
                return cli(argv)

            def check_gen(rc, generated=generated, out=out, text=text):
                if rc != 0:
                    return ["exit_code"]
                data = generated.read_bytes()
                payload = json.loads(out.read_text(encoding="utf-8"))
                bad = []
                if payload["input"]["sha256"] != hashlib.sha256(data).hexdigest():
                    bad.append("input_sha256")
                if data.decode("utf-8") != text:
                    bad.append("cli_matches_api")
                return bad

            ops.append(Op(f"{name}/gen-example", "cli:gen-example", run_gen, check_gen))

            def run_roundtrip(text=text):
                return ag.serialize_algebra(ag.parse_algebra(text))

            def check_roundtrip(result, text=text):
                return [] if result == text else ["roundtrip"]

            ops.append(Op(f"{name}/roundtrip", "fileformat", run_roundtrip, check_roundtrip))
            commands(name, path, gens_arg, expected, True, lc, ALL_COMMANDS)
        for name, path, gens_arg, expected, names in sparse:
            commands(name, path, gens_arg, expected, False, False, names)
        return ops

    return build


WORKLOADS = {
    "deep-filtration": deep_filtration,
    "wide-exact": wide_exact,
    "oracle-sweep": oracle_sweep,
    "cli-files": cli_files,
}
