import json
import shlex
import time
from pathlib import Path

import pytest

import alglength.cli
import alglength.oracle
from alglength.bounds import CHECKS
from alglength.cli import _build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def pow2_file(tmp_path):
    path = tmp_path / "pow2_4.alg"
    assert main(["gen-example", "--family", "power2", "--n", "4", "--out", str(path)]) == 0
    return path


def test_length_command_output(pow2_file, capsys):
    code = main(["length", "--algebra", str(pow2_file), "--gens", "e1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "l(S) = 4" in out
    assert "(0,1,2,4)" in out


def test_readme_command_line_prints_what_its_comments_say(tmp_path, monkeypatch, capsys):
    # The bash block of the README's "Command line" section, run line by
    # line in one directory: each succeeds, and each "# ..." is in its stdout.
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    comments = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "alglength", line
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if comment.strip():
            assert comment.strip() in out, line
            comments.append(comment.strip())
    assert comments == ["l(S) = 4", "(0,1,2,4)", "l(A) = 2"]


def test_gen_example_then_length_fib_lc(tmp_path, capsys):
    path = tmp_path / "f5.alg"
    assert main(["gen-example", "--family", "fib-lc", "--n", "5", "--out", str(path)]) == 0
    code = main(["length", "--algebra", str(path), "--gens", "e1,e2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "l(S) = 3" in out


def test_charseq_command(pow2_file, capsys):
    assert main(["charseq", "--algebra", str(pow2_file), "--gens", "e1"]) == 0
    assert "(0,1,2,4)" in capsys.readouterr().out


def test_dims_command(pow2_file, capsys):
    assert main(["dims", "--algebra", str(pow2_file), "--gens", "e1", "--kmax", "6"]) == 0
    assert "(1,2,3,3,4,4,4)" in capsys.readouterr().out


def test_verify_command_passes(tmp_path, capsys):
    path = tmp_path / "f5.alg"
    main(["gen-example", "--family", "fib-lc", "--n", "5", "--out", str(path)])
    code = main(
        ["verify", "--algebra", str(path), "--gens", "e1,e2",
         "--checks", "chain-strict,fib"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "check chain-strict: pass" in out
    assert "check fib: pass" in out
    assert "all checks passed" in out


def test_verify_command_fails_on_violated_bound(pow2_file, capsys):
    code = main(
        ["verify", "--algebra", str(pow2_file), "--gens", "e1", "--checks", "fib"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "check fib: FAIL" in captured.out
    assert captured.err.startswith("error[ChecksFailed]:")


def test_require_generating_failure(pow2_file, capsys):
    code = main(
        ["length", "--algebra", str(pow2_file), "--gens", "e2",
         "--require-generating"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error[NotGenerating]:")
    assert captured.err.count("\n") == 1


def test_not_generating_without_flag_is_reported(pow2_file, capsys):
    code = main(["length", "--algebra", str(pow2_file), "--gens", "e2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "not generating" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("alglength-algebra v1\nfield rational\ndim 2\nbasis 1 x\nprod x x = 2/4*x\n")
    code = main(["length", "--algebra", str(bad), "--gens", "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error[BadScalar]:")
    assert "line 5" in captured.err


def test_missing_file_exit_code(capsys):
    code = main(["length", "--algebra", "/nonexistent.alg", "--gens", "e1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[ParseError]:")


def test_usage_error_exit_code(capsys):
    assert main(["length"]) == 2  # --gens missing
    assert main(["no-such-command"]) == 2
    assert main(["length", "--gens", "e1"]) == 2  # --algebra missing
    assert capsys.readouterr().err.endswith(
        "error[ParseError]: --algebra PATH is required for this subcommand\n"
    )


def test_oracle_check_command(pow2_file, capsys):
    code = main(
        ["oracle-check", "--algebra", str(pow2_file), "--gens", "e1", "--kmax", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "agree: yes" in out


def test_brute_force_command(tmp_path, capsys):
    path = tmp_path / "p3.alg"
    main(
        ["gen-example", "--family", "power2", "--n", "3", "--out", str(path),
         "--field", "prime:2"]
    )
    code = main(["brute-force", "--algebra", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "l(A) = 2" in out


def test_brute_force_on_the_unit_only_algebra(tmp_path, capsys):
    path = tmp_path / "d1.alg"
    path.write_text("alglength-algebra v1\nfield prime 2\ndim 1\nbasis 1\n")
    assert main(["brute-force", "--algebra", str(path)]) == 0
    out = capsys.readouterr().out
    assert "l(A) = 0\nwitness: [1]\nsubspaces tested: 1, generating: 1\n" in out


def test_brute_force_rejects_rational(pow2_file, capsys):
    code = main(["brute-force", "--algebra", str(pow2_file)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error[PrimeFieldRequired]:")


def test_json_report_deterministic(pow2_file, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(
            ["length", "--algebra", str(pow2_file), "--gens", "e1",
             "--json", str(out)]
        ) == 0
    capsys.readouterr()
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["schema"] == 2
    assert "dims" not in payload["result"]
    assert payload["result"]["length"] == 4
    assert payload["result"]["charseq"] == [0, 1, 2, 4]
    assert payload["input"]["dim"] == 4
    assert len(payload["input"]["sha256"]) == 64


def test_json_report_for_verify_and_brute_force(tmp_path, capsys):
    alg = tmp_path / "f4.alg"
    main(["gen-example", "--family", "fib-lc", "--n", "4", "--out", str(alg),
          "--field", "prime:3"])
    report = tmp_path / "bf.json"
    assert main(["brute-force", "--algebra", str(alg), "--json", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["command"] == "brute-force"
    assert payload["result"]["length"] >= 1


def test_lc_shortcut_flag(tmp_path, capsys):
    alg = tmp_path / "f6.alg"
    main(["gen-example", "--family", "fib-lc", "--n", "6", "--out", str(alg)])
    code = main(
        ["length", "--algebra", str(alg), "--gens", "e1", "--lc-shortcut"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "stabilized_lc_window" in out


@pytest.mark.parametrize("command", ["dims", "oracle-check"])
def test_kmax_budget_rejected_at_once(pow2_file, capsys, monkeypatch, command):
    # The kmax limit is checked before the engine runs: on a large algebra
    # a run first and a refusal after would waste it.
    def engine(*args, **kwargs):
        pytest.fail("the engine ran before the kmax limit was checked")

    monkeypatch.setattr(alglength.cli, "compute_length", engine)
    code = main(
        [command, "--algebra", str(pow2_file), "--gens", "e1", "--kmax", str(2**40)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error[BudgetExceeded]:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["length", "charseq", "verify"])
@pytest.mark.parametrize("family,gens", [("power2", "e1"), ("fib-lc", "e1,e2")])
def test_long_filtrations_finish_quickly(tmp_path, capsys, family, gens, command):
    # l(S) is 2^38 for power2 and F_39 for fib-lc at n = 40: nothing may be
    # built per step k.
    alg = tmp_path / "a.alg"
    assert main(["gen-example", "--family", family, "--n", "40", "--out", str(alg)]) == 0
    report = tmp_path / "r.json"
    start = time.perf_counter()
    code = main([command, "--algebra", str(alg), "--gens", gens, "--json", str(report)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["result"]["charseq"][-1] == (2**38 if family == "power2" else 63245986)
    assert "dims" not in payload["result"]
    capsys.readouterr()


def test_not_generating_error_on_long_partial_sequence(tmp_path, capsys):
    alg = tmp_path / "p30.alg"
    assert main(["gen-example", "--family", "power2", "--n", "30", "--out", str(alg)]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    code = main(["length", "--algebra", str(alg), "--gens", "e2", "--require-generating"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error[NotGenerating]:")
    assert captured.err.count("\n") == 1
    assert "(0,1,2,4," in captured.err


def test_oracle_check_huge_kmax_agrees_at_once(pow2_file, capsys):
    # The span of e1 is full at length 4, so no longer word is evaluated.
    start = time.perf_counter()
    code = main(
        ["oracle-check", "--algebra", str(pow2_file), "--gens", "e1", "--kmax", "8000"]
    )
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert "agree: yes" in capsys.readouterr().out


@pytest.fixture()
def dim1_file(tmp_path):
    path = tmp_path / "d1.alg"
    path.write_text("alglength-algebra v1\nfield rational\ndim 1\nbasis 1\n")
    return path


def test_verify_fib_k_on_unit_only_algebra(dim1_file, capsys):
    # k counts the terms equal to 1; the dim-1 algebra has none.
    code = main(["verify", "--algebra", str(dim1_file), "--gens", "1", "--checks", "fib-k"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error[KOutOfRange]:")
    assert captured.err.count("\n") == 1


def test_verify_fib_on_unit_only_algebra(dim1_file, capsys):
    # m_h <= F_h for h >= 1 has no terms to check on the sequence (0,).
    code = main(["verify", "--algebra", str(dim1_file), "--gens", "1", "--checks", "fib"])
    captured = capsys.readouterr()
    assert code == 0
    assert "check fib: pass" in captured.out
    assert captured.err == ""


def test_consecutive_main_calls_print_what_each_prints_alone(pow2_file, capsys):
    # The parser is built once per process; a second call must not see the
    # first one's arguments, so verify falls back to its default --checks.
    runs = (
        ["dims", "--algebra", str(pow2_file), "--gens", "e1", "--kmax", "5"],
        ["verify", "--algebra", str(pow2_file), "--gens", "e1"],
    )
    capsys.readouterr()
    alone = []
    for argv in runs:
        _build_parser.cache_clear()
        alone.append((main(argv), capsys.readouterr()))
    _build_parser.cache_clear()
    together = []
    for argv in runs:
        together.append((main(argv), capsys.readouterr()))
    assert together == alone
    assert "check chain: pass" in alone[1][1].out
    assert "check power: pass" in alone[1][1].out


@pytest.mark.parametrize(
    "checks", ["fib-k,power,chain,chain,lc,chain-strict,fib", "lc,fib,fib,fib-k,power,chain-strict,chain"]
)
def test_verify_prints_checks_in_table_order_once(tmp_path, capsys, checks):
    path = tmp_path / "f5.alg"
    assert main(["gen-example", "--family", "fib-lc", "--n", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    code = main(["verify", "--algebra", str(path), "--gens", "e1,e2", "--checks", checks])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    names = [line.split()[1].rstrip(":") for line in lines if line.startswith("check ")]
    assert names == ["wellformed", *CHECKS, "lc"]


_BIG = "7" * 5000  # more digits than int() converts


def _alg(field="rational", dim="2", prod=""):
    return f"alglength-algebra v1\nfield {field}\ndim {dim}\nbasis 1 x\n{prod}"


_GEN = ["gen-example", "--family", "power2", "--n", "4", "--field"]


def _prime_denominators(count=5000):
    """One product whose ``count`` coefficients have distinct prime
    denominators: their lcm has about 70,000 bits, and every integral
    structure constant would carry them."""
    limit, primes = 50000, []
    composite = bytearray(limit)
    for p in range(2, limit):
        if not composite[p]:
            primes.append(p)
            composite[p * p::p] = b"\1" * len(range(p * p, limit, p))
    names = " ".join(f"x{i}" for i in range(1, count + 1))
    terms = " + ".join(f"1/{p}*x{i}" for i, p in enumerate(primes[:count], 1))
    return _alg(dim=str(count + 1), prod=f"prod x1 x1 = {terms}\n").replace(
        "basis 1 x\n", f"basis 1 {names}\n"
    )


def _spread_cells(count=600, dim=4096):
    """``count`` GF(101) products x1*x_j = x1 + x_(dim-1): each packs to dim-1
    slots of 64 bits, 32 KB, so together they exceed the table budget."""
    names = " ".join(f"x{i}" for i in range(1, dim))
    prods = "".join(f"prod x1 x{j} = x1 + x{dim - 1}\n" for j in range(1, count + 1))
    return _alg(field="prime 101", dim=str(dim), prod=prods).replace(
        "basis 1 x\n", f"basis 1 {names}\n"
    )


@pytest.mark.parametrize(
    "text,argv,error",
    [
        (_alg(prod=f"prod x x = {_BIG}*x\n"), ["length", "--gens", "x"], "BadScalar"),
        (_alg(), ["length", "--gens", f"[0, {_BIG}]"], "BadScalar"),
        (_alg(dim=_BIG), ["length", "--gens", "x"], "ParseError"),
        (_alg(field=f"prime {_BIG}"), ["length", "--gens", "x"], "ParseError"),
        (_alg(field="prime 1000000000000000003"), ["length", "--gens", "x"], "BudgetExceeded"),
        (None, _GEN + [f"prime:{_BIG}"], "ParseError"),
        (None, _GEN + ["prime:1000000000000000003"], "BudgetExceeded"),
        (None, ["gen-example", "--family", "power2", "--n", "1000000000"], "BudgetExceeded"),
        (_prime_denominators(), ["length", "--gens", "x1"], "BudgetExceeded"),
        (_spread_cells(), ["length", "--gens", "x1"], "BudgetExceeded"),
    ],
    ids=["prod-scalar", "gens-row", "dim", "field-prime-digits", "field-prime-size",
         "gen-example-digits", "gen-example-size", "gen-example-n", "denominators",
         "packed-slots"],
)
def test_huge_numbers_are_one_error_line(tmp_path, capsys, text, argv, error):
    path = tmp_path / "a.alg"
    if text is None:
        argv = argv + ["--out", str(path)]
    else:
        path.write_text(text)
        argv = argv + ["--algebra", str(path)]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == (1 if error == "BudgetExceeded" else 2)
    assert captured.out == ""
    assert captured.err.startswith(f"error[{error}]:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("token", ["\u00b2", "\u0663", "\uff13"],
                         ids=["superscript", "arabic-indic", "fullwidth"])
@pytest.mark.parametrize(
    "site", ["field-option", "field-line", "dim-line", "n-option", "kmax-option"]
)
def test_non_ascii_digits_are_one_error_line(pow2_file, tmp_path, capsys, site, token):
    out = tmp_path / "out.alg"
    if site == "field-option":
        argv = _GEN + [f"prime:{token}", "--out", str(out)]
    elif site == "n-option":
        argv = ["gen-example", "--family", "power2", "--n", token, "--out", str(out)]
    elif site == "kmax-option":
        argv = ["dims", "--algebra", str(pow2_file), "--gens", "e1", "--kmax", token]
    else:
        old = "field rational" if site == "field-line" else "dim 4"
        new = f"field prime {token}" if site == "field-line" else f"dim {token}"
        path = tmp_path / "a.alg"
        path.write_text(pow2_file.read_text(encoding="utf-8").replace(old, new),
                        encoding="utf-8")
        argv = ["length", "--algebra", str(path), "--gens", "e1"]
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error[ParseError]: ")
    assert captured.err.endswith(f"must be ASCII digits 0-9, got {token!r}\n")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case", ["json-path", "out-path", "not-utf8"])
def test_bad_paths_are_one_error_line(pow2_file, tmp_path, capsys, case):
    unwritable = str(tmp_path / "no-such-dir" / "x")
    if case == "json-path":
        argv = ["length", "--algebra", str(pow2_file), "--gens", "e1", "--json", unwritable]
    elif case == "out-path":
        argv = ["gen-example", "--family", "power2", "--n", "4", "--out", unwritable]
    else:
        latin1 = tmp_path / "latin1.alg"
        latin1.write_bytes(pow2_file.read_bytes() + "# caf\xe9\n".encode("latin-1"))
        argv = ["length", "--algebra", str(latin1), "--gens", "e1"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[ParseError]: cannot ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["gen-example", "--family", "power2", "--n", "4", "--lc-shortcut"], "--lc-shortcut"),
        (["gen-example", "--family", "power2", "--n", "4", "--algebra", "a.alg"], "--algebra"),
        (["brute-force", "--require-generating"], "--require-generating"),
    ],
    ids=["gen-example-lc-shortcut", "gen-example-algebra", "brute-force-require-generating"],
)
def test_flag_a_subcommand_does_not_take_is_a_usage_error(pow2_file, tmp_path, capsys,
                                                          argv, flag):
    out = tmp_path / "out.alg"
    where = ["--out", str(out)] if argv[0] == "gen-example" else ["--algebra", str(pow2_file)]
    code = main(argv + where)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--gens", "e1", "--kmax", "-1"],
        ["oracle-check", "--gens", "e1", "--kmax", "-1"],
        ["verify", "--gens", "e1", "--checks", "chain,bogus"],
        ["verify", "--gens", "e1", "--checks", ""],
        ["verify", "--gens", "e1", "--checks", ",,"],
        ["gen-example", "--family", "power2", "--n", "4", "--field", "real"],
        ["gen-example", "--family", "power2", "--n", "4", "--field", "prime:4"],
        ["gen-example", "--family", "power2", "--n", "4", "--field", "prime:1"],
        ["gen-example", "--family", "power2", "--n", "4", "--field", "prime:0"],
        ["dims", "--gens", "e1", "--kmax", "+2"],
        ["oracle-check", "--gens", "e1", "--kmax", " 3"],
        ["gen-example", "--family", "power2", "--n", "1_0"],
        ["gen-example", "--family", "power2", "--n", "-1"],
    ],
    ids=["dims-kmax", "oracle-check-kmax", "verify-checks", "verify-checks-empty",
         "verify-checks-commas", "gen-example-field",
         "gen-example-prime-4", "gen-example-prime-1", "gen-example-prime-0",
         "dims-kmax-plus", "oracle-check-kmax-space", "gen-example-n-underscore",
         "gen-example-n-minus"],
)
def test_bad_option_values_are_one_error_line(pow2_file, tmp_path, capsys, argv):
    out, report = tmp_path / "out.alg", tmp_path / "r.json"
    where = ["--out", str(out)] if argv[0] == "gen-example" else ["--algebra", str(pow2_file)]
    code = main(argv + where + ["--json", str(report)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error[ParseError]:")
    assert captured.err.count("\n") == 1
    assert not out.exists()
    assert not report.exists()


@pytest.mark.parametrize("require", [[], ["--require-generating"]], ids=["plain", "require"])
def test_dims_lc_shortcut_needs_locally_complex_basis(pow2_file, capsys, require):
    argv = ["dims", "--algebra", str(pow2_file), "--gens", "e1", "--kmax", "6",
            "--lc-shortcut"]
    code = main(argv + require)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error[NotLocallyComplex]:")
    assert captured.err.count("\n") == 1


def test_oracle_check_require_generating(pow2_file, tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["oracle-check", "--algebra", str(pow2_file), "--gens", "e2", "--kmax", "5",
                 "--require-generating", "--json", str(report)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error[NotGenerating]:")
    assert captured.err.count("\n") == 1
    assert not report.exists()


def test_oracle_check_on_three_generators_agrees(tmp_path, capsys):
    # 318,380,772 bracketed words of lengths 1..10, but their span is full
    # at length 4.
    alg = tmp_path / "g7.alg"
    assert main(["gen-example", "--family", "lc-gap7", "--out", str(alg)]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    code = main(["oracle-check", "--algebra", str(alg), "--gens", "e1,e2,e3", "--kmax", "10"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "oracle dims: (1,4,6,6,7,7,7,7,7,7,7)" in capsys.readouterr().out


def test_oracle_check_products_budget_is_one_error_line(pow2_file, capsys, monkeypatch):
    # power2 at n = 4 stores 2 cells, so a product costs 2 + 4: e2 squared
    # at length 2 costs 1 + 6, past a budget of 6.
    monkeypatch.setattr(alglength.oracle, "PRODUCT_BUDGET", 6)
    code = main(["oracle-check", "--algebra", str(pow2_file), "--gens", "e2", "--kmax", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(
        "error[BudgetExceeded]: the words of lengths 1..2 (kmax=5, n=4) exceed the 6 "
        "products budget at 1 a pair of lines and 6 (cells + n) a distinct product"
    )
    assert captured.err.count("\n") == 1


_ENGINE_OPTIONS = {"gens", "lc_shortcut", "require_generating"}


@pytest.mark.parametrize(
    "argv,options",
    [
        (["length", "--gens", "e1"], _ENGINE_OPTIONS),
        (["charseq", "--gens", "e1"], _ENGINE_OPTIONS),
        (["dims", "--gens", "e1", "--kmax", "03"], _ENGINE_OPTIONS | {"kmax"}),
        (["verify", "--gens", "e1"], _ENGINE_OPTIONS | {"checks"}),
        (["oracle-check", "--gens", "e1", "--kmax", "3"], _ENGINE_OPTIONS | {"kmax"}),
        (["brute-force"], set()),
        (["gen-example", "--family", "power2", "--n", "3"], {"family", "n", "field"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_report_options_are_the_subcommands_own_arguments(tmp_path, capsys, argv, options):
    alg = tmp_path / "p3.alg"
    assert main(["gen-example", "--family", "power2", "--n", "3", "--field", "prime:2",
                 "--out", str(alg)]) == 0
    where = ["--out", str(tmp_path / "out.alg")] if argv[0] == "gen-example" else [
        "--algebra", str(alg)]
    report = tmp_path / "r.json"
    assert main(argv + where + ["--json", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["command"] == argv[0]
    assert set(payload["options"]) == options
    if argv[0] == "verify":
        assert payload["options"]["checks"] == ["chain", "power"]
    for name in ("kmax", "n"):  # ints, whatever the token's leading zeros
        if name in options:
            assert type(payload["options"][name]) is int and payload["options"][name] == 3
