import json
import time

import pytest

from alglength.bounds import CHECKS
from alglength.cli import main


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
def test_kmax_budget_rejected_at_once(pow2_file, capsys, command):
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


def test_oracle_check_huge_kmax_is_one_error_line(pow2_file, capsys):
    start = time.perf_counter()
    code = main(
        ["oracle-check", "--algebra", str(pow2_file), "--gens", "e1", "--kmax", "8000"]
    )
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error[BudgetExceeded]:")
    assert captured.err.count("\n") == 1


def test_verify_fib_k_on_unit_only_algebra(tmp_path, capsys):
    # k counts the terms equal to 1; the dim-1 algebra has none.
    alg = tmp_path / "d1.alg"
    alg.write_text("alglength-algebra v1\nfield rational\ndim 1\nbasis 1\n")
    code = main(["verify", "--algebra", str(alg), "--gens", "1", "--checks", "fib-k"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error[KOutOfRange]:")
    assert captured.err.count("\n") == 1


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
    ],
    ids=["prod-scalar", "gens-row", "dim", "field-prime-digits", "field-prime-size",
         "gen-example-digits", "gen-example-size", "gen-example-n"],
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


def test_oracle_check_word_budget_is_one_error_line(tmp_path, capsys):
    alg = tmp_path / "g7.alg"
    assert main(["gen-example", "--family", "lc-gap7", "--out", str(alg)]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    code = main(["oracle-check", "--algebra", str(alg), "--gens", "e1,e2,e3", "--kmax", "10"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error[BudgetExceeded]:")
    assert captured.err.count("\n") == 1


_ENGINE_OPTIONS = {"gens", "lc_shortcut", "require_generating"}


@pytest.mark.parametrize(
    "argv,options",
    [
        (["length", "--gens", "e1"], _ENGINE_OPTIONS),
        (["charseq", "--gens", "e1"], _ENGINE_OPTIONS),
        (["dims", "--gens", "e1", "--kmax", "3"], _ENGINE_OPTIONS | {"kmax"}),
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
