"""A wrong output or an exception is a failed operation, and the pass goes on."""

import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference as ref  # noqa: E402
import run  # noqa: E402
from calibrate import Clock  # noqa: E402
from workloads import Op, dims_check, length_check, report_failures  # noqa: E402


def fake_report(terms, length):
    return SimpleNamespace(charseq=terms, length=length, is_generating=length is not None)


def check_power2(report):
    return report_failures(report, ref.power2_charseq(5), True)


def raise_value_error():
    raise ValueError("broken")


class FailureAccounting(unittest.TestCase):
    def test_wrong_outputs_are_counted_and_the_pass_goes_on(self):
        ops = [
            Op("right", "compute_length", lambda: fake_report((0, 1, 2, 4, 8), 8), check_power2),
            Op("wrong", "compute_length", lambda: fake_report((0, 1, 2, 4, 7), 7), check_power2),
            Op("raises", "compute_length", raise_value_error, check_power2),
            Op("after", "compute_length", lambda: fake_report((0, 1, 2, 4, 8), 8), check_power2),
        ]
        records = []
        seconds, failures, _, _ = run.run_pass(ops, records, 0, Clock())
        self.assertEqual(len(seconds), 4)
        self.assertEqual(failures, ["addition_chain,charseq,length", "ValueError"])
        self.assertEqual([r[1] for r in records], ["right", "wrong", "raises", "after"])
        self.assertEqual([r[5] for r in records], [True, False, False, True])

    def test_cli_checks_do_not_take_expected_values_from_the_output(self):
        expected = ref.stall_charseq(3)
        not_generating = {"charseq": list(expected), "generating": False, "length": None}
        self.assertEqual(length_check(not_generating, expected, True), ["generating", "length"])
        truncated = {"dims": ref.dims_from_charseq(expected, 4)}
        self.assertEqual(dims_check(truncated, expected, 8), ["dims"])
        self.assertEqual(dims_check({"dims": ref.dims_from_charseq(expected, 8)}, expected, 8), [])

    def test_a_sequence_breaking_the_power_bound_is_flagged(self):
        bad = report_failures(fake_report((0, 1, 3), 3), (0, 1, 3), True)
        self.assertEqual(bad, ["addition_chain", "power_bound"])


if __name__ == "__main__":
    unittest.main()
