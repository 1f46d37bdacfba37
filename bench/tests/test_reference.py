"""The reference functions give known small values.

Run: python3 -m unittest discover -s bench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference as ref  # noqa: E402


class KnownValues(unittest.TestCase):
    def test_catalan(self):
        self.assertEqual([ref.catalan(m) for m in range(8)], [1, 1, 2, 5, 14, 42, 132, 429])

    def test_fibonacci(self):
        self.assertEqual([ref.fibonacci(i) for i in range(1, 11)],
                         [1, 1, 2, 3, 5, 8, 13, 21, 34, 55])

    def test_gaussian_binomials(self):
        self.assertEqual([ref.gaussian_binomial(4, r, 2) for r in range(5)], [1, 15, 35, 15, 1])
        self.assertEqual(ref.gaussian_binomial(3, 1, 3), 13)
        # Subspaces of GF(2)^5 holding the unit, minus span(unit): 15 + 35 + 15 + 1.
        self.assertEqual(ref.proper_unit_subspaces(5, 2), 66)

    def test_closed_forms(self):
        self.assertEqual(ref.power2_charseq(5), (0, 1, 2, 4, 8))
        self.assertEqual(ref.power2_charseq(5, shifted=True), (0, 1, 2, 4))
        self.assertEqual(ref.fib_charseq(7), (0, 1, 1, 2, 3, 5, 8))
        self.assertEqual(ref.fib_charseq(7, shifted=True), (0, 1, 1, 2, 3, 5))
        self.assertEqual(ref.stall_charseq(3), (0, 1, 2, 3, 6))
        self.assertEqual(ref.lc_gap_family_charseq(4), (0, 1, 1, 2, 3, 4, 4, 8))

    def test_generic_dims(self):
        self.assertEqual(ref.generic_dims(12, 1), [1, 2, 3, 5, 10, 12])
        self.assertEqual(ref.generic_dims(12, 2), [1, 3, 7, 12])
        self.assertEqual(ref.generic_margin(12, 1), 2)
        self.assertEqual(ref.generic_margin(10, 1), 0)

    def test_dims_and_charseq_are_inverse(self):
        terms = ref.stall_charseq(3)
        dims = ref.dims_from_charseq(terms, 6)
        self.assertEqual(dims, [1, 2, 3, 4, 4, 4, 5])
        self.assertEqual(ref.charseq_from_dims(dims), terms)

    def test_addition_chains(self):
        self.assertTrue(ref.is_addition_chain((0, 1, 2, 4, 8)))
        self.assertFalse(ref.is_addition_chain((0, 1, 2, 4, 8), strict=True))
        self.assertTrue(ref.is_addition_chain((0, 1, 1, 2, 3, 5), strict=True))
        self.assertFalse(ref.is_addition_chain((0, 1, 3)))
        self.assertTrue(ref.meets_power_bound((0, 1, 2, 4)))
        self.assertFalse(ref.meets_power_bound((0, 1, 3)))
        self.assertFalse(ref.meets_fibonacci_bound((0, 1, 2)))

    def test_naive_filtration(self):
        n, p = 5, 2
        gens = [[0, 1, 0, 0, 0]]
        self.assertEqual(ref.filtration_dims(ref.power2_products(n), n, gens, 8, p),
                         [1, 2, 3, 3, 4, 4, 4, 4, 5])
        self.assertEqual(ref.generating_length(ref.power2_products(n), n, gens, p), 8)
        self.assertEqual(ref.generating_length(ref.fib_lc_products(6), 6,
                                               [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], None), 5)
        self.assertIsNone(ref.generating_length(ref.power2_products(n), n, [[0, 0, 1, 0, 0]], p))


if __name__ == "__main__":
    unittest.main()
