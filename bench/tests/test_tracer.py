"""The tracer sees calls under every name and restores every wrapped function."""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402


def snapshot():
    """Every attribute of every alglength module and of every class defined there."""
    out = {}
    for module in tracing._program_modules():
        for name, obj in vars(module).items():
            out[(module.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("alglength"):
                for attr, raw in vars(obj).items():
                    out[(module.__name__, name, attr)] = raw
    return out


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.ag = run.import_program()

    def test_counts_calls_under_every_binding_and_restores_all(self):
        before = snapshot()
        tracer = tracing.Tracer()
        found = tracer.install()
        try:
            self.assertIn("alglength.length.compute_length", found)
            for module in ("alglength", "alglength.length", "alglength.oracle", "alglength.cli"):
                self.assertTrue(hasattr(sys.modules[module].compute_length, "__wrapped__"), module)
            algebra, gens = self.ag.make_example("power2", 5, self.ag.GF(2))
            self.ag.compute_length(algebra, gens)
            result = self.ag.brute_force_algebra_length(algebra)
            summary = tracer.summary()
        finally:
            tracer.uninstall()
        self.assertEqual(summary["length.compute_length.calls"], 1 + result.subspaces_tested)
        self.assertEqual(summary["oracle.brute_force_algebra_length.calls"], 1)
        self.assertGreater(summary["echelon.insert.grew"], 0)
        self.assertGreater(summary["fields.coerce.calls"], 0)
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_traced_setup_counts_construction_and_restores_all(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops, metrics = run.traced_setup("oracle-sweep", 1, Path(tmp))
        self.assertEqual(metrics["setup.algebra.construct.calls"], (len(ops), "count"))
        self.assertGreater(metrics["setup.fields.coerce.calls"][0], 0)
        left = [key for key, obj in snapshot().items()
                if getattr(getattr(obj, "__func__", obj), "__qualname__", "").startswith("Tracer.")]
        self.assertEqual(left, [])

    def test_missing_target_reports_zero_calls(self):
        saved = tracing.TARGETS
        tracing.TARGETS = saved + (
            ("length.compute_length", "alglength.length", "no_such_function", tracing.SPAN),
            ("echelon.insert", "alglength.no_such_module", "insert", tracing.SPAN),
            ("echelon.reduce", "alglength.echelon", "NoSuchClass.reduce", tracing.SPAN),
        )
        tracer = tracing.Tracer()
        try:
            tracer.install()
            summary = tracer.summary()
        finally:
            tracer.uninstall()
            tracing.TARGETS = saved
        self.assertEqual(summary["length.compute_length.calls"], 0)

    def test_self_time_excludes_child_spans(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            algebra, gens = self.ag.make_example("stall-chain", 20)
            self.ag.compute_length(algebra, gens)
            summary = tracer.summary()
        finally:
            tracer.uninstall()
        total = {}
        for idx in range(len(tracer.layer)):
            if tracer.parent[idx] < 0:
                name = tracer.layers[tracer.layer[idx]]
                total[name] = total.get(name, 0.0) + tracer.end[idx] - tracer.start[idx]
        self_sum = sum(v for k, v in summary.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_sum, sum(total.values()), places=6)


if __name__ == "__main__":
    unittest.main()
