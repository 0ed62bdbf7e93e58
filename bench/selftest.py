"""Self-tests of the benchmark itself: pinned verdicts, the correctness gate, the tracer.

Run from the repository root (about fifteen seconds):

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from godeaux_cert import cli, exact_arith, pdo_algebra, quintic_family  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import LatticeRR, SurfaceSweep, default_config, load_pinned  # noqa: E402

PINNED = load_pinned()


class PinnedPanel(unittest.TestCase):
    def test_translates_reproduce_pinned_verdicts_at_q11(self):
        for seed in (1, 2):
            wl = SurfaceSweep(seed, PINNED, q=11)
            for i in range(len(wl.panel)):
                inp = wl.inputs(i)
                self.assertNotEqual(list(inp[2]["coefficients"]), inp[0]["coefficients"])
                self.assertIsNone(wl.verify(inp, wl.run(inp)))

    def test_every_verdict_says_how_it_was_obtained(self):
        for member in PINNED["panel"]:
            self.assertEqual(set(member["how"].values()) - {"construction", "brute-force"}, set())
            for q in PINNED["panel_primes"]:
                self.assertEqual(set(member["verdicts"][str(q)]), set(member["how"]))


class CorrectnessGate(unittest.TestCase):
    def test_wrong_expected_verdict_counts_as_failed(self):
        pinned = copy.deepcopy(PINNED)
        verdicts = pinned["panel"][0]["verdicts"]["11"]
        verdicts["smooth"] = not verdicts["smooth"]
        wl = SurfaceSweep(1, pinned, q=11)
        wl.panel = wl.panel[:1]
        res = worker.timed_phase(wl, 0.2)
        self.assertEqual(len(res["failures"]), res["attempted"])
        self.assertIn("surface.smooth.q11", res["failures"][0])

    def test_missing_check_id_counts_as_failed(self):
        pinned = copy.deepcopy(PINNED)
        pinned["check_ids"]["lattice"].append("lattice.not_a_check")
        res = worker.timed_phase(LatticeRR(1, pinned), 0.2)
        self.assertGreater(res["attempted"], 1)
        self.assertEqual(len(res["failures"]), res["attempted"])
        self.assertIn("missing check ids", res["failures"][0])

    def test_correct_outputs_pass(self):
        res = worker.timed_phase(LatticeRR(1, PINNED), 0.2)
        self.assertEqual(res["failures"], [])
        # one reference sample before operation 0 and one after every operation
        self.assertEqual(len(res["ref_ms"]), res["attempted"] + 1)


class WrapperSeen(LatticeRR):
    """LatticeRR that notes, inside each timed call, how many wrappers are installed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []

    def run(self, cfg):
        self.seen.append(tracer.installed_wrappers())
        return super().run(cfg)


class Tracing(unittest.TestCase):
    def test_uninstall_restores_every_original(self):
        before = tracer.lookup_sites()
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertTrue(getattr(cli.SUITE_FUNCS["surface"], "__bench_wrapper__", False))
            self.assertTrue(getattr(cli.run, "__bench_wrapper__", False))
            self.assertTrue(
                getattr(quintic_family.iter_projective_coords, "__bench_wrapper__", False)
            )
            # only the name quintic_family looks up is patched, not the definition
            self.assertFalse(getattr(exact_arith.iter_projective_coords, "__bench_wrapper__", False))
            for owner, attr in (
                (pdo_algebra.TruncatedOperator, "__init__"),
                (exact_arith.FieldElement, "__post_init__"),
                (exact_arith.SparsePolynomial, "eval"),
            ):
                self.assertTrue(getattr(owner.__dict__[attr], "__bench_wrapper__", False))
        finally:
            tr.uninstall()
        after = tracer.lookup_sites()
        self.assertEqual(len(before), len(after))
        for (c0, k0, v0), (c1, k1, v1) in zip(before, after):
            self.assertIs(c0, c1)
            self.assertEqual(k0, k1)
            self.assertIs(v0, v1, f"{k0} not restored")
        self.assertEqual(tracer.installed_wrappers(), 0)

    def test_reference_loop_calls_nothing_of_the_program(self):
        tr = tracer.Tracer()
        tr.install()
        try:
            worker.reference()
        finally:
            tr.uninstall()
        self.assertEqual(tr.spans, [])
        self.assertEqual(sum(tr.counts.values()), 0)

    def test_timed_runs_carry_no_wrapper(self):
        wl = WrapperSeen(1, PINNED)
        res = worker.timed_phase(wl, 0.3)
        self.assertEqual(res["wrappers"], 0)
        self.assertEqual(set(wl.seen), {0})

    def test_traced_phase_traces_only_its_traced_half(self):
        wl = WrapperSeen(1, PINNED)
        res = worker.traced_phase(wl, 0.3, None)
        n = res["layers"]["trace.ops"]
        self.assertEqual(res["wrappers"], 0)
        self.assertEqual(res["failures"], [])
        self.assertEqual(sum(1 for w in wl.seen if w == 0), n + 1)
        self.assertEqual(sum(1 for w in wl.seen if w > 0), n)
        self.assertEqual(res["layers"]["rr_engine.prespectral_hilbert_check.calls"], 4800)
        self.assertGreater(res["layers"]["trace.suite_share_pct"], 95)

    def test_points_scanned_counts_full_scans(self):
        # dense0 is smooth and transversal at q=11: every scan runs to the end
        cfg = default_config(primes=(11,), coefficients=PINNED["panel"][0]["coefficients"])
        tr = tracer.Tracer()
        tr.install()
        try:
            tr.call("op", cli.run, "surface", cfg)
        finally:
            tr.uninstall()
        q = 11
        full = exact_arith.projective_count(q, 3) + 4 * exact_arith.projective_count(q, 2)
        self.assertEqual(tr.counts["quintic_family.points_scanned"], full)
        self.assertGreater(tr.counts["exact_arith.FieldElement.constructed"], 0)
        layers = tracer.aggregate(tr.spans, tr.counts, 1)
        self.assertEqual(layers["quintic_family.smoothness_check.q11.calls"], 1)
        self.assertEqual(layers["quintic_family.transversality_check.q11.calls"], 4)
        self.assertEqual(layers["quintic_family.free_action_check.calls"], 1001)

    def test_op_mul_counts(self):
        cfg = default_config(trials=3)
        tr = tracer.Tracer()
        tr.install()
        try:
            tr.call("op", cli.run, "pdo", cfg)
        finally:
            tr.uninstall()
        layers = tracer.aggregate(tr.spans, tr.counts, 1)
        self.assertGreater(layers["pdo_algebra.op_mul.calls"], 0)
        self.assertGreater(layers["pdo_algebra.op_mul.term_pairs"], 0)
        self.assertGreater(layers["pdo_algebra.TruncatedOperator.calls"], 0)
        self.assertGreaterEqual(layers["pdo_algebra.op_mul.busy_ms"], layers["pdo_algebra.op_mul.self_ms"])


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_tracer_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        got = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(got, tracer.layer_metric_specs())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_exits_nonzero_without_the_program(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "lattice_rr", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
