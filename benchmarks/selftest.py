"""Self-tests of the benchmark itself (not of hstrata).

Run from the root of a checkout:  python3 benchmarks/selftest.py

They check that a wrong answer counts as a failure, that traced self times
fit inside the pass, that inputs depend on the seed only as documented, and
that BENCHMARK.json matches the metrics run.py prints.  The file name keeps
pytest from collecting it into the package's own suite.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def _cli_request(ops: list[dict], tmp: str, trace: bool = False) -> dict:
    return {"workload": "cli", "ops": ops, "trace": trace, "root": str(ROOT),
            "span_dir": os.path.join(tmp, "spans"), "cache_dir": os.path.join(tmp, "cache")}


class WrongAnswersFail(unittest.TestCase):
    def setUp(self):
        self.saved_env = dict(os.environ)
        os.environ.clear()
        os.environ.update(run.environment())

    def tearDown(self):
        os.environ.clear()
        os.environ.update(self.saved_env)

    def test_injected_fault_is_one_failed_op(self):
        ops = [
            inputs.cli_op("verify", ["--max-cells", "3", "--inject-fault"], "text", cells=3),
            inputs.cli_op("verify", ["--max-cells", "3"], "json", cells=3),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            records = worker.run_cli(_cli_request(ops, tmp))["records"]
        self.assertEqual(records[0]["exit"], 1)
        self.assertTrue(records[0]["problems"])
        self.assertEqual(records[1]["problems"], [])

    def test_tampered_expected_tally_fails(self):
        import hstrata.genfunc

        op = {"m": 3, "n": 3}
        counts = {0: 70, 1: 109, 2: 45, 3: 6}
        expected = checks.poly_counts(hstrata.genfunc.stratum_poly(3, 3))
        self.assertEqual(checks.check_tally(op, counts, expected), [])
        tampered = {**expected, 1: expected[1] + 1}
        self.assertTrue(checks.check_tally(op, counts, tampered))
        self.assertTrue(checks.check_tally(op, {**counts, 2: 44}, expected))

    def test_lookup_answers(self):
        rows = ["#..", "##."]
        perm = inputs.walk_permutation(rows)
        op = {"m": 2, "n": 3, "perm": perm}
        self.assertEqual(checks.check_lookup(op, "\n".join(rows)), [])
        self.assertTrue(checks.check_lookup(op, None))  # restricted, so it must be found
        other = ["...", "..."]
        self.assertTrue(checks.check_lookup(op, "\n".join(other)))
        decoy = {"m": 2, "n": 3, "perm": [5, 4, 3, 2, 1]}
        self.assertFalse(inputs.is_restricted(decoy["perm"], 2, 3))
        self.assertEqual(checks.check_lookup(decoy, None), [])

    def test_oracle_matches_closed_form_counts(self):
        self.assertEqual(checks.oracle_tally(3, 3), {0: 70, 1: 109, 2: 45, 3: 6})
        self.assertEqual(sum(checks.oracle_tally(3, 4).values()), inputs.poly_bernoulli(3, 4))


class Tracing(unittest.TestCase):
    def test_self_times_fit_in_the_pass(self):
        ops = [{"cls": "t", "kind": "tally", "m": 3, "n": 3, "method": meth} for meth in ("cycles", "kernel")]
        ops.append({"cls": "v", "kind": "verify", "cells": 4})
        with tempfile.TemporaryDirectory() as tmp:
            req = {"workload": "enum", "trace": True, "root": str(ROOT), "ops": ops, "span_dir": tmp}
            req_path = Path(tmp, "request.json")
            req_path.write_text(json.dumps(req))
            t0 = time.perf_counter()
            done = worker.run_process([sys.executable, str(BENCH_DIR / "worker.py"), str(req_path)], 60, env=run.environment())
            wall = time.perf_counter() - t0
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().split("\n")[-1])
            header = json.loads(Path(tmp, "spans.json").read_text())
            size = Path(tmp, "spans.spans").stat().st_size
        trace = result["trace"]
        op_s = sum(r["s"] for r in result["records"])
        self.assertTrue(all(r["problems"] == [] for r in result["records"]))
        self.assertLessEqual(sum(trace["self_s"].values()), op_s)
        self.assertLess(op_s, wall)
        self.assertEqual(trace["calls"]["enumeration.tally_dimensions"], 2)
        self.assertEqual(trace["yielded"], 2 * 230 + checks.verify_diagrams(4))
        self.assertEqual(size, header["count"] * (4 + 4 + 8 + 8))


class Inputs(unittest.TestCase):
    def test_seed_changes_arguments_only(self):
        def shapes(ops):
            return sorted((op["cls"], op.get("m", 0), op.get("n", 0) if op["cls"][:12] != "stratum_poly" else 0) for op in ops)

        for workload in inputs.WORKLOADS:
            a, b = inputs.make_ops(workload, 1), inputs.make_ops(workload, 1)
            c = inputs.make_ops(workload, 2)
            self.assertEqual(a, b)
            self.assertEqual(shapes(a), shapes(c))
        self.assertNotEqual(inputs.make_ops("cli", 1), inputs.make_ops("cli", 2))
        self.assertNotEqual(inputs.make_ops("formula", 1), inputs.make_ops("formula", 2))

    def test_cli_mix(self):
        ops = inputs.make_ops("cli", 7)
        self.assertGreaterEqual(len(ops), 100)
        for op in ops:
            if op["cls"] == "dim_16x16":
                self.assertEqual(op["stdin"].count("."), 246)
                self.assertTrue(inputs.is_cauchon(op["stdin"].split()))
        roles = [op["cls"] for op in ops if "cache" in op]
        for pair in {op["cache"] for op in ops if "cache" in op}:
            order = [op["cls"] for op in ops if op.get("cache") == pair]
            self.assertEqual(order, ["count_enum_miss", "count_enum_hit"])
        self.assertEqual(len(roles), 2 * inputs.CLI_CACHE_PAIRS)

    def test_formula_shares_half_of_m(self):
        ops = [op for op in inputs.make_ops("formula", 3) if op["kind"] == "stratum_poly"]
        self.assertEqual(len({op["m"] for op in ops}) * 2, len(ops))


class Description(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(inputs.WORKLOADS))
        self.assertTrue(all(w["why"].strip() for w in spec["workloads"]))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertIn("setup_s", run.END_TO_END_UNITS)
        self.assertEqual(spec["paths"], ["benchmarks"])


if __name__ == "__main__":
    unittest.main()
