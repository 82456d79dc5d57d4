#!/usr/bin/env python3
"""Unit tests of compare.py on synthetic result documents.

    python3 e2ebench/test_compare.py
"""

import contextlib
import io
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w1", "why": "a"}, {"name": "w2", "why": "b"}],
    "end_to_end": [
        {"name": "kips", "unit": "kinstr/s", "better": "higher",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "core.ipc", "unit": "instr/cycle",
                   "better": "higher"}],
}


def doc(kips, setup_s, ipc=1.0):
    """One run_bench.py --all document with the same values on w1, w2."""
    part = {"timed": {"metrics": {
                "kips": {"value": kips, "unit": "kinstr/s"},
                "setup_s": {"value": setup_s, "unit": "s"}}},
            "traced": {"metrics": {
                "core.ipc": {"value": ipc, "unit": "instr/cycle"}}}}
    return {"workloads": {"w1": part, "w2": part}}


def verdicts(parent, change):
    return {(w, m["name"]): v
            for w, m, _, _, v in compare.compare(parent, change, SPEC)}


class VerdictTest(unittest.TestCase):
    def test_identical_sets_are_unchanged(self):
        runs = [doc(1000 + i, 1.0 + i / 100) for i in range(10)]
        self.assertEqual(set(verdicts(runs, runs).values()), {"unchanged"})

    def test_clear_gain_is_better(self):
        parent = [doc(1000 + (i % 3), 1.0) for i in range(10)]
        change = [doc(1100 + (i % 3), 1.0) for i in range(10)]
        v = verdicts(parent, change)
        self.assertEqual(v[("w1", "kips")], "better")
        self.assertEqual(v[("w1", "setup_s")], "unchanged")

    def test_gain_needs_ten_pairs(self):
        parent = [doc(1000 + (i % 3), 1.0) for i in range(9)]
        change = [doc(1100 + (i % 3), 1.0) for i in range(9)]
        self.assertEqual(verdicts(parent, change)[("w1", "kips")],
                         "unchanged")

    def test_gain_needs_nine_tenths_of_wins(self):
        parent = [1000.0] * 10
        change = [1010.0] * 8 + [990.0] * 2
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "unchanged")
        change = [1010.0] * 9 + [990.0]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "better")

    def test_gain_must_exceed_parent_spread(self):
        parent = [1000, 1200, 1000, 1200, 1000, 1200, 1000, 1200, 1000, 1200]
        change = [p + 20 for p in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.25),
                         "unchanged")

    def test_regression_beyond_bound_is_worse(self):
        parent = [doc(1000, 1.0) for _ in range(3)]
        change = [doc(850, 1.3) for _ in range(3)]
        v = verdicts(parent, change)
        self.assertEqual(v[("w1", "kips")], "worse")
        self.assertEqual(v[("w1", "setup_s")], "worse")

    def test_regression_within_bound_is_unchanged(self):
        v = compare.verdict([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower", 0.25)
        self.assertEqual(v, "unchanged")

    def test_lower_is_better_direction(self):
        parent = [1.0 + 0.01 * (i % 3) for i in range(10)]
        change = [0.8 + 0.01 * (i % 3) for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.25),
                         "better")
        self.assertEqual(compare.verdict(change, parent, "lower", 0.25),
                         "unchanged")
        self.assertEqual(compare.verdict(change, parent, "lower", 0.1),
                         "worse")

    def test_noisy_parent_is_unresolved(self):
        parent = [800, 1200, 800, 1200, 800, 1200]
        change = [p * 0.97 for p in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "unresolved")

    def test_noisy_parent_resolves_when_every_run_is_better(self):
        parent = [800, 1000, 900, 1000, 800, 950]
        change = [1300, 1350, 1400, 1300, 1320, 1310]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "unchanged")

    def test_quartiles_match_statistics(self):
        vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        q = statistics.quantiles(vals, n=4)
        self.assertEqual(compare.quartiles(vals), (q[0], q[2]))
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0))


class CliTest(unittest.TestCase):
    def run_cli(self, parent, change, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "spec.json").write_text(json.dumps(SPEC))
            for side, docs in (("parent", parent), ("change", change)):
                (tmp / side).mkdir()
                for i, d in enumerate(docs):
                    (tmp / side / f"{i:02d}.json").write_text(json.dumps(d))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = compare.main(["--parent", str(tmp / "parent"),
                                       "--change", str(tmp / "change"),
                                       "--spec", str(tmp / "spec.json"),
                                       *extra])
            return status, out.getvalue()

    def test_exit_status_and_rows(self):
        status, out = self.run_cli([doc(1000, 1.0)], [doc(990, 1.0)],
                                   "--layers")
        self.assertEqual(status, 0)
        rows = [l for l in out.splitlines() if l.endswith("unchanged")]
        self.assertEqual(len(rows), 4)
        self.assertIn("layer w1", out)
        status, out = self.run_cli([doc(1000, 1.0)], [doc(700, 1.0)])
        self.assertEqual(status, 1)
        self.assertIn("worse", out)

    def test_missing_metric_fails(self):
        broken = doc(1000, 1.0)
        broken["workloads"]["w2"] = {"timed": {"metrics": {}}}
        status, out = self.run_cli([doc(1000, 1.0)], [broken])
        self.assertEqual(status, 1)
        self.assertIn("missing", out)


if __name__ == "__main__":
    unittest.main()
