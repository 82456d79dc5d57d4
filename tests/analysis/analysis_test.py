#!/usr/bin/env python3
"""ctest harness for tools/analysis/catch_analyze.py.

Each fixture under tests/analysis/fixtures/ is a miniature repo (src/,
optional tools/analysis/waivers.txt). Fixtures named after a rule must
fail with that rule in the output and contain a negative control that
must stay quiet; `clean` and `waived` must pass; `unusedwaiver` passes
by default and fails --check-waivers.

Fixtures run with --frontend text so they work without a clang
toolchain; when clang++ is on PATH an extra parity test checks the
clang frontend reports the same cross-TU violation.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
ANALYZER = HERE.parents[1] / "tools" / "analysis" / "catch_analyze.py"

# fixture directory -> rule tag expected in the findings (None = clean)
EXPECTATIONS = {
    "clean": None,
    "waived": None,
    "unusedwaiver": None,  # clean by default; fails --check-waivers
    "stepalloc_transitive": "step-alloc-transitive",
    "warming": "warming-purity",
    "snapshot_hot": "snapshot-hot-path",
    "warm_digest": "warm-digest",
    "typedef_clock": "determinism-ast",
    "unordered_iter": "unordered-iter",
    "global_state": "global-state",
}


def run_analyzer(root: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ANALYZER), "--root", str(root),
         "--frontend", "text", *extra],
        capture_output=True, text=True, timeout=120)


class CatchAnalyzeFixtures(unittest.TestCase):
    def test_every_fixture_has_an_expectation(self):
        on_disk = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
        self.assertEqual(on_disk, set(EXPECTATIONS),
                         "fixtures and EXPECTATIONS out of sync")

    def test_fixtures(self):
        for name, rule in EXPECTATIONS.items():
            with self.subTest(fixture=name):
                proc = run_analyzer(FIXTURES / name)
                output = proc.stdout + proc.stderr
                if rule is None:
                    self.assertEqual(
                        proc.returncode, 0,
                        f"{name} must be clean, got:\n{output}")
                else:
                    self.assertEqual(
                        proc.returncode, 1,
                        f"{name} must fail, got rc={proc.returncode}:"
                        f"\n{output}")
                    self.assertIn(
                        f"[{rule}]", output,
                        f"{name} must report rule {rule}:\n{output}")

    def test_transitive_alloc_reports_the_cross_tu_chain(self):
        # The violation is two call edges away in another TU; the
        # finding must carry the witness path, and the setup-time
        # reserve reached only through bind() must stay legal.
        proc = run_analyzer(FIXTURES / "stepalloc_transitive")
        self.assertIn(
            "OooCore::step -> Helper::record -> Helper::append",
            proc.stdout)
        self.assertNotIn("sizeTables", proc.stdout,
                         "setup-path reserve must not be reported")
        self.assertEqual(
            len([l for l in proc.stdout.splitlines()
                 if "[step-alloc-transitive]" in l]), 1, proc.stdout)

    def test_warming_reports_stats_and_timing_separately(self):
        proc = run_analyzer(FIXTURES / "warming")
        self.assertIn("stats mutation", proc.stdout)
        self.assertIn("timing model (Dram::read)", proc.stdout)
        # Stats inside the timing model itself are the detailed
        # path's business: only the edge into Dram is a finding.
        self.assertNotIn("dram.cc", proc.stdout)

    def test_snapshot_hot_path_covers_the_page_image_half(self):
        # The COW page-image serializers (restorePages et al.) are
        # run-boundary operations exactly like the blob serializers:
        # both callees in Cache::lookup are findings, and neither of
        # Checkpoint::capture's calls is.
        proc = run_analyzer(FIXTURES / "snapshot_hot")
        findings = [l for l in proc.stdout.splitlines()
                    if "[snapshot-hot-path]" in l]
        self.assertEqual(len(findings), 2, proc.stdout)
        self.assertTrue(any("saveWarmState" in l for l in findings),
                        proc.stdout)
        self.assertTrue(any("restorePages" in l for l in findings),
                        proc.stdout)
        self.assertNotIn("Checkpoint", proc.stdout,
                         "run-boundary callers must stay legal")

    def test_warm_digest_reports_the_one_uncovered_knob(self):
        # 'ways' is in warmConfigDigest() and stays quiet; the schedule
        # knob 'intervalInstrs' is read while warming but is in no
        # digest, so it is the one finding.
        proc = run_analyzer(FIXTURES / "warm_digest")
        findings = [l for l in proc.stdout.splitlines()
                    if "[warm-digest]" in l]
        self.assertEqual(len(findings), 1, proc.stdout)
        self.assertIn("intervalInstrs", findings[0])
        self.assertNotIn("'ways'", proc.stdout,
                         "digest-covered knobs must stay legal")

    def test_typedef_clock_names_the_alias(self):
        proc = run_analyzer(FIXTURES / "typedef_clock")
        self.assertIn("alias 'Clk'", proc.stdout)
        self.assertIn("steady_clock", proc.stdout)
        self.assertNotIn("'Tick'", proc.stdout,
                         "non-clock alias must stay legal")

    def test_unordered_iter_spares_ordered_maps(self):
        proc = run_analyzer(FIXTURES / "unordered_iter")
        findings = [l for l in proc.stdout.splitlines()
                    if "[unordered-iter]" in l]
        self.assertEqual(len(findings), 1, proc.stdout)
        self.assertIn("'lookup_'", findings[0])

    def test_global_state_spares_const_and_constexpr(self):
        proc = run_analyzer(FIXTURES / "global_state")
        findings = [l for l in proc.stdout.splitlines()
                    if "[global-state]" in l]
        self.assertEqual(len(findings), 1, proc.stdout)
        self.assertIn("g_callCount", findings[0])

    def test_all_three_waiver_forms_suppress_and_stay_live(self):
        # inline (next-line), file-level and boundary waivers all
        # suppress their finding AND none reads as stale.
        proc = run_analyzer(FIXTURES / "waived", "--check-waivers")
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)

    def test_check_waivers_flags_stale_entries(self):
        proc = run_analyzer(FIXTURES / "unusedwaiver",
                            "--check-waivers")
        output = proc.stdout + proc.stderr
        self.assertEqual(proc.returncode, 1, output)
        self.assertIn("inline waiver allow(step-alloc-transitive)",
                      output)
        self.assertIn("determinism-ast src/core.cc", output)
        self.assertIn("boundary:OooCore::missing", output)

    def test_entry_points_resolve_in_the_real_tree(self):
        # Guards against the entry list rotting after a rename: every
        # listed entry point must exist in the real repo's graph.
        repo = ANALYZER.parents[2]
        proc = run_analyzer(repo, "--list-entries")
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)
        self.assertNotIn("MISSING", proc.stdout, proc.stdout)

    def test_real_repo_is_clean(self):
        repo = ANALYZER.parents[2]
        proc = run_analyzer(repo, "--check-waivers")
        self.assertEqual(
            proc.returncode, 0,
            "the real tree must stay analyzer-clean (waivers "
            "included):\n" + proc.stdout + proc.stderr)


class ClangFrontendParity(unittest.TestCase):
    """Exercised where a clang toolchain exists (CI); skipped
    elsewhere so ctest needs no toolchain beyond python."""

    def setUp(self):
        self.clangxx = os.environ.get("CATCH_CLANGXX") \
            or shutil.which("clang++")
        if not self.clangxx:
            self.skipTest("clang++ not available")

    def test_clang_frontend_finds_the_cross_tu_alloc(self):
        root = FIXTURES / "stepalloc_transitive"
        with tempfile.TemporaryDirectory() as td:
            compdb = Path(td) / "compile_commands.json"
            entries = [
                {"directory": str(root),
                 "command": f"{self.clangxx} -std=c++20 -c {cc}",
                 "file": str(cc)}
                for cc in sorted((root / "src").glob("*.cc"))
            ]
            compdb.write_text(json.dumps(entries))
            proc = subprocess.run(
                [sys.executable, str(ANALYZER), "--root", str(root),
                 "--frontend", "clang", "--compdb", str(compdb)],
                capture_output=True, text=True, timeout=300)
            output = proc.stdout + proc.stderr
            self.assertEqual(proc.returncode, 1, output)
            self.assertIn("[step-alloc-transitive]", output)
            self.assertIn(
                "OooCore::step -> Helper::record -> Helper::append",
                output)


if __name__ == "__main__":
    unittest.main(verbosity=2)
