#!/usr/bin/env python3
"""ctest harness for tools/analysis/catch_analyze.py.

Each fixture under tests/analysis/fixtures/ is a miniature repo (src/,
optional tests/ and tools/analysis/waivers.txt). Fixtures named after a
rule must fail with that rule in the output, and most hold a negative
control that must stay quiet; `clean`, `statsonce_ok`, `rawstring` and
`waived` must pass; `unusedwaiver` passes by default and fails
--check-waivers.

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
    "statsonce_ok": None,
    "rawstring": None,
    "waived": None,
    "unusedwaiver": None,  # clean by default; fails --check-waivers
    "stepalloc_transitive": "step-alloc",
    "stepalloc_template": "step-alloc",
    "warming": "warming-purity",
    "warming_timeline": "warming-purity",
    "snapshot_hot": "snapshot-hot-path",
    "warm_digest": "warm-digest",
    "determinism": "determinism",
    "typedef_clock": "determinism",
    "unordered_iter": "unordered-iter",
    "unordered_alias": "unordered-iter",
    "global_state": "global-state",
    "env": "env-gateway",
    "rawnew": "raw-new-delete",
    "fatalboundary": "fatal-boundary",
    "includecc": "include-cc",
    "statsonce": "stats-once",
    "statsonce_fields": "stats-once",
    "coverage": "test-coverage",
}


def findings(proc, rule: str) -> list[str]:
    return [l for l in proc.stdout.splitlines() if f"[{rule}]" in l]


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

    def test_step_alloc_reports_chains_and_spares_setup(self):
        # One violation is two call edges away in another TU and must
        # carry the witness path; the other is in the warming entry
        # itself. Constructors' resize and the setup-time reserves
        # reached through bind() stay legal.
        proc = run_analyzer(FIXTURES / "stepalloc_transitive")
        found = findings(proc, "step-alloc")
        self.assertEqual({l.split(": ")[0] for l in found},
                         {"src/helper.cc:18", "src/fast_forward.cc:20"},
                         proc.stdout)
        self.assertIn(
            "OooCore::step -> Helper::record -> Helper::append",
            proc.stdout)
        self.assertIn("push_back in FastForward::warm()", proc.stdout)

    def test_step_alloc_follows_template_parameter_receivers(self):
        # warmFields(IO &io, ...) calls io.u64(): IO is a template
        # parameter, so the call resolves by method name and reaches
        # the sink's growing buffer from Cache::lookup.
        proc = run_analyzer(FIXTURES / "stepalloc_template")
        found = findings(proc, "step-alloc")
        self.assertEqual([l.split(": ")[0] for l in found],
                         ["src/state_io.hh:10"], proc.stdout)
        self.assertIn("Cache::lookup -> Cache::warmFields -> "
                      "StateSink::u64 -> StateSink::put", found[0])

    def test_warming_reports_stats_and_timing_separately(self):
        proc = run_analyzer(FIXTURES / "warming")
        self.assertIn("stats mutation", proc.stdout)
        self.assertIn("timing model (Dram::read)", proc.stdout)
        # Stats inside the timing model itself are the detailed
        # path's business: only the edge into Dram is a finding.
        self.assertNotIn("dram.cc", proc.stdout)

    def test_warming_flags_the_dram_timeline(self):
        # BusyTimeline books DRAM bank and bus time, so it is timing
        # model like Dram itself: the one finding is the edge into it,
        # and the functional LineTable beside it stays legal.
        proc = run_analyzer(FIXTURES / "warming_timeline")
        found = findings(proc, "warming-purity")
        self.assertEqual(len(found), 1, proc.stdout)
        self.assertIn("timing model (BusyTimeline::schedule)",
                      found[0])
        self.assertNotIn("LineTable", proc.stdout)

    def test_snapshot_hot_path_covers_page_images_and_field_lists(self):
        # The page-image restore and a section's warmFields field
        # list are run-boundary operations exactly like the blob
        # serializers: all three reached from Cache::lookup are
        # findings (the field list through a per-lookup helper), and
        # neither of Checkpoint::capture's calls is.
        proc = run_analyzer(FIXTURES / "snapshot_hot")
        found = findings(proc, "snapshot-hot-path")
        self.assertEqual(len(found), 3, proc.stdout)
        for name in ("saveWarmState", "restorePages", "warmFields"):
            self.assertTrue(any(name in l for l in found), proc.stdout)
        self.assertTrue(any("Tables::probe -> Tables::warmFields" in l
                            for l in found), proc.stdout)
        self.assertNotIn("Checkpoint", proc.stdout,
                         "run-boundary callers must stay legal")

    def test_warm_digest_reports_the_one_uncovered_knob(self):
        # 'ways' is in warmConfigDigest() and stays quiet; the schedule
        # knob 'intervalInstrs' is read while warming but is in no
        # digest, so it is the one finding.
        proc = run_analyzer(FIXTURES / "warm_digest")
        found = findings(proc, "warm-digest")
        self.assertEqual(len(found), 1, proc.stdout)
        self.assertIn("intervalInstrs", found[0])
        self.assertNotIn("'ways'", proc.stdout,
                         "digest-covered knobs must stay legal")

    def test_typedef_clock_names_the_alias(self):
        proc = run_analyzer(FIXTURES / "typedef_clock")
        self.assertIn("alias 'Clk'", proc.stdout)
        self.assertIn("steady_clock", proc.stdout)
        self.assertNotIn("'Tick'", proc.stdout,
                         "non-clock alias must stay legal")

    def test_determinism_scans_namespace_scope_and_names_the_fix(self):
        # Line 6 is a namespace-scope clock read: no function body
        # holds it, so only the line scan can report it.
        proc = run_analyzer(FIXTURES / "determinism")
        self.assertIn("catchsim::Rng", proc.stdout,
                      "finding must point at the seeded Rng")
        lines = {l.split(":")[1] for l in findings(proc, "determinism")}
        self.assertEqual(lines, {"6", "9", "11"}, proc.stdout)

    def test_fatal_boundary_names_both_violations(self):
        # std::exit and CATCHSIM_FATAL must each produce a finding;
        # the CATCHSIM_ASSERT in the clean fixture must not.
        proc = run_analyzer(FIXTURES / "fatalboundary")
        self.assertIn("process-terminating call", proc.stdout)
        self.assertIn("CATCHSIM_FATAL", proc.stdout)

    def test_raw_strings_do_not_desync_the_stripper(self):
        # Every banned token in the fixture lives inside raw string
        # data; a desynced stripper reports determinism/raw-new, or
        # eats the rest of the file and reports test-coverage.
        proc = run_analyzer(FIXTURES / "rawstring")
        output = proc.stdout + proc.stderr
        self.assertEqual(proc.returncode, 0, output)
        self.assertNotIn("[determinism]", output)
        self.assertNotIn("[raw-new-delete]", output)

    def test_unordered_iter_spares_ordered_maps(self):
        proc = run_analyzer(FIXTURES / "unordered_iter")
        found = findings(proc, "unordered-iter")
        self.assertEqual(len(found), 1, proc.stdout)
        self.assertIn("'lookup_'", found[0])

    def test_unordered_iter_sees_aliases_and_dereferences(self):
        # Containers declared through a type alias, reached through a
        # dereferenced raw or smart pointer, a receiver's member or an
        # aliased parameter; an ordered map behind a pointer and a
        # vector member sharing an unordered member's name are spared.
        proc = run_analyzer(FIXTURES / "unordered_alias")
        found = findings(proc, "unordered-iter")
        self.assertEqual(len(found), 5, proc.stdout)
        for name in ("pages_", "base_", "raw_", "pages", "m"):
            self.assertTrue(any(f"'{name}'" in f for f in found),
                            f"{name} not reported:\n{proc.stdout}")
        self.assertFalse(any("'ordered_'" in f for f in found))

    def test_global_state_spares_const_and_constexpr(self):
        proc = run_analyzer(FIXTURES / "global_state")
        found = findings(proc, "global-state")
        self.assertEqual(len(found), 1, proc.stdout)
        self.assertIn("g_callCount", found[0])

    def test_every_waiver_form_suppresses_and_stays_live(self):
        # Inline (next-line and trailing), file-level and boundary
        # waivers all suppress their finding AND none reads as stale.
        proc = run_analyzer(FIXTURES / "waived", "--check-waivers")
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)

    def test_check_waivers_flags_stale_entries(self):
        proc = run_analyzer(FIXTURES / "unusedwaiver",
                            "--check-waivers")
        output = proc.stdout + proc.stderr
        self.assertEqual(proc.returncode, 1, output)
        self.assertEqual(len(findings(proc, "unused-waiver")), 5, output)
        self.assertIn("inline waiver allow(step-alloc)", output)
        self.assertIn("inline waiver allow(determinism)", output)
        self.assertIn("determinism src/widget.cc", output)
        self.assertIn("test-coverage src/widget.cc", output)
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
            self.assertIn("[step-alloc]", output)
            self.assertIn(
                "OooCore::step -> Helper::record -> Helper::append",
                output)


if __name__ == "__main__":
    unittest.main(verbosity=2)
