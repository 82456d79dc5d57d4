#!/usr/bin/env python3
"""ctest harness for tools/lint/catch_lint.py.

Each fixture under tests/lint/fixtures/ is a miniature repo (src/,
tests/, optional tools/lint/waivers.txt). Fixtures named after a rule
must fail with that rule in the output; `clean`, `statsonce_ok` and
`waived` must pass — the last two pin down the scope semantics
(sibling JSON objects may reuse keys) and the waiver mechanisms.
"""

import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
LINTER = HERE.parents[1] / "tools" / "lint" / "catch_lint.py"

# fixture directory -> rule tag expected in the findings (None = clean)
EXPECTATIONS = {
    "clean": None,
    "statsonce_ok": None,
    "waived": None,
    "rawstring": None,
    "unusedwaiver": None,  # clean by default; fails --check-waivers
    "determinism": "determinism",
    "env": "env-gateway",
    "rawnew": "raw-new-delete",
    "coverage": "test-coverage",
    "statsonce": "stats-once",
    "statsonce_fields": "stats-once",
    "includecc": "include-cc",
    "fatalboundary": "fatal-boundary",
    "stepalloc": "step-alloc",
}


def run_linter(root: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINTER), "--root", str(root), *extra],
        capture_output=True, text=True, timeout=60)


class CatchLintFixtures(unittest.TestCase):
    def test_every_fixture_has_an_expectation(self):
        on_disk = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
        self.assertEqual(on_disk, set(EXPECTATIONS),
                         "fixtures and EXPECTATIONS out of sync")

    def test_fixtures(self):
        for name, rule in EXPECTATIONS.items():
            with self.subTest(fixture=name):
                proc = run_linter(FIXTURES / name)
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

    def test_determinism_violation_names_the_fix(self):
        proc = run_linter(FIXTURES / "determinism")
        self.assertIn("catchsim::Rng", proc.stdout,
                      "finding must point at the seeded Rng")

    def test_waiver_semantics_are_narrow(self):
        # The waived fixture passes only because of the inline waiver;
        # prove the waiver is rule-specific by checking a different
        # rule still fires when violated there. (The fixture has no
        # such violation, so just re-assert it is clean.)
        proc = run_linter(FIXTURES / "waived")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_fatal_boundary_names_both_violations(self):
        # std::exit and CATCHSIM_FATAL must each produce a finding;
        # the CATCHSIM_ASSERT in the clean fixture must not.
        proc = run_linter(FIXTURES / "fatalboundary")
        self.assertIn("process-terminating call", proc.stdout)
        self.assertIn("CATCHSIM_FATAL", proc.stdout)

    def test_step_alloc_scopes_to_hot_functions(self):
        # Exactly three findings: step()'s push_back in the core file,
        # warm()'s push_back in the warming engine, and find()'s
        # push_back in the chunk store's lookup hot path. The
        # constructors' resize and the bind()s' reserve are setup-time
        # and stay legal.
        proc = run_linter(FIXTURES / "stepalloc")
        findings = [l for l in proc.stdout.splitlines()
                    if "[step-alloc]" in l]
        self.assertEqual(len(findings), 3, proc.stdout)
        joined = "\n".join(findings)
        self.assertIn("push_back in step()", joined)
        self.assertIn("push_back in warm()", joined)
        self.assertIn("push_back in find()", joined)
        self.assertIn("fast_forward.cc", joined)
        self.assertIn("chunk_store.cc", joined)

    def test_raw_strings_do_not_desync_the_stripper(self):
        # Every banned token in the fixture lives inside raw string
        # data; a desynced stripper reports determinism/raw-new, or
        # eats the rest of the file and reports test-coverage.
        proc = run_linter(FIXTURES / "rawstring")
        output = proc.stdout + proc.stderr
        self.assertEqual(proc.returncode, 0, output)
        self.assertNotIn("[determinism]", output)
        self.assertNotIn("[raw-new-delete]", output)

    def test_check_waivers_flags_stale_entries(self):
        proc = run_linter(FIXTURES / "unusedwaiver", "--check-waivers")
        output = proc.stdout + proc.stderr
        self.assertEqual(proc.returncode, 1, output)
        self.assertIn("[unused-waiver]", output)
        # Both the stale inline waiver and both stale file waivers.
        self.assertIn("allow(determinism)", output)
        self.assertIn("determinism src/widget.cc", output)
        self.assertIn("test-coverage src/widget.cc", output)

    def test_check_waivers_passes_when_waivers_are_live(self):
        # The waived fixture's waiver still suppresses a finding, so
        # --check-waivers must stay green there.
        proc = run_linter(FIXTURES / "waived", "--check-waivers")
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)

    def test_real_repo_is_clean(self):
        repo = LINTER.parents[2]
        proc = run_linter(repo, "--check-waivers")
        self.assertEqual(
            proc.returncode, 0,
            "the real tree must stay lint-clean (waivers included):\n"
            + proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
