#!/usr/bin/env python3
"""ctest harness for tools/ci/digest_drift.py over two hand-made
e2ebench documents: one digest kept, one moved, one workload present
on the head side only."""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "ci" / "digest_drift.py"

BASE = {"workloads": {
    "detailed": {"timed": {"digest": "732a41e8c3be737b"}},
    "mp-mix": {"timed": {"digest": "6712eb444243dc76"}},
}}
HEAD = {"workloads": {
    "detailed": {"timed": {"digest": "732a41e8c3be737b"}},
    "mp-mix": {"timed": {"digest": "0000000000000001"}},
    "campaign": {"timed": {"digest": "ae858d3889c051aa"}},
}}


class DigestDriftTest(unittest.TestCase):
    def run_tool(self, *args):
        return subprocess.run([sys.executable, str(TOOL), *args],
                              capture_output=True, text=True, check=False)

    def test_marks_each_workload(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("base.json", BASE), ("head.json", HEAD)):
                p = Path(tmp) / name
                p.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(p))
            proc = self.run_tool(*paths)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        rows = {line.split()[0]: line.split()
                for line in proc.stdout.splitlines()[1:]}
        self.assertEqual(rows["detailed"], ["detailed", "732a41e8c3be737b",
                                            "732a41e8c3be737b",
                                            "unchanged"])
        self.assertEqual(rows["mp-mix"], ["mp-mix", "6712eb444243dc76",
                                          "0000000000000001", "CHANGED"])
        self.assertEqual(rows["campaign"], ["campaign", "-",
                                            "ae858d3889c051aa", "CHANGED"])
        self.assertEqual(len(rows), 3)

    def test_usage_error(self):
        self.assertEqual(self.run_tool().returncode, 2)


if __name__ == "__main__":
    unittest.main()
