#!/usr/bin/env python3
"""Tests of tools/ab_verdict.py over the fixture logs in testdata/ab.

    python3 tools/ab_verdict_test.py [AbVerdictTest.test_<case>]

The fixtures are hand-made `perfbench/run.py --trace 0` logs of
`cell_tsajs`, seeds 101-110: `parent/`, an A/A set drawn from the same
spread (`aa/`), a clear win (`win/`, decisions/s 1.3x), a 30% drop in
decisions/s (`drop/`), one run whose event digest differs from its parent
(`digest_mismatch.log`, seed 107) and one traced run (`traced.log`).
"""

import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOOL = HERE / "ab_verdict.py"
DATA = HERE / "testdata" / "ab"


def logs(name, without=None):
    return [str(p) for p in sorted((DATA / name).glob("*.log"))
            if without is None or not p.name.endswith(f"-{without}.log")]


def run(parent, change):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", *parent, "--change", *change],
        capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def verdicts(stdout):
    """Maps (workload, metric) to the verdict column of the table."""
    rows = {}
    for line in stdout.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 8 and cells[0] != "workload" and cells[0][0] != "-":
            rows[(cells[0], cells[1])] = cells[7]
    return rows


class AbVerdictTest(unittest.TestCase):
    def test_aa_claims_nothing(self):
        code, out, err = run(logs("parent"), logs("aa"))
        self.assertEqual(code, 0, out + err)
        rows = verdicts(out)
        self.assertEqual(len(rows), 4)
        self.assertEqual(set(rows.values()), {"within bound"})

    def test_clear_win_claims(self):
        code, out, err = run(logs("parent"), logs("win"))
        self.assertEqual(code, 0, out + err)
        rows = verdicts(out)
        self.assertEqual(rows[("cell_tsajs", "decisions_per_s")], "claim met")
        self.assertIn("| 10/10 |", out)

    def test_drop_is_worse_than_bound(self):
        code, out, err = run(logs("parent"), logs("drop"))
        self.assertEqual(code, 1, out + err)
        self.assertEqual(verdicts(out)[("cell_tsajs", "decisions_per_s")],
                         "worse than bound")

    def test_digest_mismatch_fails(self):
        code, out, err = run(logs("parent"), logs("aa", without=107) +
                             [str(DATA / "digest_mismatch.log")])
        self.assertEqual(code, 1, out + err)
        self.assertIn("FAULT cell_tsajs seed 107: event digest", out)
        self.assertEqual(set(verdicts(out).values()), {"within bound"})

    def test_unpaired_runs_are_refused(self):
        code, out, err = run(logs("parent"), logs("aa", without=107))
        self.assertEqual(code, 2, out + err)
        self.assertIn("cell_tsajs seed 107", err)

    def test_traced_runs_are_refused(self):
        code, out, err = run(logs("parent", without=101) +
                             [str(DATA / "traced.log")], logs("aa"))
        self.assertEqual(code, 2, out + err)
        self.assertIn("--trace 1", err)


if __name__ == "__main__":
    unittest.main()
