#!/usr/bin/env python3
"""Tests of tools/ab_verdict.py over the fixture logs in testdata/ab.

    python3 tools/ab_verdict_test.py [AbVerdictTest.test_<case>]

The fixtures are hand-made `perfbench/run.py --trace 0` logs of
`cell_tsajs`, seeds 101-110: `parent/`, an A/A set drawn from the same
spread (`aa/`), a clear win (`win/`, decisions/s 1.3x), a 30% drop in
decisions/s (`drop/`), one run whose event digest differs from its parent
(`digest_mismatch.log`, seed 107) and one traced run (`traced.log`).
A --claim of the win exits 0, of the A/A set 1.
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


def run(parent, change, *extra):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", *parent, "--change", *change,
         *extra],
        capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def table(stdout):
    """Maps (workload, metric) to the row of the table, a dict keyed by the
    header's column names."""
    rows = {}
    header = None
    for line in stdout.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
        elif not cells[0].startswith("-"):
            row = dict(zip(header, cells))
            rows[(row["workload"], row["metric"])] = row
    return rows


def verdicts(stdout):
    """Maps (workload, metric) to the verdict column of the table."""
    return {key: row["verdict"] for key, row in table(stdout).items()}


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
        row = table(out)[("cell_tsajs", "decisions_per_s")]
        self.assertEqual(row["verdict"], "claim met")
        self.assertEqual(row["change wins"], "10/10")
        # Both sides print their median with its quartiles.
        self.assertEqual(row["parent median [q1, q3]"],
                         "788.621 [767.954, 822.293]")
        self.assertEqual(row["change median [q1, q3]"],
                         "1053.88 [1023.67, 1089.64]")

    def test_claim_met_exits_zero(self):
        code, out, err = run(logs("parent"), logs("win"),
                             "--claim", "cell_tsajs:decisions_per_s")
        self.assertEqual(code, 0, out + err)
        self.assertIn("claim cell_tsajs:decisions_per_s: met", out)

    def test_claim_not_met_exits_one(self):
        code, out, err = run(logs("parent"), logs("aa"),
                             "--claim", "cell_tsajs:decisions_per_s")
        self.assertEqual(code, 1, out + err)
        self.assertIn("claim cell_tsajs:decisions_per_s: NOT met", out)
        self.assertEqual(set(verdicts(out).values()), {"within bound"})

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
