"""Self-tests of the flow benchmark.

    python3 flowbench/test_check.py          # from the repository root

The checker must accept genuine ostr output and reject each doctored
variant; the quality metrics must repeat exactly across two runs of the
same build (this part builds and runs ostr, about a minute).
"""

import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402
import run  # noqa: E402

SELFTEST_DK16 = """\
pipeline structure of dk16: 10 flip-flops, 270 gates
session 1: 1024 cycles, 8 observed nets, coverage 64.5% (2337/3624)
session 2: 1024 cycles, 8 observed nets, coverage 61.9% (2245/3624)
both sessions combined: 98.2% (3560/3624)
"""

VERIFY_STDOUT = """\
info[CEC003] bbara/c1: cover: implementation proven equivalent to the on/dc specification on all 3 outputs
info[NET011] bbara/fig4: registers: pipeline property SAT-certified: no register of bbara_fig4 combinationally feeds back into itself
0 errors, 0 warnings, 2 notes
"""

VERIFY_JSON = """{
  "machine": "bbara",
  "diagnostics": [
    {"code": "CEC003", "severity": "info", "subject": "bbara/c1", "loc": "cover",
     "message": "implementation proven equivalent"},
    {"code": "NET011", "severity": "info", "subject": "bbara/fig4", "loc": "registers",
     "message": "pipeline property SAT-certified"},
    {"code": "RED001", "severity": "info", "subject": "bbara/fig4",
     "loc": "gate 153 pin 19 s-a-0", "message": "proven untestable"}
  ]
}"""

ANYTIME_STDOUT = """\
tier: stochastic(too-large)
stochastic tier: 31 rounds, 3424 evals (451 feasible), 254 SA acceptances, rng fingerprint 103442cb9a7d11b2
  round 0    evals 0         0.00 s  22 bits
  round 31   evals 3424      1.30 s  16 bits
best: 16 bits (factors 155 x 155 states; conventional doubling needs 22 bits)
elapsed: 1.30 s
"""


class CheckerAccepts(unittest.TestCase):
    def test_selftest(self):
        got = check.check_selftest("dk16", 0, SELFTEST_DK16)
        self.assertEqual((got["flipflops"], got["gates"], got["combined"]), (10, 270, (3560, 3624)))

    def test_verify(self):
        self.assertEqual(check.check_verify("bbara", 0, VERIFY_STDOUT, VERIFY_JSON), {"red001": 1})

    def test_anytime_and_repeat(self):
        first = check.check_anytime("p", 0, ANYTIME_STDOUT)
        self.assertEqual(first, {"bits": 16, "fingerprint": "103442cb9a7d11b2"})
        self.assertEqual(check.check_anytime("p", 0, ANYTIME_STDOUT, first), first)


class CheckerRejects(unittest.TestCase):
    def rejects(self, fn, *args):
        with self.assertRaises(check.CheckError):
            fn(*args)

    def test_flipflops_off_by_one(self):
        for ff in ("9", "11"):
            self.rejects(check.check_selftest, "dk16", 0,
                         SELFTEST_DK16.replace("10 flip-flops", ff + " flip-flops"))

    def test_detected_above_total(self):
        self.rejects(check.check_selftest, "dk16", 0,
                     SELFTEST_DK16.replace("(2337/3624)", "(3625/3624)"))

    def test_combined_outside_session_bounds(self):
        self.rejects(check.check_selftest, "dk16", 0,
                     SELFTEST_DK16.replace("98.2% (3560/3624)", "61.9% (2244/3624)"))

    def test_totals_differ(self):
        self.rejects(check.check_selftest, "dk16", 0,
                     SELFTEST_DK16.replace("64.5% (2337/3624)", "64.5% (2337/3623)"))

    def test_selftest_exit_code(self):
        self.rejects(check.check_selftest, "dk16", 1, SELFTEST_DK16)

    def test_verify_with_one_error(self):
        doctored = VERIFY_JSON.replace('"severity": "info", "subject": "bbara/c1"',
                                       '"severity": "error", "subject": "bbara/c1"')
        self.assertNotEqual(doctored, VERIFY_JSON)
        self.rejects(check.check_verify, "bbara", 0, VERIFY_STDOUT, doctored)
        self.rejects(check.check_verify, "bbara", 0,
                     VERIFY_STDOUT.replace("0 errors", "1 errors"), VERIFY_JSON)

    def test_verify_without_certificate(self):
        self.rejects(check.check_verify, "bbara", 0, VERIFY_STDOUT,
                     VERIFY_JSON.replace("NET011", "NET012"))

    def test_anytime_bits_at_or_above_trivial(self):
        for bits in ("22", "23"):
            self.rejects(check.check_anytime, "p", 0,
                         ANYTIME_STDOUT.replace("best: 16 bits", f"best: {bits} bits"))

    def test_anytime_fingerprint_changes(self):
        first = check.check_anytime("p", 0, ANYTIME_STDOUT)
        self.rejects(check.check_anytime, "p", 0,
                     ANYTIME_STDOUT.replace("103442cb9a7d11b2", "103442cb9a7d11b3"), first)


class QualityRepeats(unittest.TestCase):
    """gates, coverage_pct and anytime_bits of two runs are identical."""

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("dune build failed")

    def quality_twice(self, workload):
        results = []
        for attempt in range(2):
            work = os.path.abspath(os.path.join(".flowbench", f"selftest-{attempt}"))
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            files, _ = run.set_up(workload, 5, work)
            r = run.Run(workload, work)
            r.command_pass(files)
            self.assertEqual(r.failed, 0)
            results.append(run.quality(r, files, r.oracles(files)))
            self.assertEqual(r.failed, 0)
        self.assertEqual(results[0], results[1])

    def test_selftest_corpus(self):
        self.quality_twice("selftest-corpus")

    def test_anytime_planted(self):
        self.quality_twice("anytime-planted")


if __name__ == "__main__":
    unittest.main()
