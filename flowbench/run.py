#!/usr/bin/env python3
"""Flow benchmark of the self-testable controller synthesis (see README.md).

    python3 flowbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds bin/ostr.exe and the
benchmark's helper flowbench/flowbench.exe with dune, writes the
workload's inputs as KISS2 files under .flowbench/, and then

  --trace 0  runs the workload's ostr commands as child processes, one at
             a time at --jobs 1, for about --seconds seconds, checks every
             output and prints the end-to-end metrics;
  --trace 1  runs the commands once untraced, then the in-process traced
             run (flowbench trace) and prints the per-layer metrics.

Both modes run the oracle cross-checks once, outside the timed region.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402

OSTR = os.path.join("_build", "default", "bin", "ostr.exe")
HELPER = os.path.join("_build", "default", "flowbench", "flowbench.exe")
WORKLOADS = ("selftest-corpus", "selftest-tbk", "verify-sat", "anytime-planted")
COMMAND = {
    "selftest-corpus": "selftest", "selftest-tbk": "selftest",
    "verify-sat": "verify", "anytime-planted": "anytime",
}
COMMAND_TIMEOUT = 90.0
# What `flowbench calibrate` computes, and the seconds it takes at the
# reference speed that wall_s is given in.
CALIBRATION_CHECKSUM = 57689591957
REFERENCE_CALIBRATION_S = 0.35
# Last moment (seconds since start) at which another measured pass may
# begin, so that a run ends well inside its 180 s limit.
LAST_PASS_START = 100.0

# Metrics a workload has no output for are reported as this constant, so
# that every workload carries every metric (see README.md).
NOT_APPLICABLE = 1.0


def declared_metrics():
    """BENCHMARK.json's metric names with their units, end-to-end and
    per-layer."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


class Child:
    """One finished child process: exit code, wall time, peak RSS, output."""

    def __init__(self, argv, out_path, timeout):
        err_path = out_path + ".err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path) as f:
            self.stdout = f.read()
        with open(err_path) as f:
            self.stderr = f.read()


def log(message):
    print(message, file=sys.stderr, flush=True)


def helper_json(argv, out_path):
    child = Child([HELPER] + argv, out_path, COMMAND_TIMEOUT)
    if child.returncode != 0:
        raise RuntimeError(f"flowbench {argv[0]} failed ({child.returncode}): "
                           f"{child.stderr.strip()[-500:]}")
    return json.loads(child.stdout.splitlines()[-1])


class Run:
    def __init__(self, workload, work):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.last = {}  # file -> parsed output of its latest command run

    def tally(self, ok, message=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAIL: {message}")

    def command_pass(self, files):
        """Runs the workload's command once per input; returns the pass's
        summed wall time and its largest peak RSS."""
        wall = rss = 0.0
        for path in files:
            name = os.path.splitext(os.path.basename(path))[0]
            out = os.path.join(self.work, name + ".out")
            argv = [OSTR, COMMAND[self.workload], path, "--jobs", "1"]
            report = os.path.join(self.work, name + ".verify.json")
            if self.workload == "verify-sat":
                if os.path.exists(report):
                    os.remove(report)
                argv += ["--werror", "--json", report]
            child = Child(argv, out, COMMAND_TIMEOUT)
            wall += child.wall
            rss = max(rss, child.rss_mb)
            try:
                if self.workload == "verify-sat":
                    text = open(report).read() if os.path.exists(report) else ""
                    parsed = check.check_verify(name, child.returncode, child.stdout, text)
                    parsed["report"] = report
                elif self.workload == "anytime-planted":
                    parsed = check.check_anytime(name, child.returncode, child.stdout,
                                                 self.last.get(path))
                else:
                    parsed = check.check_selftest(name, child.returncode, child.stdout)
                    previous = self.last.get(path)
                    if previous is not None and parsed != previous:
                        raise check.CheckError(f"{name}: output differs between passes")
                self.last[path] = parsed
                self.tally(True)
            except check.CheckError as e:
                self.last.pop(path, None)
                self.tally(False, str(e))
        return wall, rss

    def oracles(self, files):
        """Reference cross-checks, run once outside the timed region.
        Returns the helper's per-file figures (used by verify-sat)."""
        if self.workload == "anytime-planted":
            path = files[0]  # the first planted:1024x4 instance
            child = Child([OSTR, "anytime", path, "--jobs", "1", "--full-eval"],
                          os.path.join(self.work, "full-eval.out"), COMMAND_TIMEOUT)
            if path not in self.last:
                self.tally(False, "no incremental result to compare --full-eval with")
                return []
            try:
                check.check_anytime("full-eval", child.returncode, child.stdout,
                                    self.last[path])
                self.tally(True)
            except check.CheckError as e:
                self.tally(False, f"--full-eval oracle: {e}")
            return []
        args = files
        if self.workload == "verify-sat":
            args = [f"{p}={self.last[p]['report']}" for p in files if p in self.last]
            self.tally(len(args) == len(files), "verify oracle lacks passing verify runs")
            if not args:
                return []
        result = helper_json(["oracle", self.workload] + args,
                             os.path.join(self.work, "oracle.out"))
        for c in result["checks"]:
            self.tally(c["ok"], f"oracle: {c['name']}")
        return result["files"]


def mirror_checks(run, files, traced):
    """The traced run must reproduce the outputs of the commands it mirrors."""
    for path, got in zip(files, traced):
        name = os.path.splitext(os.path.basename(path))[0]
        cli = run.last.get(path)
        if cli is None:
            run.tally(False, f"{name}: no passing command output to compare the trace with")
            continue
        if run.workload == "verify-sat":
            same = (got["errors"], got["warnings"], got["red001"]) == (0, 0, cli["red001"]) \
                and got["net011"] >= 1
        elif run.workload == "anytime-planted":
            same = {"bits": got["bits"], "fingerprint": got["fingerprint"]} == cli
        else:
            same = (got["flipflops"], got["gates"], [tuple(s) for s in got["sessions"]],
                    tuple(got["combined"])) == \
                (cli["flipflops"], cli["gates"], cli["sessions"], cli["combined"])
        run.tally(same, f"{name}: traced run {got} differs from the command's output {cli}")


def quality(run, files, oracle_files):
    """gates, coverage_pct and anytime_bits of the workload's outputs."""
    if run.workload == "anytime-planted":
        bits = [run.last[p]["bits"] for p in files if p in run.last]
        return NOT_APPLICABLE, NOT_APPLICABLE, float(sum(bits))
    if run.workload == "verify-sat":
        rows = oracle_files
    else:
        rows = [run.last[p] for p in files if p in run.last]
    detected = sum(r["combined"][0] for r in rows)
    total = sum(r["combined"][1] for r in rows)
    coverage = 100.0 * detected / total if total else 0.0
    return float(sum(r["gates"] for r in rows)), coverage, NOT_APPLICABLE


def build():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(dune + ["build", "--root", ".", "./bin/ostr.exe",
                                      "./flowbench/flowbench.exe"],
                              stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        log(f"flowbench: cannot run dune ({e})")
        return False
    return proc.returncode == 0


def calibrate(work):
    """Seconds the machine takes now for the helper's fixed calibration
    work (see README.md, "Machine speed")."""
    result = helper_json(["calibrate"], os.path.join(work, "calibrate.out"))
    if result["checksum"] != CALIBRATION_CHECKSUM:
        raise RuntimeError(f"flowbench calibrate: wrong checksum {result['checksum']}")
    return result["seconds"]


def set_up(workload, seed, work):
    result = helper_json(["gen", workload, str(seed), work], os.path.join(work, "gen.out"))
    # The fastest repetition: other work on a shared machine adds to single
    # millisecond-long repetitions, so their median moved by up to a third
    # between runs.
    return result["inputs"], min(result["setup_s"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sources = ["dune-project", os.path.join("bin", "ostr.ml"), "lib",
               os.path.join("flowbench", "flowbench.ml")]
    missing = [s for s in sources if not os.path.exists(s)]
    if missing:
        log(f"flowbench: run from the root of a source checkout (missing {missing})")
        return 2
    if not build():
        log("flowbench: build failed")
        return 1
    end_to_end_units, per_layer_units = declared_metrics()

    t_start = time.perf_counter()
    work = os.path.abspath(os.path.join(".flowbench", args.workload))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    files, setup_s = set_up(args.workload, args.seed, work)
    run = Run(args.workload, work)

    if args.trace == 0:
        # Whole passes over the inputs, each followed by a calibration;
        # another one only while it is expected (from the slowest so far)
        # to end within --seconds of the first calibration's start.
        t_passes = time.perf_counter()
        calibrate(work)  # the first one after the set-up's idle moments runs slow
        calibrations = [calibrate(work)]
        passes, rss, slowest = [], 0.0, 0.0
        while True:
            t_pass = time.perf_counter()
            wall, peak = run.command_pass(files)
            calibrations.append(calibrate(work))
            passes.append(wall)
            rss = max(rss, peak)
            now = time.perf_counter()
            slowest = max(slowest, now - t_pass)
            if (now + slowest - t_passes > args.seconds
                    or now - t_start > LAST_PASS_START):
                break
        # Each pass at the reference speed: its wall time over the machine
        # speed around it, the mean of the calibrations before and after.
        scaled = [wall * REFERENCE_CALIBRATION_S / ((before + after) / 2)
                  for wall, before, after in zip(passes, calibrations, calibrations[1:])]
        log(f"{len(passes)} passes: " + " ".join(f"{w:.3f}" for w in passes)
            + "; calibrations: " + " ".join(f"{c:.4f}" for c in calibrations)
            + "; at reference speed: " + " ".join(f"{w:.3f}" for w in scaled))
        wall_s = statistics.median(scaled)
        # Set up once more, seconds after the first time (the files come out
        # the same): busy phases of the machine's other work that slow a
        # whole set-up last seconds, and both must hit one to slow setup_s.
        setup_s = min(setup_s, set_up(args.workload, args.seed, work)[1])
        oracle_files = run.oracles(files)
        gates, coverage, bits = quality(run, files, oracle_files)
        values = {
            "wall_s": wall_s, "peak_rss_mb": rss,
            "setup_s": setup_s,
            "pass_rate": (run.attempted - run.failed) / run.attempted,
            "gates": gates, "coverage_pct": coverage, "anytime_bits": bits,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in end_to_end_units.items()}
    else:
        untraced, _ = run.command_pass(files)
        traced = helper_json(["trace", args.workload, os.path.join(work, "trace.json")] + files,
                             os.path.join(work, "trace.out"))
        mirror_checks(run, files, traced["files"])
        run.oracles(files)
        values = dict(traced["metrics"])
        values["trace.overhead_pct"] = 100.0 * (values["trace.wall_s"] - untraced) / untraced
        # a layer the workload does not run reports 0
        metrics = {k: {"value": values.get(k, 0.0), "unit": u}
                   for k, u in per_layer_units.items()}

    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
