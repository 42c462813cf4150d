"""Output checks of the flow benchmark.

Every reference here is independent of the code being timed: the
flip-flop counts are the paper's Table 1, the coverage lines are checked
for internal consistency, `ostr verify` must be clean and carry the
pipeline certificate that Theorem 1 guarantees for fig. 4, and an
anytime result must beat the conventional doubling it prints.  Nothing
pins a number produced by one code path, so every correct build passes.
Each function raises CheckError on a bad output and otherwise returns
the parsed figures.
"""

import json
import re

# Hellebrand & Wunderlich (ED&TC 1994), Table 1, column "pipeline
# structure": flip-flops of the fig. 4 realization.  A KISS2 round trip
# renumbers states but cannot change the optimum, so these hold for the
# exported files too.
PAPER_FF_PIPELINE = {
    "bbara": 6, "bbtas": 6, "dk14": 6, "dk15": 4, "dk16": 10, "dk17": 6,
    "dk27": 6, "dk512": 8, "mc": 4, "s1": 10, "shiftreg": 3, "tav": 2,
    "tbk": 8,
}


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


_PIPELINE = re.compile(r"^pipeline structure of (\S+): (\d+) flip-flops, (\d+) gates$")
_SESSION = re.compile(
    r"^session (\d+): \d+ cycles, \d+ observed nets, coverage ([\d.]+)% \((\d+)/(\d+)\)$")
_COMBINED = re.compile(r"^both sessions combined: ([\d.]+)% \((\d+)/(\d+)\)$")


def _coverage(pct, detected, total, line):
    _require(detected <= total, f"detected > total: {line!r}")
    _require(total > 0, f"empty fault list: {line!r}")
    _require(abs(float(pct) - 100.0 * detected / total) <= 0.051,
             f"percentage disagrees with its counts: {line!r}")
    return detected, total


def check_selftest(name, returncode, stdout):
    """`ostr selftest`: flip-flops as in Table 1, consistent coverage."""
    _require(returncode == 0, f"selftest {name}: exit code {returncode}")
    head = combined = None
    sessions = []
    for line in stdout.splitlines():
        if m := _PIPELINE.match(line):
            head = (int(m[2]), int(m[3]))
        elif m := _SESSION.match(line):
            sessions.append(_coverage(m[2], int(m[3]), int(m[4]), line))
        elif m := _COMBINED.match(line):
            combined = _coverage(m[1], int(m[2]), int(m[3]), line)
        elif line.startswith(("session", "both")):
            raise CheckError(f"selftest {name}: unparsable coverage line {line!r}")
    _require(head is not None, f"selftest {name}: no pipeline structure line")
    _require(len(sessions) == 2, f"selftest {name}: {len(sessions)} session lines, not 2")
    _require(combined is not None, f"selftest {name}: no combined coverage line")
    flipflops, gates = head
    _require(flipflops == PAPER_FF_PIPELINE[name],
             f"selftest {name}: {flipflops} flip-flops, Table 1 has "
             f"{PAPER_FF_PIPELINE[name]}")
    _require(gates > 0, f"selftest {name}: no gates")
    totals = {t for _, t in sessions} | {combined[1]}
    _require(len(totals) == 1, f"selftest {name}: fault totals differ: {sorted(totals)}")
    detected = [d for d, _ in sessions]
    _require(max(detected) <= combined[0] <= sum(detected),
             f"selftest {name}: combined {combined[0]} outside "
             f"[{max(detected)}, {sum(detected)}]")
    return {"flipflops": flipflops, "gates": gates, "sessions": sessions,
            "combined": combined}


_SUMMARY = re.compile(r"^(\d+) errors, (\d+) warnings")


def check_verify(name, returncode, stdout, report_text):
    """`ostr verify --werror --json`: clean, with the NET011 certificate."""
    _require(returncode == 0, f"verify {name}: exit code {returncode}")
    lines = stdout.splitlines()
    m = _SUMMARY.match(lines[-1]) if lines else None
    _require(m is not None, f"verify {name}: no summary line")
    _require((int(m[1]), int(m[2])) == (0, 0), f"verify {name}: {lines[-1]!r}")
    try:
        diags = json.loads(report_text)["diagnostics"]
    except (ValueError, KeyError, TypeError) as e:
        raise CheckError(f"verify {name}: unreadable JSON report ({e})")
    bad = [d for d in diags if d.get("severity") in ("error", "warning")]
    _require(not bad, f"verify {name}: report carries {len(bad)} errors/warnings")
    _require(any(d.get("code") == "NET011" and d.get("subject") == f"{name}/fig4"
                 for d in diags),
             f"verify {name}: no NET011 pipeline certificate for {name}/fig4")
    return {"red001": sum(d.get("code") == "RED001" for d in diags)}


_FINGERPRINT = re.compile(r"rng fingerprint ([0-9a-f]+)")
_BEST = re.compile(r"^best: (\d+) bits \(factors \d+ x \d+ states; "
                   r"conventional doubling needs (\d+) bits\)$")


def check_anytime(name, returncode, stdout, previous=None):
    """`ostr anytime`: beats conventional doubling; with [previous] (an
    earlier result for the same file and seed), repeats its bits and RNG
    fingerprint."""
    _require(returncode == 0, f"anytime {name}: exit code {returncode}")
    fingerprint = best = None
    for line in stdout.splitlines():
        if m := _FINGERPRINT.search(line):
            fingerprint = m[1]
        elif m := _BEST.match(line):
            best = (int(m[1]), int(m[2]))
    _require(fingerprint is not None, f"anytime {name}: no RNG fingerprint")
    _require(best is not None, f"anytime {name}: no best line")
    bits, conventional = best
    _require(bits < conventional,
             f"anytime {name}: {bits} bits, conventional doubling needs {conventional}")
    result = {"bits": bits, "fingerprint": fingerprint}
    if previous is not None:
        _require(result == previous, f"anytime {name}: {result} differs from {previous}")
    return result
