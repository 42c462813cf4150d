#!/bin/sh
# CI gate: full build, the complete test suite, the quick subset of every
# bench suite (each exits with its number of failing rows - for example
# solver-quick fails when dk16 / dk512 / tbk miss the paper's Table-1
# factors, hit the 30 s cap or differ from the jobs-1 investigated /
# deduped / pruned counts of BENCH_solver.json), then the CLI gates.  Run
# from the repository root.
set -eu

cd "$(dirname "$0")/.."

# Run a command under a 300 s wall-clock cap when timeout(1) exists,
# uncapped otherwise.
capped() {
  if command -v timeout >/dev/null 2>&1; then
    timeout 300 "$@"
  else
    "$@"
  fi
}

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT

# The quick subset of every bench suite, under the hard cap, each row file
# linted against the versioned bench schema:
#   solver    dk16 / dk512 / tbk: paper factors, 30 s cap, work figures
#   faultsim  optimized and parallel graders must match the naive one
#   minimize  packed engine must meet the contract, jobs>1 the same cover
#             and minimize.* counters, jobs-1 covers and counters those of
#             BENCH_minimize.json
#   core      packed bit engine must match the element-wise references
#   verify    equivalence + redundancy proofs must hold, jobs-invariant
#   anytime   stochastic tier: gap >= 0, seeded determinism
for suite in solver faultsim minimize core verify anytime; do
  echo "== bench $suite-quick =="
  capped dune exec bench/main.exe -- "$suite-quick" "$obs_dir/$suite-quick.json"
  dune exec tools/json_lint.exe -- --bench "$obs_dir/$suite-quick.json"
done

echo "== every BENCH file must pass the versioned bench schema =="
dune exec tools/json_lint.exe -- --bench \
  BENCH_solver.json BENCH_faultsim.json BENCH_minimize.json BENCH_core.json \
  BENCH_verify.json BENCH_anytime.json

echo "== traced smoke (trace + metrics + profile files must validate) =="
dune exec bin/ostr.exe -- solve tbk \
  --trace "$obs_dir/trace.json" --metrics "$obs_dir/metrics.json" \
  --profile "$obs_dir/prof.folded"
dune exec tools/json_lint.exe -- "$obs_dir/trace.json" \
  traceEvents displayTimeUnit
dune exec tools/json_lint.exe -- "$obs_dir/metrics.json" metrics
dune exec tools/json_lint.exe -- --folded "$obs_dir/prof.folded"

echo "== bench-diff noise gate (same config twice must not regress) =="
for suite in core-quick verify-quick anytime-quick; do
  a="$obs_dir/${suite}_a.json"
  b="$obs_dir/${suite}_b.json"
  capped dune exec bench/main.exe -- "$suite" "$a"
  capped dune exec bench/main.exe -- "$suite" "$b"
  dune exec tools/json_lint.exe -- --bench "$a" "$b"
  dune exec tools/bench_diff.exe -- "$a" "$b"
done

echo "== closure engine vs full-recompute oracle (CLI runs must agree) =="
# The closure engine (--split-ratio/--full-eval live on the same command)
# must be bit-identical to the from-scratch closure: same best, same
# factor counts, same RNG-stream fingerprint.  Only the deterministic
# report lines are compared - elapsed lines differ by construction.
# dk16 is forced onto the stochastic tier; planted:512x4@2 (above the
# 300-state exact cap) covers both move kinds and the witness exit at
# scale, about 2 s under --full-eval.
anytime_agree() {
  dune exec bin/ostr.exe -- anytime "$@" \
    | grep -E "stochastic tier:|best:" > "$obs_dir/anytime_incr.txt"
  dune exec bin/ostr.exe -- anytime "$@" --full-eval \
    | grep -E "stochastic tier:|best:" > "$obs_dir/anytime_full.txt"
  cmp "$obs_dir/anytime_incr.txt" "$obs_dir/anytime_full.txt"
}
anytime_agree dk16 --force-stochastic --evals 400
anytime_agree planted:512x4@2 --evals 2000
# Split-heavy: one proposal in two is a split, so the closed-form split
# closures of both kinds meet the oracle at scale.
anytime_agree planted:512x4@2 --evals 2000 --split-ratio 2
# 2 436 states: the oracle's from-scratch closures need about 650 MB
# and 6 s here, so this run also bounds the memory of a partition.
anytime_agree planted:2048x4@21

echo "== selftest tbk: --jobs 1 and --jobs 2 reports must be identical =="
# The minimizer shares one off-set index across its worker domains and
# the grader keeps per-domain scratch; neither may change a figure.
dune exec bin/ostr.exe -- selftest tbk --jobs 1 > "$obs_dir/selftest_j1.txt"
dune exec bin/ostr.exe -- selftest tbk --jobs 2 > "$obs_dir/selftest_j2.txt"
cmp "$obs_dir/selftest_j1.txt" "$obs_dir/selftest_j2.txt"

echo "== selftest s1: --jobs 1 and --jobs 2 reports must be identical =="
# s1's output block (18 variables, 6 outputs) has the largest point-count
# table, which IRREDUNDANT's classifying domains share read-only.
dune exec bin/ostr.exe -- selftest s1 --jobs 1 > "$obs_dir/selftest_s1_j1.txt"
dune exec bin/ostr.exe -- selftest s1 --jobs 2 > "$obs_dir/selftest_s1_j2.txt"
cmp "$obs_dir/selftest_s1_j1.txt" "$obs_dir/selftest_s1_j2.txt"

echo "== static lint gate (benchmark suite, --werror) =="
# Expected-clean set: each of these machines must lint with zero errors AND
# zero warnings; --werror turns any regression into a nonzero exit.  Keep
# the list explicit so a regression shows up as a diff of this file, not as
# a silent skip.  s1 is in the set: its cover lint reads the minimizer's
# point-count tables, so its blocks lint in well under a second.
LINT_WERROR_CLEAN="bbara bbtas dk14 dk15 dk16 dk17 dk27 dk512 mc shiftreg tav tbk s1"
for m in $LINT_WERROR_CLEAN; do
  echo "   lint --werror $m"
  dune exec bin/ostr.exe -- lint "$m" --werror > /dev/null
done
# fig5 carries two known FSM001 warnings (its zoo encoding leaves two
# states unreachable from reset, a genuine finding): errors are still
# forbidden, warnings are expected, so no --werror here.
echo "   lint fig5 (warnings expected, errors forbidden)"
dune exec bin/ostr.exe -- lint fig5 > /dev/null
# A generator spec resolves like every other command's machine argument.
echo "   lint planted:12x4@1 (generator spec)"
dune exec bin/ostr.exe -- lint planted:12x4@1 > /dev/null

echo "== lint JSON report must parse and carry the report keys =="
dune exec bin/ostr.exe -- lint dk16 --json "$obs_dir/lint.json" > /dev/null
dune exec tools/json_lint.exe -- "$obs_dir/lint.json" \
  machine diagnostics summary

echo "== verify gate (all zoo architectures must certify; report keys) =="
for m in fig5 shiftreg4 toggle parity; do
  echo "   verify --all-archs --werror $m"
  dune exec bin/ostr.exe -- verify "$m" --all-archs --werror > /dev/null
done
# tbk: 52 242 raw faults through the untestable-fault prover.  The cap
# fails the gate if the per-fault proof cost turns quadratic again.
echo "   verify --werror tbk (capped)"
capped dune exec bin/ostr.exe -- verify tbk --werror > /dev/null
dune exec bin/ostr.exe -- verify dk27 --json "$obs_dir/verify.json" > /dev/null
dune exec tools/json_lint.exe -- "$obs_dir/verify.json" \
  machine diagnostics summary

echo "check.sh: all gates passed"
