#!/bin/sh
# Minimal CI: build everything, check hygiene, run the full test suite
# behind a test-count regression gate, and smoke-check the observability
# overhead budget.
set -eu
cd "$(dirname "$0")/.."
dune build

# Documentation / warning hygiene gate. When odoc is installed the doc
# build catches malformed doc comments; otherwise a forced rebuild must be
# completely silent — any compiler warning fails the run.
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  warnings=$(dune build --force 2>&1)
  if [ -n "$warnings" ]; then
    printf '%s\n' "$warnings"
    echo "ci: forced rebuild emitted warnings (see above)" >&2
    exit 1
  fi
fi

# Test-count regression gate: the suite must run at least as many tests
# as the checked-in floor. A PR that deletes or silently skips tests
# fails here; one that adds tests should raise the floor alongside.
run_log=$(dune runtest --force 2>&1) || {
  printf '%s\n' "$run_log"
  exit 1
}
printf '%s\n' "$run_log"
total=$(printf '%s\n' "$run_log" | sed -n 's/.* \([0-9][0-9]*\) tests run.*/\1/p' | awk '{s+=$1} END {print s+0}')
floor=$(cat scripts/test_count_floor)
if [ "$total" -lt "$floor" ]; then
  echo "ci: test count regressed: $total tests run, floor is $floor" >&2
  exit 1
fi
echo "ci: $total tests run (floor $floor)"

# Observability overhead budgets, smoke mode (loose budgets: CI boxes
# jitter). profile-smoke gates tracing with the analysis-tier hooks
# switched off against the bare run, and the enabled spans+profiler
# cost against the control plane's real-time budget.
./_build/default/bench/main.exe profile-smoke

# Output pins: `pin NAME MD5 CMD...` requires CMD to exit 0 and print
# exactly the pinned bytes on stdout.
pin() {
  name=$1
  want=$2
  shift 2
  "$@" >_build/ci-pin.out || {
    echo "ci: $name exited non-zero" >&2
    exit 1
  }
  got=$(md5sum <_build/ci-pin.out | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "ci: $name stdout digest is $got, pinned $want" >&2
    exit 1
  fi
}

# Examples: the four programs under examples/ must run to completion
# (exit 0) and print the same bytes. They are callers of the library's
# public surface, so a change that breaks what they use fails here, not
# only at build time.
pin quickstart 4efd6fe98cfdf3b42ad12cd43b4372bd ./_build/default/examples/quickstart.exe
pin program_trading 5810b228dd8f05065e87de19916f570d ./_build/default/examples/program_trading.exe
pin patient_monitoring 8ecee291eb26ce32a03980db13143f63 \
  ./_build/default/examples/patient_monitoring.exe
pin sensor_aggregation fe48852c01cfcc11f678e5857aeae8cb \
  ./_build/default/examples/sensor_aggregation.exe
echo "ci: examples ran, output pinned"

# Paper pins: Table 1, Figs. 5-8 and the other experiments print the
# same bytes on every run (each is seeded). A change that moves one on
# purpose re-pins it here and says so.
for experiment in \
  table1:8264f9b01ccdbbec0915347e61a3ec93 \
  fig5:bee953be8697a54c9b2c065255e736c4 \
  fig6:14d2399166a6bab565a410d9adb5e40c \
  fig7:d826224a33e996653beedc65791c0fc1 \
  fig8:67b44e3a609c46bdad6d4bc54c1a888b \
  ablation:7a228129dec71cddc65bf561e114516e \
  adaptation:6e22f199446283f72470aded5fa34115 \
  variation:bc69eff26f1f8cf26810ce4ce95bce18 \
  delays:c70c1ccd85cba588bee5d741eec35e2a \
  chaos:6ac5ed4644c126e2a05c294dd1a0a14c \
  recovery:dd2dd695dbb9b858d3bb7afaeacfdcf1; do
  name=${experiment%%:*}
  pin "bench $name" "${experiment#*:}" ./_build/default/bench/main.exe "$name"
done
echo "ci: paper outputs pinned"

# Analysis-tier smoke: the full span + series + report pipeline must run
# end-to-end on the paper's Fig. 5 scenario (settling-time assertions
# against the optimum live in test/test_analysis.ml).
./_build/default/bin/lla_cli.exe analyze fig5

# Trace pin: the full trace of the chaos scenario (157 982 records) must
# keep its digest. It changes with any change of runtime event order or
# of the transport's random draws; a change that alters them on purpose
# re-pins it here and says so.
./_build/default/bin/lla_cli.exe trace chaos --duration 10 -o _build/trace-chaos.jsonl >/dev/null
trace_md5=$(md5sum _build/trace-chaos.jsonl | cut -d' ' -f1)
if [ "$trace_md5" != b5276ad6b67ab627a3cc858dbd57aa08 ]; then
  echo "ci: trace chaos digest is $trace_md5, pinned b5276ad6b67ab627a3cc858dbd57aa08" >&2
  exit 1
fi
echo "ci: trace chaos digest pinned"

# Chaos campaign smoke: 25 fixed-seed randomized fault schedules against
# the fully-armed deployment. The command exits non-zero on any oracle
# violation and prints the (shrunk) reproducer path for replay with
# `lla_cli chaos-replay`.
./_build/default/bin/lla_cli.exe campaign --runs 25 --seed 42 --out _build/chaos-repro

# The same campaign engine against the domains-parallel runtime: every
# schedule deploys onto a 2-domain Engine_domains in deterministic-merge
# mode and is judged by the merged-trace oracle calibration. A domains
# run costs ~25x a sim run, so CI keeps a 5-run rota (the full 25-run
# sweep passes; re-run it with --runs 25 when touching the engine).
./_build/default/bin/lla_cli.exe campaign --runs 5 --seed 42 --engine domains --domains 2 \
  --out _build/chaos-repro-domains

# Scale-tier smoke: a seeded 10^4-subtask generated scenario must solve
# to Eq. 3/4 feasibility in the flat-array kernel, agree element-wise
# with the reference solver after 30 ticks, tick without allocating,
# and run >= 20x the solver's per-iteration speed (best-of batches, so
# box jitter does not flake the gate).
./_build/default/bench/main.exe --json _build scale-smoke

# Codec round trip at 10^5: the headline scenario written to a file and
# replayed with --workload file: must converge at the same tick to the
# same utility as the scenario generated in memory. Only the tick number
# and the utility line are compared; the timings in parentheses vary.
./_build/default/bin/lla_cli.exe generate --subtasks 100000 --seed 42 -o _build/scale1e5.lla
scale_summary() {
  ./_build/default/bin/lla_cli.exe solve-scale "$@" |
    sed -n -e 's/^converged at tick \([0-9]*\) .*/tick \1/p' -e '/^total utility:/p'
}
direct=$(scale_summary --subtasks 100000 --seed 42)
replayed=$(scale_summary --workload file:_build/scale1e5.lla)
case "$direct" in
  tick*"total utility:"*) ;;
  *) echo "ci: 10^5 solve-scale did not converge: $direct" >&2; exit 1 ;;
esac
if [ "$direct" != "$replayed" ]; then
  printf 'generated:\n%s\nreplayed:\n%s\n' "$direct" "$replayed" >&2
  echo "ci: 10^5 codec round trip disagrees" >&2
  exit 1
fi
echo "ci: 10^5 codec round trip agrees:" $direct

# Soak-tier smoke: a 60k-tick endurance run under continuous churn and
# recurring chaos windows must hold every rolling-health oracle (sustained
# Eq. 3/4 feasibility, reconvergence budgets, baseline utility drift),
# stay under its resource ceilings without shedding load, and the forced
# ceiling-breach drill must walk the degradation ladder into safe mode
# instead of crashing.
./_build/default/bench/main.exe --json _build soak-smoke

# Parallel-engine smoke: the 100k-subtask scenario deployed on
# Engine_domains at 1/2/4 domains. Gates replay determinism (two
# same-seed 4-domain runs bit-for-bit) and scaling: >= 1.6x agents/sec
# at 4 domains vs 1 on a >= 4-core host, best-parallel >= 1.1x on
# smaller hosts (the floor actually applied is printed and stamped in
# BENCH_parallel_smoke.json). The fat minor heap keeps the domains'
# stop-the-world GC rendezvous off the critical path; OCaml 5 only
# reads it at startup, hence the env var.
OCAMLRUNPARAM='s=8M' ./_build/default/bench/main.exe --json _build parallel-smoke

# Crash-recovery smoke: converge a seeded 2k-subtask kernel against a
# real file-backed journal, crash it, and gate warm recovery (replayed
# journal + restore_iterate) strictly faster back to Eq. 3/4 feasibility
# than a cold restart. Includes one forced torn-write drill: the active
# segment is corrupted at byte 0 and recovery must degrade to a cold
# restart — zero records replayed, never a raise.
./_build/default/bench/main.exe --json _build recovery-smoke

# Streaming-monitor smoke: live-monitoring cost on the 10k scale
# scenario. Per-tick kernel cost and per-feed monitor cost are measured
# separately where each is stable (an A/B wall diff of two ~100 ms runs
# cannot resolve microseconds on a shared box); the gate is the ratio:
# monitor time per 47-tick health cadence window must stay under 5% of
# kernel time for the same window.
./_build/default/bench/main.exe --json _build monitor-smoke

# Perf-regression gate over the committed BENCH history: every fresh
# smoke snapshot written above is judged against its committed
# counterpart at the repo root, each key as its snapshot declares:
# exact keys must match, perf keys stay within their band (judged only
# when the "cores" stamp matches the recording host), info keys are
# never compared.
./_build/default/bench/main.exe compare _build
