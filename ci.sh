#!/usr/bin/env bash
# Local mirror of the CI pipeline (.github/workflows/ci.yml):
# formatting, lints, release build, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

echo "== benchmark build + tests (blocking) =="
# perfbench is a Cargo package of its own that calls the rhb-* crates by
# path, so the workspace build above never compiles it. Building and
# testing it here catches a crate API change the benchmark relies on;
# --locked fails on any dependency change that would rewrite
# perfbench/Cargo.lock.
CARGO_TARGET_DIR=.bench_build cargo test --release --locked --offline \
  --manifest-path perfbench/Cargo.toml -q

echo "== thread pool unit tests (blocking) =="
# The pool underpins every parallel path; its invariants (serial
# fallback, panic propagation, deterministic chunking) are a hard gate.
cargo test --release -p rhb-par -q

echo "== Table II regenerates (blocking) =="
# The paper's Table II, seeded end to end: five attack methods on three
# tiny ResNets (offline optimization, templating, matching, hammering).
# The committed file must reproduce byte for byte, so a change that
# moves a seeded result fails here until it commits the new file.
RHB_TELEMETRY=off cargo run --release -p rhb-bench --bin exp -- table2 > ci_table2.txt
diff -u results/table2.txt ci_table2.txt

echo "== flight recorder smoke (non-blocking) =="
# Record a fresh smoke run (with a Chrome trace) and diff it against the
# committed BENCH_2.json baseline. Regressions warn but never fail CI:
# the runners' wall clocks are too noisy to gate on.
if RHB_TELEMETRY=trace RHB_TRACE=ci_trace.json \
    cargo run --release -p rhb-bench --bin rhb-report -- bench --out ci_bench.json; then
  cargo run --release -p rhb-bench --bin rhb-report -- diff BENCH_2.json ci_bench.json ||
    echo "WARNING: smoke run regressed against the committed BENCH_2.json baseline"
else
  echo "WARNING: rhb-report bench failed"
fi

echo "== compute perf smoke =="
# Re-measure the training-step and CFT+BR wall times and compare against
# the committed BENCH_4.json baseline. A serial (RHB_THREADS=1)
# regression beyond 10% is blocking; parallel speedup below the 3x
# target is reported but non-blocking (single-core runners cannot
# demonstrate any speedup).
cargo run --release -p rhb-bench --bin rhb-report -- bench-compute --out ci_compute.json
cargo run --release -p rhb-bench --bin rhb-report -- diff-compute BENCH_4.json ci_compute.json

echo "== int8 parity suite (blocking) =="
# The int8 engine must match the fake-quant f32 reference — exact logits
# across thread counts, argmax parity on deployed models — both with the
# pool forced serial and at the default thread count.
RHB_THREADS=1 cargo test --release -p rhb-nn --test int8_parity -q
cargo test --release -p rhb-nn --test int8_parity -q

echo "== int8 perf gate (RHB_THREADS matrix, blocking) =="
# Re-measure int8-vs-f32 GEMM and whole-model eval wall times under a
# forced 1-thread and 4-thread pool, comparing each against the
# committed BENCH_6.json baseline. Blocking: a serial int8 eval
# regression beyond 10%, a GEMM-reference int8 speedup below 2x, a
# whole-model int8-over-f32 eval speedup below 1.5x (2x stretch target
# reported only), or int8 eval slower than f32 eval at any thread count
# (the BENCH_5-era 2-thread regression).
for threads in 1 4; do
  RHB_THREADS=$threads cargo run --release -p rhb-bench --bin rhb-report -- \
    bench-int8 --out "ci_int8_t${threads}.json"
  RHB_THREADS=$threads cargo run --release -p rhb-bench --bin rhb-report -- \
    diff-int8 BENCH_6.json "ci_int8_t${threads}.json"
done

echo "== observability smoke (blocking) =="
# Run the observable attack driver with the live endpoint enabled and
# validate it mid-attack: /status must carry the phase/health/ledger
# schema and /metrics must be well-formed Prometheus text containing
# the ETA gauge, pool utilization, and per-layer eval timing families
# (rhb-report watch --check exits non-zero otherwise). The driver must
# also exit cleanly after the endpoint is torn down.
RHB_OBS_ADDR=127.0.0.1:9184 RHB_TELEMETRY=off \
  cargo run --release -p rhb-bench --bin exp -- backdoor_online \
  --runs 2 --min-seconds 8 &
OBS_PID=$!
sleep 4
cargo run --release -p rhb-bench --bin rhb-report -- watch 127.0.0.1:9184 --once --check
wait "$OBS_PID"

echo "== chaos smoke + flight recorder gate (blocking) =="
# One seeded fault-injection run with the flight recorder on: at a 20%
# fault rate the pipeline must degrade gracefully (never fail outright)
# and recover at least one target through retries/fallbacks. The
# recorded timeline must then replay (`rhb-report timeline`) and the
# post-mortem must find at least one fired stall/recovery/downgrade
# alert (`--require-alert` exits 1 otherwise). Deterministic chaos RNG
# and a final end-of-run snapshot → gateable.
rm -rf results/timelines/ci-chaos
RHB_OBS_RECORD=ci-chaos RHB_OBS_INTERVAL_MS=25 RHB_TELEMETRY=off \
  cargo run --release -p rhb-bench --bin exp -- chaos_sweep --rates 0.2 --assert-degraded
cargo run --release -p rhb-bench --bin rhb-report -- timeline results/timelines/ci-chaos
cargo run --release -p rhb-bench --bin rhb-report -- \
  postmortem results/timelines/ci-chaos --require-alert stall,recovery,downgrade


echo "== campaign kill-resume gate (blocking) =="
# Fault-tolerant campaign supervisor, end to end: an in-process phase
# proves panicking and hanging runs are isolated, retried with backoff,
# and quarantined without wedging the queue; a child-process phase
# SIGKILLs a live sabotaged campaign mid-flight and resumes it with the
# identical command. `rhb-report campaign` then audits the journal:
# every run settled, zero duplicate run-ids, at least one recorded
# retry. All three checks exit non-zero on violation.
rm -rf results/campaigns/ci-kill results/campaigns/ci-kill-domains
RHB_TELEMETRY=off cargo run --release -p rhb-bench --bin exp -- campaign_kill
cargo run --release -p rhb-bench --bin rhb-report -- \
  campaign results/campaigns/ci-kill \
  --require-complete --require-retried --forbid-duplicates


echo "== victim serving gate (blocking) =="
# Serve live inference traffic while the attacker flips weight pages
# in the running server (no restart): a seeded open-loop generator
# drives 600 requests against the batched int8 service while flips are
# replayed into the hot model mid-window. `rhb-report serve --check`
# then audits the frozen trajectory: traffic must complete, the
# backdoor must activate, and windowed ASR must cross the 90%
# threshold after the flip window.
RHB_TELEMETRY=off cargo run --release -p rhb-bench --bin exp -- serve_attack \
  --seed 7 --out ci_serve.json
cargo run --release -p rhb-bench --bin rhb-report -- serve ci_serve.json --check

echo "CI OK"
