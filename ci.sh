#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
# Run from the repo root. Fails on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test"
cargo test --workspace -q

echo "==> observability crate tests"
cargo test -p nrslb-obs -q

echo "==> text-exposition smoke (registry render + daemon scrape)"
# e15 hard-asserts the required metric families are present in a live
# daemon scrape and that every exposition line parses; the small scale
# keeps the overhead measurement short (its numbers are recorded from
# full-scale runs in EXPERIMENTS.md, not here).
NRSLB_SCALE=30 cargo run --release -q -p nrslb-bench --bin e15_observability

echo "==> verdict-cache equivalence + 16-thread stress tests"
cargo test -p nrslb-core --test verdict_cache -q

echo "==> daemon throughput smoke (release, bounded, asserted)"
# Bounded e16 run: hard-asserts the warm signature-memo path is >= 2x
# cold and batching is not slower than single requests. The committed
# BENCH_e16.json records full-scale numbers; the smoke writes its report
# to a scratch path so CI never clobbers them.
NRSLB_E16_ASSERT=1 NRSLB_SCALE=12 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e16_throughput

echo "==> allocation-budget smoke (release, bounded, asserted)"
# Bounded e17 run: hard-asserts the warm verdict path (held session
# re-evaluating through its scratch arena) stays under a fixed gross
# allocation bound per verdict — the interned core's zero-allocation
# claim, observed at the allocator. Report goes to a scratch path so
# CI never clobbers the committed BENCH_e17.json.
NRSLB_E17_ASSERT=1 NRSLB_SCALE=12 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e17_alloc_throughput

echo "==> daemon golden transcript + reactor torture and 1k-connection liveness tests"
cargo test -p nrslb-core --test daemon_transcript --test reactor_torture -q

echo "==> feed golden transcript + keep-alive torture, liveness and read-sizing tests"
cargo test -p nrslb-rsf --test feed_transcript --test feed_torture --test frame_alloc -q

echo "==> reactor accept-loop backoff under fd exhaustion"
cargo test -p nrslb-reactor --test accept_backoff -q

echo "==> differential oracle smoke (fixed seed)"
# Bounded run: >=1,000 cross-path (chain, GCC, usage) checks PLUS
# >=1,000 incremental-vs-scratch Datalog maintenance checks (the
# apply_delta oracle arm, both policies); exits non-zero and prints the
# failing NRSLB_SIM_SEED on any disagreement, with the JSON repro
# dumped under reports/.
NRSLB_SIM_SEED=0xd1ff NRSLB_SCALE=120 \
    cargo run --release -q -p nrslb-bench --bin e14_differential

echo "==> incremental-maintenance proptests (counting + DRed vs scratch)"
cargo test -p nrslb-datalog --test incremental_props -q

echo "==> taint-keyed verdict invalidation tests"
cargo test -p nrslb-core --test taint_invalidation -q

echo "==> incremental maintenance smoke (release, bounded, asserted)"
# Bounded e19 run: hard-asserts the taint-keyed serving arm delivers
# >= 2x the full-clear arm's verdicts/s under per-round publisher
# deltas, and that apply_delta does not lose to from-scratch
# re-evaluation at the Datalog layer. The committed BENCH_e19.json
# records full-scale numbers; the smoke writes to a scratch path.
NRSLB_E19_ASSERT=1 NRSLB_SCALE=12 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e19_incremental

echo "==> Shamir field-axiom + roundtrip proptests"
cargo test -p nrslb-crypto --test shamir_field --test shamir_roundtrip -q

echo "==> quorum adversarial + wire proptests"
cargo test -p nrslb-rsf --test quorum_adversarial --test proptest_quorum_wire -q

echo "==> compromised-minority quorum smoke (release, asserted)"
# e20: an attacker holding k-1 of the quorum's signers stages >= 200
# forged-checkpoint presentations through the ecosystem sim — zero may
# be accepted, and the failing NRSLB_SIM_SEED is printed on violation.
# The committed BENCH_e20.json holds the recorded run; the smoke writes
# to a scratch path.
NRSLB_E20_ASSERT=1 NRSLB_JSON="$(mktemp)" \
    cargo run --release -q -p nrslb-bench --bin e20_quorum

echo "==> verdict cost ledger tests"
# The ledger is its own package, so the workspace steps above never
# build it. Building it here makes a change to a workspace API it uses
# fail in CI rather than at benchmark time; its tests include the one
# showing a single corrupted reference verdict fails a run.
cargo test --offline --locked -q --manifest-path ledger/Cargo.toml

echo "==> verdict cost ledger smoke (release, bounded, asserted)"
# The BENCHMARK.json command, untraced, 10 s per workload: the last
# stdout line must report every reply checked correct. Ten seconds is
# the shortest run in which hammurabi meets the ledger's 1000-sample
# floor (400 req/s x 0.3 x 10 s = 1200); the schedule fixes the sample
# counts, so the smoke does not depend on timing.
for workload in daemon_hit daemon_miss feed_churn hammurabi; do
    last=$(cargo run --release --offline --locked --quiet --manifest-path ledger/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 10 --trace 0 | tail -n 1) || true
    case "$last" in
        '{"correct": true'*) echo "    $workload: correct" ;;
        *) echo "ledger $workload: not correct: $last" >&2; exit 1 ;;
    esac
done

echo "==> CI green"
