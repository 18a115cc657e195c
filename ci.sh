#!/usr/bin/env sh
# Tier-1 gate, one command: build, test, format, lint.
# Also compiles (without running) the criterion benches, which `cargo test`
# skips because they set `harness = false`.
set -eux

cargo build --workspace --release
cargo test --workspace -q
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# No kill switches: product code (every crate but the bench harness, plus
# the facade) reads no environment variable except TRUST_VO_FLIGHT_DIR,
# the flight recorder's deployment path. An equivalence a switch used to
# prove at runtime is a test instead.
if grep -rnE 'env::(var|\{)|env!\(' src $(ls -d crates/*/src | grep -v '^crates/bench/') \
  | grep -v 'TRUST_VO_FLIGHT_DIR'; then
  echo "product code reads an environment variable (see above)" >&2
  exit 1
fi
# The end-to-end benchmark (E17) is a Cargo workspace of its own, so the
# steps above skip it; an API change in the crates it drives must not
# break it unnoticed.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml
cargo fmt --manifest-path e2ebench/Cargo.toml --check
cargo clippy --manifest-path e2ebench/Cargo.toml --all-targets -- -D warnings
# Docs, warnings-as-errors, product crates only (the vendored offline
# subsets under vendor/ are out of scope for the doc gate).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p trust-vo -p trust-vo-bench -p trust-vo-credential -p trust-vo-crypto \
  -p trust-vo-journal -p trust-vo-negotiation -p trust-vo-netsim \
  -p trust-vo-obs -p trust-vo-ontology -p trust-vo-policy -p trust-vo-soa \
  -p trust-vo-store -p trust-vo-vo -p trust-vo-xmldoc -p trust-vo-admission \
  -p trust-vo-scenario
cargo bench --workspace --no-run
# Disabled-instrumentation smoke: with the obs feature compiled out the
# formation bench must still build and complete one shrunken iteration.
cargo run --release -p trust-vo-bench --no-default-features --bin parallel_join_times -- --smoke
cargo run --release -p trust-vo-bench --no-default-features --bin fig9_faulty_join -- --smoke --seed 42
# Chaos determinism gate: the same seed must replay the whole fault
# schedule bit-for-bit — two E11 smoke runs, byte-identical deterministic
# obs dumps (wall-clock fields scrubbed, everything else compared).
cargo run --release -p trust-vo-bench --bin fig9_faulty_join -- --smoke --seed 42 --emit-obs target/e11-chaos-a.jsonl
cargo run --release -p trust-vo-bench --bin fig9_faulty_join -- --smoke --seed 42 --emit-obs target/e11-chaos-b.jsonl
cmp target/e11-chaos-a.jsonl target/e11-chaos-b.jsonl
# Trace determinism gate (E13): same seed, byte-identical deterministic
# Perfetto exports; the runs also assert in-binary that the critical-path
# analyzer attributes >= 95% of each formation root's sim time.
cargo run --release -p trust-vo-bench --bin fig9_faulty_join -- --smoke --seed 42 --emit-trace target/e13-trace-a.json
cargo run --release -p trust-vo-bench --bin fig9_faulty_join -- --smoke --seed 42 --emit-trace target/e13-trace-b.json
cmp target/e13-trace-a.json target/e13-trace-b.json
# The trace must round-trip through the CLI viewer (timeline, attribution
# table, top-k critical path from the JSONL export).
cargo run --release --bin trustvo -- trace target/e11-chaos-a.jsonl --top 5 > /dev/null
# Crypto fast-path gate (E12): the single-verify speedup floor vs the
# seed pow_mod path and the verified-credential cache hit rate are
# asserted in-binary. target-cpu=native is scoped to this build (its own
# target dir, so the portable artifacts above are untouched): bench
# numbers are only meaningful for the host that ran them anyway. SHA-256
# picks its kernel at runtime whatever the flags (DESIGN.md §4a). The
# crypto tests run here too, so the kernel ≡ portable differential tests
# cover both codegens. Everything that ships or gets cached is built
# portable.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
  cargo test --release -q -p trust-vo-crypto
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
  cargo run --release -p trust-vo-bench --bin crypto_bench -- --smoke
# Fig. 9 shape gate (E1): the smoke run asserts in-binary that the
# reproduction keeps the paper's shape. (tests/verified_cache_off.rs
# proves the same cases identical with the credential cache off.)
cargo run --release -p trust-vo-bench --bin fig9_join_times -- --smoke
# Trust-X exchange gates (E4, E4b, E6): the negotiation tables are
# deterministic, so each bin's stdout must match its committed golden
# file byte for byte. E6's trusting row covers the batched-alternatives
# branch of the policy phase.
cargo run --release -p trust-vo-bench --bin negotiation_messages > target/e4-negotiation-messages.txt
cmp target/e4-negotiation-messages.txt tests/golden/negotiation_messages.txt
cargo run --release -p trust-vo-bench --bin strategy_table > target/e6-strategy-table.txt
cmp target/e6-strategy-table.txt tests/golden/strategy_table.txt
# Journal determinism gate: the same seed must journal the same facts in
# the same frames — two formation runs, byte-identical replay/state
# digests — plus a truncated-journal recovery smoke (every cut in a
# 97-step sweep must restore a clean-prefix state, asserted in-binary).
# The run must also match its committed golden file (record count, byte
# length, replay and state digests), so an unintended change to the
# journal record layout or the document encoding fails here.
cargo run --release -p trust-vo-bench --bin journal_workload -- --seed 42 > target/journal-digest-a.txt
cargo run --release -p trust-vo-bench --bin journal_workload -- --seed 42 > target/journal-digest-b.txt
cmp target/journal-digest-a.txt target/journal-digest-b.txt
cmp target/journal-digest-a.txt tests/golden/journal_workload.txt
cargo run --release -p trust-vo-bench --bin journal_workload -- --smoke --seed 42
# Indexed mapping-engine gate (E5b): the similarity-fallback speedup
# floor at n=800 and the n=10000 completeness check are asserted
# in-binary. (tests/memo_off.rs proves mapping outcomes identical with
# the memo off, cold and hot.)
cargo run --release -p trust-vo-bench --bin ontology_bench -- --smoke
# Adversarial-load gates (E14). The smoke run asserts in-binary that the
# flooding identity is rate-limited (budget_exhausted faults observed)
# while honest success rate and sim time stay within the E14 bounds, and
# that serial == parallel == flood-free admitted outcomes. With the obs
# feature compiled out the bin must still build and pass the same asserts.
cargo run --release -p trust-vo-bench --no-default-features --bin fig_adversarial_load -- --smoke --seed 42
# Same-seed determinism: admission decisions must not perturb the netsim
# fault decision stream — two flooded smoke runs, byte-identical
# deterministic obs dumps and Perfetto exports.
cargo run --release -p trust-vo-bench --bin fig_adversarial_load -- --smoke --seed 42 --emit-obs target/e14-a.jsonl --emit-trace target/e14-ta.json
cargo run --release -p trust-vo-bench --bin fig_adversarial_load -- --smoke --seed 42 --emit-obs target/e14-b.jsonl --emit-trace target/e14-tb.json
cmp target/e14-a.jsonl target/e14-b.jsonl
cmp target/e14-ta.json target/e14-tb.json
# Ungated baseline: --plain (ungated bus, a formation with no admission
# control) asserts in-binary that it replays identically and refuses
# nothing; tests/adversarial_load.rs proves that such a formation matches
# the same formation under a fresh AdmissionControl.
cargo run --release -p trust-vo-bench --bin fig_adversarial_load -- --smoke --seed 42 --plain --emit-obs target/e14-plain.jsonl --emit-trace target/e14-tplain.json
# Wire-path gates (E15). The smoke run asserts in-binary that the same
# negotiations produce identical outcomes serially, through the
# single-queue dispatcher bus, and on the sharded work-stealing executor;
# that a seeded netsim formation over the wire replays bit-for-bit
# (serial == parallel == replay); that a crash window forces a
# checkpointed resume; and that a flood of a tiny dispatch queue sheds
# typed Overloaded faults with drain hints. With the obs feature
# compiled out the bin must still build and pass the same asserts.
# (crates/soa/tests/wire_transparency.rs proves the framed boundary
# delivers exactly what was sent and replied.)
cargo run --release -p trust-vo-bench --no-default-features --bin fig_wire_throughput -- --smoke --seed 42
# Same-seed determinism over the async bus: two smoke runs must dump
# byte-identical deterministic obs streams and Perfetto exports.
cargo run --release -p trust-vo-bench --bin fig_wire_throughput -- --smoke --seed 42 --emit-obs target/e15-a.jsonl --emit-trace target/e15-ta.json
cargo run --release -p trust-vo-bench --bin fig_wire_throughput -- --smoke --seed 42 --emit-obs target/e15-b.jsonl --emit-trace target/e15-tb.json
cmp target/e15-a.jsonl target/e15-b.jsonl
cmp target/e15-ta.json target/e15-tb.json
# Scenario-fuzzer gates (E16). The smoke run generates 500 seeded
# lifecycle scenarios and checks all four properties in-binary
# (membership <=> completed TN, serial == replay (== parallel when
# order-independent), kill-anywhere journal recovery, honored
# retry_after_us hints); the fixed showcase scenario's obs/Perfetto
# dumps must be byte-identical across two runs. The scenario crate must
# also build with instrumentation compiled out.
cargo build --release -p trust-vo-scenario --no-default-features
cargo run --release -p trust-vo-bench --bin fig_scenario_sweep -- --smoke --seed 42 --emit-obs target/e16-a.jsonl --emit-trace target/e16-ta.json
cargo run --release -p trust-vo-bench --bin fig_scenario_sweep -- --smoke --seed 42 --emit-obs target/e16-b.jsonl --emit-trace target/e16-tb.json
cmp target/e16-a.jsonl target/e16-b.jsonl
cmp target/e16-ta.json target/e16-tb.json
# Shrinker proof: the canary mode requires every scenario to FAIL
# formation, so the first healthy seed violates it deliberately; the
# run asserts in-binary that the shrinker reduces that failure to
# <= 3 parties and <= 2 fault clauses, and the printed repro command
# must re-run through the CLI and report the formation success that
# tripped the canary.
cargo run --release -p trust-vo-bench --bin fig_scenario_sweep -- --canary --seed 42 | tee target/e16-canary.txt
repro=$(sed -n 's/^repro: trustvo //p' target/e16-canary.txt)
cargo run --release --bin trustvo -- $repro | grep -q "all lifecycle properties hold"
