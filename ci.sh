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
# Process-wide state: product code declares no `static` or
# `thread_local!` beyond this list, one `file:NAME` entry per line with its
# reason. State that outlives a call makes counted work depend on process
# history, so a new entry needs a reason that no caller-held value meets.
allowed_statics=$(sed 's/ .*//' <<'LIST'
crates/credential/src/verified.rs:GLOBAL the verified-credential cache; e2ebench reads VerifiedCache::global() (ROADMAP item 2)
crates/crypto/src/stats.rs:VERIFY crypto counter; e2ebench reads crypto::stats::snapshot() (ROADMAP item 2)
crates/crypto/src/stats.rs:VERIFY_REFERENCE crypto counter; e2ebench reads crypto::stats::snapshot() (ROADMAP item 2)
crates/crypto/src/stats.rs:SIGN crypto counter; e2ebench reads crypto::stats::snapshot() (ROADMAP item 2)
crates/crypto/src/stats.rs:TABLE_BUILDS crypto counter; e2ebench reads crypto::stats::snapshot() (ROADMAP item 2)
crates/crypto/src/stats.rs:TABLE_HITS crypto counter; e2ebench reads crypto::stats::snapshot() (ROADMAP item 2)
crates/ontology/src/stats.rs:DIRECT_HITS ontology counter; e2ebench reads ontology::stats::snapshot() (ROADMAP item 2)
crates/ontology/src/stats.rs:SIMILARITY_SCANS ontology counter; e2ebench reads ontology::stats::snapshot() (ROADMAP item 2)
crates/ontology/src/stats.rs:REFERENCE_SCANS ontology counter; e2ebench reads ontology::stats::snapshot() (ROADMAP item 2)
crates/ontology/src/stats.rs:INDEX_CANDIDATES ontology counter; e2ebench reads ontology::stats::snapshot() (ROADMAP item 2)
crates/ontology/src/stats.rs:INDEX_PRUNED ontology counter; e2ebench reads ontology::stats::snapshot() (ROADMAP item 2)
crates/ontology/src/stats.rs:INDEX_BUILDS ontology counter; e2ebench reads ontology::stats::snapshot() (ROADMAP item 2)
crates/crypto/src/fastexp.rs:G_TABLE fixed-base window table of the group generator, built once per process
crates/crypto/src/fastexp.rs:KEY_TABLES bounded per-key window-table cache, counted as crypto.table_builds (ROADMAP item 2)
crates/crypto/src/fastexp.rs:TLS_TABLES per-thread direct-mapped front of KEY_TABLES
crates/journal/src/frame.rs:CRC_TABLES slicing-by-8 CRC-32 tables, computed at compile time
crates/obs/src/metrics.rs:NEXT_SHARD round-robin source of each thread's metric shard index
crates/obs/src/metrics.rs:THREAD_SHARD each thread's metric shard index
LIST
)
if grep -rnE '^\s*(pub(\([a-z]+\))? )?static |thread_local!\s*[({]\s*(pub(\([a-z]+\))? )?static ' \
  src $(ls -d crates/*/src | grep -v '^crates/bench/') \
  | sed -E 's/^([^:]+):[0-9]+:.*static (mut )?([A-Za-z_][A-Za-z0-9_]*).*/\1:\3/' \
  | grep -vxF "$allowed_statics"; then
  echo "product code declares a static or thread_local! not on the list (see above)" >&2
  exit 1
fi
# Product code comes first: after a file's first `#[cfg(test)]`, every
# column-0 item carries its own `#[cfg(test)]`, so the product line count
# (the lines above each file's first test module) sees all of it.
if awk '
  FNR == 1 { tests = 0; pending = 0 }
  /^#\[cfg\(test\)\]/ { tests = 1; pending = 1; next }
  tests && /^(pub(\([a-z]+\))? )?((const|async|unsafe) )*(fn|struct|enum|union|impl|mod|const|static|type|trait|use|extern|macro_rules!)[ <({!]/ {
    if (!pending) { print FILENAME ":" FNR ": " $0; found = 1 }
    pending = 0
  }
  END { exit !found }
' $(find src $(ls -d crates/*/src | grep -v '^crates/bench/') -name '*.rs' | sort); then
  echo "product code follows a test module (see above); move it above the file's first #[cfg(test)]" >&2
  exit 1
fi
# One TN wire protocol: TN messages are typed `soa::Body` values, and
# their XML element shapes are spelled in one module, soa's `body.rs`, the
# rendering that E15 and the differential proptests compare against. A
# product line (comments aside) naming a TN body element in a string
# anywhere else would be a tree-built TN message beside the typed one.
tn_elements='"((StartNegotiation|PolicyExchange|CredentialExchange|ResumeNegotiation)(Request|Response)|trustSequence|counterpartUrl)"'
if grep -rnE "$tn_elements" src crates/*/src --include='*.rs' \
  | grep -v '^crates/soa/src/body\.rs:' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "product code names a TN body element outside crates/soa/src/body.rs (see above)" >&2
  exit 1
fi
# One spelling per stored document: a credential, X-Profile, policy or
# checkpoint is written once against xmldoc's streaming `Sink`, and the
# bytes a store keeps come from its binary sink. A product line outside
# xmldoc (comments aside) that hands a tree built by a `to_xml` function
# on that same line to `Encoded::of`, `encode_element` or
# `Collection::put` builds a tree only to encode it, unless its file is
# on this list, one `file: reason` entry per line.
allowed_tree_encoders=$(sed 's/ .*//' <<'LIST'
crates/vo/src/persist.rs: the paper's VO document, saved by vo::persist on request; no E17 path writes it
LIST
)
if grep -rnE '(Encoded::of|encode_element(_into)?|\.put)\(.*to_xml\(' src crates/*/src --include='*.rs' \
  | grep -v '^crates/xmldoc/src/' \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
  | grep -vF "$allowed_tree_encoders"; then
  echo "product code encodes a tree a to_xml function built (see above); write the document's bytes from its Sink shape" >&2
  exit 1
fi
# One build: no manifest declares a Cargo feature or an optional
# dependency, so every binary, test and benchmark compiles the same
# program. Instrumentation and journaling are runtime values (an attached
# collector, an attached journal), not build configurations.
if grep -nE '^\[features\]|optional *= *true' Cargo.toml crates/*/Cargo.toml; then
  echo "a manifest declares a Cargo feature or an optional dependency (see above)" >&2
  exit 1
fi
# Used dependencies: every `[dependencies]` entry of a product manifest
# (the facade's and each crate's but bench's) is named, as its snake_case
# crate name, somewhere under that crate's `src/`, unless this list gives
# the edge a reason, one `manifest: dependency reason` entry per line.
allowed_unused_deps=$(sed -E 's/^([^ ]+) ([^ ]+).*/\1 \2/' <<'LIST'
crates/admission/Cargo.toml: trust-vo-xmldoc e2ebench/Cargo.lock lists the edge; it goes in the next change to e2ebench/ (ROADMAP item 7)
crates/negotiation/Cargo.toml: parking_lot e2ebench/Cargo.lock lists the edge; it goes in the next change to e2ebench/ (ROADMAP item 7)
crates/ontology/Cargo.toml: trust-vo-journal e2ebench/Cargo.lock lists the edge; it goes in the next change to e2ebench/ (ROADMAP item 7)
crates/soa/Cargo.toml: trust-vo-ontology e2ebench/Cargo.lock lists the edge; it goes in the next change to e2ebench/ (ROADMAP item 7)
crates/vo/Cargo.toml: crossbeam e2ebench/Cargo.lock lists the edge; it goes in the next change to e2ebench/ (ROADMAP item 7)
LIST
)
unused_deps=$(for manifest in Cargo.toml $(ls crates/*/Cargo.toml | grep -v '^crates/bench/'); do
  awk '/^\[/ { deps = ($0 == "[dependencies]"); next }
    deps && /^[A-Za-z0-9_-]+(\.workspace)? *=/ { sub(/[ .=].*/, ""); print }' "$manifest" |
    while read -r dep; do
      grep -rqw -- "$(echo "$dep" | tr - _)" "$(dirname "$manifest")/src" || echo "$manifest: $dep"
    done
done)
if [ -n "$unused_deps" ] && echo "$unused_deps" | grep -vxF "$allowed_unused_deps"; then
  echo "a product crate depends on a crate its sources never name (see above); drop the edge or list its reason" >&2
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
# Formation bench smoke (E10): one shrunken iteration, whose in-binary
# asserts check that serial and parallel formation admit the same members.
cargo run --release -p trust-vo-bench --bin parallel_join_times -- --smoke
# E11 chaos smoke with no collector attached: the in-binary asserts must
# hold when every span and event call is a no-op.
cargo run --release -p trust-vo-bench --bin fig9_faulty_join -- --smoke --seed 42
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
# Examples: `cargo test` builds them but runs none. Each must run to
# completion, and tn_web_service's stdout (the per-operation charges of the
# client driver with no retries or reconnects, so no checkpoints) must
# match its committed golden file.
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  cargo run --release --example "$name" > "target/example-$name.txt"
done
cmp target/example-tn_web_service.txt tests/golden/tn_web_service.txt
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
# in-binary. (crates/ontology/tests/differential.rs proves the indexed
# Algorithm 1 outcome-identical to the naive reference scans.)
cargo run --release -p trust-vo-bench --bin ontology_bench -- --smoke
# Adversarial-load gates (E14). The smoke run asserts in-binary that the
# flooding identity is rate-limited (budget_exhausted faults observed)
# while honest success rate and sim time stay within the E14 bounds, and
# that serial == parallel == flood-free admitted outcomes. This run
# attaches no collector; the traced runs below pass the same asserts.
cargo run --release -p trust-vo-bench --bin fig_adversarial_load -- --smoke --seed 42
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
# typed Overloaded faults with drain hints. This run attaches no
# collector; the traced runs below pass the same asserts.
# (crates/soa/tests/wire_transparency.rs proves the framed boundary
# delivers exactly what was sent and replied.)
cargo run --release -p trust-vo-bench --bin fig_wire_throughput -- --smoke --seed 42
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
# dumps must be byte-identical across two runs.
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
