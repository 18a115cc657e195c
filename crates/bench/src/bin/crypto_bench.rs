//! E12 — crypto fast-path microbenchmarks.
//!
//! Measures ops-per-second for the crypto substrate's hot operations —
//! fixed-base exponentiation, credential-sized SHA-256, signing, single
//! verification (fast vs the seed's `pow_mod` reference path) — plus the
//! verified-credential cache hit rate on a repeated-verification
//! workload, and writes the machine-readable record to
//! `BENCH_crypto.json`. The report names the SHA-256 compression kernel
//! the run used (`sha256::kernel`).
//!
//! Flags: `--smoke` shrinks every loop for CI (the speedup and hit-rate
//! assertions still run; the JSON artifact is not rewritten), and
//! `--emit-obs <path>` dumps the process-wide `crypto.*` / `credcache.*`
//! counters as an observability JSONL file.
//!
//! Run with `RUSTFLAGS="-C target-cpu=native"` as `ci.sh` does; the flag
//! is deliberately *not* checked in workspace-wide — only this host-local
//! bench run wants host-specific codegen. The SHA-256 kernel is picked at
//! runtime whatever the flags (DESIGN.md §4a).

use std::hint::black_box;
use std::time::Instant;
use trust_vo_bench::obsutil::{publish_crypto_metrics, ObsArgs};
use trust_vo_bench::report::Report;
use trust_vo_credential::{Attribute, CredentialAuthority, TimeRange, Timestamp, VerifiedCache};
use trust_vo_crypto::{group, sha256, KeyPair, Signature};
use trust_vo_obs::Collector;

/// Deterministic exponent stream (splitmix64 over a fixed seed).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn exp(&mut self) -> u64 {
        self.next() % group::Q
    }
}

/// Time `iters` runs of `f`, five times, and return the best ops/s.
///
/// The first repetition doubles as warmup (table caches, branch
/// predictors); taking the best of five discards repetitions that a
/// noisy-neighbour VM interrupted. Speedup floors compare best-vs-best,
/// which is far more stable than single-shot absolute timings here.
fn measure(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut best = 0f64;
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..iters {
            f(i);
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(iters as f64 / secs);
    }
    best
}

fn fmt_ops(ops: f64) -> String {
    if ops >= 1e6 {
        format!("{:.2}M", ops / 1e6)
    } else if ops >= 1e3 {
        format!("{:.1}k", ops / 1e3)
    } else {
        format!("{ops:.0}")
    }
}

fn main() {
    let args = ObsArgs::from_env();
    let scale: u64 = if args.smoke { 1 } else { 20 };
    let mut report = Report::new(
        "E12",
        "Crypto fast path: ops/s and speedups vs the seed pow_mod path",
        &["operation", "ops/s", "vs reference", "notes"],
    );

    // (a) Fixed-base exponentiation: windowed g_pow vs square-and-multiply.
    let mut stream = Stream(42);
    let exps: Vec<u64> = (0..256).map(|_| stream.exp()).collect();
    let pow_iters = 2_000 * scale;
    let gpow_ops = measure(pow_iters, |i| {
        black_box(group::g_pow(exps[(i % 256) as usize]));
    });
    let powmod_ops = measure(pow_iters.min(20_000), |i| {
        black_box(group::pow_mod(group::G, exps[(i % 256) as usize], group::P));
    });
    let gpow_speedup = gpow_ops / powmod_ops;
    report.row(
        "g_pow (windowed)",
        &[
            fmt_ops(gpow_ops),
            format!("{gpow_speedup:.1}x"),
            "16-entry/4-bit fixed-base table".into(),
        ],
    );
    report.row(
        "pow_mod (reference)",
        &[
            fmt_ops(powmod_ops),
            "1.0x".into(),
            "square-and-multiply".into(),
        ],
    );

    // (b) SHA-256 of a credential-sized message: a credential's canonical
    // encoding is about half a kilobyte, hashed for its cache fingerprint.
    let credential_bytes = vec![0x5au8; 512];
    let sha_ops = measure(2_000 * scale, |_| {
        black_box(sha256::sha256(black_box(&credential_bytes)));
    });
    report.row(
        "sha256 (512 B)",
        &[
            fmt_ops(sha_ops),
            "-".into(),
            "credential-sized input, 9 blocks".into(),
        ],
    );

    // (c) Sign / verify on short messages (small hashing share, so the
    // exponentiation difference dominates, as in credential exchange).
    let keys: Vec<KeyPair> = (0..8)
        .map(|i| KeyPair::from_seed(format!("bench-key-{i}").as_bytes()))
        .collect();
    let messages: Vec<Vec<u8>> = (0..256)
        .map(|i| format!("credential-{i}").into_bytes())
        .collect();
    let sigs: Vec<Signature> = messages
        .iter()
        .enumerate()
        .map(|(i, m)| keys[i % 8].sign(m))
        .collect();

    let sign_ops = measure(500 * scale, |i| {
        let i = (i % 256) as usize;
        black_box(keys[i % 8].sign(&messages[i]));
    });
    report.row("sign", &[fmt_ops(sign_ops), "-".into(), String::new()]);

    let verify_iters = 2_000 * scale;
    let verify_ops = measure(verify_iters, |i| {
        let i = (i % 256) as usize;
        assert!(keys[i % 8].public.verify(&messages[i], &sigs[i]));
    });
    let reference_ops = measure(verify_iters.min(5_000), |i| {
        let i = (i % 256) as usize;
        assert!(keys[i % 8].public.verify_reference(&messages[i], &sigs[i]));
    });
    let verify_speedup = verify_ops / reference_ops;
    report.row(
        "verify (fast)",
        &[
            fmt_ops(verify_ops),
            format!("{verify_speedup:.1}x"),
            "Jacobi subgroup check + window tables".into(),
        ],
    );
    report.row(
        "verify (reference)",
        &[
            fmt_ops(reference_ops),
            "1.0x".into(),
            "seed path: two pow_mod subgroup checks".into(),
        ],
    );

    // (d) Verified-credential cache hit rate: every credential verified
    // twice (fresh process ⇒ the deltas below are this workload's own).
    let before = VerifiedCache::global().stats();
    let mut ca = CredentialAuthority::new("E12-CA");
    let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
    let at = Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0);
    let subject = KeyPair::from_seed(b"e12-subject");
    let creds: Vec<_> = (0..50 * scale)
        .map(|i| {
            ca.issue(
                "Quality",
                "S",
                subject.public,
                vec![Attribute::new("n", i as i64)],
                window,
            )
            .unwrap()
        })
        .collect();
    for _ in 0..2 {
        for cred in &creds {
            cred.verify(at, None).unwrap();
        }
    }
    let after = VerifiedCache::global().stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_rate = hits as f64 / (hits + misses) as f64;
    report.row(
        "credcache (verify x2)",
        &[
            format!("{hits}/{}", hits + misses),
            format!("{:.0}% hits", hit_rate * 100.0),
            "2nd pass skips signature work".into(),
        ],
    );

    report.note(
        "reference = the seed's pow_mod verification (two pow_mod subgroup checks + \
         two exponentiations)",
    );
    report.note(&format!("sha256 kernel: {}", sha256::kernel()));
    report.print();

    if let Some(path) = &args.emit_obs {
        let collector = Collector::new();
        publish_crypto_metrics(&collector);
        std::fs::write(path, collector.to_jsonl())
            .unwrap_or_else(|e| panic!("writing {} failed: {e}", path.display()));
        eprintln!("observability dump written to {}", path.display());
    }

    if !args.smoke {
        std::fs::write("BENCH_crypto.json", report.to_json() + "\n")
            .expect("writing BENCH_crypto.json");
        eprintln!("wrote BENCH_crypto.json");
    }

    // Acceptance gates (ISSUE 4): the fast path must beat the seed path
    // by a wide margin, and repeat verification must hit the cache.
    assert!(
        verify_speedup >= 4.0,
        "single-verify speedup {verify_speedup:.2}x below the 4x floor"
    );
    assert!(
        hit_rate >= 0.45,
        "credcache hit rate {hit_rate:.2} below the 0.45 floor"
    );
}
