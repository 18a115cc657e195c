//! The verified-credential cache changes what a signature check costs,
//! never what it decides: the three Fig. 9 cases take identical sim time,
//! charge identical operations and reach identical outcomes with
//! `VerifiedCache::global()` disabled and then enabled.
//!
//! This file holds a single test on purpose: it toggles the process-wide
//! cache, so no other test may run in the same process.

use std::collections::BTreeMap;
use trust_vo::credential::VerifiedCache;
use trust_vo::negotiation::Strategy;
use trust_vo::soa::simclock::{CostKind, SimDuration};
use trust_vo_bench::workloads;

/// One Fig. 9 case: its sim time, its charged operations and its outcome.
type Case = (SimDuration, BTreeMap<CostKind, u64>, String);

/// The three Fig. 9 cases, each measured from a reset clock as
/// `fig9_join_times` measures them.
fn fig9() -> [Case; 3] {
    let mut s = workloads::scenario(workloads::paper_clock());
    s.toolkit.clock.reset();
    let with_tn = format!("{:?}", workloads::join_with_tn(&mut s, Strategy::Standard));
    let with_tn = (s.toolkit.clock.elapsed(), s.toolkit.clock.counts(), with_tn);

    let mut s = workloads::scenario(workloads::paper_clock());
    s.toolkit.clock.reset();
    let join = format!("{:?}", workloads::join_without_tn(&mut s));
    let join = (s.toolkit.clock.elapsed(), s.toolkit.clock.counts(), join);

    let s = workloads::scenario(workloads::paper_clock());
    s.toolkit.clock.reset();
    let tn = format!("{:?}", workloads::standalone_tn(&s, Strategy::Standard));
    let tn = (s.toolkit.clock.elapsed(), s.toolkit.clock.counts(), tn);
    [with_tn, join, tn]
}

#[test]
fn fig9_is_identical_with_the_verified_cache_off_and_on() {
    let cache = VerifiedCache::global();
    cache.set_enabled(false);
    let before = cache.stats();
    let off = fig9();
    assert_eq!(cache.stats(), before, "a disabled cache moves no counter");

    cache.set_enabled(true);
    let on = fig9();
    assert!(
        cache.stats().hits > before.hits,
        "the enabled run answered checks from the cache"
    );
    assert!(off[0].2.starts_with("Ok("), "join with TN succeeds");
    assert_eq!(off, on);
}
