//! The fault-injecting transport itself.
//!
//! [`NetSim`] wraps a [`ServiceBus`] and implements
//! [`Transport`], so every driver written against the trait (the
//! resilient client, VO formation) runs unchanged over a perfect or a
//! hostile network. All injected delay is charged to the shared
//! [`SimClock`] — nothing here touches wall time.
//!
//! # Determinism contract
//!
//! Every probabilistic decision for a call is drawn from a
//! [`SplitMix64`] stream seeded by
//! `mix(seed, service, operation, idempotency-key, attempt)`, where
//! `attempt` counts prior deliveries of the same key on the same link.
//! Under a serial driver the whole fault schedule is therefore a pure
//! function of the plan — same seed, same drops, same duplicates, same
//! latencies, same outcomes. (Concurrent drivers stay *individually*
//! deterministic per key, but interleaving — and hence which call first
//! trips a crash window — is scheduler-dependent.)
//!
//! # Idempotency and the reply cache
//!
//! The wrapper models a server-side dedup layer: results of keyed calls
//! (successes *and* application faults — both are the negotiation's
//! verdict) are cached per `(service, key)`, so a retried or duplicated
//! request is answered from the cache instead of re-executing the
//! operation. Transport faults are never cached — they describe the
//! network, not the operation. A crash clears the affected service's
//! cache along with its volatile sessions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use trust_vo_soa::{Envelope, Fault, FaultKind, ServiceBus, SimClock, Transport};

use crate::plan::FaultPlan;
use crate::rng::{hash_str, mix, SplitMix64};

/// Live counters for the injected faults. All handles are plain
/// [`trust_vo_obs`] counters: they count whether or not a collector is
/// attached, and clones observe the same totals.
#[derive(Debug, Clone, Default)]
pub struct NetMetrics {
    /// Messages lost (either direction), including outage hits.
    pub drops: trust_vo_obs::Counter,
    /// Requests delivered twice.
    pub dups: trust_vo_obs::Counter,
    /// Endpoint crashes fired by outage windows.
    pub crashes: trust_vo_obs::Counter,
    /// Calls refused because a partition severed the link.
    pub partitioned: trust_vo_obs::Counter,
    /// Calls delivered to the endpoint (cache hits included).
    pub delivered: trust_vo_obs::Counter,
    /// Keyed calls answered from the reply cache without re-execution.
    pub dedup_replays: trust_vo_obs::Counter,
}

/// Outcome slot of the reply cache.
type CachedReply = Result<Envelope, Fault>;

/// A deterministic, seed-driven unreliable network in front of a
/// [`ServiceBus`]. See the module docs for the fault model.
pub struct NetSim {
    bus: ServiceBus,
    plan: FaultPlan,
    /// Delivery attempts per `(service, idempotency key)` — the
    /// `attempt` word of the per-call decision stream.
    attempts: Mutex<HashMap<(String, u64), u64>>,
    /// Server-side dedup: `(service, key)` → first computed outcome.
    replies: Mutex<HashMap<(String, u64), CachedReply>>,
    /// One latch per plan outage: has its crash fired yet?
    crash_fired: Vec<AtomicBool>,
    /// Distinguishes unkeyed calls from each other.
    anon_nonce: AtomicU64,
    metrics: NetMetrics,
}

impl NetSim {
    /// Wraps `bus` under `plan`.
    pub fn new(bus: ServiceBus, plan: FaultPlan) -> Self {
        let crash_fired = plan
            .outages
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect();
        NetSim {
            bus,
            plan,
            attempts: Mutex::new(HashMap::new()),
            replies: Mutex::new(HashMap::new()),
            crash_fired,
            anon_nonce: AtomicU64::new(0),
            metrics: NetMetrics::default(),
        }
    }

    /// The wrapped bus.
    pub fn bus(&self) -> &ServiceBus {
        &self.bus
    }

    /// The governing plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The injector's live counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Checks outage windows for `service` at sim instant `now`; fires
    /// the crash latch on first contact and reports whether the service
    /// is currently unreachable.
    fn outage_hit(&self, service: &str, now: trust_vo_soa::SimDuration) -> bool {
        let obs = self.bus.clock().collector();
        let mut down = false;
        for (i, outage) in self.plan.outages.iter().enumerate() {
            if outage.service != service || now < outage.start || now >= outage.end {
                continue;
            }
            down = true;
            if outage.crash && !self.crash_fired[i].swap(true, Ordering::SeqCst) {
                if let Some(endpoint) = self.bus.endpoint(service) {
                    endpoint.on_crash();
                }
                // The dedup layer lives with the process: a restart
                // forgets which keys it has answered.
                self.replies.lock().retain(|(s, _), _| s != service);
                self.metrics.crashes.inc();
                if obs.is_enabled() {
                    obs.counter_add("net.crashes", 1);
                }
            }
        }
        down
    }

    /// Delivers a request to the endpoint, through the reply cache.
    /// The second bool reports whether the reply came from the dedup
    /// cache without re-executing the operation.
    fn deliver(
        &self,
        service: &str,
        request: &Envelope,
        key: Option<u64>,
        duplicated: bool,
    ) -> (CachedReply, bool) {
        self.metrics.delivered.inc();
        if let Some(k) = key {
            if let Some(cached) = self.replies.lock().get(&(service.to_string(), k)) {
                self.metrics.dedup_replays.inc();
                return (cached.clone(), true);
            }
        }
        let result = self.bus.call(service, request);
        if duplicated {
            self.metrics.dups.inc();
            let obs = self.bus.clock().collector();
            if obs.is_enabled() {
                obs.counter_add("net.dups", 1);
            }
            if key.is_none() {
                // No key to dedup on: the duplicate re-executes, side
                // effects included. That is the point of the model.
                let _ = self.bus.call(service, request);
            }
        }
        if let Some(k) = key {
            let cacheable = match &result {
                Ok(_) => true,
                Err(f) => f.kind == FaultKind::Application,
            };
            if cacheable {
                self.replies
                    .lock()
                    .insert((service.to_string(), k), result.clone());
            }
        }
        (result, false)
    }
}

impl Transport for NetSim {
    fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        let clock = self.bus.clock();
        let obs = clock.collector();
        let now = clock.elapsed();
        let profile = self.plan.profile_for(service).clone();

        // A traced request crosses the simulated network under a
        // `net.transit` span: injected latency, drop timeouts, duplicate
        // deliveries, and dedup-cache replies all land inside it, and the
        // envelope is re-stamped so bus/endpoint spans parent under it.
        // The span never influences the decision stream — traced and
        // untraced runs see identical fault schedules.
        let mut span = match &request.trace {
            Some(trace) if obs.is_enabled() => {
                let mut s = obs.span_linked("net.transit", trace.link());
                s.field("service", service);
                s.field("operation", request.operation());
                Some(s)
            }
            _ => None,
        };
        let routed;
        let request = match &span {
            Some(s) => {
                routed = request.restamped(s.id().unwrap_or(0));
                &routed
            }
            None => request,
        };

        if let Some(name) = self.plan.partitioned(service, now) {
            self.metrics.partitioned.inc();
            if obs.is_enabled() {
                obs.counter_add("net.partitioned", 1);
            }
            if let Some(s) = span.as_mut() {
                s.field("disposition", "partitioned");
            }
            clock.advance(profile.drop_timeout);
            return Err(Fault::transport(
                "Partitioned",
                format!("link to '{service}' severed by partition '{name}'"),
            ));
        }
        if self.outage_hit(service, now) {
            self.metrics.drops.inc();
            if obs.is_enabled() {
                obs.counter_add("net.drops", 1);
            }
            if let Some(s) = span.as_mut() {
                s.field("disposition", "outage");
            }
            clock.advance(profile.drop_timeout);
            return Err(Fault::transport(
                "Unreachable",
                format!("service '{service}' is down"),
            ));
        }

        // Identity of this call in the decision stream. Unkeyed calls get
        // a fresh nonce: distinct, but still replayable in issue order.
        let (key_word, attempt) = match request.idempotency_key {
            Some(k) => {
                let mut attempts = self.attempts.lock();
                let slot = attempts.entry((service.to_string(), k)).or_insert(0);
                *slot += 1;
                (k, *slot)
            }
            None => (
                self.anon_nonce.fetch_add(1, Ordering::SeqCst) | (1 << 63),
                1,
            ),
        };
        let mut rng = SplitMix64::new(mix(&[
            self.plan.seed,
            hash_str(service),
            hash_str(request.operation()),
            key_word,
            attempt,
        ]));
        // Draw every roll up front so the schedule for this (key,
        // attempt) does not depend on which branch is taken.
        let lat_req = rng.in_range(profile.latency_min.0, profile.latency_max.0);
        let drop_req = rng.chance(profile.drop_probability);
        let duplicated = rng.chance(profile.duplicate_probability);
        let drop_resp = rng.chance(profile.drop_probability);
        let lat_resp = rng.in_range(profile.latency_min.0, profile.latency_max.0);

        clock.advance(trust_vo_soa::SimDuration(lat_req));
        if drop_req {
            self.metrics.drops.inc();
            if obs.is_enabled() {
                obs.counter_add("net.drops", 1);
            }
            if let Some(s) = span.as_mut() {
                s.field("disposition", "request-lost");
            }
            clock.advance(profile.drop_timeout);
            return Err(Fault::transport(
                "Timeout",
                format!("request to '{service}' lost"),
            ));
        }
        let (outcome, replayed) =
            self.deliver(service, request, request.idempotency_key, duplicated);
        if let Some(s) = span.as_mut() {
            s.field("duplicated", duplicated);
            s.field("dedup_replay", replayed);
        }
        if drop_resp {
            // The operation executed; only the caller's view of it is
            // lost. Retries recover the verdict from the reply cache.
            self.metrics.drops.inc();
            if obs.is_enabled() {
                obs.counter_add("net.drops", 1);
            }
            if let Some(s) = span.as_mut() {
                s.field("disposition", "response-lost");
            }
            clock.advance(profile.drop_timeout);
            return Err(Fault::transport(
                "Timeout",
                format!("response from '{service}' lost"),
            ));
        }
        clock.advance(trust_vo_soa::SimDuration(lat_resp));
        if let Some(s) = span.as_mut() {
            s.field("disposition", "delivered");
        }
        outcome
    }

    fn clock(&self) -> &SimClock {
        self.bus.clock()
    }
}
