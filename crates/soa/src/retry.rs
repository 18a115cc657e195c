//! Sim-time retry with capped exponential backoff.
//!
//! Transport faults (drops, timeouts, partitions — see
//! [`FaultKind::Transport`](crate::envelope::FaultKind)) are transient by
//! definition, so clients retry them. [`RetryPolicy`] describes how: a
//! bounded number of attempts, exponentially growing waits capped at a
//! ceiling, and a total sim-time budget per logical call. All waiting is
//! *simulated* — backoff is charged to the shared [`SimClock`](crate::simclock::SimClock) via
//! [`SimClock::advance`](crate::simclock::SimClock::advance), never to the host's wall clock — so chaos runs
//! are fast and, for a fixed fault-plan seed, fully deterministic.
//!
//! Application faults are never retried: the endpoint already processed the
//! request and deterministically rejected it.

use crate::bus::Transport;
use crate::envelope::{Envelope, Fault};
use crate::simclock::SimDuration;

/// Backoff histogram bucket bounds (µs): 1 ms … 4 s.
const BACKOFF_BOUNDS: [u64; 8] = [
    1_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 2_000_000, 4_000_000,
];

/// How a client retries transport faults, entirely in sim-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum delivery attempts per logical call (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: SimDuration,
    /// Ceiling on a single backoff wait.
    pub max_backoff: SimDuration,
    /// Total sim-time budget for one logical call: once the backoff spent
    /// on this call reaches the budget, the call fails even if attempts
    /// remain. The boundary is inclusive — a wait that would bring the
    /// spend exactly to the budget is refused, so `backoff_spent` stays
    /// strictly below the budget on every path.
    pub budget: SimDuration,
}

impl RetryPolicy {
    /// The default client policy: 4 attempts, 40 ms → 160 ms backoff,
    /// 5 s budget.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(40),
            max_backoff: SimDuration::from_millis(1_000),
            budget: SimDuration::from_millis(5_000),
        }
    }

    /// A policy that never retries (one attempt, zero budget).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            budget: SimDuration::ZERO,
        }
    }

    /// The backoff to wait after failed attempt number `attempt` (1-based):
    /// `base * 2^(attempt-1)`, capped at [`RetryPolicy::max_backoff`].
    /// Out-of-contract inputs stay safe: attempt 0 behaves like attempt 1
    /// (no debug-mode underflow panic), and huge attempts saturate at the
    /// cap instead of overflowing the shift or the multiply.
    pub fn backoff_after(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(32);
        let raw = SimDuration(self.base_backoff.0.saturating_mul(1u64 << shift));
        raw.min(self.max_backoff)
    }
}

/// The outcome of [`call_with_retry`]: the final result plus how many
/// delivery attempts it took and how much sim-time was spent backing off.
#[derive(Debug, Clone)]
pub struct Attempted {
    /// The final response or the last fault observed.
    pub outcome: Result<Envelope, Fault>,
    /// Delivery attempts made (≥ 1).
    pub attempts: u32,
    /// Total backoff charged to the clock for this logical call.
    pub backoff_spent: SimDuration,
}

impl Attempted {
    /// Retries made beyond the first attempt.
    pub fn retries(&self) -> u64 {
        u64::from(self.attempts.saturating_sub(1))
    }
}

/// Dispatch `request` through `transport`, retrying transport faults per
/// `policy`. Backoff between attempts is charged to the transport's clock.
/// [`FaultKind::BudgetExhausted`](crate::envelope::FaultKind) and
/// [`FaultKind::Overloaded`](crate::envelope::FaultKind) faults are also
/// retried, waiting at least the fault's `retry_after_us` hint (the
/// sim-time until the party's flow budget regenerates, or the queue's
/// drain estimate). Application faults and
/// [`FaultKind::NoSuchService`](crate::envelope::FaultKind) return
/// immediately.
///
/// When obs is attached to the clock, emits `net.retries` (count of
/// attempts beyond the first) and a `net.backoff_us` histogram. On a
/// traced request each delivery attempt runs under its own `soa.attempt`
/// span (the envelope is re-stamped per attempt, so transport- and
/// bus-side spans parent under the attempt that carried them) and each
/// backoff wait under a sibling `retry.backoff` span.
pub fn call_with_retry(
    transport: &dyn Transport,
    service: &str,
    request: &Envelope,
    policy: &RetryPolicy,
) -> Attempted {
    let clock = transport.clock();
    let obs = clock.collector();
    let traced = obs.is_enabled() && request.trace.is_some();
    let mut attempts = 0u32;
    let mut backoff_spent = SimDuration::ZERO;
    let outcome = loop {
        attempts += 1;
        let result = if traced {
            let link = request.trace.as_ref().expect("traced").link();
            let mut span = obs.span_linked("soa.attempt", link);
            span.field("service", service);
            span.field("operation", request.operation());
            span.field("attempt", i64::from(attempts));
            let result = transport.call(service, &request.restamped(span.id().unwrap_or(0)));
            span.field("ok", result.is_ok());
            result
        } else {
            transport.call(service, request)
        };
        match result {
            Ok(resp) => break Ok(resp),
            Err(fault)
                if (fault.is_transport()
                    || fault.is_budget_exhausted()
                    || fault.is_overloaded())
                    && attempts < policy.max_attempts =>
            {
                // A flow-budget refusal or queue shed is retried like a
                // transport fault, but waits at least the fault's
                // retry-after hint: the bucket cannot admit the call (or
                // the queue drain) any sooner, so backing off less would
                // burn an attempt for nothing. This is how a flood
                // throttles itself — each refused caller sleeps (in
                // sim-time) until its own budget regenerates or the queue
                // has room.
                let mut wait = policy.backoff_after(attempts);
                if let Some(hint) = fault.retry_after_us {
                    wait = wait.max(SimDuration(hint));
                }
                if backoff_spent + wait >= policy.budget {
                    break Err(fault);
                }
                backoff_spent += wait;
                {
                    let _backoff_span = if traced {
                        let link = request.trace.as_ref().expect("traced").link();
                        let mut span = obs.span_linked("retry.backoff", link);
                        span.field("wait_us", wait.0 as i64);
                        Some(span)
                    } else {
                        None
                    };
                    clock.advance(wait);
                }
                if obs.is_enabled() {
                    obs.counter_add("net.retries", 1);
                    if let Some(reg) = obs.registry() {
                        reg.histogram("net.backoff_us", &BACKOFF_BOUNDS)
                            .record(wait.0);
                    }
                }
            }
            Err(fault) => break Err(fault),
        }
    };
    Attempted {
        outcome,
        attempts,
        backoff_spent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;
    use crate::bus::ServiceBus;
    use crate::simclock::{CostModel, SimClock};
    use std::sync::atomic::{AtomicU32, Ordering};
    use trust_vo_credential::Timestamp;
    use trust_vo_xmldoc::Element;

    /// A transport that fails the first `fail_first` calls with a transport
    /// fault, then succeeds.
    struct Flaky {
        clock: SimClock,
        fail_first: u32,
        calls: AtomicU32,
        fault: Fault,
    }

    impl Flaky {
        fn new(fail_first: u32, fault: Fault) -> Self {
            Flaky {
                clock: SimClock::new(CostModel::paper_testbed(), Timestamp(0)),
                fail_first,
                calls: AtomicU32::new(0),
                fault,
            }
        }
    }

    impl Transport for Flaky {
        fn call(&self, _service: &str, request: &Envelope) -> Result<Envelope, Fault> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                Err(self.fault.clone())
            } else {
                Ok(Envelope::new(
                    Body::document(
                        format!("{}Response", request.operation()),
                        Element::new("ok"),
                    )
                    .unwrap(),
                ))
            }
        }

        fn clock(&self) -> &SimClock {
            &self.clock
        }
    }

    fn req() -> Envelope {
        Envelope::new(Body::document("Echo", Element::new("x")).unwrap())
    }

    #[test]
    fn succeeds_after_transient_faults() {
        let t = Flaky::new(2, Fault::transport("Timeout", "lost"));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert!(a.outcome.is_ok());
        assert_eq!(a.attempts, 3);
        assert_eq!(a.retries(), 2);
        // backoff 40 + 80 ms charged to the clock
        assert_eq!(a.backoff_spent, SimDuration::from_millis(120));
        assert_eq!(t.clock.elapsed(), SimDuration::from_millis(120));
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let t = Flaky::new(100, Fault::transport("Timeout", "lost"));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert_eq!(a.attempts, 4);
        assert!(a.outcome.unwrap_err().is_transport());
    }

    #[test]
    fn application_faults_are_not_retried() {
        let t = Flaky::new(100, Fault::new("BadState", "nope"));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert_eq!(a.attempts, 1);
        assert_eq!(a.backoff_spent, SimDuration::ZERO);
        assert_eq!(a.outcome.unwrap_err().code, "BadState");
    }

    #[test]
    fn no_such_service_is_not_retried() {
        let clock = SimClock::new(CostModel::paper_testbed(), Timestamp(0));
        let bus = ServiceBus::new(clock);
        let a = call_with_retry(&bus, "ghost", &req(), &RetryPolicy::standard());
        assert_eq!(a.attempts, 1);
        assert_eq!(
            a.outcome.unwrap_err().kind,
            crate::envelope::FaultKind::NoSuchService
        );
    }

    #[test]
    fn budget_caps_total_backoff() {
        let t = Flaky::new(100, Fault::transport("Timeout", "lost"));
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_millis(10_000),
            budget: SimDuration::from_millis(250),
        };
        let a = call_with_retry(&t, "svc", &req(), &policy);
        // 100 ms fits, +200 ms would exceed 250 ms → stop after 2 attempts.
        assert_eq!(a.attempts, 2);
        assert_eq!(a.backoff_spent, SimDuration::from_millis(100));
        assert!(a.outcome.is_err());
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        // The schedule lands exactly on the budget: 40 ms fits, the next
        // 80 ms wait would bring the spend to exactly 120 ms — "reaches
        // the budget" — so the call fails after 2 attempts with 40 ms
        // spent, instead of sleeping to the boundary and burning a third
        // attempt.
        let t = Flaky::new(2, Fault::transport("Timeout", "lost"));
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: SimDuration::from_millis(40),
            max_backoff: SimDuration::from_millis(1_000),
            budget: SimDuration::from_millis(120),
        };
        let a = call_with_retry(&t, "svc", &req(), &policy);
        assert!(a.outcome.is_err(), "reaching the budget must fail the call");
        assert_eq!(a.attempts, 2);
        assert_eq!(a.backoff_spent, SimDuration::from_millis(40));
        assert_eq!(t.clock.elapsed(), SimDuration::from_millis(40));
    }

    #[test]
    fn hint_equal_to_remaining_budget_fails_fast() {
        // A retry-after hint exactly equal to the remaining budget: waiting
        // it out would consume the entire allowance, so the call fails
        // immediately without sleeping. The hint is still honored — the
        // caller never retries before it elapses (here: never).
        let t = Flaky::new(1, Fault::budget_exhausted("Flooder", 5_000_000));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert_eq!(a.attempts, 1);
        assert_eq!(a.backoff_spent, SimDuration::ZERO);
        assert_eq!(t.clock.elapsed(), SimDuration::ZERO);
        assert!(a.outcome.unwrap_err().is_budget_exhausted());
    }

    #[test]
    fn hint_one_us_under_remaining_budget_still_retries() {
        // One µs inside the budget: the wait is taken and the retry lands.
        let t = Flaky::new(1, Fault::budget_exhausted("Flooder", 4_999_999));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert!(a.outcome.is_ok());
        assert_eq!(a.attempts, 2);
        assert_eq!(a.backoff_spent, SimDuration(4_999_999));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::standard();
        assert_eq!(p.backoff_after(1), SimDuration::from_millis(40));
        assert_eq!(p.backoff_after(2), SimDuration::from_millis(80));
        assert_eq!(p.backoff_after(3), SimDuration::from_millis(160));
        assert_eq!(p.backoff_after(10), SimDuration::from_millis(1_000));
    }

    #[test]
    fn backoff_is_total_over_out_of_contract_attempts() {
        let p = RetryPolicy::standard();
        // Attempt 0 is out of contract (attempts are 1-based) but must not
        // underflow: it behaves like attempt 1.
        assert_eq!(p.backoff_after(0), p.backoff_after(1));
        // The shift is capped at 32 and the multiply saturates, so even
        // absurd attempt numbers stay at the ceiling.
        assert_eq!(p.backoff_after(33), SimDuration::from_millis(1_000));
        assert_eq!(p.backoff_after(u32::MAX), SimDuration::from_millis(1_000));
        // Saturation without a cap in the way: a huge base times 2^32
        // would overflow u64; the multiply saturates and the explicit
        // max_backoff still wins.
        let huge = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: SimDuration(u64::MAX / 2),
            max_backoff: SimDuration(u64::MAX),
            budget: SimDuration(u64::MAX),
        };
        assert_eq!(huge.backoff_after(u32::MAX), SimDuration(u64::MAX));
    }

    #[test]
    fn budget_exhausted_waits_at_least_the_hint() {
        // Hint (500 ms) dominates the 40/80 ms backoff schedule: each
        // retry waits the full regeneration time, not the smaller backoff.
        let t = Flaky::new(2, Fault::budget_exhausted("Flooder", 500_000));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert!(a.outcome.is_ok());
        assert_eq!(a.attempts, 3);
        assert_eq!(a.backoff_spent, SimDuration::from_millis(1_000));
        assert_eq!(t.clock.elapsed(), SimDuration::from_millis(1_000));
    }

    #[test]
    fn budget_exhausted_respects_attempt_and_budget_caps() {
        let t = Flaky::new(100, Fault::budget_exhausted("Flooder", 1_000));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert_eq!(a.attempts, 4);
        assert!(a.outcome.as_ref().unwrap_err().is_budget_exhausted());
        // A hint larger than the whole budget fails fast instead of
        // sleeping past the caller's sim-time allowance.
        let t = Flaky::new(100, Fault::budget_exhausted("Flooder", 60_000_000));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert_eq!(a.attempts, 1);
        assert_eq!(a.backoff_spent, SimDuration::ZERO);
    }

    #[test]
    fn overloaded_is_retried_waiting_at_least_the_drain_hint() {
        // A queue shed behaves exactly like a budget refusal: the drain
        // estimate (300 ms) dominates the 40/80 ms backoff schedule.
        let t = Flaky::new(2, Fault::overloaded("bus", 300_000));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert!(a.outcome.is_ok());
        assert_eq!(a.attempts, 3);
        assert_eq!(a.backoff_spent, SimDuration::from_millis(600));
        assert_eq!(t.clock.elapsed(), SimDuration::from_millis(600));
    }

    #[test]
    fn overloaded_respects_attempt_and_budget_caps() {
        let t = Flaky::new(100, Fault::overloaded("bus", 1_000));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert_eq!(a.attempts, 4);
        assert!(a.outcome.as_ref().unwrap_err().is_overloaded());
        // A drain estimate larger than the whole budget fails fast.
        let t = Flaky::new(100, Fault::overloaded("bus", 60_000_000));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::standard());
        assert_eq!(a.attempts, 1);
        assert_eq!(a.backoff_spent, SimDuration::ZERO);
    }

    #[test]
    fn none_policy_is_single_shot() {
        let t = Flaky::new(100, Fault::transport("Timeout", "lost"));
        let a = call_with_retry(&t, "svc", &req(), &RetryPolicy::none());
        assert_eq!(a.attempts, 1);
    }
}
