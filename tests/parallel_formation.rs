//! Parallel vs. serial formation equivalence.
//!
//! A formation with `workers > 1` speculates every (role, accepting
//! candidate) negotiation on the sharded executor and then replays the
//! serial decision procedure, so it must be *observationally identical*
//! to serial formation: same member set, same role assignment, same
//! membership certificate serials, same sim-clock charges, same
//! reputation — and the same `negotiation.*` counter totals, since
//! speculation runs exactly the negotiations the serial loop runs.

use std::collections::BTreeMap;
use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
use trust_vo_negotiation::{Collector, Party};
use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
use trust_vo_soa::simclock::{CostModel, SimClock};
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::{
    Contract, Formation, FormedVo, NegotiationSource, ReputationLedger, ResourceDescription, Role,
    ServiceProvider, ServiceRegistry,
};

fn clock() -> SimClock {
    SimClock::new(
        CostModel::paper_testbed(),
        Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
    )
}

/// A three-role world. Each role has its own capability and three distinct
/// candidates ranked by advertised quality:
///
/// * a *decliner* (quality 0.95) that refuses the invitation,
/// * a *bad* candidate (quality 0.90) lacking the required credential, so
///   its trust negotiation fails,
/// * a *good* candidate (quality 0.80) holding the credential.
///
/// Serial formation therefore tries all three per role in that order; the
/// speculation pass negotiates with exactly the two accepting candidates
/// per role, so serial and parallel perform the same negotiations and
/// their `negotiation.*` counters must match.
fn world() -> World {
    let mut ca = CredentialAuthority::new("EquivCA");
    let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
    let mut initiator = Party::new("Initiator");
    initiator.trust_root(ca.public_key());

    let mut contract = Contract::new("EquivVo", "parallel/serial equivalence");
    let mut providers = BTreeMap::new();
    let mut registry = ServiceRegistry::new();

    for i in 0..3 {
        let cred_type = format!("RoleCred{i}");
        let role_name = format!("Role{i}");
        let capability = format!("cap{i}");

        let good_name = format!("Good{i}");
        let mut good = Party::new(&good_name);
        let cred = ca
            .issue(&cred_type, &good_name, good.keys.public, vec![], window)
            .expect("open schema");
        good.profile.add(cred);
        good.trust_root(ca.public_key());

        let bad_name = format!("Bad{i}");
        let bad = Party::new(&bad_name);
        let decliner_name = format!("Decliner{i}");
        let decliner = Party::new(&decliner_name);

        contract = contract.with_role(Role::new(&role_name, &capability, "equivalence"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            format!("vo-r{i}"),
            Resource::service("VoMembership"),
            vec![Term::of_type(&cred_type)],
        ));
        contract.set_role_policies(&role_name, policies);

        registry.publish(ResourceDescription::new(
            &decliner_name,
            &capability,
            "x",
            0.95,
        ));
        registry.publish(ResourceDescription::new(&bad_name, &capability, "x", 0.90));
        registry.publish(ResourceDescription::new(&good_name, &capability, "x", 0.80));

        providers.insert(good_name, ServiceProvider::new(good));
        providers.insert(bad_name, ServiceProvider::new(bad));
        providers.insert(decliner_name, ServiceProvider::new(decliner).declining());
    }

    (
        contract,
        ServiceProvider::new(initiator),
        providers,
        registry,
    )
}

fn membership(vo: &FormedVo) -> Vec<(String, String, u64)> {
    vo.members()
        .iter()
        .map(|m| (m.provider.clone(), m.role.clone(), m.certificate.serial))
        .collect()
}

struct Formed {
    vo: FormedVo,
    /// Every `negotiation.*` counter the formation recorded.
    negotiation_counters: BTreeMap<String, u64>,
    /// Negotiations the speculation pass ran.
    speculated: u64,
    elapsed: trust_vo_soa::simclock::SimDuration,
    reputation: ReputationLedger,
}

type World = (
    Contract,
    ServiceProvider,
    BTreeMap<String, ServiceProvider>,
    ServiceRegistry,
);

/// Form `world` in process on an observed clock with `workers` workers
/// (1 = serial).
fn run_observed(world: &World, workers: usize) -> Formed {
    let (contract, initiator, providers, registry) = world;
    let clock = clock();
    let collector = Collector::new();
    clock.attach_obs(&collector);
    let mut reputation = ReputationLedger::new();
    let (vo, _) = Formation::new(
        initiator,
        providers,
        registry,
        NegotiationSource::in_process(&clock),
    )
    .with_workers(workers)
    .run(contract.clone(), &mut MailboxSystem::new(), &mut reputation)
    .expect("formation succeeds");
    let metrics = collector.metrics();
    Formed {
        vo,
        negotiation_counters: metrics
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("negotiation."))
            .map(|(name, value)| (name.clone(), *value))
            .collect(),
        speculated: metrics.counter("formation.speculated"),
        elapsed: clock.elapsed(),
        reputation,
    }
}

#[test]
fn parallel_formation_is_observationally_identical_to_serial() {
    let world = world();
    let serial = run_observed(&world, 1);

    for workers in [1, 2, 8] {
        let parallel = run_observed(&world, workers);

        // Identical member sets, role assignment, and certificate serials.
        assert_eq!(
            membership(&serial.vo),
            membership(&parallel.vo),
            "membership diverged at {workers} workers"
        );
        // Identical simulated cost: replay charges exactly like serial.
        assert_eq!(
            serial.elapsed, parallel.elapsed,
            "sim-clock diverged at {workers} workers"
        );
        // Identical negotiation counters: speculation performs the same
        // negotiations serial formation does, just concurrently.
        assert_eq!(
            serial.negotiation_counters, parallel.negotiation_counters,
            "negotiation counters diverged at {workers} workers"
        );
        // Reputation evolves identically.
        for provider in world.2.keys() {
            assert_eq!(
                serial.reputation.get(provider),
                parallel.reputation.get(provider),
                "reputation diverged for {provider} at {workers} workers"
            );
        }
    }
}

#[test]
fn parallel_formation_matches_plain_serial_membership() {
    let world = world();
    let (contract, initiator, providers, registry) = &world;
    let serial_clock = clock();
    let (serial, _) = Formation::new(
        initiator,
        providers,
        registry,
        NegotiationSource::in_process(&serial_clock),
    )
    .run(
        contract.clone(),
        &mut MailboxSystem::new(),
        &mut ReputationLedger::new(),
    )
    .expect("plain serial formation succeeds");

    let parallel = run_observed(&world, 4);
    assert_eq!(membership(&serial), membership(&parallel.vo));
    assert_eq!(serial_clock.elapsed(), parallel.elapsed);
}

#[test]
fn parallel_formation_fills_expected_roles() {
    let world = world();
    let formed = run_observed(&world, 8);
    assert_eq!(formed.vo.members().len(), 3);
    for i in 0..3 {
        let record = formed
            .vo
            .member_for_role(&format!("Role{i}"))
            .expect("role filled");
        assert_eq!(record.provider, format!("Good{i}"));
    }
    // Two negotiations per role (bad + good), each run once: six
    // speculated, the three bad ones failed.
    assert_eq!(formed.speculated, 6);
    assert_eq!(formed.negotiation_counters["negotiation.failures"], 3);
    // Failed negotiations lower reputation, successes raise it.
    for i in 0..3 {
        assert!(formed.reputation.get(&format!("Bad{i}")) < 0.5);
        assert!(formed.reputation.get(&format!("Good{i}")) > 0.5);
    }
}
