//! `formation_cold`: in-process Formation (`vo::form_vo`, Standard
//! strategy) of a fresh E10-shaped VO per op: 8 applicant roles, chain
//! depth 8, 3 alternatives per level. Each op's CA and parties are new to
//! the process, so every one of its 36 credentials is first seen and its
//! signature check misses the verified-credential cache.

use std::collections::BTreeMap;
use std::time::Instant;

use trust_vo_credential::{Attribute, CredentialAuthority, TimeRange, VerifiedCache};
use trust_vo_negotiation::{Party, Strategy};
use trust_vo_obs::Collector;
use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
use trust_vo_soa::simclock::{CostModel, SimClock};
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::scenario::scenario_time;
use trust_vo_vo::{
    form_vo, Contract, FormedVo, ReputationLedger, ResourceDescription, Role, ServiceProvider,
    ServiceRegistry,
};

use crate::workload::{Op, Workload};

/// Applicant roles per VO (one applicant each).
const ROLES: usize = 8;
/// Disclosure-chain depth of every admission negotiation.
const DEPTH: usize = 8;
/// Policy alternatives per chain level (all but the last fail).
const ALTERNATIVES: usize = 3;

/// One op's input: a VO whose CA and parties no earlier op has seen.
struct ColdWorld {
    id: String,
    contract: Contract,
    initiator: ServiceProvider,
    providers: BTreeMap<String, ServiceProvider>,
    registry: ServiceRegistry,
}

fn app_type(level: usize) -> String {
    format!("AppL{level}")
}

fn init_type(level: usize) -> String {
    format!("InitL{level}")
}

fn type_name(level: usize) -> String {
    if level.is_multiple_of(2) {
        app_type(level)
    } else {
        init_type(level)
    }
}

/// Adds the chain policies protecting `level`'s credential: the failing
/// alternatives first, then the one the other side can satisfy.
fn protect(party: &mut Party, tag: &str, level: usize, resource: Resource) {
    if level + 1 < DEPTH {
        for alt in 0..ALTERNATIVES - 1 {
            party.policies.add(DisclosurePolicy::rule(
                format!("{tag}{level}-fail{alt}"),
                resource.clone(),
                vec![Term::of_type(format!("Missing{tag}{level}x{alt}"))],
            ));
        }
        party.policies.add(DisclosurePolicy::rule(
            format!("{tag}{level}-real"),
            resource,
            vec![Term::of_type(type_name(level + 1))],
        ));
    } else {
        party.policies.add(DisclosurePolicy::deliv(
            format!("{tag}{level}-deliv"),
            resource,
        ));
    }
}

/// Builds the world named `id`. The CA, the initiator and the applicants
/// all embed `id`, so keys, credentials and signatures are new to the
/// process; callers give every id the same length, so every op has the
/// same bytes to process.
fn build_world(id: &str) -> ColdWorld {
    let window = TimeRange::one_year_from(scenario_time());
    let mut ca = CredentialAuthority::new(format!("CA-{id}"));
    let initiator_name = format!("Init-{id}");
    let mut initiator = Party::new(&initiator_name);
    initiator.trust_root(ca.public_key());
    for level in (1..DEPTH).step_by(2) {
        let cred = ca
            .issue(
                &init_type(level),
                &initiator_name,
                initiator.keys.public,
                vec![Attribute::new("Level", level as i64)],
                window,
            )
            .expect("open schema");
        initiator.profile.add(cred);
        protect(
            &mut initiator,
            "ip",
            level,
            Resource::credential(init_type(level)),
        );
    }

    let mut contract = Contract::new(format!("Vo-{id}"), "cold formation");
    let mut providers = BTreeMap::new();
    let mut registry = ServiceRegistry::new();
    for i in 0..ROLES {
        let name = applicant(id, i);
        let mut party = Party::new(&name);
        party.trust_root(ca.public_key());
        for level in (0..DEPTH).step_by(2) {
            let cred = ca
                .issue(
                    &app_type(level),
                    &name,
                    party.keys.public,
                    vec![Attribute::new("Level", level as i64)],
                    window,
                )
                .expect("open schema");
            party.profile.add(cred);
            protect(
                &mut party,
                "ap",
                level,
                Resource::credential(app_type(level)),
            );
        }
        let role_name = role(i);
        let capability = format!("cap{i}");
        contract = contract.with_role(Role::new(&role_name, &capability, "cold admission"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            format!("vo-a{i}"),
            Resource::service("VoMembership"),
            vec![Term::of_type(app_type(0))],
        ));
        contract.set_role_policies(&role_name, policies);
        registry.publish(ResourceDescription::new(&name, &capability, "x", 0.9));
        providers.insert(name, ServiceProvider::new(party));
    }
    ColdWorld {
        id: id.to_owned(),
        contract,
        initiator: ServiceProvider::new(initiator),
        providers,
        registry,
    }
}

fn applicant(id: &str, i: usize) -> String {
    format!("App{i}-{id}")
}

fn role(i: usize) -> String {
    format!("Role{i}")
}

/// The op's output check: every role is filled by its own applicant.
fn check(world: &ColdWorld, vo: &FormedVo) -> Result<(), String> {
    if vo.members().len() != ROLES {
        return Err(format!("{} of {ROLES} roles filled", vo.members().len()));
    }
    for i in 0..ROLES {
        match vo.member_for_role(&role(i)) {
            Some(m) if m.provider == applicant(&world.id, i) => {}
            Some(m) => return Err(format!("{} filled by {}", role(i), m.provider)),
            None => return Err(format!("{} unfilled", role(i))),
        }
    }
    Ok(())
}

/// Formations before the first timed op. At 36 first-seen credentials
/// each, 1024 formations insert 36,864 entries into the 16 × 2048-entry
/// verified-credential cache (each shard fills at ~910), and build 2,048
/// issuer-key tables against the 8 × 128-key table cache: both caches
/// are evicting on every op by the end of set-up.
const WARMUP: u64 = 1024;

pub struct FormationCold {
    seed: u64,
    obs: Option<Collector>,
}

/// The world id of timed op `i` (`t`) or of warm-up formation `j` of set-up
/// `generation` (`w`): same length either way.
fn world_id(seed: u64, tag: char, n: u64) -> String {
    format!("{seed:016x}{tag}{n:010x}")
}

impl FormationCold {
    fn run(&self, id: &str) -> Op {
        let world = build_world(id);
        // A paper-cost clock at the instant the credentials are valid.
        let clock = SimClock::new(CostModel::paper_testbed(), scenario_time());
        if let Some(obs) = &self.obs {
            clock.attach_obs(obs);
        }
        let started = Instant::now();
        let formed = form_vo(
            world.contract.clone(),
            &world.initiator,
            &world.providers,
            &world.registry,
            &mut MailboxSystem::new(),
            &mut ReputationLedger::new(),
            &clock,
            Strategy::Standard,
        );
        let wall = started.elapsed();
        let mut op = Op {
            wall,
            counts: vec![("vo.sim_us", clock.elapsed().0 as f64)],
            ..Op::default()
        };
        match formed
            .map_err(|e| e.to_string())
            .and_then(|vo| check(&world, &vo))
        {
            // Every role was filled by its own applicant, each after one
            // completed negotiation.
            Ok(()) => op.negotiations = ROLES as u64,
            Err(e) => op.failure = Some(e),
        }
        op
    }
}

impl Workload for FormationCold {
    const ROUND: usize = 32;
    const OPS_PER_S: usize = 256;
    const COUNT_OPS: usize = 64;

    fn setup(seed: u64, generation: u64) -> Result<Self, String> {
        let w = FormationCold { seed, obs: None };
        let cache = VerifiedCache::global();
        let mut last = cache.stats();
        for j in 0..WARMUP {
            last = cache.stats();
            if let Some(failure) = w.run(&world_id(seed, 'w', generation * WARMUP + j)).failure {
                return Err(format!("warm-up formation {j}: {failure}"));
            }
        }
        let now = cache.stats();
        let inserted = now.insertions - last.insertions;
        let evicted = now.evictions - last.evictions;
        if inserted == 0 || evicted != inserted {
            return Err(format!(
                "verified-credential cache not at steady-state eviction after {WARMUP} \
                 formations: last one inserted {inserted}, evicted {evicted}"
            ));
        }
        Ok(w)
    }

    fn trace_into(&mut self, collector: &Collector) {
        self.obs = Some(collector.clone());
    }

    fn op(&mut self, i: u64) -> Op {
        self.run(&world_id(self.seed, 't', i))
    }
}
