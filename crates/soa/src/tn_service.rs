//! The TN web service.
//!
//! "The TN Web service provides three different operations,
//! StartNegotiation, PolicyExchange and CredentialExchange, each
//! corresponding to one of the main phases of the negotiation process.
//! StartNegotiation … assigns a unique id to the negotiation process and
//! opens the connection with \[the\] database. … PolicyExchange checks if
//! the database contains disclosure policies protecting the credentials
//! requested … CredentialExchange receives … the counterpart's credential
//! … verifies the validity … then selects the next credential to be sent."
//! (§6.2)
//!
//! This implementation hosts the negotiation data of registered parties
//! (the Host Edition registers members, §6.1), persists their X-Profiles
//! and policies in the document [`Database`], and drives the
//! [`trust_vo_negotiation`] engine behind the three service operations —
//! charging the [`SimClock`] for every SOAP, DB, and crypto step so the
//! Fig. 9 bench can read realistic virtual latencies.
//!
//! A session *is* a [`Negotiation`]: `StartNegotiation` opens one,
//! `PolicyExchange` agrees its trust sequence, and each
//! `CredentialExchange` runs its one phase-2 step,
//! [`Negotiation::disclose`], the step the in-process engine runs too. A
//! resumable session checkpoints the value after phase 1 and after every
//! verified disclosure; `ResumeNegotiation` decodes the checkpoint back
//! into a session, which supersedes any session still open on that slot.

use crate::body::{
    Body, CredentialExchangeResponse, PolicyExchangeResponse, ResumeNegotiationResponse,
    SignedCredential, SignedToken, StartNegotiation,
};
use crate::bus::ServiceEndpoint;
use crate::envelope::{Envelope, Fault};
use crate::simclock::{CostKind, SimClock};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use trust_vo_credential::TimeRange;
use trust_vo_crypto::{sha256, KeyPair, PublicKey};
use trust_vo_negotiation::{
    evaluate_policies, strategy::CredentialFormat, Negotiation, NegotiationConfig, Party,
    ResumeToken, Step, Strategy,
};
use trust_vo_obs::SpanLink;
use trust_vo_store::{Database, DocId};
use trust_vo_xmldoc::binary::Encoded;
use trust_vo_xmldoc::Document;

/// Lifetime of a resume token, in simulated seconds.
pub const DEFAULT_RESUME_TTL_SECS: u64 = 3_600;

/// How many finished negotiations keep a tombstone once their session
/// retires. A late call on a retired id — typically a retry whose first
/// reply was lost — gets the fault it got while the finished session was
/// still kept, and [`TnService::is_completed`] and
/// [`TnService::failure_reason`] still answer; an id older than the
/// ring gets `NoSuchNegotiation`. Such a retry follows its lost reply
/// within the caller's retry budget, so the ring only has to span the
/// negotiations that finish meanwhile, across all concurrent callers;
/// 1,024 tombstones cover that many times over and cost a few tens of
/// KiB.
pub const RETIRED_SESSIONS: usize = 1_024;

/// An open negotiation: the session *is* its [`Negotiation`].
#[derive(Debug)]
struct Session {
    negotiation: Negotiation,
    /// The durable checkpoint slot, when the client asked for
    /// checkpoint/resume support at start. It is stable across
    /// crash/resume cycles, so every re-checkpoint of the same
    /// negotiation overwrites one row, and at most one open session
    /// holds it.
    slot: Option<u64>,
}

/// How a session ended: all its tombstone keeps.
#[derive(Debug)]
enum Outcome {
    Completed,
    Failed(String),
    /// A resume on the session's checkpoint slot took the negotiation
    /// over under a new id.
    Superseded,
}

/// The service's volatile negotiation state.
#[derive(Debug, Default)]
struct Sessions {
    /// Negotiations still in progress.
    open: BTreeMap<u64, Session>,
    /// Outcomes of the last [`RETIRED_SESSIONS`] finished negotiations,
    /// oldest first.
    retired: VecDeque<(u64, Outcome)>,
}

impl Sessions {
    /// Move session `id` out of the open map into a tombstone, evicting
    /// the oldest tombstone once the ring is full.
    fn retire(&mut self, id: u64, outcome: Outcome) {
        self.open.remove(&id);
        if self.retired.len() == RETIRED_SESSIONS {
            self.retired.pop_front();
        }
        self.retired.push_back((id, outcome));
    }

    fn outcome(&self, id: u64) -> Option<&Outcome> {
        self.retired
            .iter()
            .rev()
            .find(|(retired, _)| *retired == id)
            .map(|(_, outcome)| outcome)
    }

    /// The fault for an operation on `id`, which has no open session:
    /// `BadState` with `late` (what the finished session answered) for a
    /// tombstoned id, `NoSuchNegotiation` otherwise.
    fn missing(&self, id: u64, late: &str) -> Fault {
        if self.outcome(id).is_some() {
            Fault::new("BadState", late)
        } else {
            Fault::new("NoSuchNegotiation", format!("id {id} unknown"))
        }
    }
}

/// What a checkpoint's resume token is issued with, read from the party
/// registry while the calling operation holds it.
struct TokenKeys {
    holder: PublicKey,
    issuer: KeyPair,
}

impl TokenKeys {
    fn of(requester: &Party, controller: &Party) -> Self {
        TokenKeys {
            holder: requester.keys.public,
            issuer: controller.keys.clone(),
        }
    }
}

/// A count as a reply field: counts here are sequence lengths and policy
/// tallies, far below `u32::MAX`, which stands in for anything larger.
fn count(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// A session's two parties, or the typed fault that ends a session which
/// outlived either's registration.
fn parties_of<'p>(
    parties: &'p BTreeMap<String, Party>,
    requester: &str,
    controller: &str,
) -> Result<(&'p Party, &'p Party), Fault> {
    let get = |name: &str| {
        parties.get(name).ok_or_else(|| {
            Fault::new(
                "UnknownParty",
                format!("party '{name}' is no longer registered"),
            )
        })
    };
    Ok((get(requester)?, get(controller)?))
}

/// The TN web service endpoint.
///
/// The service keeps only what its open negotiations need. A negotiation
/// that completes or fails leaves the session map as soon as its reply
/// is built, keeping a tombstone (see [`RETIRED_SESSIONS`]), and its
/// checkpoint slot is purged from the database with its whole history.
/// A session that a resume supersedes retires too, but keeps its slot
/// for the session that took it over.
pub struct TnService {
    clock: SimClock,
    db: Database,
    parties: RwLock<BTreeMap<String, Party>>,
    /// Volatile: a simulated crash (see [`ServiceEndpoint::on_crash`])
    /// wipes in-flight sessions and tombstones. Profiles, policies, and
    /// checkpoints live in the durable [`Database`] and survive.
    sessions: Mutex<Sessions>,
    next_id: AtomicU64,
    resumed: AtomicU64,
}

impl TnService {
    /// An empty service on the given clock and database. If the clock has
    /// an attached collector, the database inherits it so per-collection
    /// op latencies land in the same registry.
    ///
    /// Negotiation ids start above every checkpoint slot `db` holds (a
    /// service rebuilt over a restored journal), so no new resumable
    /// negotiation writes into a slot that an earlier resume token names.
    pub fn new(clock: SimClock, db: Database) -> Self {
        let last_slot = db
            .read_collection("checkpoints", |c| {
                c.ids().filter_map(|id| id.0.parse::<u64>().ok()).max()
            })
            .flatten()
            .unwrap_or(0);
        let collector = clock.collector();
        if collector.is_enabled() {
            db.attach_obs(&collector);
        }
        TnService {
            clock,
            db,
            parties: RwLock::new(BTreeMap::new()),
            sessions: Mutex::new(Sessions::default()),
            next_id: AtomicU64::new(last_slot + 1),
            resumed: AtomicU64::new(0),
        }
    }

    /// How many negotiations were resumed from a checkpoint so far.
    pub fn resumed_count(&self) -> u64 {
        self.resumed.load(Ordering::Relaxed)
    }

    /// How many negotiations are open, and how many finished ones keep a
    /// tombstone (at most [`RETIRED_SESSIONS`]).
    pub fn session_counts(&self) -> (usize, usize) {
        let sessions = self.sessions.lock();
        (sessions.open.len(), sessions.retired.len())
    }

    /// Register a party: its profile and policies are persisted into the
    /// service database (one insert per document, charged as DB queries).
    /// Each document is encoded straight from the party's values.
    pub fn register_party(&self, party: Party) {
        let profile_doc = party.profile.encode();
        self.db.with_collection("profiles", |c| {
            c.put_encoded(party.name.as_str(), profile_doc);
        });
        self.clock.charge(CostKind::DbQuery);
        let policy_docs: Vec<Encoded> = party.policies.iter().map(|p| p.encode()).collect();
        self.clock
            .charge_n(CostKind::DbQuery, policy_docs.len() as u64);
        let fresh_count = policy_docs.len();
        let prefix = format!("{}#", party.name);
        self.db.with_collection("policies", |c| {
            for (i, doc) in policy_docs.into_iter().enumerate() {
                c.put_encoded(format!("{prefix}{i}").as_str(), doc);
            }
            // Retire this party's rows beyond the new policy count so a
            // re-registration with fewer policies leaves no stale
            // documents live. Its rows are `{name}#{index}`; ids of the
            // range that do not end in an index belong to other parties
            // (`{name}#x#{index}`).
            let stale: Vec<_> = c
                .ids_with_prefix(&prefix)
                .filter(|id| {
                    id.0[prefix.len()..]
                        .parse::<usize>()
                        .is_ok_and(|i| i >= fresh_count)
                })
                .cloned()
                .collect();
            for id in stale {
                c.delete(&id);
            }
        });
        self.parties.write().insert(party.name.clone(), party);
    }

    /// Snapshot of a registered party (for tests and the VO toolkit).
    pub fn party(&self, name: &str) -> Option<Party> {
        self.parties.read().get(name).cloned()
    }

    /// Update a registered party in place (e.g. new credential after
    /// re-issuance during the operation phase).
    pub fn update_party(&self, party: Party) {
        self.register_party(party);
    }

    /// The service database (shared with the VO toolkit).
    pub fn database(&self) -> &Database {
        &self.db
    }

    fn config(&self, strategy: Strategy) -> NegotiationConfig {
        let mut cfg = NegotiationConfig::new(strategy, self.clock.timestamp());
        cfg.format = CredentialFormat::Xtnl;
        cfg
    }

    /// Persist `negotiation` into the durable `checkpoints` collection
    /// (row `slot`, overwritten on every progress step) and return the
    /// signed [`ResumeToken`] in its wire form to embed in the response.
    /// The checkpoint is encoded once: the token binds the digest of the
    /// very bytes the store keeps and journals. Charges one DB write plus
    /// one signature, both under a `tn.checkpoint` span linked at `link`
    /// so checkpoint I/O is separable from the rest of the operation in
    /// attribution.
    fn checkpoint(
        &self,
        link: SpanLink,
        slot: u64,
        negotiation: &Negotiation,
        keys: &TokenKeys,
    ) -> SignedToken {
        let obs = self.clock.collector();
        let mut span = obs.span_linked("tn.checkpoint", link);
        span.field("slot", slot as i64);
        span.field("next", negotiation.next);
        let (doc, digest) = negotiation.checkpoint();
        self.db.with_collection("checkpoints", |c| {
            c.put_encoded(slot.to_string().as_str(), doc);
        });
        self.clock.charge(CostKind::DbQuery);
        let now = self.clock.timestamp();
        let validity = TimeRange::new(now, now.plus_seconds(DEFAULT_RESUME_TTL_SECS as i64));
        self.clock.charge(CostKind::SignatureSign);
        SignedToken::of(&ResumeToken::issue(
            slot,
            &negotiation.requester,
            keys.holder,
            &negotiation.controller,
            &keys.issuer,
            &negotiation.resource,
            digest,
            validity,
        ))
    }

    /// End open session `id` with `outcome`: purge its checkpoint `slot`,
    /// if it has one, with the slot's whole history, then retire the
    /// session to a tombstone.
    fn finish(&self, sessions: &mut Sessions, id: u64, slot: Option<u64>, outcome: Outcome) {
        if let Some(slot) = slot {
            self.db.with_collection("checkpoints", |c| {
                c.purge(&DocId(slot.to_string()));
            });
            self.clock.charge(CostKind::DbQuery);
        }
        sessions.retire(id, outcome);
    }

    fn start_negotiation(&self, start: &StartNegotiation) -> Result<Envelope, Fault> {
        {
            let parties = self.parties.read();
            for name in [&start.requester, &start.controller] {
                if !parties.contains_key(name) {
                    return Err(Fault::new(
                        "UnknownParty",
                        format!("party '{name}' not registered"),
                    ));
                }
            }
        }
        // "opens the connection with \[the\] database".
        self.clock.charge(CostKind::DbQuery);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let negotiation = Negotiation::new(
            start.requester.as_str(),
            start.controller.as_str(),
            start.resource.as_str(),
            start.strategy,
        );
        self.sessions.lock().open.insert(
            id,
            Session {
                negotiation,
                slot: start.resumable.then_some(id),
            },
        );
        Ok(Envelope::new(Body::StartNegotiationResponse).with_negotiation(id))
    }

    fn policy_exchange(&self, request: &Envelope) -> Result<Envelope, Fault> {
        const LATE: &str = "policy exchange already performed";
        let id = request
            .negotiation_id
            .ok_or_else(|| Fault::new("BadRequest", "missing negotiation id"))?;
        let mut sessions = self.sessions.lock();
        let Some(session) = sessions.open.get_mut(&id) else {
            return Err(sessions.missing(id, LATE));
        };
        if session.negotiation.is_agreed() {
            return Err(Fault::new("BadState", LATE));
        }
        let negotiation = &session.negotiation;
        let parties = self.parties.read();
        let evaluated = parties_of(&parties, &negotiation.requester, &negotiation.controller).map(
            |(requester, controller)| {
                let cfg = self.config(negotiation.strategy);
                let phase = evaluate_policies(requester, controller, &negotiation.resource, &cfg);
                let keys = session
                    .slot
                    .map(|slot| (slot, TokenKeys::of(requester, controller)));
                (phase, keys)
            },
        );
        drop(parties);
        let (phase, keys) = match evaluated {
            Ok(evaluated) => evaluated,
            Err(fault) => {
                // No checkpoint exists before phase 1 completes.
                sessions.retire(id, Outcome::Failed(fault.reason.clone()));
                return Err(fault);
            }
        };
        match phase {
            Ok(phase) => {
                // Charge the work phase 1 performed: one DB fetch plus one
                // evaluation per policy disclosed, and an ontology mapping
                // per concept-term encountered in either policy set.
                self.clock.charge_n(
                    CostKind::DbQuery,
                    phase.transcript.policies_disclosed as u64,
                );
                self.clock.charge_n(
                    CostKind::PolicyEvaluation,
                    phase.transcript.policies_disclosed as u64,
                );
                let concept_terms =
                    self.concept_term_count(&negotiation.requester, &negotiation.controller);
                self.clock
                    .charge_n(CostKind::OntologyMapping, concept_terms);
                let mut reply = PolicyExchangeResponse {
                    policies_disclosed: count(phase.transcript.policies_disclosed),
                    rounds: count(phase.transcript.policy_rounds),
                    sequence: phase.sequence.clone(),
                    token: None,
                };
                // Phase 2 needs only the sequence: the tree and the
                // transcript end here.
                session.negotiation.agree(phase.sequence);
                if let Some((slot, keys)) = &keys {
                    // Phase 1 is the expensive part: checkpoint it now so a
                    // mid-phase-2 interruption never repeats it.
                    reply.token = Some(self.checkpoint(
                        request.trace.as_ref().map(|t| t.link()).unwrap_or_default(),
                        *slot,
                        &session.negotiation,
                        keys,
                    ));
                }
                Ok(Envelope::new(Body::PolicyExchangeResponse(reply)).with_negotiation(id))
            }
            Err(e) => {
                let reason = e.to_string();
                sessions.retire(id, Outcome::Failed(reason.clone()));
                Err(Fault::new("NoTrustSequence", reason))
            }
        }
    }

    fn concept_term_count(&self, requester: &str, controller: &str) -> u64 {
        let parties = self.parties.read();
        [requester, controller]
            .iter()
            .filter_map(|name| parties.get(*name))
            .flat_map(|p| p.policies.iter())
            .flat_map(|policy| policy.terms())
            .filter(|t| matches!(t.spec, trust_vo_policy::CredentialSpec::Concept(_)))
            .count() as u64
    }

    /// `CredentialExchange`: one [`Negotiation::disclose`] step on the
    /// session, charged as a DB fetch plus a signature check (and an
    /// ownership proof's signature and check when the strategy demands
    /// one), verified at the instant after the fetch and check charges.
    fn credential_exchange(&self, request: &Envelope) -> Result<Envelope, Fault> {
        const LATE: &str = "run PolicyExchange first";
        let id = request
            .negotiation_id
            .ok_or_else(|| Fault::new("BadRequest", "missing negotiation id"))?;
        let mut sessions = self.sessions.lock();
        let Some(session) = sessions.open.get_mut(&id) else {
            return Err(sessions.missing(id, LATE));
        };
        if !session.negotiation.is_agreed() {
            return Err(Fault::new("BadState", LATE));
        }
        let slot = session.slot;
        let negotiation = &mut session.negotiation;
        let parties = self.parties.read();
        let stepped = parties_of(&parties, &negotiation.requester, &negotiation.controller)
            .and_then(|(requester, controller)| {
                let step = negotiation.disclose(requester, controller, |proves| {
                    self.clock.charge(CostKind::DbQuery);
                    self.clock.charge(CostKind::SignatureVerify);
                    let at = self.clock.timestamp();
                    if proves {
                        self.clock.charge(CostKind::SignatureSign);
                        self.clock.charge(CostKind::SignatureVerify);
                    }
                    at
                });
                let disclosed = match step {
                    Step::Done => return Ok(None),
                    // Terminal, like a trust failure.
                    Step::Stale { reason, .. } => return Err(Fault::new("StaleSequence", reason)),
                    Step::Disclosed(disclosed) => disclosed,
                };
                // A trust failure is terminal — resuming cannot fix it.
                disclosed
                    .verdict
                    .map_err(|cause| Fault::new("TrustFailure", cause.to_string()))?;
                // A disclosure that leaves more to do re-checkpoints a
                // resumable session below.
                let keys = slot
                    .filter(|_| negotiation.remaining() > 0)
                    .map(|slot| (slot, TokenKeys::of(requester, controller)));
                Ok(Some((SignedCredential::of(disclosed.credential), keys)))
            });
        drop(parties);
        let (credential, keys) = match stepped {
            Ok(Some(disclosed)) => disclosed,
            Ok(None) => {
                self.finish(&mut sessions, id, slot, Outcome::Completed);
                let reply = CredentialExchangeResponse {
                    remaining: 0,
                    credential: None,
                    token: None,
                };
                return Ok(
                    Envelope::new(Body::CredentialExchangeResponse(reply)).with_negotiation(id)
                );
            }
            Err(fault) => {
                let reason = fault.reason.clone();
                self.finish(&mut sessions, id, slot, Outcome::Failed(reason));
                return Err(fault);
            }
        };
        let remaining = negotiation.remaining();
        // Re-checkpoint after every verified disclosure: a resumed session
        // replays from here, not from the start of phase 2.
        let token = keys.map(|(slot, keys)| {
            self.checkpoint(
                request.trace.as_ref().map(|t| t.link()).unwrap_or_default(),
                slot,
                negotiation,
                &keys,
            )
        });
        if remaining == 0 {
            self.finish(&mut sessions, id, slot, Outcome::Completed);
        }
        let reply = CredentialExchangeResponse {
            remaining: count(remaining),
            credential: Some(credential),
            token,
        };
        Ok(Envelope::new(Body::CredentialExchangeResponse(reply)).with_negotiation(id))
    }

    /// `ResumeNegotiation`: verify a presented [`ResumeToken`], decode the
    /// durable checkpoint it names straight into a session under a fresh
    /// negotiation id, cursor included. The token is checked for issuer
    /// signature, half-open validity at the current sim instant, and
    /// binding to the *registered* keys of both parties; its checkpoint
    /// digest must be the SHA-256 of one of the revisions its slot
    /// retains (`NoSuchCheckpoint` otherwise: the slot was purged, or
    /// reused by a later negotiation), and the checkpoint row is
    /// cross-checked against the token's party and resource names.
    /// The controller's durable checkpoint is authoritative: if it is
    /// ahead of the checkpoint the client last saw (its response was lost
    /// in flight), resuming skips the disclosures the service already
    /// verified. The new session supersedes any open session on the same
    /// slot (a client that lost a reply without a crash resumes while its
    /// old session is still open): that one retires into a tombstone, and
    /// the slot, which the new session now uses, stays.
    fn resume_negotiation(&self, token: &SignedToken) -> Result<Envelope, Fault> {
        let token = token
            .decode()
            .ok_or_else(|| Fault::new("BadRequest", "malformed resume token"))?;
        {
            let parties = self.parties.read();
            let (holder, issuer) = parties_of(&parties, &token.holder, &token.issuer)?;
            if token.holder_key != holder.keys.public || token.issuer_key != issuer.keys.public {
                return Err(Fault::new(
                    "InvalidToken",
                    "token keys do not match registered parties",
                ));
            }
        }
        self.clock.charge(CostKind::SignatureVerify);
        token
            .verify(self.clock.timestamp())
            .map_err(|e| Fault::new("InvalidToken", e.to_string()))?;
        self.clock.charge(CostKind::DbQuery);
        let stored = self.db.with_collection("checkpoints", |c| {
            c.get_if_retained(&DocId(token.token_id.to_string()), |doc| {
                sha256(doc) == token.checkpoint
            })
        });
        let stored = stored.ok_or_else(|| {
            Fault::new(
                "NoSuchCheckpoint",
                format!("checkpoint slot {} is gone", token.token_id),
            )
        })?;
        let negotiation = Negotiation::from_xml(&stored)
            .ok_or_else(|| Fault::new("BadCheckpoint", "stored checkpoint is malformed"))?;
        if negotiation.requester != token.holder
            || negotiation.controller != token.issuer
            || negotiation.resource != token.resource
        {
            return Err(Fault::new(
                "InvalidToken",
                "token does not match the stored checkpoint's session",
            ));
        }
        let (next, remaining) = (negotiation.next, negotiation.remaining());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Some(token.token_id);
        let mut sessions = self.sessions.lock();
        // At most one open session holds the slot: the one this resume
        // supersedes.
        let holder = sessions.open.iter().find(|(_, s)| s.slot == slot);
        if let Some(old) = holder.map(|(&old, _)| old) {
            sessions.retire(old, Outcome::Superseded);
        }
        sessions.open.insert(id, Session { negotiation, slot });
        drop(sessions);
        self.resumed.fetch_add(1, Ordering::Relaxed);
        let obs = self.clock.collector();
        if obs.is_enabled() {
            obs.counter_add("negotiation.resumed", 1);
        }
        let reply = ResumeNegotiationResponse {
            next: count(next),
            remaining: count(remaining),
        };
        Ok(Envelope::new(Body::ResumeNegotiationResponse(reply)).with_negotiation(id))
    }

    /// Is the negotiation completed successfully? Answered from the
    /// tombstones: `false` once the id is older than [`RETIRED_SESSIONS`]
    /// finished negotiations.
    pub fn is_completed(&self, id: u64) -> bool {
        matches!(self.sessions.lock().outcome(id), Some(Outcome::Completed))
    }

    /// The failure reason, if the negotiation failed (and is among the
    /// last [`RETIRED_SESSIONS`] finished).
    pub fn failure_reason(&self, id: u64) -> Option<String> {
        match self.sessions.lock().outcome(id) {
            Some(Outcome::Failed(reason)) => Some(reason.clone()),
            _ => None,
        }
    }
}

impl ServiceEndpoint for TnService {
    fn handle(&self, request: &Envelope) -> Result<Envelope, Fault> {
        let obs = self.clock.collector();
        // A traced request parents the service-side span under the hop
        // that delivered it (bus dispatch / fault transport).
        let mut span = match &request.trace {
            Some(trace) => obs.span_linked("tn.operation", trace.link()),
            None => obs.span("tn.operation"),
        };
        if span.id().is_some() {
            span.field("operation", request.operation());
            let counter = match &*request.body {
                Body::StartNegotiation(_) => Some("tn.start_negotiation"),
                Body::PolicyExchange => Some("tn.policy_exchange"),
                Body::CredentialExchange => Some("tn.credential_exchange"),
                Body::ResumeNegotiation(_) => Some("tn.resume_negotiation"),
                _ => None,
            };
            if let Some(name) = counter {
                obs.counter_add(name, 1);
            }
        }
        // Re-stamp so spans opened inside the operation (checkpoint I/O)
        // parent under `tn.operation`; untraced requests skip the clone.
        let routed;
        let request = if request.trace.is_some() {
            routed = request.restamped(span.id().unwrap_or(0));
            &routed
        } else {
            request
        };
        let result = match &*request.body {
            Body::StartNegotiation(start) => self.start_negotiation(start),
            Body::PolicyExchange => self.policy_exchange(request),
            Body::CredentialExchange => self.credential_exchange(request),
            Body::ResumeNegotiation(token) => self.resume_negotiation(token),
            other => Err(Fault::new(
                "BadRequest",
                format!("'{}' is not a TN service request", other.operation()),
            )),
        };
        if span.id().is_some() {
            span.field("ok", result.is_ok());
        }
        result
    }

    fn operations(&self) -> Vec<String> {
        vec![
            "StartNegotiation".into(),
            "PolicyExchange".into(),
            "CredentialExchange".into(),
            "ResumeNegotiation".into(),
        ]
    }

    /// A simulated crash/restart: in-flight sessions and tombstones
    /// (volatile memory) are lost; the party registry, profiles, policies,
    /// and negotiation checkpoints (durable database) survive. Clients
    /// holding a resume token re-attach via `ResumeNegotiation`.
    fn on_crash(&self) {
        *self.sessions.lock() = Sessions::default();
        let obs = self.clock.collector();
        if obs.is_enabled() {
            obs.counter_add("tn.crashes", 1);
            obs.event("tn.crash", vec![]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simclock::CostModel;
    use trust_vo_credential::{CredentialAuthority, TimeRange, Timestamp};
    use trust_vo_policy::{DisclosurePolicy, Resource, Term};
    use trust_vo_xmldoc::Element;

    fn clock() -> SimClock {
        SimClock::new(
            CostModel::paper_testbed(),
            Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0),
        )
    }

    fn service_with_fig2() -> TnService {
        service_with_fig2_and_ca().0
    }

    /// The Fig. 2 service plus the CA that issued both parties'
    /// credentials (for renewals).
    fn service_with_fig2_and_ca() -> (TnService, CredentialAuthority) {
        let mut ca = CredentialAuthority::new("AAA");
        let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2009, 1, 1, 0, 0, 0));
        let mut aircraft = Party::new("Aircraft");
        let mut aerospace = Party::new("Aerospace");
        let quality = ca
            .issue(
                "WebDesignerQuality",
                "Aerospace",
                aerospace.keys.public,
                vec![],
                window,
            )
            .unwrap();
        aerospace.profile.add(quality);
        let accr = ca
            .issue(
                "AAACreditation",
                "Aircraft",
                aircraft.keys.public,
                vec![],
                window,
            )
            .unwrap();
        aircraft.profile.add(accr);
        aircraft.policies.add(DisclosurePolicy::rule(
            "p1",
            Resource::service("VoMembership"),
            vec![Term::of_type("WebDesignerQuality")],
        ));
        aircraft.policies.add(DisclosurePolicy::deliv(
            "d1",
            Resource::credential("AAACreditation"),
        ));
        aerospace.policies.add(DisclosurePolicy::rule(
            "p2",
            Resource::credential("WebDesignerQuality"),
            vec![Term::of_type("AAACreditation")],
        ));
        aircraft.trust_root(ca.public_key());
        aerospace.trust_root(ca.public_key());
        let svc = TnService::new(clock(), Database::new());
        svc.register_party(aerospace);
        svc.register_party(aircraft);
        (svc, ca)
    }

    fn start_request(strategy: Strategy, requester: &str, resumable: bool) -> Envelope {
        Envelope::new(Body::StartNegotiation(StartNegotiation {
            strategy,
            requester: requester.into(),
            controller: "Aircraft".into(),
            resource: "VoMembership".into(),
            resumable,
        }))
    }

    fn start(svc: &TnService, strategy: Strategy) -> u64 {
        let resp = svc
            .handle(&start_request(strategy, "Aerospace", false))
            .unwrap();
        assert_eq!(*resp.body, Body::StartNegotiationResponse);
        resp.negotiation_id.unwrap()
    }

    fn policy_reply(env: &Envelope) -> &PolicyExchangeResponse {
        match &*env.body {
            Body::PolicyExchangeResponse(reply) => reply,
            other => panic!("not a policy reply: {other:?}"),
        }
    }

    fn credential_reply(env: &Envelope) -> &CredentialExchangeResponse {
        match &*env.body {
            Body::CredentialExchangeResponse(reply) => reply,
            other => panic!("not a credential reply: {other:?}"),
        }
    }

    fn resume_reply(env: &Envelope) -> ResumeNegotiationResponse {
        match &*env.body {
            Body::ResumeNegotiationResponse(reply) => *reply,
            other => panic!("not a resume reply: {other:?}"),
        }
    }

    fn resume(svc: &TnService, token: SignedToken) -> Result<Envelope, Fault> {
        svc.handle(&Envelope::new(Body::ResumeNegotiation(token)))
    }

    #[test]
    fn full_protocol_run() {
        let svc = service_with_fig2();
        let id = start(&svc, Strategy::Standard);
        let policy_resp = svc
            .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        assert_eq!(policy_reply(&policy_resp).sequence.len(), 2);
        // Two credential exchange calls then completed.
        for expected in ["in-progress", "completed"] {
            let resp = svc
                .handle(&Envelope::new(Body::CredentialExchange).with_negotiation(id))
                .unwrap();
            assert_eq!(
                credential_reply(&resp).is_completed(),
                expected == "completed"
            );
        }
        assert!(svc.is_completed(id));
    }

    #[test]
    fn clock_advances_through_protocol() {
        let svc = service_with_fig2();
        let before = svc.clock.elapsed();
        let id = start(&svc, Strategy::Standard);
        let _ = svc.handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id));
        assert!(svc.clock.elapsed() > before);
        let counts = svc.clock.counts();
        assert!(counts[&CostKind::DbQuery] >= 2);
        assert!(counts.contains_key(&CostKind::PolicyEvaluation));
    }

    #[test]
    fn bad_requests_fault() {
        let svc = service_with_fig2();
        // Any body that is not a TN request: a document, or a reply.
        for body in [
            Body::document("Frobnicate", Element::new("x")).unwrap(),
            Body::StartNegotiationResponse,
        ] {
            let err = svc.handle(&Envelope::new(body)).unwrap_err();
            assert_eq!(err.code, "BadRequest");
        }
        // Unknown party.
        let err = svc
            .handle(&start_request(Strategy::Standard, "Ghost", false))
            .unwrap_err();
        assert_eq!(err.code, "UnknownParty");
        // Credential exchange before policy exchange.
        let id = start(&svc, Strategy::Standard);
        let err = svc
            .handle(&Envelope::new(Body::CredentialExchange).with_negotiation(id))
            .unwrap_err();
        assert_eq!(err.code, "BadState");
        // Unknown negotiation id.
        let err = svc
            .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(999))
            .unwrap_err();
        assert_eq!(err.code, "NoSuchNegotiation");
    }

    #[test]
    fn unsatisfiable_negotiation_faults_and_records() {
        let svc = service_with_fig2();
        // Strip the aerospace party of its quality credential.
        let mut aerospace = svc.party("Aerospace").unwrap();
        let id0 = aerospace.profile.credentials()[0].id().clone();
        aerospace.profile.remove(&id0);
        svc.update_party(aerospace);
        let id = start(&svc, Strategy::Standard);
        let err = svc
            .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap_err();
        assert_eq!(err.code, "NoTrustSequence");
        assert!(svc.failure_reason(id).is_some());
        assert!(!svc.is_completed(id));
    }

    #[test]
    fn suspicious_strategy_charges_ownership_proofs() {
        let svc = service_with_fig2();
        let id = start(&svc, Strategy::Suspicious);
        svc.handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        let signs_before = svc
            .clock
            .counts()
            .get(&CostKind::SignatureSign)
            .copied()
            .unwrap_or(0);
        svc.handle(&Envelope::new(Body::CredentialExchange).with_negotiation(id))
            .unwrap();
        assert_eq!(
            svc.clock.counts()[&CostKind::SignatureSign],
            signs_before + 1
        );
    }

    #[test]
    fn registration_persists_documents() {
        let svc = service_with_fig2();
        let stats = svc.database().stats();
        assert!(stats.collections >= 2);
        assert!(stats.documents >= 4); // 2 profiles + >= 2 policies
    }

    fn start_resumable(svc: &TnService) -> u64 {
        let resp = svc
            .handle(&start_request(Strategy::Standard, "Aerospace", true))
            .unwrap();
        resp.negotiation_id.unwrap()
    }

    fn exchange(svc: &TnService, id: u64) -> Result<Envelope, Fault> {
        svc.handle(&Envelope::new(Body::CredentialExchange).with_negotiation(id))
    }

    #[test]
    fn non_resumable_sessions_issue_no_tokens() {
        let svc = service_with_fig2();
        let id = start(&svc, Strategy::Standard);
        let policy = svc
            .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        assert!(policy_reply(&policy).token.is_none());
        let resp = exchange(&svc, id).unwrap();
        assert!(credential_reply(&resp).token.is_none());
    }

    #[test]
    fn resumable_negotiation_survives_crash() {
        let svc = service_with_fig2();
        let id = start_resumable(&svc);
        let policy = svc
            .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        // Phase 1 checkpointed immediately: the response carries a token.
        assert!(policy_reply(&policy).token.is_some());
        // One verified disclosure; its response carries a fresher token.
        let resp = exchange(&svc, id).unwrap();
        let reply = credential_reply(&resp);
        assert!(!reply.is_completed());
        let token = reply.token.clone().unwrap();

        // The endpoint crashes: volatile sessions are gone...
        svc.on_crash();
        let err = exchange(&svc, id).unwrap_err();
        assert_eq!(err.code, "NoSuchNegotiation");

        // ...but the durable checkpoint resumes under a fresh id, with the
        // cursor where the crash left it (1 of 2 disclosures done).
        let resume = resume(&svc, token).unwrap();
        assert_eq!(
            resume_reply(&resume),
            ResumeNegotiationResponse {
                next: 1,
                remaining: 1
            }
        );
        let new_id = resume.negotiation_id.unwrap();
        assert_ne!(new_id, id);

        let resp = exchange(&svc, new_id).unwrap();
        assert!(credential_reply(&resp).is_completed());
        assert!(svc.is_completed(new_id));
        assert_eq!(svc.resumed_count(), 1);
    }

    /// A client whose last reply was lost holds a token older than the
    /// slot's latest checkpoint: its digest is a retained revision, so it
    /// resumes from the latest checkpoint, past the disclosure it missed.
    #[test]
    fn an_older_token_resumes_from_the_latest_checkpoint() {
        let svc = service_with_fig2();
        let id = start_resumable(&svc);
        let policy = svc
            .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        let token = policy_reply(&policy).token.clone().unwrap();
        exchange(&svc, id).unwrap();
        svc.on_crash();
        let resume = resume(&svc, token).unwrap();
        assert_eq!(
            resume_reply(&resume),
            ResumeNegotiationResponse {
                next: 1,
                remaining: 1
            }
        );
    }

    /// A service built over a database that holds checkpoint slots starts
    /// its negotiation ids above the largest one.
    #[test]
    fn ids_start_above_the_checkpoint_slots_of_the_database() {
        let db = Database::new();
        db.with_collection("checkpoints", |c| {
            for slot in ["3", "12"] {
                c.put(slot, Element::new("checkpoint"));
            }
        });
        let svc = TnService::new(clock(), db);
        for name in ["Aerospace", "Aircraft"] {
            svc.register_party(Party::new(name));
        }
        assert_eq!(
            svc.handle(&start_request(Strategy::Standard, "Aerospace", true))
                .unwrap()
                .negotiation_id,
            Some(13)
        );
    }

    /// A renewal between PolicyExchange and CredentialExchange re-issues
    /// the sequenced credentials under new ids. The stale sequence must
    /// fault like a trust failure: typed, session failed, checkpoint
    /// retired.
    #[test]
    fn stale_sequence_faults_and_retires_the_checkpoint() {
        let (svc, mut ca) = service_with_fig2_and_ca();
        let id = start_resumable(&svc);
        svc.handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        assert_eq!(
            svc.database().with_collection("checkpoints", |c| c.len()),
            1
        );
        for name in ["Aircraft", "Aerospace"] {
            let mut party = svc.party(name).unwrap();
            for old in party.profile.credentials().to_vec() {
                let header = old.header();
                let renewed = ca
                    .issue(
                        old.cred_type(),
                        &header.subject,
                        header.subject_key,
                        old.content().to_vec(),
                        header.validity,
                    )
                    .unwrap();
                assert_ne!(renewed.id(), old.id());
                party.profile.remove(old.id());
                party.profile.add(renewed);
            }
            svc.update_party(party);
        }
        let err = exchange(&svc, id).unwrap_err();
        assert_eq!(err.code, "StaleSequence");
        assert_eq!(err.kind, crate::envelope::FaultKind::Application);
        assert!(svc
            .failure_reason(id)
            .is_some_and(|r| r.contains("no longer holds")));
        assert_eq!(
            svc.database().with_collection("checkpoints", |c| c.len()),
            0,
            "a stale sequence is terminal: its checkpoint must be retired"
        );
        assert_eq!(exchange(&svc, id).unwrap_err().code, "BadState");
    }

    #[test]
    fn completed_negotiation_retires_its_checkpoint() {
        let svc = service_with_fig2();
        let id = start_resumable(&svc);
        let policy = svc
            .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        let token = policy_reply(&policy).token.clone().unwrap();
        while !credential_reply(&exchange(&svc, id).unwrap()).is_completed() {}
        assert_eq!(
            svc.database().with_collection("checkpoints", |c| c.len()),
            0,
            "checkpoint slot must be retired on completion"
        );
        // A stale token for the retired slot cannot resurrect the session.
        let err = resume(&svc, token).unwrap_err();
        assert_eq!(err.code, "NoSuchCheckpoint");
    }

    fn policy(svc: &TnService, id: u64) -> Result<Envelope, Fault> {
        svc.handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
    }

    /// A session that outlives a party's registration ends with a typed
    /// `UnknownParty` fault, never a panic. Nothing unregisters a party
    /// today, so the tests remove it from the registry directly.
    fn unregister(svc: &TnService, name: &str) {
        assert!(svc.parties.write().remove(name).is_some());
    }

    #[test]
    fn policy_exchange_on_an_unregistered_party_ends_the_session() {
        let svc = service_with_fig2();
        let id = start_resumable(&svc);
        unregister(&svc, "Aircraft");
        let err = policy(&svc, id).unwrap_err();
        assert_eq!(err.code, "UnknownParty");
        assert!(err.reason.contains("'Aircraft'"));
        assert_eq!(svc.failure_reason(id), Some(err.reason));
        assert_eq!(svc.session_counts(), (0, 1));
        assert_eq!(policy(&svc, id).unwrap_err().code, "BadState");
    }

    #[test]
    fn credential_exchange_on_an_unregistered_party_ends_the_session() {
        let svc = service_with_fig2();
        let id = start(&svc, Strategy::Standard);
        policy(&svc, id).unwrap();
        unregister(&svc, "Aerospace");
        let err = exchange(&svc, id).unwrap_err();
        assert_eq!(err.code, "UnknownParty");
        assert!(svc.failure_reason(id).is_some());
        assert_eq!(svc.session_counts(), (0, 1));
        assert_eq!(exchange(&svc, id).unwrap_err().code, "BadState");
    }

    /// The checkpointing path: a resumable session that loses a party
    /// mid-phase-2 ends, and its checkpoint slot is purged rather than
    /// left for a token nobody can redeem.
    #[test]
    fn checkpointed_exchange_on_an_unregistered_party_purges_its_slot() {
        let svc = service_with_fig2();
        let id = start_resumable(&svc);
        let token = policy_reply(&policy(&svc, id).unwrap())
            .token
            .clone()
            .unwrap();
        assert_eq!(
            svc.database().with_collection("checkpoints", |c| c.len()),
            1
        );
        unregister(&svc, "Aircraft");
        assert_eq!(exchange(&svc, id).unwrap_err().code, "UnknownParty");
        let slot = DocId(id.to_string());
        assert!(svc
            .database()
            .with_collection("checkpoints", |c| c.get_revision(&slot, 1))
            .is_none());
        let err = resume(&svc, token).unwrap_err();
        assert_eq!(err.code, "UnknownParty");
    }

    #[test]
    fn finished_sessions_retire_into_a_bounded_ring_of_tombstones() {
        let svc = service_with_fig2();
        let run = |svc: &TnService| {
            let id = start(svc, Strategy::Standard);
            policy(svc, id).unwrap();
            while !credential_reply(&exchange(svc, id).unwrap()).is_completed() {}
            id
        };
        let first = run(&svc);
        assert_eq!(svc.session_counts(), (0, 1));
        assert!(svc.is_completed(first));
        // A late retry of a just-finished negotiation answers as the kept
        // session did.
        assert_eq!(exchange(&svc, first).unwrap_err().code, "BadState");
        assert_eq!(policy(&svc, first).unwrap_err().code, "BadState");
        let mut last = first;
        for _ in 0..RETIRED_SESSIONS {
            last = run(&svc);
        }
        assert_eq!(svc.session_counts(), (0, RETIRED_SESSIONS));
        assert!(svc.is_completed(last));
        // The first id fell off the ring.
        assert!(!svc.is_completed(first));
        assert_eq!(exchange(&svc, first).unwrap_err().code, "NoSuchNegotiation");
        // Tombstones are volatile, like sessions.
        svc.on_crash();
        assert_eq!(svc.session_counts(), (0, 0));
        assert!(!svc.is_completed(last));
        assert_eq!(exchange(&svc, last).unwrap_err().code, "NoSuchNegotiation");
    }

    #[test]
    fn expired_resume_token_is_rejected() {
        let svc = service_with_fig2();
        let id = start_resumable(&svc);
        let policy = svc
            .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        let token = policy_reply(&policy).token.clone().unwrap();
        svc.on_crash();
        // One virtual second after its lifetime the token is past its
        // (exclusive) end instant.
        svc.clock.advance(crate::simclock::SimDuration::from_millis(
            (DEFAULT_RESUME_TTL_SECS + 1) * 1_000,
        ));
        let err = resume(&svc, token).unwrap_err();
        assert_eq!(err.code, "InvalidToken");
        assert_eq!(svc.resumed_count(), 0);
    }

    #[test]
    fn tampered_resume_token_is_rejected() {
        let svc = service_with_fig2();
        let id = start_resumable(&svc);
        let policy = svc
            .handle(&Envelope::new(Body::PolicyExchange).with_negotiation(id))
            .unwrap();
        // The token's fields under its genuine signature, the resource
        // changed.
        let mut token = policy_reply(&policy)
            .token
            .as_ref()
            .unwrap()
            .decode()
            .unwrap();
        token.resource = "SomethingElse".into();
        let token = SignedToken::of(&token);
        let err = resume(&svc, token).unwrap_err();
        assert_eq!(err.code, "InvalidToken");
    }
}

#[cfg(test)]
mod update_party_tests {
    use super::*;
    use crate::simclock::CostModel;
    use trust_vo_credential::Timestamp;
    use trust_vo_policy::{DisclosurePolicy, Resource};

    #[test]
    fn shrinking_policy_set_retires_stale_documents() {
        let svc = TnService::new(
            SimClock::new(CostModel::free(), Timestamp(0)),
            Database::new(),
        );
        let mut party = Party::new("P");
        for i in 0..3 {
            party.policies.add(DisclosurePolicy::deliv(
                format!("d{i}"),
                Resource::credential(format!("C{i}")),
            ));
        }
        svc.register_party(party);
        assert_eq!(svc.database().with_collection("policies", |c| c.len()), 3);
        // Re-register with a single policy: the two extra rows must go.
        let mut smaller = Party::new("P");
        smaller
            .policies
            .add(DisclosurePolicy::deliv("only", Resource::credential("C0")));
        svc.update_party(smaller);
        assert_eq!(svc.database().with_collection("policies", |c| c.len()), 1);
    }

    /// The stale-row sweep reads only the re-registered party's rows: a
    /// party named like an extension of its name (`A#1`, whose rows are
    /// `A#1#i` inside `A#`'s range, and `AB`) keeps every row.
    #[test]
    fn re_registration_retires_only_its_own_surplus_rows() {
        let svc = TnService::new(
            SimClock::new(CostModel::free(), Timestamp(0)),
            Database::new(),
        );
        let party = |name: &str, policies: usize| {
            let mut party = Party::new(name);
            for i in 0..policies {
                party.policies.add(DisclosurePolicy::deliv(
                    format!("{name}-d{i}"),
                    Resource::credential(format!("C{i}")),
                ));
            }
            party
        };
        svc.register_party(party("A", 3));
        svc.register_party(party("A#1", 2));
        svc.register_party(party("AB", 2));
        svc.register_party(party("A", 1));
        svc.database().with_collection("policies", |c| {
            let live: Vec<&str> = c.ids().map(|id| id.0.as_str()).collect();
            assert_eq!(live, ["A#0", "A#1#0", "A#1#1", "AB#0", "AB#1"]);
            for id in ["A#1", "A#2"] {
                let id = DocId::from(id);
                assert!(
                    c.get_revision(&id, 1).is_some(),
                    "{id} is deleted, not purged"
                );
            }
        });
    }
}
