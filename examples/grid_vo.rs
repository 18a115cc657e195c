//! A grid-computing VO built from scratch against the public API — no
//! prebuilt scenario. The paper singles grids out: "This is the case, for
//! example, of VO formed in grid computing, which involve very complex
//! collaborations among the members" (§5.1).
//!
//! A university consortium forms a compute grid: a coordinator (initiator),
//! two compute sites, and a data archive. Policies interlock two levels
//! deep (site SLA ⇄ consortium accreditation), one site presents a
//! credential from an untrusted regional CA that must be chain-resolved,
//! and the formation runs under the suspicious strategy (grid parties
//! don't reveal what they lack).
//!
//! Run with: `cargo run --example grid_vo`

use trust_vo::credential::chain::ChainDirectory;
use trust_vo::credential::{
    Attribute, Credential, CredentialAuthority, CredentialId, Header, TimeRange, Timestamp,
};
use trust_vo::crypto::KeyPair;
use trust_vo::negotiation::{Party, Strategy};
use trust_vo::policy::{Condition, DisclosurePolicy, PolicySet, Resource, Term};
use trust_vo::soa::simclock::SimClock;
use trust_vo::vo::{Contract, ResourceDescription, Role, ServiceProvider, VoToolkit};

fn main() {
    let window = TimeRange::one_year_from(Timestamp::from_ymd_hms(2026, 1, 1, 0, 0, 0));
    let clock = SimClock::new(
        trust_vo::soa::simclock::CostModel::paper_testbed(),
        Timestamp::from_ymd_hms(2026, 3, 1, 0, 0, 0),
    );

    // Authorities: the grid consortium CA (trusted by everyone) and a
    // regional CA that is NOT directly trusted.
    let consortium_ca = CredentialAuthority::new("EuGrid Consortium CA");
    let mut regional_ca = CredentialAuthority::new("Nordic Regional CA");
    let consortium_keys = KeyPair::from_seed(b"authority:EuGrid Consortium CA");

    let mut toolkit = VoToolkit::new(clock);

    // --- Coordinator (initiator) -----------------------------------
    let mut coordinator = Party::new("Grid Coordination Office");
    coordinator.trust_root(consortium_ca.public_key());
    {
        // The coordinator holds a consortium accreditation the sites will
        // counter-request before revealing their SLAs.
        let mut ca = CredentialAuthority::new("EuGrid Consortium CA");
        let accr = ca
            .issue(
                "ConsortiumAccreditation",
                &coordinator.name,
                coordinator.keys.public,
                vec![Attribute::new("Tier", 1i64)],
                window,
            )
            .unwrap();
        coordinator.profile.add(accr);
        coordinator.policies.add(DisclosurePolicy::deliv(
            "coord-d1",
            Resource::credential("ConsortiumAccreditation"),
        ));
    }
    toolkit.host_register(ServiceProvider::new(coordinator), vec![]);

    // --- Compute sites ----------------------------------------------
    // Site A: certified by the consortium directly.
    // Site B: certified by the regional CA — needs a chain to verify.
    for (name, availability, issuer_is_regional, quality) in [
        ("Compute Site Alpha", 99i64, false, 0.97),
        ("Compute Site Beta", 97i64, true, 0.90),
    ] {
        let mut site = Party::new(name);
        site.trust_root(consortium_ca.public_key());
        let sla = if issuer_is_regional {
            regional_ca
                .issue(
                    "GridSla",
                    name,
                    site.keys.public,
                    vec![Attribute::new("Availability", availability)],
                    window,
                )
                .unwrap()
        } else {
            let mut ca = CredentialAuthority::new("EuGrid Consortium CA");
            ca.issue(
                "GridSla",
                name,
                site.keys.public,
                vec![Attribute::new("Availability", availability)],
                window,
            )
            .unwrap()
        };
        site.profile.add(sla);
        // Grid sites are suspicious: the SLA is released only against the
        // coordinator's consortium accreditation.
        site.policies.add(DisclosurePolicy::rule(
            format!("{name}-sla-gate"),
            Resource::credential("GridSla"),
            vec![Term::of_type("ConsortiumAccreditation")],
        ));
        toolkit.host_register(
            ServiceProvider::new(site),
            vec![ResourceDescription::new(
                name,
                "grid-compute",
                "gsiftp://site",
                quality,
            )],
        );
    }

    // --- Data archive -------------------------------------------------
    let mut archive = Party::new("Petabyte Archive");
    archive.trust_root(consortium_ca.public_key());
    {
        let mut ca = CredentialAuthority::new("EuGrid Consortium CA");
        let cert = ca
            .issue(
                "ArchiveCertification",
                "Petabyte Archive",
                archive.keys.public,
                vec![Attribute::new("CapacityPb", 12i64)],
                window,
            )
            .unwrap();
        archive.profile.add(cert);
        archive.policies.add(DisclosurePolicy::deliv(
            "arch-d1",
            Resource::credential("ArchiveCertification"),
        ));
    }
    toolkit.host_register(
        ServiceProvider::new(archive),
        vec![ResourceDescription::new(
            "Petabyte Archive",
            "grid-storage",
            "srm://archive",
            0.95,
        )],
    );

    // The coordinator can verify Site Beta's regional credential through a
    // cross-certificate: consortium root -> regional CA.
    let cross = Credential::issue_signed(
        Header {
            cred_id: CredentialId("cross-nordic".into()),
            cred_type: "CACert".into(),
            issuer: "EuGrid Consortium CA".into(),
            issuer_key: consortium_ca.public_key(),
            subject: "Nordic Regional CA".into(),
            subject_key: regional_ca.public_key(),
            validity: window,
        },
        vec![],
        &consortium_keys,
    );
    let mut chains = ChainDirectory::new();
    chains.add(cross);
    toolkit
        .providers
        .get_mut("Grid Coordination Office")
        .unwrap()
        .party
        .chains = chains;

    // --- Identification: contract + per-role disclosure policies -------
    let mut contract = Contract::new("EuGridRun-2026", "continental compute campaign")
        .with_role(Role::new(
            "ComputeSite",
            "grid-compute",
            "availability >= 95%",
        ))
        .with_role(Role::new(
            "Archive",
            "grid-storage",
            "petabyte-scale storage",
        ));
    let mut compute_policies = PolicySet::new();
    compute_policies.add(DisclosurePolicy::rule(
        "vo-compute",
        Resource::service("VoMembership"),
        vec![Term::of_type("GridSla")
            .with_condition(Condition::parse("//content/Availability >= 95").unwrap())],
    ));
    contract.set_role_policies("ComputeSite", compute_policies);
    let mut archive_policies = PolicySet::new();
    archive_policies.add(DisclosurePolicy::rule(
        "vo-archive",
        Resource::service("VoMembership"),
        vec![Term::of_type("ArchiveCertification")],
    ));
    contract.set_role_policies("Archive", archive_policies);

    // --- Formation under the suspicious strategy -----------------------
    let vo = toolkit
        .initiator_form_vo(
            contract,
            "Grid Coordination Office",
            Strategy::Suspicious,
            None,
        )
        .expect("the grid VO forms");
    println!("VO '{}' formed under the suspicious strategy:", vo.name);
    for m in vo.members() {
        println!("  {:<22} as {}", m.provider, m.role);
    }
    println!(
        "\nSite Alpha (quality 0.97, consortium-certified) won the compute role: {}",
        vo.member_for_role("ComputeSite").unwrap().provider
    );
    println!(
        "simulated formation time: {:.2} s",
        toolkit.clock.elapsed().as_secs_f64()
    );

    // Demonstrate the chain path explicitly: negotiate with Site Beta
    // directly — its regional SLA verifies only through the cross-cert.
    let mut coordinator = toolkit
        .providers
        .get("Grid Coordination Office")
        .unwrap()
        .party
        .clone();
    coordinator.policies.add(DisclosurePolicy::rule(
        "direct",
        Resource::service("DirectCheck"),
        vec![Term::of_type("GridSla")],
    ));
    let beta = toolkit
        .providers
        .get("Compute Site Beta")
        .unwrap()
        .party
        .clone();
    let cfg = trust_vo::negotiation::NegotiationConfig::new(
        Strategy::Suspicious,
        toolkit.clock.timestamp(),
    );
    let outcome = trust_vo::negotiation::negotiate(&beta, &coordinator, "DirectCheck", &cfg)
        .expect("chain resolution accepts the regional credential");
    println!(
        "\nchain-resolved negotiation with Site Beta: {} ({} ownership proofs)",
        outcome.sequence, outcome.transcript.ownership_proofs
    );
}
