//! Integration: full environment scenarios spanning the five models,
//! the interop hub, the event bus, and transparency ablation — the
//! functional (non-performance) side of experiments F2/F3 and R5.

use open_cscw::directory::Dn;
use open_cscw::groupware::{
    descriptor_for, direct_adapter, mapping_for, sample_artifact, APP_POPULATION,
};
use open_cscw::kernel::Timestamp;
use open_cscw::mocca::activity::{Activity, ActivityRole};
use open_cscw::mocca::env::{AppId, EnvEvent};
use open_cscw::mocca::info::{AccessRight, InfoContent, InfoObject};
use open_cscw::mocca::org::{OrgRule, OrgUnit, Person, RelationKind, Role, RuleKind};
use open_cscw::mocca::transparency::{CscwTransparencySelection, View};
use open_cscw::mocca::{CscwEnvironment, LocalPlatform, MoccaError, SimPlatform};

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

/// Every scenario runs on both engineering platforms: in-process and
/// across a simulated network. The environment's behaviour must not
/// depend on where its substrate functions execute.
fn on_both_platforms(scenario: fn(CscwEnvironment)) {
    scenario(base_env(Box::new(LocalPlatform::new())));
    scenario(base_env(Box::new(SimPlatform::new(42))));
}

/// Tom (coordinator, Lancaster) and Wolfgang (member, GMD).
fn base_env(platform: Box<dyn open_cscw::mocca::Platform>) -> CscwEnvironment {
    let env = CscwEnvironment::with_platform(platform);
    {
        let org = env.org();
        let mut org = org.write();
        org.add_person(Person::new(dn("cn=Tom"), "Tom"));
        org.add_person(Person::new(dn("cn=Wolfgang"), "Wolfgang"));
        org.add_role(Role::new(dn("cn=coordinator"), "coordinator"));
        org.add_role(Role::new(dn("cn=member"), "member"));
        org.relate(&dn("cn=Tom"), RelationKind::Occupies, &dn("cn=coordinator"))
            .unwrap();
        org.relate(&dn("cn=Wolfgang"), RelationKind::Occupies, &dn("cn=member"))
            .unwrap();
        org.add_rule(OrgRule::new(
            dn("cn=coordinator"),
            RuleKind::Permit,
            "schedule",
            "activity",
        ));
    }
    env
}

#[test]
fn whole_population_interoperates_with_one_registration_each() {
    on_both_platforms(whole_population_interoperates_with_one_registration_each_scenario);
}

fn whole_population_interoperates_with_one_registration_each_scenario(mut env: CscwEnvironment) {
    for app in APP_POPULATION {
        env.register_app(descriptor_for(app).unwrap(), mapping_for(app).unwrap());
    }
    assert_eq!(env.apps().covered_quadrants().len(), 4);

    let mut exchanges = 0;
    for from in APP_POPULATION {
        for to in APP_POPULATION {
            if from == to {
                continue;
            }
            let artifact = sample_artifact(from).unwrap();
            let out = env.exchange(&dn("cn=Tom"), &artifact, &AppId::new(to), Timestamp::ZERO);
            assert!(out.is_ok(), "{from}->{to} failed: {:?}", out.err());
            exchanges += 1;
        }
    }
    assert_eq!(exchanges, 20);
    assert_eq!(env.hub().mappings_needed(), 5, "O(N), not O(N²)");
    assert_eq!(
        env.repository().len(),
        20,
        "every exchange recorded as shared object"
    );
    // The bus carried one event per exchange.
    assert_eq!(env.bus().published_count(), 20);
}

#[test]
fn closed_world_partial_wiring_fails_where_hub_succeeds() {
    on_both_platforms(closed_world_partial_wiring_fails_where_hub_succeeds_scenario);
}

fn closed_world_partial_wiring_fails_where_hub_succeeds_scenario(mut env: CscwEnvironment) {
    for app in APP_POPULATION {
        env.register_app(descriptor_for(app).unwrap(), mapping_for(app).unwrap());
    }
    // A closed world with only one direction of one pair wired.
    let mut closed = env.closed_world_baseline([(
        AppId::new("sharedx"),
        AppId::new("com"),
        direct_adapter("sharedx", "com").unwrap(),
    )]);
    assert!(closed
        .exchange(&sample_artifact("sharedx").unwrap(), &AppId::new("com"))
        .is_ok());
    assert!(closed
        .exchange(&sample_artifact("com").unwrap(), &AppId::new("sharedx"))
        .is_err());
    // Hub serves both directions from the same five mappings.
    assert!(env
        .exchange(
            &dn("cn=Tom"),
            &sample_artifact("com").unwrap(),
            &AppId::new("sharedx"),
            Timestamp::ZERO
        )
        .is_ok());
}

#[test]
fn activity_transparency_ablation_changes_disturbance_not_relevance() {
    on_both_platforms(activity_transparency_ablation_changes_disturbance_not_relevance_scenario);
}

fn activity_transparency_ablation_changes_disturbance_not_relevance_scenario(
    mut env: CscwEnvironment,
) {
    env.create_activity(
        &dn("cn=Tom"),
        Activity::new("report".into(), "r"),
        Timestamp::ZERO,
    )
    .unwrap();
    env.create_activity(
        &dn("cn=Tom"),
        Activity::new("boring".into(), "b"),
        Timestamp::ZERO,
    )
    .unwrap();
    env.join_activity(
        &dn("cn=Wolfgang"),
        &"report".into(),
        ActivityRole("w".into()),
        Timestamp::ZERO,
    )
    .unwrap();

    // With isolation on: Wolfgang only sees report-scoped events.
    let make_event = |kind: &str, act: &str| EnvEvent {
        kind: kind.to_owned(),
        activity: Some(act.into()),
        at: Timestamp::ZERO,
        payload: InfoContent::Text(kind.to_owned()),
    };
    env.bus_mut().publish(make_event("e1", "report"));
    env.bus_mut().publish(make_event("e2", "boring"));
    let baseline = env.bus().delivered_to(&dn("cn=Wolfgang")).len();
    assert_eq!(env.bus().disturbances_of(&dn("cn=Wolfgang")), 0);

    // Ablate: isolation off → unrelated events arrive and disturb.
    let mut sel = env.transparencies();
    sel.activity = false;
    env.select_transparencies(sel);
    env.bus_mut().publish(make_event("e3", "boring"));
    assert_eq!(
        env.bus().delivered_to(&dn("cn=Wolfgang")).len(),
        baseline + 1
    );
    assert_eq!(env.bus().disturbances_of(&dn("cn=Wolfgang")), 1);
}

#[test]
fn view_transparency_ablation_controls_personal_views() {
    on_both_platforms(view_transparency_ablation_controls_personal_views_scenario);
}

fn view_transparency_ablation_controls_personal_views_scenario(mut env: CscwEnvironment) {
    env.store_object(
        InfoObject::new(
            "doc".into(),
            "document",
            dn("cn=Tom"),
            InfoContent::fields([("title", "Report"), ("budget", "classified")]),
        ),
        None,
        Timestamp::ZERO,
    )
    .unwrap();
    env.repository_mut()
        .access_mut()
        .grant(&"doc".into(), dn("cn=Wolfgang"), AccessRight::Read);
    env.views_mut().set_view(
        dn("cn=Wolfgang"),
        "document",
        View::selecting([("title", "Titel")]),
    );

    let seen = env.read_object(&dn("cn=Wolfgang"), &"doc".into()).unwrap();
    assert_eq!(seen.field("Titel"), Some("Report"));
    assert_eq!(seen.field("budget"), None);

    let mut sel = env.transparencies();
    sel.view = false;
    env.select_transparencies(sel);
    let raw = env.read_object(&dn("cn=Wolfgang"), &"doc".into()).unwrap();
    assert_eq!(
        raw.field("budget"),
        Some("classified"),
        "WYSIWIS mode shows the raw object"
    );
}

#[test]
fn organisation_transparency_bridges_or_blocks_interorg_work() {
    on_both_platforms(organisation_transparency_bridges_or_blocks_interorg_work_scenario);
}

fn organisation_transparency_bridges_or_blocks_interorg_work_scenario(mut env: CscwEnvironment) {
    {
        // Each domain is a unit; its policy is the unit's rules.
        let org = env.org();
        let mut org = org.write();
        for (person, unit) in [("cn=Tom", "lancaster"), ("cn=Wolfgang", "gmd")] {
            let ou = dn(&format!("ou={unit}"));
            org.add_unit(OrgUnit::new(ou.clone(), unit));
            org.relate(&dn(person), RelationKind::MemberOf, &ou)
                .unwrap();
        }
        for (unit, action, target) in [
            ("ou=lancaster", "export", "service:document-store"),
            ("ou=gmd", "import", "*"),
            // The contract: one rule per direction.
            ("ou=gmd", "import-from", "org:lancaster"),
            ("ou=lancaster", "import-from", "org:gmd"),
        ] {
            org.add_rule(OrgRule::new(dn(unit), RuleKind::Permit, action, target));
        }
    }
    // Contracted service: allowed.
    assert!(env
        .check_cooperation(&dn("cn=Wolfgang"), &dn("cn=Tom"), "document-store")
        .is_ok());
    // Unexported service: one IncompatiblePolicies error, no domain
    // details leak to the application.
    let err = env
        .check_cooperation(&dn("cn=Wolfgang"), &dn("cn=Tom"), "video-wall")
        .unwrap_err();
    assert!(matches!(err, MoccaError::IncompatiblePolicies(_)));

    // Ablated: the environment stops checking; the app owns the risk.
    env.select_transparencies(CscwTransparencySelection {
        organisation: false,
        ..CscwTransparencySelection::full()
    });
    assert!(env
        .check_cooperation(&dn("cn=Wolfgang"), &dn("cn=Tom"), "video-wall")
        .is_ok());
}

#[test]
fn expertise_model_routes_work_to_the_right_person() {
    on_both_platforms(expertise_model_routes_work_to_the_right_person_scenario);
}

fn expertise_model_routes_work_to_the_right_person_scenario(mut env: CscwEnvironment) {
    use open_cscw::mocca::expertise::{Capability, Responsibility};
    env.expertise_mut()
        .declare_capability(&dn("cn=Tom"), Capability::new("odp-modelling", 3));
    env.expertise_mut()
        .declare_capability(&dn("cn=Wolfgang"), Capability::new("odp-modelling", 5));
    env.expertise_mut().impose(
        &dn("cn=Wolfgang"),
        Responsibility {
            activity: "amigo".into(),
            duty: "survey group communication".into(),
            imposed_by: dn("cn=coordinator"),
        },
    );
    let ranked = env.expertise().find_capable("odp-modelling", 3);
    assert_eq!(
        ranked[0].0,
        &dn("cn=Wolfgang"),
        "highest level wins despite load"
    );
    assert_eq!(
        env.expertise()
            .duties_in(&dn("cn=Wolfgang"), &"amigo".into())
            .len(),
        1
    );
}

#[test]
fn non_cscw_application_uses_the_environment_too() {
    on_both_platforms(non_cscw_application_scenario);
}

/// §6.2: "even applications which are not typically regarded as CSCW
/// applications, like document processing systems, might use the
/// CSCW environment when they are used in a cooperative context."
fn non_cscw_application_scenario(mut env: CscwEnvironment) {
    env.register_app(
        open_cscw::mocca::env::AppDescriptor {
            id: "wordproc".into(),
            name: "Plain document processor".into(),
            quadrant: open_cscw::mocca::env::Quadrant::SHARED_FACILITY,
            native_format: "wordproc-native".into(),
            kinds: vec!["document".into()],
        },
        open_cscw::mocca::env::FormatMapping::new([("doc_name", "title"), ("doc_text", "body")]),
    );
    env.register_app(descriptor_for("com").unwrap(), mapping_for("com").unwrap());
    let doc = open_cscw::mocca::env::NativeArtifact::new(
        "wordproc".into(),
        "wordproc-native",
        [
            ("doc_name", "Minutes 7 May".to_owned()),
            ("doc_text", "Decisions…".to_owned()),
        ],
    );
    let as_com = env
        .exchange(&dn("cn=Tom"), &doc, &AppId::new("com"), Timestamp::ZERO)
        .unwrap();
    assert_eq!(
        as_com.fields.get("subject").map(String::as_str),
        Some("Minutes 7 May")
    );
}
