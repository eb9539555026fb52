//! Integration: the MOCCA knowledge base over a distributed, replicated
//! X.500 directory, with chaining across DSAs and partition failover.

use open_cscw::directory::{
    Attribute, DirectoryError, Dn, DsaNode, Dua, DuaNode, Entry, Filter, SearchRequest, SearchScope,
};
use open_cscw::kernel::Layer;
use open_cscw::mocca::org::{KnowledgeBase, OrganisationalModel, Person, RelationKind, Role};
use open_cscw::simnet::{FaultAction, LinkSpec, NodeId, Sim, TopologyBuilder};

fn dn(s: &str) -> Dn {
    s.parse().unwrap()
}

struct World {
    sim: Sim,
    dua: Dua,
    dsa_uk: NodeId,
    dsa_de: NodeId,
    shadow: NodeId,
}

/// Three DSAs: UK master, DE master, plus a shadow of the UK context.
fn world() -> World {
    let mut b = TopologyBuilder::new();
    let client = b.add_node("client");
    let dsa_uk = b.add_node("dsa-uk");
    let dsa_de = b.add_node("dsa-de");
    let shadow = b.add_node("dsa-uk-shadow");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), 61);

    let uk = dn("c=UK");
    let de = dn("c=DE");

    let mut uk_dsa = DsaNode::new([uk.clone()]);
    uk_dsa.add_knowledge(de.clone(), dsa_de);
    uk_dsa.add_shadow(shadow);
    uk_dsa
        .dit_mut()
        .add(
            Entry::new(uk.clone())
                .with_class("country")
                .with_attr(Attribute::single("c", "UK")),
        )
        .unwrap();

    let mut de_dsa = DsaNode::new([de.clone()]);
    de_dsa.add_knowledge(uk.clone(), dsa_uk);
    de_dsa
        .dit_mut()
        .add(
            Entry::new(de)
                .with_class("country")
                .with_attr(Attribute::single("c", "DE")),
        )
        .unwrap();

    let mut shadow_dsa = DsaNode::new([]);
    shadow_dsa.add_shadowed_context(uk.clone());
    shadow_dsa
        .dit_mut()
        .add(
            Entry::new(uk)
                .with_class("country")
                .with_attr(Attribute::single("c", "UK")),
        )
        .unwrap();

    sim.register(dsa_uk, uk_dsa);
    sim.register(dsa_de, de_dsa);
    sim.register(shadow, shadow_dsa);
    sim.register(client, DuaNode::default());

    World {
        sim,
        dua: Dua::new(client, dsa_uk),
        dsa_uk,
        dsa_de,
        shadow,
    }
}

/// The Lancaster + GMD organisational model of the paper's authors.
fn org_model() -> OrganisationalModel {
    let mut m = OrganisationalModel::new();
    m.add_person(Person::new(
        dn("c=UK,o=Lancaster,cn=Tom Rodden"),
        "Tom Rodden",
    ));
    m.add_person(Person::new(
        dn("c=DE,o=GMD,cn=Wolfgang Prinz"),
        "Wolfgang Prinz",
    ));
    m.add_role(Role::new(dn("c=UK,cn=coordinator"), "coordinator"));
    m.relate(
        &dn("c=UK,o=Lancaster,cn=Tom Rodden"),
        RelationKind::Occupies,
        &dn("c=UK,cn=coordinator"),
    )
    .unwrap();
    m
}

#[test]
fn knowledge_base_publishes_to_distributed_directory() {
    let mut w = world();
    let mut kb = KnowledgeBase::new();
    kb.publish(&org_model()).unwrap();

    // Push into the distributed directory; entries route by context.
    let pushed = kb.push_to_dsa(&mut w.sim, &mut w.dua).unwrap();
    assert!(
        pushed >= 4,
        "two people plus fabricated ancestors, got {pushed}"
    );

    // Tom is found at the UK DSA...
    let tom = w
        .dua
        .read(&mut w.sim, dn("c=UK,o=Lancaster,cn=Tom Rodden"))
        .unwrap();
    assert_eq!(tom.first_text("cn"), Some("Tom Rodden"));
    // ...and Wolfgang's entry was chained to the DE DSA.
    let wolfgang = w
        .dua
        .read(&mut w.sim, dn("c=DE,o=GMD,cn=Wolfgang Prinz"))
        .unwrap();
    assert!(wolfgang.has_class("person"));
    assert!(
        w.sim.telemetry().counter(Layer::Directory, "dsa.chain") > 0,
        "DE entries travelled by chaining"
    );
}

#[test]
fn remote_people_query_by_role_attribute() {
    let mut w = world();
    let mut kb = KnowledgeBase::new();
    kb.publish(&org_model()).unwrap();
    kb.push_to_dsa(&mut w.sim, &mut w.dua).unwrap();

    let coordinators = KnowledgeBase::find_people_remote(
        &mut w.sim,
        &mut w.dua,
        dn("c=UK"),
        Filter::eq("occupiesrole", "c=UK,cn=coordinator"),
    )
    .unwrap();
    assert_eq!(coordinators.len(), 1);
    assert_eq!(coordinators[0].first_text("cn"), Some("Tom Rodden"));
}

#[test]
fn shadow_serves_reads_when_master_is_partitioned() {
    let mut w = world();
    let mut kb = KnowledgeBase::new();
    kb.publish(&org_model()).unwrap();
    kb.push_to_dsa(&mut w.sim, &mut w.dua).unwrap();

    // Cut the client off from the UK master; the shadow still answers.
    let client = w.dua.client();
    w.sim
        .apply_fault(FaultAction::Partition(vec![client], vec![w.dsa_uk]));
    assert!(matches!(
        w.dua.read(&mut w.sim, dn("c=UK,o=Lancaster,cn=Tom Rodden")),
        Err(DirectoryError::Unavailable(_))
    ));

    let mut shadow_dua = Dua::new(client, w.shadow);
    let tom = shadow_dua
        .read(&mut w.sim, dn("c=UK,o=Lancaster,cn=Tom Rodden"))
        .unwrap();
    assert_eq!(
        tom.first_text("cn"),
        Some("Tom Rodden"),
        "replication kept the shadow current"
    );

    // But the shadow refuses writes: the primary-copy discipline.
    let err = shadow_dua
        .add(
            &mut w.sim,
            Entry::new(dn("c=UK,o=Oxford"))
                .with_class("organization")
                .with_attr(Attribute::single("o", "Oxford")),
        )
        .unwrap_err();
    assert!(matches!(err, DirectoryError::NotMaster(_)));
}

#[test]
fn crashed_master_recovers_and_serves_again() {
    let mut w = world();
    let mut kb = KnowledgeBase::new();
    kb.publish(&org_model()).unwrap();
    kb.push_to_dsa(&mut w.sim, &mut w.dua).unwrap();

    w.sim.apply_fault(FaultAction::Crash(w.dsa_de));
    assert!(w
        .dua
        .read(&mut w.sim, dn("c=DE,o=GMD,cn=Wolfgang Prinz"))
        .is_err());

    w.sim.apply_fault(FaultAction::Restart(w.dsa_de));
    let wolfgang = w
        .dua
        .read(&mut w.sim, dn("c=DE,o=GMD,cn=Wolfgang Prinz"))
        .unwrap();
    assert_eq!(wolfgang.first_text("cn"), Some("Wolfgang Prinz"));
}

#[test]
fn subtree_search_spans_contexts() {
    let mut w = world();
    let mut kb = KnowledgeBase::new();
    kb.publish(&org_model()).unwrap();
    kb.push_to_dsa(&mut w.sim, &mut w.dua).unwrap();

    // A UK-subtree search answered at the UK DSA.
    let out = w
        .dua
        .search(
            &mut w.sim,
            SearchRequest::new(
                dn("c=UK"),
                SearchScope::Subtree,
                Filter::eq("objectclass", "person"),
            ),
        )
        .unwrap();
    assert_eq!(out.entries.len(), 1);
    // A DE-base search transparently routed to the DE DSA.
    let out = w
        .dua
        .search(
            &mut w.sim,
            SearchRequest::new(
                dn("c=DE"),
                SearchScope::Subtree,
                Filter::eq("objectclass", "person"),
            ),
        )
        .unwrap();
    assert_eq!(out.entries.len(), 1);
    assert_eq!(out.entries[0].first_text("sn"), Some("Prinz"));
}

#[test]
fn remote_modify_updates_attributes_in_place() {
    use open_cscw::directory::{Attribute, Modification};
    let mut w = world();
    let mut kb = KnowledgeBase::new();
    kb.publish(&org_model()).unwrap();
    kb.push_to_dsa(&mut w.sim, &mut w.dua).unwrap();

    let tom = dn("c=UK,o=Lancaster,cn=Tom Rodden");
    w.dua
        .modify(
            &mut w.sim,
            tom.clone(),
            vec![
                Modification::Put(Attribute::single("telephonenumber", "+44 524 65201")),
                Modification::Replace(Attribute::single("sn", "Rodden")),
            ],
        )
        .unwrap();
    let entry = w.dua.read(&mut w.sim, tom.clone()).unwrap();
    assert_eq!(entry.first_text("telephonenumber"), Some("+44 524 65201"));

    // A modification that breaks the schema is rolled back remotely.
    let err = w
        .dua
        .modify(
            &mut w.sim,
            tom.clone(),
            vec![Modification::RemoveAttr("sn".into())],
        )
        .unwrap_err();
    assert!(matches!(err, DirectoryError::SchemaViolation { .. }));
    let entry = w.dua.read(&mut w.sim, tom).unwrap();
    assert_eq!(
        entry.first_text("sn"),
        Some("Rodden"),
        "rollback preserved the entry"
    );
}
