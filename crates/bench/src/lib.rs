//! The experiment harness: shared world-builders, the experiment
//! modules and the one report writer behind every committed
//! `BENCH_*.json`.
//!
//! [`paper`] holds the paper's figure and requirement experiments;
//! [`fed_scale`], [`net_congestion`] and [`query_scale`] the scale and
//! congestion sweeps. Each records its results as `cell!` types and
//! declares the claims its report must hold ([`report`]).
//!
//! The builders are fallible: addresses and names are parsed and tree
//! insertions validated, so a typo in a fixture surfaces as a
//! classified layer error at the bench harness instead of a panic
//! inside library code.

#![forbid(unsafe_code)]

pub mod fed_scale;
pub mod net_congestion;
pub mod paper;
pub mod query_scale;
pub mod report;

pub use report::Report;

use cscw_directory::{Attribute, DirectoryError, Dit, Entry};
use cscw_messaging::{MtaNode, MtsError, OrAddress, UserAgent};
use groupware::{descriptor_for, mapping_for, GroupwareError};
use mocca::CscwEnvironment;
use simnet::{LinkSpec, Sim, TopologyBuilder};

/// A two-MTA mail world: `(sim, sender agent, receiver agent)`.
///
/// # Errors
///
/// [`MtsError`] if either fixture O/R address fails to parse.
pub fn mail_world(seed: u64) -> Result<(Sim, UserAgent, UserAgent), MtsError> {
    let mut b = TopologyBuilder::new();
    let a_ws = b.add_node("a-ws");
    let b_ws = b.add_node("b-ws");
    let mta_a = b.add_node("mta-a");
    let mta_b = b.add_node("mta-b");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), seed);

    let a_addr: OrAddress = "C=UK;O=Lancaster;PN=A".parse()?;
    let b_addr: OrAddress = "C=DE;O=GMD;PN=B".parse()?;
    let mut a = MtaNode::new("mta-a");
    a.register_mailbox(a_addr.clone());
    a.routing_mut().add_country_route("DE", mta_b);
    let mut m_b = MtaNode::new("mta-b");
    m_b.register_mailbox(b_addr.clone());
    m_b.routing_mut().add_country_route("UK", mta_a);
    sim.register(mta_a, a);
    sim.register(mta_b, m_b);

    Ok((
        sim,
        UserAgent::new(a_addr, a_ws, mta_a),
        UserAgent::new(b_addr, b_ws, mta_b),
    ))
}

/// A DIT populated with `n` person entries under `orgs` organisations.
///
/// # Errors
///
/// [`DirectoryError`] if a generated name fails to parse or an entry
/// cannot be inserted (e.g. a duplicate).
pub fn populated_dit(n: usize, orgs: usize) -> Result<Dit, DirectoryError> {
    let mut dit = Dit::new();
    dit.add(
        Entry::new("c=UK".parse()?)
            .with_class("country")
            .with_attr(Attribute::single("c", "UK")),
    )?;
    for o in 0..orgs {
        dit.add(
            Entry::new(format!("c=UK,o=org{o}").parse()?)
                .with_class("organization")
                .with_attr(Attribute::single("o", format!("org{o}"))),
        )?;
    }
    for i in 0..n {
        let o = i % orgs;
        let mut e = Entry::new(format!("c=UK,o=org{o},cn=person{i}").parse()?)
            .with_class("person")
            .with_attr(Attribute::single("cn", format!("person{i}")))
            .with_attr(Attribute::single("sn", format!("Surname{}", i % 50)))
            .with_attr(Attribute::single("capabilitylevel", (i % 5) as i64 + 1));
        if i % 3 == 0 {
            e.put_attr(Attribute::single("occupiesrole", "cn=coordinator"));
        }
        dit.add(e)?;
    }
    Ok(dit)
}

/// An environment with `apps` registered
/// (`&groupware::APP_POPULATION` for the full five-app population).
///
/// # Errors
///
/// [`GroupwareError::UnknownApp`] if an app has no descriptor or
/// mapping.
pub fn population_env(apps: &[&str]) -> Result<CscwEnvironment, GroupwareError> {
    let mut env = CscwEnvironment::new();
    for app in apps {
        env.register_app(descriptor_for(app)?, mapping_for(app)?);
    }
    Ok(env)
}
