//! Allocations per exchange and per gossip period, gated exactly.
//!
//! Allocation counts are deterministic work counters: the same exchanges
//! over the same seeded simulation allocate the same number of times.
//! One test counts the allocations of 100 Figure-4 exchanges over a
//! `SimPlatform` (env → trader import → DSA add → MTA notify, every hop
//! on simnet); another counts the gossip periods of a small federated
//! ring (digest and delta frames, transport notify, replica ingest and
//! the standing-query feed); a third counts standing-query deltas over a
//! knowledge DIT (directory modify, registry apply, delta drain). All
//! measure once the bounded telemetry stores are full, as they are in
//! any long run, and pin the total. A change that makes any of these
//! paths copy more — or less — moves its count and fails here.
//!
//! The counter is a std-only global allocator with a thread-local tally,
//! so allocations on the test harness's other threads never leak into
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use open_cscw::directory::{Attribute, Dn, Entry};
use open_cscw::groupware::{descriptor_for, mapping_for, sample_artifact, APP_POPULATION};
use open_cscw::kernel::{SeededRng, Telemetry, Timestamp};
use open_cscw::mocca::env::AppId;
use open_cscw::mocca::federation::DEFAULT_GOSSIP_PERIOD_MICROS;
use open_cscw::mocca::info::{InfoContent, InfoObject, InfoObjectId};
use open_cscw::mocca::org::Person;
use open_cscw::mocca::{
    CscwEnvironment, FederatedEnvironments, LocalPlatform, Platform, SimPlatform,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls made on the
/// current thread, then forwards to [`System`].
struct Counting;

fn count() {
    // `try_with`: the tally may already be gone during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` requirements; the
// tally is a plain thread-local cell and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's `realloc` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Records kept by each bounded telemetry store, as in long benchmark
/// runs: once full, every further event and span is dropped.
const STORE_RECORDS: usize = 256;
const PEOPLE: usize = 8;
const EXCHANGES: u64 = 100;

/// Allocations made by [`EXCHANGES`] exchanges in the debug profile
/// `cargo test` builds. To re-pin after a deliberate change, run
/// `cargo test --test exchange_allocations` and copy the measured total
/// from the failure message.
const PINNED_ALLOCS: u64 = 11_553;

/// The `i`-th exchange: source app, destination app, sharer.
fn pick(i: u64) -> (usize, usize, usize) {
    let from = (i % 5) as usize;
    let to = (from + 1 + (i / 5 % 4) as usize) % 5;
    (from, to, (i % PEOPLE as u64) as usize)
}

#[test]
fn exchange_allocations_are_pinned() {
    let sim = SimPlatform::new(7);
    sim.telemetry().set_event_capacity(STORE_RECORDS);
    sim.telemetry().set_span_capacity(STORE_RECORDS);
    let mut env = CscwEnvironment::with_platform(Box::new(sim));
    let mut artifacts = Vec::new();
    for app in APP_POPULATION {
        env.register_app(descriptor_for(app).unwrap(), mapping_for(app).unwrap());
        artifacts.push(sample_artifact(app).unwrap());
    }
    let apps: Vec<AppId> = APP_POPULATION.iter().map(|a| AppId::new(*a)).collect();
    let people: Vec<Dn> = (0..PEOPLE)
        .map(|i| format!("c=UK,o=org,cn=person{i}").parse().unwrap())
        .collect();
    for (i, dn) in people.iter().enumerate() {
        env.org()
            .write()
            .add_person(Person::new(dn.clone(), format!("Person {i}")));
    }
    env.publish_knowledge().unwrap();

    let exchange = |env: &mut CscwEnvironment, i: u64| {
        let (from, to, who) = pick(i);
        let at = Timestamp::from_micros(env.platform().clock().now_micros());
        env.exchange(&people[who], &artifacts[from], &apps[to], at)
            .unwrap();
    };
    // Warm up until both bounded stores are full and dropping.
    let mut i = 0;
    while env.telemetry().dropped_events() == 0 || env.telemetry().dropped_spans() == 0 {
        exchange(&mut env, i);
        i += 1;
    }
    let before = allocs();
    for n in 0..EXCHANGES {
        exchange(&mut env, i + n);
    }
    let measured = allocs() - before;
    assert_eq!(
        measured,
        PINNED_ALLOCS,
        "{EXCHANGES} exchanges allocated {measured} times, pinned {PINNED_ALLOCS} \
         ({:.1} per exchange). If the change is deliberate, re-pin \
         PINNED_ALLOCS in tests/exchange_allocations.rs to {measured}.",
        measured as f64 / EXCHANGES as f64
    );
}

/// Sites in the gossip ring.
const SITES: usize = 4;
/// Gossip periods counted.
const PERIODS: u64 = 20;

/// Allocations made by [`PERIODS`] gossip periods of the ring in the
/// debug profile. Re-pin as for [`PINNED_ALLOCS`].
const PINNED_GOSSIP_ALLOCS: u64 = 1_423;

fn bound(t: &Telemetry) {
    t.set_event_capacity(STORE_RECORDS);
    t.set_span_capacity(STORE_RECORDS);
}

/// Full and dropping: every kind of record the stream keeps has
/// overflowed its bound at least once.
fn saturated(t: &Telemetry) -> bool {
    (t.events().is_empty() || t.dropped_events() > 0)
        && (t.spans().is_empty() || t.dropped_spans() > 0)
}

#[test]
fn gossip_allocations_are_pinned() {
    let mut fed = FederatedEnvironments::new();
    bound(&fed.fabric().telemetry());
    let domains: Vec<String> = (0..SITES).map(|i| format!("site-{i}")).collect();
    for domain in &domains {
        let platform = LocalPlatform::new();
        bound(platform.telemetry());
        let mut env = CscwEnvironment::with_platform(Box::new(platform));
        env.subscribe(r#"from knowledge key prefix "info:""#)
            .unwrap();
        fed.federate(domain.clone(), env);
    }
    for i in 0..SITES {
        fed.link_bidi(&domains[i], &domains[(i + 1) % SITES]);
    }
    let owner: Dn = "cn=Tom".parse().unwrap();
    // One period: site `n % SITES` stores an object, then the ring
    // gossips for one period. Only the run itself is counted; the
    // write and the delta drain around it are not.
    let period = |fed: &mut FederatedEnvironments, n: u64| {
        let site = &domains[n as usize % SITES];
        let object = InfoObject::new(
            InfoObjectId::new(format!("u{n}")),
            "note",
            owner.clone(),
            InfoContent::Text(format!("update {n} from {site}")),
        );
        let env = fed.env_mut(site).unwrap();
        env.store_object(object, None, Timestamp::ZERO).unwrap();
        let before = allocs();
        fed.run_for(DEFAULT_GOSSIP_PERIOD_MICROS, 1).unwrap();
        let counted = allocs() - before;
        for domain in &domains {
            fed.env_mut(domain).unwrap().take_query_deltas();
        }
        counted
    };
    // Warm up until every bounded store is full and dropping.
    let mut n = 0;
    loop {
        let streams = std::iter::once(fed.fabric().telemetry()).chain(
            domains
                .iter()
                .map(|d| fed.env(d).unwrap().telemetry().clone()),
        );
        if streams.collect::<Vec<_>>().iter().all(saturated) {
            break;
        }
        period(&mut fed, n);
        n += 1;
    }
    let measured: u64 = (0..PERIODS).map(|i| period(&mut fed, n + i)).sum();
    assert!(fed.run_until_converged(1, 60_000_000).unwrap().converged);
    assert_eq!(
        measured,
        PINNED_GOSSIP_ALLOCS,
        "{PERIODS} gossip periods allocated {measured} times, pinned \
         {PINNED_GOSSIP_ALLOCS} ({:.1} per period). If the change is deliberate, \
         re-pin PINNED_GOSSIP_ALLOCS in tests/exchange_allocations.rs to {measured}.",
        measured as f64 / PERIODS as f64
    );
}

/// People in the awareness DIT, spread over [`ORGS`] organisations.
const AWARE_PEOPLE: u64 = 500;
const ORGS: u64 = 10;
/// Projects, every other one active.
const PROJECTS: u64 = 8;
/// Awareness operations counted.
const AWARE_OPS: u64 = 200;

/// Allocations made by [`AWARE_OPS`] awareness operations in the debug
/// profile. Re-pin as for [`PINNED_ALLOCS`].
const PINNED_AWARENESS_ALLOCS: u64 = 1_946;

/// The standing-query panel: attribute filter, edge literal, one-hop
/// join.
const PANEL: [&str; 3] = [
    r#"class = person and sn = "Surname7""#,
    r#"class = person and occupies "cn=coordinator""#,
    r#"class = person and works-on (projectstate = active)"#,
];

fn project_dn(j: u64) -> String {
    format!("c=UK,cn=proj{j}")
}

/// A knowledge DIT of [`AWARE_PEOPLE`] people and [`PROJECTS`]
/// projects; returns the people's DNs.
fn populate_awareness(env: &mut CscwEnvironment) -> Vec<Dn> {
    let dit = env.knowledge_mut().dit_mut();
    dit.add(
        Entry::new("c=UK".parse().unwrap())
            .with_class("country")
            .with_attr(Attribute::single("c", "UK")),
    )
    .unwrap();
    for o in 0..ORGS {
        dit.add(
            Entry::new(format!("c=UK,o=org{o}").parse().unwrap())
                .with_class("organization")
                .with_attr(Attribute::single("o", format!("org{o}"))),
        )
        .unwrap();
    }
    for j in 0..PROJECTS {
        let state = if j % 2 == 0 { "active" } else { "dormant" };
        dit.add(
            Entry::new(project_dn(j).parse().unwrap())
                .with_class("cscwproject")
                .with_attr(Attribute::single("cn", format!("proj{j}")))
                .with_attr(Attribute::single("projectstate", state)),
        )
        .unwrap();
    }
    (0..AWARE_PEOPLE)
        .map(|i| {
            let dn: Dn = format!("c=UK,o=org{},cn=person{i}", i % ORGS)
                .parse()
                .unwrap();
            let mut e = Entry::new(dn.clone())
                .with_class("person")
                .with_attr(Attribute::single("cn", format!("person{i}")))
                .with_attr(Attribute::single("sn", format!("Surname{}", i % 50)));
            if i % 3 == 0 {
                e.put_attr(Attribute::single("occupiesrole", "cn=coordinator"));
            }
            if i % 2 == 0 {
                e.put_attr(Attribute::single("workson", project_dn(i % PROJECTS)));
            }
            dit.add(e).unwrap();
            dn
        })
        .collect()
}

/// One awareness operation: a seeded modify (surname rewrite,
/// coordinator toggle or project move), then the query pump and the
/// delta drain.
fn awareness_op(env: &mut CscwEnvironment, people: &[Dn], rng: &mut SeededRng) {
    let person = &people[rng.below(AWARE_PEOPLE) as usize];
    let kind = rng.below(3);
    let value = rng.below(50);
    let dit = env.knowledge_mut().dit_mut();
    match kind {
        0 => dit.modify(person, |e| {
            e.replace_attr(Attribute::single("sn", format!("Surname{value}")));
        }),
        1 => {
            let occupied = dit
                .get(person)
                .is_some_and(|e| e.attr("occupiesrole").is_some());
            dit.modify(person, |e| {
                if occupied {
                    e.remove_attr(&"occupiesrole".into());
                } else {
                    e.put_attr(Attribute::single("occupiesrole", "cn=coordinator"));
                }
            })
        }
        _ => dit.modify(person, |e| {
            e.replace_attr(Attribute::single("workson", project_dn(value % PROJECTS)));
        }),
    }
    .unwrap();
    env.pump_queries().unwrap();
    env.take_query_deltas();
}

#[test]
fn awareness_allocations_are_pinned() {
    let platform = LocalPlatform::new();
    bound(platform.telemetry());
    let mut env = CscwEnvironment::with_platform(Box::new(platform));
    let people = populate_awareness(&mut env);
    for src in PANEL {
        env.subscribe(src).unwrap();
    }
    env.take_query_deltas();
    let mut rng = SeededRng::seed_from(2);
    // Warm up until both bounded stores are full and dropping.
    while env.telemetry().dropped_events() == 0 || env.telemetry().dropped_spans() == 0 {
        awareness_op(&mut env, &people, &mut rng);
    }
    let before = allocs();
    for _ in 0..AWARE_OPS {
        awareness_op(&mut env, &people, &mut rng);
    }
    let measured = allocs() - before;
    assert_eq!(env.queries().rescans(), 0);
    assert_eq!(
        measured,
        PINNED_AWARENESS_ALLOCS,
        "{AWARE_OPS} awareness operations allocated {measured} times, pinned \
         {PINNED_AWARENESS_ALLOCS} ({:.1} per operation). If the change is deliberate, \
         re-pin PINNED_AWARENESS_ALLOCS in tests/exchange_allocations.rs to {measured}.",
        measured as f64 / AWARE_OPS as f64
    );
}
