//! Allocations per exchange, gated exactly.
//!
//! Allocation counts are deterministic work counters: the same exchanges
//! over the same seeded simulation allocate the same number of times.
//! This test counts the allocations of 100 Figure-4 exchanges over a
//! `SimPlatform` (env → trader import → DSA add → MTA notify, every hop
//! on simnet) once the bounded telemetry stores are full, as they are in
//! any long run, and pins the total. A change that makes the exchange
//! path copy more — or less — moves the count and fails here.
//!
//! The counter is a std-only global allocator with a thread-local tally,
//! so allocations on the test harness's other threads never leak into
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use open_cscw::directory::Dn;
use open_cscw::groupware::{descriptor_for, mapping_for, sample_artifact, APP_POPULATION};
use open_cscw::kernel::Timestamp;
use open_cscw::mocca::env::AppId;
use open_cscw::mocca::org::Person;
use open_cscw::mocca::{CscwEnvironment, Platform, SimPlatform};

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
const PINNED_ALLOCS: u64 = 13_351;

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
