//! perfbench — end-to-end and per-layer benchmark of the Figure-4 stack.
//!
//! ```text
//! perfbench --workload <stack_exchange|awareness|federation> --seed <n>
//!           --seconds <s> --trace <0|1> [--ops <n>]
//! ```
//!
//! One run is ten rounds. Each builds a fresh world (the median build
//! time is `setup_s`) with small telemetry stores, warms up until every
//! store overflows, then measures for a tenth of `--seconds` (`--ops`
//! runs one round of exactly that many operations). `ops_per_s`, `p50_us`
//! and `p90_us` are medians over equal batches of the timed phase. The
//! first `window_ops` timed operations form a fixed count window: the
//! deterministic figures (simulated latencies, wire bytes, peak heap,
//! per-layer counts) are read over it, so the same seed replays them
//! exactly. The last stdout line is the JSON result; the lines before
//! it are a human summary and a `det:` line of deterministic figures.
//!
//! With `--trace 1` the workloads time the calls into each layer from
//! outside (and `stack_exchange` installs a timing platform wrapper).
//! Batches alternate between probes on and off, so the traced run also
//! reports the probes' own overhead.

mod alloc;
mod awareness;
mod federation;
mod probe;
mod stack_exchange;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cscw_kernel::{SpanId, Telemetry};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

thread_local! {
    static PROBES_ON: Cell<bool> = const { Cell::new(false) };
}

/// Whether per-layer probes time the current operation.
pub fn probes_on() -> bool {
    PROBES_ON.with(Cell::get)
}

/// A named measurement with its unit.
pub type Metric = (&'static str, &'static str, f64);

/// Result type of workload operations: failures carry a message.
pub type OpResult = Result<(), String>;

/// Fixed sizes of one workload's rounds, chosen so that batches are
/// equal and the count window always fits in the first round.
pub struct Plan {
    /// Least untimed operations before measuring.
    pub warmup_ops: u64,
    /// Operations in the deterministic count window.
    pub window_ops: u64,
    /// Operations per `ops_per_s` batch.
    pub batch: u64,
}

/// One benchmark workload over one built world.
pub trait Workload {
    /// Runs one operation.
    fn op(&mut self) -> OpResult;
    /// Every telemetry stream the operations touch.
    fn streams(&self) -> Vec<Telemetry>;
    /// Starts the count window.
    fn window_start(&mut self);
    /// Deterministic figures over the `ops` window operations.
    fn window_end(&mut self, ops: u64) -> Vec<Metric>;
    /// Per-layer times (mean µs per op over probed operations; probes
    /// are off outside the timed phase).
    fn layer_times(&self) -> Vec<Metric>;
    /// Final correctness checks; each entry is one failure.
    fn check(&mut self) -> Vec<String>;
    /// Digest of the generated operation stream so far.
    fn stream_digest(&self) -> u64;
}

/// Accumulates probed nanoseconds for one layer.
#[derive(Default, Clone, Copy)]
pub struct Acc {
    ns: u128,
    n: u64,
}

impl Acc {
    /// Adds one probed interval.
    pub fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos();
        self.n += 1;
    }

    /// Mean µs per sample (0 when never probed).
    pub fn mean_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64 / 1e3
        }
    }
}

/// Times `f` when probes are on.
pub fn probe<T>(acc: &mut Acc, f: impl FnOnce() -> T) -> T {
    if !probes_on() {
        return f();
    }
    let t = Instant::now();
    let out = f();
    acc.add(t.elapsed());
    out
}

/// Renders an error for the harness's string-typed failures.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// SplitMix64: the seeded input generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and one input stream `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a step: folds `v` into the running digest `h`.
pub fn fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV: u64 = 0xcbf2_9ce4_8422_2325;

/// Exact quantile by nearest rank over a sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Per-batch summaries of the timed phase. Each equal batch gives its
/// op rate and its latency p50 and p90; a run reports the median over
/// batches, so a burst of outside load that spans a few batches does
/// not move the result.
struct Batches {
    rate: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
}

impl Batches {
    fn with_capacity(n: usize) -> Self {
        Batches {
            rate: Vec::with_capacity(n),
            p50: Vec::with_capacity(n),
            p90: Vec::with_capacity(n),
        }
    }

    /// Closes a batch of per-op latencies (µs) that took `secs`.
    fn push(&mut self, lat: &mut Vec<f64>, secs: f64) {
        self.rate.push(lat.len() as f64 / secs);
        lat.sort_by(f64::total_cmp);
        self.p50.push(quantile(lat, 0.5));
        self.p90.push(quantile(lat, 0.9));
        lat.clear();
    }
}

/// Telemetry totals that only move forward, for per-window deltas.
struct Marks {
    spans_minted: u64,
    spans_dropped: u64,
    events: u64,
}

fn marks(streams: &[Telemetry]) -> Marks {
    let spans_dropped = streams.iter().map(Telemetry::dropped_spans).sum();
    let events = streams
        .iter()
        .map(|t| t.events().len() as u64 + t.dropped_events())
        .sum();
    Marks {
        // Minting reads the process-wide span counter (and moves it by
        // one, which the delta subtracts).
        spans_minted: SpanId::mint().as_u64(),
        spans_dropped,
        events,
    }
}

/// Span and event records each telemetry stream keeps (the program's
/// default is 16 384). Once a span store is full, every span close scans
/// all of it. At the default size that is 1.3 MB per close: it made
/// every workload memory-bound, and identical runs on a shared 2-core
/// host then drifted by 15-45 %. At this size every stream still fills
/// during warm-up, so each close pays the full-store scan, but the scan
/// stays in cache.
pub const STORE_RECORDS: usize = 256;

/// Bounds a stream's span and event stores to [`STORE_RECORDS`]. Call it
/// before building the world on the stream.
pub fn bound_stores(t: &Telemetry) {
    t.set_span_capacity(STORE_RECORDS);
    t.set_event_capacity(STORE_RECORDS);
}

/// Whether every store that has recorded anything is full and dropping.
/// (The federation fabric's stream records spans but no events.)
fn saturated(streams: &[Telemetry]) -> bool {
    streams.iter().all(|t| {
        (t.dropped_spans() > 0 || t.spans().is_empty())
            && (t.dropped_events() > 0 || t.events().is_empty())
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ops: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_owned();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let num =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    let args = Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        ops: kv.contains_key("ops").then(|| num("ops")).transpose()?,
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "ops"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

type BuildFn = fn(u64, bool) -> Result<Box<dyn Workload>, String>;

fn workload(name: &str) -> Option<(Plan, BuildFn)> {
    match name {
        "stack_exchange" => Some((stack_exchange::PLAN, stack_exchange::build)),
        "awareness" => Some((awareness::PLAN, awareness::build)),
        "federation" => Some((federation::PLAN, federation::build)),
        _ => None,
    }
}

/// Every per-layer metric name with its unit, in report order. A
/// workload that does not run a layer reports that layer's figures
/// as 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("p90_us", "us"),
    ("sim_p50_ms", "sim_ms"),
    ("sim_p90_ms", "sim_ms"),
    ("wire_bytes_per_op", "B"),
    ("trace.overhead_us", "us"),
    ("mocca.exchange_us", "us"),
    ("mocca.exchange_self_us", "us"),
    ("odp.import_us", "us"),
    ("directory.apply_us", "us"),
    ("messaging.notify_us", "us"),
    ("odp.offers_per_import", "count"),
    ("simnet.msgs_per_op", "count"),
    ("directory.modify_us", "us"),
    ("query.pump_us", "us"),
    ("query.evals_per_op", "count"),
    ("query.useful_ratio", "ratio"),
    ("query.rescans", "count"),
    ("mocca.store_object_us", "us"),
    ("federation.remote_exchange_us", "us"),
    ("federation.run_for_us", "us"),
    ("federation.applies_per_update", "count"),
    ("federation.bytes_per_apply", "B"),
    ("federation.links_walked_per_update", "count"),
    ("federation.resolve_cache_ratio", "ratio"),
    ("query.replicated_deltas_per_update", "count"),
    ("kernel.spans_per_op", "count"),
    ("kernel.events_per_op", "count"),
    ("kernel.spans_dropped", "count"),
    ("kernel.allocs_per_op", "count"),
];

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Rounds per run. Each round builds a fresh world, so a run samples
/// several heap layouts and stretches of outside load instead of one;
/// it also bounds memory, since worlds grow with every operation.
const ROUNDS: usize = 10;

/// What one run keeps across its rounds.
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    setup: Vec<f64>,
    probed: Batches,
    plain: Batches,
    layer_times: BTreeMap<&'static str, Vec<f64>>,
    det: Vec<Metric>,
    peak_heap: u64,
    warmup: u64,
    timed: u64,
    digest: u64,
}

impl Tally {
    fn step(&mut self, w: &mut Box<dyn Workload>) {
        self.attempted += 1;
        if let Err(e) = w.op() {
            // Keep a few messages; count every failure.
            let keep = self.failures.len() < 8;
            self.failures.push(if keep { e } else { String::new() });
        }
    }
}

/// One round: build (timed for `setup_s`), warm up, then time
/// operations for `budget`. The first round also reads the
/// deterministic figures over its count window.
fn round(
    args: &Args,
    plan: &Plan,
    build: BuildFn,
    first: bool,
    budget: Duration,
    tally: &mut Tally,
    lat: &mut Vec<f64>,
) -> Result<(), String> {
    let window_ops = args.ops.map_or(plan.window_ops, |n| n.min(plan.window_ops));
    let heap_base = alloc::peak_bytes();
    let t = Instant::now();
    let mut w = build(args.seed, args.trace)?;
    tally.setup.push(t.elapsed().as_secs_f64());
    let streams = w.streams();
    // Warm up at least `warmup_ops`, and on until every store overflows
    // (the full-store regime), within four times that.
    let mut warmup = 0;
    while warmup < plan.warmup_ops || (warmup < 4 * plan.warmup_ops && !saturated(&streams)) {
        tally.step(&mut w);
        warmup += 1;
    }
    if first {
        tally.warmup = warmup;
    }

    let drops_before: Vec<(u64, u64)> = streams
        .iter()
        .map(|t| (t.dropped_spans(), t.dropped_events()))
        .collect();
    // Only the first round reads the count window.
    let window_start = first.then(|| {
        let m = marks(&streams);
        w.window_start();
        (m, alloc::allocs())
    });
    let started = Instant::now();
    let mut timed = 0u64;
    let mut batch_start = started;
    loop {
        // Traced runs alternate probed and plain batches.
        let on = args.trace && (timed / plan.batch).is_multiple_of(2);
        PROBES_ON.with(|c| c.set(on));
        let t = Instant::now();
        tally.step(&mut w);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        timed += 1;
        if timed.is_multiple_of(plan.batch) {
            let secs = batch_start.elapsed().as_secs_f64();
            let batches = if args.trace && !on {
                &mut tally.plain
            } else {
                &mut tally.probed
            };
            batches.push(lat, secs);
            batch_start = Instant::now();
        }
        if let Some((start_marks, start_allocs)) =
            window_start.as_ref().filter(|_| timed == window_ops)
        {
            let allocs = alloc::allocs() - start_allocs;
            tally.peak_heap = alloc::peak_bytes() - heap_base;
            let end = marks(&streams);
            let ops = timed as f64;
            let per_op = |n: u64| n as f64 / ops;
            tally.det = w.window_end(timed);
            tally.det.extend([
                ("kernel.allocs_per_op", "count", per_op(allocs)),
                (
                    "kernel.spans_per_op",
                    "count",
                    per_op(end.spans_minted - start_marks.spans_minted - 1),
                ),
                (
                    "kernel.events_per_op",
                    "count",
                    per_op(end.events - start_marks.events),
                ),
                (
                    "kernel.spans_dropped",
                    "count",
                    per_op(end.spans_dropped - start_marks.spans_dropped),
                ),
            ]);
        }
        let done = match args.ops {
            Some(n) => timed >= n.max(window_ops),
            None => (!first || timed >= window_ops) && started.elapsed() >= budget,
        };
        if done {
            break;
        }
    }
    PROBES_ON.with(|c| c.set(false));
    lat.clear();
    tally.timed += timed;

    // Regime guard: no store may start overflowing mid-measurement.
    for (i, (t, (spans0, events0))) in streams.iter().zip(&drops_before).enumerate() {
        if (*spans0 == 0 && t.dropped_spans() > 0) || (*events0 == 0 && t.dropped_events() > 0) {
            tally.failures.push(format!(
                "telemetry stream {i} began dropping during the timed phase"
            ));
        }
    }
    for (name, _, v) in w.layer_times() {
        tally.layer_times.entry(name).or_default().push(v);
    }
    tally.failures.extend(w.check());
    tally.digest = w.stream_digest();
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let (plan, build) =
        workload(&args.workload).ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    // `--ops` asks for one round of exactly that many timed operations.
    let rounds = if args.ops.is_some() { 1 } else { ROUNDS };
    let budget = Duration::from_secs_f64(args.seconds / rounds as f64);
    // Sample buffers are sized before the heap peak is reset, so the
    // harness's own storage stays out of `peak_heap_mb`.
    let mut lat: Vec<f64> = Vec::with_capacity(plan.batch as usize);
    let mut tally = Tally {
        attempted: 0,
        failures: Vec::new(),
        setup: Vec::with_capacity(rounds),
        probed: Batches::with_capacity(1 << 14),
        plain: Batches::with_capacity(1 << 14),
        layer_times: BTreeMap::new(),
        det: Vec::new(),
        peak_heap: 0,
        warmup: 0,
        timed: 0,
        digest: 0,
    };
    alloc::reset_peak();
    let started = Instant::now();
    for r in 0..rounds {
        round(args, &plan, build, r == 0, budget, &mut tally, &mut lat)?;
    }
    let measured = started.elapsed().as_secs_f64();
    let Tally {
        attempted,
        failures,
        setup,
        probed,
        plain,
        layer_times,
        det,
        peak_heap,
        warmup,
        timed,
        digest,
    } = tally;

    let e2e: Vec<Metric> = vec![
        ("setup_s", "s", median(&setup)),
        ("ops_per_s", "op/s", median(&probed.rate)),
        ("p50_us", "us", median(&probed.p50)),
        (
            "peak_heap_mb",
            "MiB",
            peak_heap as f64 / (1u64 << 20) as f64,
        ),
    ];
    // Reported on the summary line and in traced runs, not gated: on a
    // drifting shared host its spread over ten runs reached 26 %.
    let p90_us = median(&probed.p90);
    let find = |name: &str| det.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2);

    println!(
        "perfbench {} seed={} trace={}: rounds={rounds} warmup_ops={warmup} timed_ops={timed} wall_s={measured:.3} batches={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        probed.rate.len() + plain.rate.len(),
    );
    let mut line: Vec<String> = e2e
        .iter()
        .map(|(n, u, v)| format!("{n}={v:.4} {u}"))
        .collect();
    line.push(format!("p90_us={p90_us:.4} us"));
    for (n, u) in [
        ("sim_p50_ms", "sim_ms"),
        ("sim_p90_ms", "sim_ms"),
        ("wire_bytes_per_op", "B"),
    ] {
        line.push(format!("{n}={:.4} {u}", find(n)));
    }
    println!("end-to-end: {}", line.join(" | "));
    let mut det_json = det.clone();
    det_json.push(("peak_heap_mb", "MiB", e2e[3].2));
    det_json.push(("warmup_ops", "count", warmup as f64));
    det_json.push(("op_stream_digest", "hex", (digest >> 11) as f64));
    println!("det: {}", json_metrics(&det_json));
    for f in failures.iter().filter(|f| !f.is_empty()) {
        println!("FAILED: {f}");
    }

    let metrics: Vec<Metric> = if args.trace {
        let mut all: BTreeMap<&str, f64> = det.iter().map(|(n, _, v)| (*n, *v)).collect();
        // A mean over rounds keeps sums of layer times exact.
        for (name, per_round) in &layer_times {
            all.insert(name, per_round.iter().sum::<f64>() / per_round.len() as f64);
        }
        all.insert("p90_us", p90_us);
        all.insert(
            "trace.overhead_us",
            median(&probed.p50) - median(&plain.p50),
        );
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, *u, all.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        e2e
    };
    let failed = failures.len() as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted,
        failed,
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
