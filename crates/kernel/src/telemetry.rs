//! Layer-tagged structured telemetry.
//!
//! The paper's Figure 4 stacks the CSCW environment over ODP functions
//! over OSI services; this module makes that stack *observable*. Every
//! layer emits counters, duration samples and (bounded) events into one
//! shared [`Telemetry`] handle, each tagged with the [`Layer`] it came
//! from, and opens [`SpanRecord`]s parented on the work above it, so a
//! single end-to-end operation is a causally-ordered tree down the
//! stack: App → Env → Query → Federation → Odp → Messaging/Directory →
//! Net.
//!
//! `Telemetry` is a cheaply-cloneable handle: the simulator core, every
//! simulated node, and the platform front-end all hold clones of the
//! same stream. The stack runs on one thread, so the handle shares its
//! state through `Rc`/`RefCell` and takes no lock; every borrow starts
//! and ends inside one method. Counters and histograms are kept per
//! [`Layer`]; histograms are fixed-memory [`LogHistogram`]s answering
//! p50/p90/p99 with bounded error. Events and spans are bounded stores
//! with explicit drop accounting ([`Telemetry::dropped_events`] /
//! [`Telemetry::dropped_spans`]) — nothing is lost silently.

use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::metrics::{LogHistogram, MetricsSnapshot};
use crate::trace::{SpanContext, SpanId, SpanRecord, Trace, TraceId};

/// The architectural layer an observation came from (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The network substrate (simnet or a real transport).
    Net,
    /// The X.500-style directory service.
    Directory,
    /// The X.400-style message transfer service.
    Messaging,
    /// The ODP engineering layer: trader, binder, transparencies.
    Odp,
    /// The inter-environment federation layer: trader interworking,
    /// anti-entropy knowledge replication, remote exchange routing.
    Federation,
    /// The standing-query layer: subscription registries evaluating
    /// filter expressions incrementally over directory changes and
    /// replicated-knowledge applies.
    Query,
    /// The CSCW environment (MOCCA): sharing, exchange, org knowledge.
    Env,
    /// Applications (groupware tools) above the environment.
    App,
}

/// Shard count: one per [`Layer`] variant.
const LAYER_COUNT: usize = 8;

/// Every layer, in `Layer`'s `Ord` order (Net first).
const LAYERS: [Layer; LAYER_COUNT] = [
    Layer::Net,
    Layer::Directory,
    Layer::Messaging,
    Layer::Odp,
    Layer::Federation,
    Layer::Query,
    Layer::Env,
    Layer::App,
];

/// Every layer in Figure-4 depth order (App first, Net last; peers at
/// equal depth ordered by name). Snapshots group in this order.
const LAYERS_BY_DEPTH: [Layer; LAYER_COUNT] = [
    Layer::App,
    Layer::Env,
    Layer::Query,
    Layer::Federation,
    Layer::Odp,
    Layer::Directory,
    Layer::Messaging,
    Layer::Net,
];

impl Layer {
    /// Stable lowercase name, used in rendered telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Net => "net",
            Layer::Directory => "directory",
            Layer::Messaging => "messaging",
            Layer::Odp => "odp",
            Layer::Federation => "federation",
            Layer::Query => "query",
            Layer::Env => "env",
            Layer::App => "app",
        }
    }

    /// Position in the Figure-4 stack, top (App = 0) to bottom (Net = 6).
    /// Directory and Messaging are peers at the same depth; the query
    /// layer sits between the environment it notifies and the
    /// directory/federation substrates whose changes feed it, and the
    /// federation layer between queries and the ODP functions it
    /// interworks.
    pub fn depth(self) -> u8 {
        match self {
            Layer::App => 0,
            Layer::Env => 1,
            Layer::Query => 2,
            Layer::Federation => 3,
            Layer::Odp => 4,
            Layer::Directory | Layer::Messaging => 5,
            Layer::Net => 6,
        }
    }

    /// Index of this layer's counter and histogram shard.
    fn shard(self) -> usize {
        match self {
            Layer::Net => 0,
            Layer::Directory => 1,
            Layer::Messaging => 2,
            Layer::Odp => 3,
            Layer::Federation => 4,
            Layer::Query => 5,
            Layer::Env => 6,
            Layer::App => 7,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Timestamp in microseconds (source clock is the platform's).
    pub at_micros: u64,
    /// Layer that emitted the event.
    pub layer: Layer,
    /// Stable event name, e.g. `"exchange.submit"`.
    pub name: &'static str,
    /// Free-form context, e.g. the artifact or node involved.
    pub detail: String,
    /// The span that was ambient when the event was emitted, if any —
    /// ties the event into its trace's tree.
    pub span: Option<SpanContext>,
}

impl fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}µs] {:<9} {}",
            self.at_micros, self.layer, self.name
        )?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// Summary statistics over one histogram's samples.
///
/// `count`, the extremes and the mean are exact; the quantiles come
/// from the log-bucketed [`LogHistogram`] and are accurate to the
/// containing bucket (relative error ≤ 1/16), with `p50 ≤ p90 ≤ p99`
/// always holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample, in microseconds (exact).
    pub min_micros: u64,
    /// Largest sample, in microseconds (exact).
    pub max_micros: u64,
    /// Arithmetic mean, in microseconds (exact).
    pub mean_micros: u64,
    /// Median, in microseconds.
    pub p50_micros: u64,
    /// 90th percentile, in microseconds.
    pub p90_micros: u64,
    /// 99th percentile, in microseconds.
    pub p99_micros: u64,
}

/// One layer's counters and histograms.
#[derive(Debug, Default)]
struct Shard {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

/// The bounded event/span stores plus the ambient span stack.
#[derive(Debug)]
struct Stream {
    events: Vec<TelemetryEvent>,
    event_capacity: usize,
    events_dropped: u64,
    spans: Vec<SpanRecord>,
    span_capacity: usize,
    spans_dropped: u64,
    /// Ambient context: the innermost open span. Single-threaded
    /// simulation runs make this a faithful call stack; explicit-parent
    /// continuation ([`Telemetry::span_begin_with_parent`]) covers the
    /// asynchronous hops (wire frames, deferred delivery).
    stack: Vec<SpanContext>,
}

/// The shards and the stream sit in separate cells because
/// [`Telemetry::emit`] formats its detail while the stream is
/// borrowed, and a detail may read a counter.
#[derive(Debug)]
struct Shared {
    shards: RefCell<[Shard; LAYER_COUNT]>,
    stream: RefCell<Stream>,
}

/// A cheaply-cloneable, layer-tagged telemetry stream.
///
/// # Examples
///
/// ```
/// use cscw_kernel::{Layer, Telemetry};
///
/// let t = Telemetry::new();
/// t.incr(Layer::Net, "net.sent");
/// t.emit(10, Layer::Env, "env.exchange.submit", "artifact a1");
/// assert_eq!(t.counter(Layer::Net, "net.sent"), 1);
/// assert_eq!(t.events()[0].layer, Layer::Env);
///
/// // Spans tie observations into one causally-ordered trace:
/// let root = t.span_begin(Layer::App, "app.exchange", 10);
/// let child = t.span_begin(Layer::Env, "env.exchange", 11);
/// t.span_end(child, 12);
/// t.span_end(root, 13);
/// let trace = t.trace(root.trace).unwrap();
/// assert!(trace.is_depth_ordered());
/// ```
#[derive(Debug, Clone)]
pub struct Telemetry {
    shared: Rc<Shared>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

const DEFAULT_EVENT_CAPACITY: usize = 1 << 14;
const DEFAULT_SPAN_CAPACITY: usize = 1 << 14;

impl Telemetry {
    /// Creates an empty stream with the default event/span capacities.
    pub fn new() -> Self {
        Telemetry {
            shared: Rc::new(Shared {
                shards: Default::default(),
                stream: RefCell::new(Stream {
                    events: Vec::new(),
                    event_capacity: DEFAULT_EVENT_CAPACITY,
                    events_dropped: 0,
                    spans: Vec::new(),
                    span_capacity: DEFAULT_SPAN_CAPACITY,
                    spans_dropped: 0,
                    stack: Vec::new(),
                }),
            }),
        }
    }

    /// True when `other` is a clone of this handle (same stream).
    pub fn same_stream(&self, other: &Telemetry) -> bool {
        Rc::ptr_eq(&self.shared, &other.shared)
    }

    fn shard(&self, layer: Layer) -> RefMut<'_, Shard> {
        RefMut::map(self.shared.shards.borrow_mut(), |s| &mut s[layer.shard()])
    }

    fn stream(&self) -> RefMut<'_, Stream> {
        self.shared.stream.borrow_mut()
    }

    /// Adds one to a layer-tagged counter.
    pub fn incr(&self, layer: Layer, name: &'static str) {
        self.add(layer, name, 1);
    }

    /// Adds `n` to a layer-tagged counter.
    pub fn add(&self, layer: Layer, name: &'static str, n: u64) {
        *self.shard(layer).counters.entry(name).or_insert(0) += n;
    }

    /// Reads a counter; unknown names read as zero.
    pub fn counter(&self, layer: Layer, name: &str) -> u64 {
        self.shard(layer).counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of one counter name across all layers.
    pub fn counter_across_layers(&self, name: &str) -> u64 {
        LAYERS
            .iter()
            .map(|&l| self.shard(l).counters.get(name).copied().unwrap_or(0))
            .sum()
    }

    /// Records a duration sample (microseconds) into a layer-tagged
    /// fixed-memory log-bucketed histogram.
    pub fn record_micros(&self, layer: Layer, name: &'static str, micros: u64) {
        self.shard(layer)
            .histograms
            .entry(name)
            .or_default()
            .record(micros);
    }

    /// Summary of a histogram (exact count/extremes/mean, bucketed
    /// p50/p90/p99), or `None` when it has no samples.
    pub fn histogram(&self, layer: Layer, name: &str) -> Option<HistogramSummary> {
        self.shard(layer).histograms.get(name)?.summary()
    }

    /// One quantile of a histogram, or `None` when it has no samples.
    pub fn histogram_quantile(&self, layer: Layer, name: &str, q: f64) -> Option<u64> {
        self.shard(layer).histograms.get(name)?.quantile(q)
    }

    /// Appends an event, stamped with the ambient span context if a
    /// span is open. Once the bounded store is full the event is
    /// dropped and counted — see [`Telemetry::dropped_events`].
    ///
    /// `detail` is formatted only when the event is stored, so callers
    /// pass `format_args!(..)` or the value itself: a dropped event
    /// costs one counter add and builds no text.
    pub fn emit(
        &self,
        at_micros: u64,
        layer: Layer,
        name: &'static str,
        detail: impl fmt::Display,
    ) {
        let mut stream = self.stream();
        if stream.events.len() < stream.event_capacity {
            let detail = detail.to_string();
            let span = stream.stack.last().copied();
            stream.events.push(TelemetryEvent {
                at_micros,
                layer,
                name,
                detail,
                span,
            });
        } else {
            stream.events_dropped += 1;
        }
    }

    /// Changes the maximum retained event count (existing events are
    /// kept, even beyond a smaller new capacity).
    pub fn set_event_capacity(&self, capacity: usize) {
        self.stream().event_capacity = capacity;
    }

    /// Changes the maximum retained span-record count (existing records
    /// are kept, even beyond a smaller new capacity).
    pub fn set_span_capacity(&self, capacity: usize) {
        self.stream().span_capacity = capacity;
    }

    /// Events dropped because the bounded event store was full — the
    /// `telemetry.events.dropped` counter. Zero means [`Telemetry::events`]
    /// is complete.
    pub fn dropped_events(&self) -> u64 {
        self.stream().events_dropped
    }

    /// Span records dropped because the bounded span store was full —
    /// the `telemetry.spans.dropped` counter.
    pub fn dropped_spans(&self) -> u64 {
        self.stream().spans_dropped
    }

    /// Opens a span in `layer`, parented on the ambient span if one is
    /// open; otherwise the span roots a freshly-minted trace. The new
    /// span becomes the ambient context until [`Telemetry::span_end`].
    pub fn span_begin(&self, layer: Layer, name: &'static str, at_micros: u64) -> SpanContext {
        let mut stream = self.stream();
        let parent = stream.stack.last().copied();
        self.open_span(&mut stream, parent, layer, name, at_micros)
    }

    /// Opens a span continuing an explicit `parent` context — the
    /// cross-boundary form used where causality hops a wire or a
    /// deferred delivery instead of the call stack (federation frames,
    /// simnet message delivery, remote exchange routing).
    pub fn span_begin_with_parent(
        &self,
        parent: SpanContext,
        layer: Layer,
        name: &'static str,
        at_micros: u64,
    ) -> SpanContext {
        let mut stream = self.stream();
        self.open_span(&mut stream, Some(parent), layer, name, at_micros)
    }

    fn open_span(
        &self,
        stream: &mut Stream,
        parent: Option<SpanContext>,
        layer: Layer,
        name: &'static str,
        at_micros: u64,
    ) -> SpanContext {
        let trace = parent.map(|p| p.trace).unwrap_or_else(TraceId::mint);
        let ctx = SpanContext {
            trace,
            span: SpanId::mint(),
        };
        if stream.spans.len() < stream.span_capacity {
            stream.spans.push(SpanRecord {
                id: ctx.span,
                trace,
                parent: parent.map(|p| p.span),
                layer,
                name,
                start_micros: at_micros,
                end_micros: None,
            });
        } else {
            stream.spans_dropped += 1;
        }
        stream.stack.push(ctx);
        ctx
    }

    /// Closes a span. Any spans opened above it that were never closed
    /// are unwound from the ambient stack (their records stay open).
    pub fn span_end(&self, ctx: SpanContext, at_micros: u64) {
        let mut stream = self.stream();
        if let Some(pos) = stream.stack.iter().rposition(|c| *c == ctx) {
            stream.stack.truncate(pos);
        }
        // Ids are minted in increasing order, so the store is sorted.
        if let Ok(pos) = stream.spans.binary_search_by_key(&ctx.span, |s| s.id) {
            stream.spans[pos].end_micros = Some(at_micros);
        }
    }

    /// The ambient (innermost open) span context, if any — what an
    /// emission site should stamp onto anything that leaves the call
    /// stack (a wire frame, a queued delivery).
    pub fn current_context(&self) -> Option<SpanContext> {
        self.stream().stack.last().copied()
    }

    /// Snapshot of all recorded events, in emission order.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.stream().events.clone()
    }

    /// Snapshot of all recorded span records, in creation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.stream().spans.clone()
    }

    /// Distinct trace ids, in order of first span creation.
    pub fn traces(&self) -> Vec<TraceId> {
        let stream = self.stream();
        let mut seen = Vec::new();
        for span in &stream.spans {
            if !seen.contains(&span.trace) {
                seen.push(span.trace);
            }
        }
        seen
    }

    /// Reassembles one trace: its spans (creation order) and every
    /// event stamped with one of its spans. `None` if no span of that
    /// trace was recorded.
    pub fn trace(&self, id: TraceId) -> Option<Trace> {
        let stream = self.stream();
        let spans: Vec<SpanRecord> = stream
            .spans
            .iter()
            .filter(|s| s.trace == id)
            .cloned()
            .collect();
        if spans.is_empty() {
            return None;
        }
        let events = stream
            .events
            .iter()
            .filter(|e| e.span.map(|c| c.trace == id).unwrap_or(false))
            .cloned()
            .collect();
        Some(Trace { id, spans, events })
    }

    /// The distinct layers that have emitted at least one event, in
    /// `Layer` order.
    pub fn layers_seen(&self) -> Vec<Layer> {
        let stream = self.stream();
        let mut layers: Vec<Layer> = stream.events.iter().map(|e| e.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        layers
    }

    /// Snapshot of all counters as `((layer, name), value)`, sorted by
    /// `Layer` order then name.
    pub fn counters(&self) -> Vec<((Layer, &'static str), u64)> {
        let mut out = Vec::new();
        for &layer in &LAYERS {
            for (&name, &v) in self.shard(layer).counters.iter() {
                out.push(((layer, name), v));
            }
        }
        out
    }

    /// A deterministic machine-readable capture of every counter and
    /// histogram, grouped by Figure-4 depth — see
    /// [`MetricsSnapshot::to_json`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for &layer in &LAYERS_BY_DEPTH {
            let shard = self.shard(layer);
            for (&name, &v) in shard.counters.iter() {
                snap.counters.push((layer, name.to_string(), v));
            }
            for (&name, h) in shard.histograms.iter() {
                if let Some(summary) = h.summary() {
                    snap.histograms.push((layer, name.to_string(), summary));
                }
            }
        }
        let stream = self.stream();
        snap.dropped_events = stream.events_dropped;
        snap.dropped_spans = stream.spans_dropped;
        snap
    }

    /// Drops all recorded data (capacities are unchanged).
    pub fn clear(&self) {
        for &layer in &LAYERS {
            let mut shard = self.shard(layer);
            shard.counters.clear();
            shard.histograms.clear();
        }
        let mut stream = self.stream();
        stream.events.clear();
        stream.events_dropped = 0;
        stream.spans.clear();
        stream.spans_dropped = 0;
        stream.stack.clear();
    }

    /// Renders the full stream (counters then events) for debugging.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ((layer, name), v) in self.counters() {
            let _ = writeln!(out, "{layer}/{name}: {v}");
        }
        for e in self.events() {
            let _ = writeln!(out, "{e}");
        }
        let dropped = self.dropped_events();
        if dropped > 0 {
            let _ = writeln!(out, "telemetry.events.dropped: {dropped}");
        }
        let dropped = self.dropped_spans();
        if dropped > 0 {
            let _ = writeln!(out, "telemetry.spans.dropped: {dropped}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_layer() {
        let t = Telemetry::new();
        t.incr(Layer::Net, "sent");
        t.add(Layer::Net, "sent", 2);
        t.incr(Layer::Env, "sent");
        assert_eq!(t.counter(Layer::Net, "sent"), 3);
        assert_eq!(t.counter(Layer::Env, "sent"), 1);
        assert_eq!(t.counter(Layer::App, "sent"), 0);
        assert_eq!(t.counter_across_layers("sent"), 4);
    }

    #[test]
    fn clones_share_the_stream() {
        let a = Telemetry::new();
        let b = a.clone();
        b.incr(Layer::Odp, "imports");
        assert_eq!(a.counter(Layer::Odp, "imports"), 1);
        assert!(a.same_stream(&b));
        assert!(!a.same_stream(&Telemetry::new()));
    }

    #[test]
    fn events_are_ordered_and_bounded_with_drop_accounting() {
        let t = Telemetry::new();
        t.set_event_capacity(2);
        t.emit(1, Layer::App, "one", "");
        t.emit(2, Layer::Env, "two", "x");
        assert_eq!(t.dropped_events(), 0);
        t.emit(3, Layer::Net, "three", "");
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "one");
        assert_eq!(events[1].detail, "x");
        assert_eq!(t.dropped_events(), 1);
        assert_eq!(t.snapshot().dropped_events, 1);
    }

    #[test]
    fn a_dropped_event_formats_nothing() {
        /// A detail that counts how often it is formatted.
        struct Counted<'a>(&'a std::cell::Cell<u32>);
        impl fmt::Display for Counted<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("counted")
            }
        }
        let calls = std::cell::Cell::new(0);
        let t = Telemetry::new();
        t.set_event_capacity(1);
        t.emit(1, Layer::Env, "kept", Counted(&calls));
        assert_eq!(calls.get(), 1);
        assert_eq!(t.events()[0].detail, "counted");
        t.emit(2, Layer::Env, "dropped", Counted(&calls));
        assert_eq!(calls.get(), 1, "a dropped event must not format its detail");
        assert_eq!(t.dropped_events(), 1);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn an_event_detail_may_read_a_counter_of_its_own_stream() {
        /// A detail that reads a counter while it is formatted.
        struct Reads(Telemetry);
        impl fmt::Display for Reads {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "sent={}", self.0.counter(Layer::Net, "net.sent"))
            }
        }
        let t = Telemetry::new();
        t.add(Layer::Net, "net.sent", 3);
        t.emit(1, Layer::Net, "net.note", Reads(t.clone()));
        assert_eq!(t.events()[0].detail, "sent=3");
    }

    #[test]
    fn histograms_summarise_with_quantiles() {
        let t = Telemetry::new();
        assert!(t.histogram(Layer::Net, "latency").is_none());
        for us in [10, 20, 30] {
            t.record_micros(Layer::Net, "latency", us);
        }
        let s = t.histogram(Layer::Net, "latency").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min_micros, 10);
        assert_eq!(s.max_micros, 30);
        assert_eq!(s.mean_micros, 20);
        assert!(s.p50_micros >= 10 && s.p50_micros <= 20);
        assert_eq!(s.p99_micros, 30);
        assert!(s.p50_micros <= s.p90_micros && s.p90_micros <= s.p99_micros);
        assert_eq!(t.histogram_quantile(Layer::Net, "latency", 1.0), Some(30));
    }

    #[test]
    fn layers_seen_deduplicates() {
        let t = Telemetry::new();
        t.emit(1, Layer::Net, "a", "");
        t.emit(2, Layer::Net, "b", "");
        t.emit(3, Layer::App, "c", "");
        assert_eq!(t.layers_seen(), vec![Layer::Net, Layer::App]);
    }

    #[test]
    fn depth_orders_the_figure_4_stack() {
        assert!(Layer::App.depth() < Layer::Env.depth());
        assert!(Layer::Env.depth() < Layer::Query.depth());
        assert!(Layer::Query.depth() < Layer::Federation.depth());
        assert!(Layer::Federation.depth() < Layer::Odp.depth());
        assert!(Layer::Odp.depth() < Layer::Messaging.depth());
        assert_eq!(Layer::Messaging.depth(), Layer::Directory.depth());
        assert!(Layer::Messaging.depth() < Layer::Net.depth());
    }

    #[test]
    fn render_and_display_are_informative() {
        let t = Telemetry::new();
        t.incr(Layer::Odp, "exports");
        t.emit(42, Layer::Odp, "trader.export", "scheduler");
        let rendered = t.render();
        assert!(rendered.contains("odp/exports: 1"));
        assert!(rendered.contains("trader.export"));
        assert!(rendered.contains("scheduler"));
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.counter(Layer::Odp, "exports"), 0);
    }

    #[test]
    fn render_reports_drops_only_when_there_are_some() {
        let t = Telemetry::new();
        t.set_event_capacity(0);
        t.set_span_capacity(1);
        let kept = t.span_begin(Layer::App, "app.a", 1);
        t.span_end(kept, 2);
        let rendered = t.render();
        assert!(!rendered.contains("telemetry.events.dropped"));
        assert!(!rendered.contains("telemetry.spans.dropped"));
        t.emit(3, Layer::App, "app.note", "");
        let dropped = t.span_begin(Layer::App, "app.b", 4);
        t.span_end(dropped, 5);
        let dropped = t.span_begin(Layer::App, "app.c", 6);
        t.span_end(dropped, 7);
        let rendered = t.render();
        assert!(rendered.contains("telemetry.events.dropped: 1\n"));
        assert!(rendered.contains("telemetry.spans.dropped: 2\n"));
    }

    #[test]
    fn spans_nest_via_the_ambient_stack() {
        let t = Telemetry::new();
        let root = t.span_begin(Layer::App, "app.exchange", 1);
        let env = t.span_begin(Layer::Env, "env.exchange", 2);
        assert_eq!(t.current_context(), Some(env));
        assert_eq!(env.trace, root.trace);
        t.emit(3, Layer::Env, "env.note", "");
        t.span_end(env, 4);
        assert_eq!(t.current_context(), Some(root));
        t.span_end(root, 5);
        assert_eq!(t.current_context(), None);

        let trace = t.trace(root.trace).unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(root.span));
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].span, Some(env));
        assert!(trace.is_depth_ordered());
        let tree = trace.render_tree();
        assert!(tree.contains("app/app.exchange"));
        assert!(tree.contains("  env/env.exchange"));
        assert!(tree.contains("    · env/env.note"));
    }

    #[test]
    fn explicit_parent_continues_a_trace_across_boundaries() {
        let t = Telemetry::new();
        let root = t.span_begin(Layer::Env, "env.exchange", 1);
        let carried = t.current_context().unwrap();
        t.span_end(root, 2);
        assert_eq!(t.current_context(), None);

        // Later — e.g. on frame delivery — the carried context resumes
        // the same trace even though the stack is empty.
        let cont = t.span_begin_with_parent(carried, Layer::Net, "net.deliver", 9);
        assert_eq!(cont.trace, root.trace);
        t.span_end(cont, 10);
        let trace = t.trace(root.trace).unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(root.span));
        assert_eq!(trace.spans[1].duration_micros(), 1);
    }

    #[test]
    fn span_store_is_bounded_with_drop_accounting() {
        let t = Telemetry::new();
        t.set_span_capacity(1);
        let a = t.span_begin(Layer::App, "app.a", 1);
        let b = t.span_begin(Layer::Env, "env.b", 2);
        assert_eq!(b.trace, a.trace); // nesting survives the drop
        t.span_end(b, 3);
        t.span_end(a, 4);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped_spans(), 1);
        assert_eq!(t.snapshot().dropped_spans, 1);
    }

    #[test]
    fn span_end_stamps_the_recorded_span() {
        let t = Telemetry::new();
        let a = t.span_begin(Layer::App, "app.a", 1);
        let b = t.span_begin(Layer::Env, "env.b", 2);
        let c = t.span_begin(Layer::Odp, "odp.c", 3);
        t.span_end(b, 7);
        let ends: Vec<_> = t.spans().iter().map(|s| s.end_micros).collect();
        assert_eq!(ends, [None, Some(7), None]);
        t.span_end(c, 8);
        t.span_end(a, 9);
        let ends: Vec<_> = t.spans().iter().map(|s| s.end_micros).collect();
        assert_eq!(ends, [Some(9), Some(7), Some(8)]);
    }

    #[test]
    fn span_end_of_a_dropped_span_changes_no_record() {
        let t = Telemetry::new();
        t.set_span_capacity(3);
        let kept: Vec<_> = (0..3)
            .map(|i| t.span_begin(Layer::App, "app.kept", i))
            .collect();
        let before = t.spans();
        let dropped = t.span_begin(Layer::Env, "env.dropped", 10);
        assert_eq!(t.dropped_spans(), 1);
        t.span_end(dropped, 11);
        assert_eq!(t.spans(), before);
        assert_eq!(t.current_context(), Some(kept[2]));
    }

    #[test]
    fn span_end_unwinds_unclosed_children() {
        let t = Telemetry::new();
        let root = t.span_begin(Layer::App, "app.a", 1);
        let _leak = t.span_begin(Layer::Env, "env.b", 2);
        t.span_end(root, 3); // closes root, unwinds the leaked child
        assert_eq!(t.current_context(), None);
        let next = t.span_begin(Layer::App, "app.c", 4);
        assert_ne!(next.trace, root.trace);
        t.span_end(next, 5);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_depth_grouped() {
        let t = Telemetry::new();
        t.incr(Layer::Net, "net.sent");
        t.incr(Layer::App, "app.exchange");
        t.record_micros(Layer::Env, "env.latency", 7);
        let json = t.snapshot().to_json();
        assert_eq!(json, t.snapshot().to_json());
        let app = json.find("\"app\":").unwrap();
        let net = json.find("\"net\":").unwrap();
        assert!(app < net, "snapshot groups App before Net: {json}");
        assert!(json.contains("\"env.latency\":{\"count\":1"));
    }
}
