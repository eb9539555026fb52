//! Cross-layer trace propagation.
//!
//! The paper's Figure 4 argues an open CSCW environment is inspectable
//! *layer by layer*; RM-ODP's engineering language makes those layer
//! crossings explicit interfaces. This module gives every crossing an
//! identity: a [`TraceId`] is minted where an operation enters the
//! stack (the App/Env boundary), every layer it passes through opens a
//! [`SpanRecord`] parented on the span above it, and the resulting
//! [`Trace`] renders as a causally-ordered tree whose layers appear in
//! Figure-4 depth order — assertable in tests instead of inferred from
//! event-name ordering.
//!
//! Contexts cross process-shaped boundaries (federation `gossip/1`
//! frames, remote exchange routing, simnet message delivery) as a
//! [`SpanContext`], encoded with [`SpanContext::encode_into`] /
//! [`SpanContext::decode`] for wire formats that are plain text.
//!
//! Identifiers come from process-wide atomic counters: collision-free
//! across every [`crate::Telemetry`] stream in the process and
//! deterministic in single-threaded simulation runs. Nothing here
//! derives meaning from the raw numbers — only equality and parentage.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::telemetry::{Layer, TelemetryEvent};

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Identity of one end-to-end operation (e.g. one `exchange`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Mints a fresh process-unique trace id.
    pub fn mint() -> TraceId {
        TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
    }

    /// Raw value (for wire encoding; carries no other meaning).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds an id decoded from a wire format.
    pub fn from_u64(raw: u64) -> TraceId {
        TraceId(raw)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

/// Identity of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// Mints a fresh process-unique span id.
    pub fn mint() -> SpanId {
        SpanId(NEXT_SPAN.fetch_add(1, Ordering::Relaxed))
    }

    /// Raw value (for wire encoding; carries no other meaning).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds an id decoded from a wire format.
    pub fn from_u64(raw: u64) -> SpanId {
        SpanId(raw)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

/// The propagated pair: which trace an observation belongs to and which
/// span it should parent under. This is what crosses layer and wire
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanContext {
    /// The end-to-end operation this context belongs to.
    pub trace: TraceId,
    /// The span that children opened under this context parent on.
    pub span: SpanId,
}

impl SpanContext {
    /// Appends `"<trace-hex>.<span-hex>"` to `out`, for text wire
    /// formats.
    /// Fixed-width (zero-padded) so a carried context never changes a
    /// frame's byte count — wire-size accounting stays deterministic
    /// whatever the process-wide id counters happen to hold.
    pub fn encode_into(&self, out: &mut String) {
        // Writing to a String cannot fail.
        let _ = write!(out, "{:016x}.{:016x}", self.trace.0, self.span.0);
    }

    /// Decodes [`SpanContext::encode_into`] output; `None` on malformed input.
    pub fn decode(s: &str) -> Option<SpanContext> {
        let (t, sp) = s.split_once('.')?;
        Some(SpanContext {
            trace: TraceId(u64::from_str_radix(t, 16).ok()?),
            span: SpanId(u64::from_str_radix(sp, 16).ok()?),
        })
    }
}

impl fmt::Display for SpanContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.trace, self.span)
    }
}

/// One recorded span: a named interval in one layer, parented on the
/// span whose work caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// The trace it belongs to.
    pub trace: TraceId,
    /// Parent span, `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Layer that opened the span.
    pub layer: Layer,
    /// Stable span name, e.g. `"env.exchange"`.
    pub name: &'static str,
    /// Open timestamp (microseconds, owning clock's epoch).
    pub start_micros: u64,
    /// Close timestamp; `None` while open (or never closed).
    pub end_micros: Option<u64>,
}

impl SpanRecord {
    /// Span duration in microseconds, `0` while open.
    pub fn duration_micros(&self) -> u64 {
        self.end_micros
            .map(|e| e.saturating_sub(self.start_micros))
            .unwrap_or(0)
    }
}

/// All recorded spans and span-stamped events of one trace, reassembled
/// into a tree.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The trace identity.
    pub id: TraceId,
    /// Spans in creation order.
    pub spans: Vec<SpanRecord>,
    /// Events stamped with a span of this trace, in emission order.
    pub events: Vec<TelemetryEvent>,
}

impl Trace {
    /// Distinct layers touched by the trace's spans, sorted by
    /// Figure-4 depth (App first, Net last).
    pub fn layers(&self) -> Vec<Layer> {
        let mut layers: Vec<Layer> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_by_key(|l| (l.depth(), l.as_str()));
        layers.dedup();
        layers
    }

    /// True when every parent→child edge goes down (or stays level in)
    /// the Figure-4 stack: a child's `Layer::depth` is never smaller
    /// than its parent's. This is the structural form of the paper's
    /// layering claim — causality only flows down the stack.
    pub fn is_depth_ordered(&self) -> bool {
        self.spans.iter().all(|s| {
            s.parent
                .and_then(|p| self.span(p))
                .map(|parent| s.layer.depth() >= parent.layer.depth())
                .unwrap_or(true)
        })
    }

    /// Looks up a span record by id.
    pub fn span(&self, id: SpanId) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Spans with the given name, in creation order.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Root spans (no parent, or parent not recorded in this trace),
    /// in creation order.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent.map(|p| self.span(p).is_none()).unwrap_or(true))
            .collect()
    }

    /// Renders the span tree, two-space indented, children in creation
    /// order, span-stamped events as `·` leaves under their span:
    ///
    /// ```text
    /// app/app.exchange (2µs)
    ///   env/env.exchange (2µs)
    ///     federation/federation.route (1µs)
    /// ```
    ///
    /// Raw ids are deliberately not printed: the rendering is stable
    /// across runs whose id allocation differs.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_span(&mut out, root, 0);
        }
        out
    }

    fn render_span(&self, out: &mut String, span: &SpanRecord, indent: usize) {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{:indent$}{}/{} ({}µs)",
            "",
            span.layer.as_str(),
            span.name,
            span.duration_micros(),
            indent = indent
        );
        for e in self
            .events
            .iter()
            .filter(|e| e.span.map(|c| c.span == span.id).unwrap_or(false))
        {
            let _ = writeln!(
                out,
                "{:indent$}· {}/{}",
                "",
                e.layer.as_str(),
                e.name,
                indent = indent + 2
            );
        }
        for child in self.spans.iter().filter(|s| s.parent == Some(span.id)) {
            self.render_span(out, child, indent + 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_displayable() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_eq!(TraceId::from_u64(a.as_u64()), a);
        let s = SpanId::mint();
        assert_ne!(s.to_string(), "");
    }

    #[test]
    fn context_wire_round_trip() {
        let ctx = SpanContext {
            trace: TraceId(0xdead),
            span: SpanId(0xbeef),
        };
        let mut wire = String::new();
        ctx.encode_into(&mut wire);
        assert_eq!(wire, "000000000000dead.000000000000beef");
        assert_eq!(wire.len(), 33, "fixed-width for wire-size stability");
        assert_eq!(SpanContext::decode(&wire), Some(ctx));
        // Unpadded (hand-written) contexts decode too.
        assert_eq!(SpanContext::decode("dead.beef"), Some(ctx));
        assert_eq!(SpanContext::decode("nope"), None);
        assert_eq!(SpanContext::decode("zz.1"), None);
    }

    fn span(id: u64, parent: Option<u64>, layer: Layer, name: &'static str) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            trace: TraceId(1),
            parent: parent.map(SpanId),
            layer,
            name,
            start_micros: 0,
            end_micros: Some(id),
        }
    }

    #[test]
    fn tree_renders_depth_ordered_stack() {
        let trace = Trace {
            id: TraceId(1),
            spans: vec![
                span(1, None, Layer::App, "app.exchange"),
                span(2, Some(1), Layer::Env, "env.exchange"),
                span(3, Some(2), Layer::Odp, "odp.import"),
                span(4, Some(2), Layer::Messaging, "mts.submit"),
                span(5, Some(4), Layer::Net, "net.send"),
            ],
            events: vec![],
        };
        assert!(trace.is_depth_ordered());
        assert_eq!(
            trace.layers(),
            vec![
                Layer::App,
                Layer::Env,
                Layer::Odp,
                Layer::Messaging,
                Layer::Net
            ]
        );
        let tree = trace.render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines[0], "app/app.exchange (1µs)");
        assert_eq!(lines[1], "  env/env.exchange (2µs)");
        assert_eq!(lines[2], "    odp/odp.import (3µs)");
        assert_eq!(lines[4], "      net/net.send (5µs)");
    }

    #[test]
    fn depth_inversion_is_detected() {
        let trace = Trace {
            id: TraceId(1),
            spans: vec![
                span(1, None, Layer::Net, "net.deliver"),
                span(2, Some(1), Layer::App, "app.exchange"),
            ],
            events: vec![],
        };
        assert!(!trace.is_depth_ordered());
    }
}
