//! Fixed-memory quantile metrics.
//!
//! The ROADMAP demands latency percentiles (p50/p99), not just means,
//! and the fed_scale sweep records hundreds of thousands of samples per
//! run — an unbounded `Vec<u64>` per histogram is O(samples) memory and
//! O(n log n) per quantile query. [`LogHistogram`] is the HDR-style
//! replacement: values are binned into logarithmic buckets (16
//! sub-buckets per power of two), so memory is a fixed ~1k `u64`
//! buckets regardless of sample count and any quantile is answered with
//! bounded relative error (≤ 1/16) by one pass over the buckets.
//! Exact `count`/`min`/`max`/`sum` are tracked on the side, so the
//! extremes and the mean stay precise.
//!
//! [`MetricsSnapshot`] is the machine-readable export: a deterministic,
//! sorted capture of every counter and histogram in a [`crate::Telemetry`]
//! stream with a stable hand-rolled JSON codec, so the format is
//! written down here and depends on no serialisation framework.

use std::fmt::Write as _;

use crate::telemetry::{HistogramSummary, Layer};

/// Sub-bucket resolution: each power of two is split into `1 << SUB_BITS`
/// linear sub-buckets, bounding relative quantile error by `2^-SUB_BITS`.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range:
/// `SUB` exact low buckets plus `(64 - SUB_BITS)` octave groups of `SUB`.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A fixed-memory log-bucketed histogram over `u64` samples
/// (microseconds by convention).
///
/// Memory is `O(buckets)` — a fixed [`LogHistogram::BUCKET_COUNT`]-slot
/// table — never `O(samples)`. Quantiles are exact for the recorded
/// `min`/`max` and otherwise accurate to the containing bucket's lower
/// bound, within a relative error of `1/16`.
///
/// # Examples
///
/// ```
/// use cscw_kernel::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.50).unwrap();
/// assert!((468..=500).contains(&p50), "p50 = {p50}");
/// assert_eq!(h.quantile(1.0), Some(1000));
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl PartialEq for LogHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts[..] == other.counts[..]
    }
}
impl Eq for LogHistogram {}

impl LogHistogram {
    /// Number of buckets backing every histogram — the memory bound.
    pub const BUCKET_COUNT: usize = BUCKETS;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: values below `SUB` get exact buckets,
    /// larger values share a bucket with their octave-mates whose top
    /// `SUB_BITS + 1` significant bits agree.
    fn index_of(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= SUB_BITS
        let group = (msb - SUB_BITS + 1) as u64;
        let sub = (value >> (msb - SUB_BITS)) - SUB; // in [0, SUB)
        (group * SUB + sub) as usize
    }

    /// Smallest value that maps into bucket `index`.
    fn lower_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB {
            return index;
        }
        let group = index / SUB;
        let sub = index % SUB;
        (SUB + sub) << (group - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (exact), or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (exact), or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (exact sum / count), or `None` when empty.
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| (self.sum / self.count as u128) as u64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), or `None` when empty.
    ///
    /// Returns the lower bound of the bucket holding the sample of rank
    /// `ceil(q · count)`, clamped into `[min, max]` — so `quantile(0.0)`
    /// is exactly `min`, `quantile(1.0)` is exactly `max`, and interior
    /// quantiles under-report by at most a factor of `1/16`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::lower_bound(index).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (`quantile(0.50)`).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Full summary (count, extremes, mean, quantiles), or `None` when
    /// empty.
    pub fn summary(&self) -> Option<HistogramSummary> {
        (self.count > 0).then(|| HistogramSummary {
            count: self.count,
            min_micros: self.min,
            max_micros: self.max,
            mean_micros: (self.sum / self.count as u128) as u64,
            p50_micros: self.p50().unwrap_or(0),
            p90_micros: self.p90().unwrap_or(0),
            p99_micros: self.p99().unwrap_or(0),
        })
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A deterministic, machine-readable capture of one [`crate::Telemetry`]
/// stream: every counter and histogram summary, grouped by layer and
/// sorted by name, plus the drop accounting.
///
/// Rendered by [`MetricsSnapshot::to_json`] — a stable hand-rolled
/// codec (two snapshots with equal contents render byte-identically).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(layer, name, value)` for every counter, sorted by
    /// `(layer depth, layer name, counter name)`.
    pub counters: Vec<(Layer, String, u64)>,
    /// `(layer, name, summary)` for every non-empty histogram, in the
    /// same order.
    pub histograms: Vec<(Layer, String, HistogramSummary)>,
    /// Events discarded because the bounded event store was full
    /// (the `telemetry.events.dropped` counter).
    pub dropped_events: u64,
    /// Span records discarded because the bounded span store was full.
    pub dropped_spans: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot as one stable JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"net": {"net.sent": 3}},
    ///   "histograms": {"env": {"resilience.backoff": {"count": 1, ...}}},
    ///   "telemetry.events.dropped": 0,
    ///   "telemetry.spans.dropped": 0
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        write_grouped(&mut out, &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\"histograms\":{");
        write_grouped(&mut out, &self.histograms, |out, s| {
            let _ = write!(
                out,
                "{{\"count\":{},\"min_micros\":{},\"max_micros\":{},\"mean_micros\":{},\"p50_micros\":{},\"p90_micros\":{},\"p99_micros\":{}}}",
                s.count,
                s.min_micros,
                s.max_micros,
                s.mean_micros,
                s.p50_micros,
                s.p90_micros,
                s.p99_micros
            );
        });
        let _ = write!(
            out,
            "}},\"telemetry.events.dropped\":{},\"telemetry.spans.dropped\":{}}}",
            self.dropped_events, self.dropped_spans
        );
        out
    }
}

/// Writes `entries` (already sorted by layer then name) as nested JSON
/// objects keyed by layer name then entry name.
fn write_grouped<T>(
    out: &mut String,
    entries: &[(Layer, String, T)],
    mut write_value: impl FnMut(&mut String, &T),
) {
    let mut current: Option<Layer> = None;
    let mut first_in_layer = true;
    for (layer, name, value) in entries {
        if current != Some(*layer) {
            if current.is_some() {
                out.push_str("},");
            }
            let _ = write!(out, "\"{}\":{{", layer.as_str());
            current = Some(*layer);
            first_in_layer = true;
        }
        if !first_in_layer {
            out.push(',');
        }
        first_in_layer = false;
        let _ = write!(out, "\"{}\":", json_escape(name));
        write_value(out, value);
    }
    if current.is_some() {
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_answers_none() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.summary().is_none());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(37);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(37));
        }
        assert_eq!(h.mean(), Some(37));
    }

    #[test]
    fn extremes_are_exact_even_at_u64_max() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        // The mean overflows u64 sums naively; the u128 sum does not.
        assert_eq!(h.mean(), Some(u64::MAX / 2));
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = LogHistogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 20);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        // Uniform 1..=100_000: the true q-quantile is q * 100_000, and
        // the histogram must land within a 1/16 relative error below it.
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.10, 0.50, 0.90, 0.99] {
            let truth = (q * 100_000.0) as u64;
            let got = h.quantile(q).unwrap();
            assert!(got <= truth, "quantile({q}) = {got} > {truth}");
            let err = (truth - got) as f64 / truth as f64;
            assert!(err <= 1.0 / 16.0 + 1e-9, "quantile({q}) err {err}");
        }
    }

    #[test]
    fn memory_is_fixed_regardless_of_samples() {
        let mut h = LogHistogram::new();
        for i in 0..100_000u64 {
            h.record(i * 17);
        }
        assert_eq!(h.counts.len(), LogHistogram::BUCKET_COUNT);
        const { assert!(LogHistogram::BUCKET_COUNT < 1024) };
    }

    #[test]
    fn bucket_indexing_round_trips() {
        for v in [0, 1, 15, 16, 17, 31, 32, 1000, 1 << 40, u64::MAX] {
            let idx = LogHistogram::index_of(v);
            assert!(idx < BUCKETS, "index {idx} for {v}");
            let lo = LogHistogram::lower_bound(idx);
            assert!(lo <= v, "lower bound {lo} > {v}");
            if idx + 1 < BUCKETS {
                assert!(LogHistogram::lower_bound(idx + 1) > v);
            }
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut c = LogHistogram::new();
        for v in 1..=100u64 {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn snapshot_json_is_stable_and_escaped() {
        let snap = MetricsSnapshot {
            counters: vec![
                (Layer::Net, "net.sent".into(), 3),
                (Layer::Env, "env.exchange".into(), 1),
            ],
            histograms: vec![(
                Layer::Env,
                "resilience.backoff".into(),
                HistogramSummary {
                    count: 1,
                    min_micros: 5,
                    max_micros: 5,
                    mean_micros: 5,
                    p50_micros: 5,
                    p90_micros: 5,
                    p99_micros: 5,
                },
            )],
            dropped_events: 2,
            dropped_spans: 0,
        };
        let json = snap.to_json();
        assert_eq!(json, snap.to_json());
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"net\":{\"net.sent\":3}"));
        assert!(json.contains("\"telemetry.events.dropped\":2"));
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
