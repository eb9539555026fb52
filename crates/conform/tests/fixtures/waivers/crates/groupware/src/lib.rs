//! Fixture: violations covered by waiver pragmas produce no findings.
//!
//! conform: allow-file(R4) — fixture exercises the file-level pragma

use cscw_kernel::{Layer, Telemetry};
// conform: allow(R1) — fixture exercises the line-level pragma
use simnet::SimTime;

pub fn tagged(t: &Telemetry) {
    t.incr(Layer::Net, "whatever");
}

pub fn when() -> SimTime {
    // conform: allow(R2) — fixture pragma on the line above the panic
    SimTime::from_micros(always_there().unwrap())
}

fn always_there() -> Option<u64> {
    Some(7)
}

pub fn epoch_micros() -> u64 {
    // conform: allow(R5) — fixture exercises the determinism waiver
    let anchor = std::time::Instant::now();
    anchor.elapsed().as_micros() as u64
}

pub fn leaky(t: &Telemetry, layer: Layer) {
    // conform: allow(R6) — fixture exercises the span-balance waiver
    let span = t.span_begin(layer, "app.leaky.run", 1);
    let _ = span;
}
