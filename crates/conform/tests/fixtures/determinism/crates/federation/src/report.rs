//! The bench-output sink: a `to_json` that walks a `HashMap` writes its
//! keys in arbitrary order, so two identical runs would commit
//! different report files.

use std::collections::HashMap;

pub struct Tally {
    counts: HashMap<String, u64>,
}

impl Tally {
    /// Committed-bench output.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (name, n) in self.counts.iter() {
            out.push_str(&format!("\"{name}\":{n},"));
        }
        out.push('}');
        out
    }
}
