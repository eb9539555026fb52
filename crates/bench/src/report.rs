//! One bench-report writer: a small JSON [`Value`], its codec, and the
//! declarative claims every committed `BENCH_*.json` is checked against.
//!
//! Result types are declared with `cell!`, so each report key is
//! spelled once, as a field name. Each experiment module has one
//! `report` function, whose `template()` over default cells is the
//! document's key tree, and one `CLAIMS` list. [`check`] runs both, in
//! [`Report::write`] and in `validate_metrics_json`.

use cscw_kernel::{json_escape, Layer, LogHistogram, Telemetry};

/// A report value: everything a bench report holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A string.
    Str(String),
    /// A list.
    List(Vec<Value>),
    /// An object; keys keep their insertion order.
    Object(Vec<(String, Value)>),
}

/// Anything a report can hold.
pub trait ToValue {
    /// The report value.
    fn to_value(&self) -> Value;
}

macro_rules! scalar {
    ($($ty:ty => |$x:ident| $value:expr;)*) => {$(
        impl ToValue for $ty {
            fn to_value(&self) -> Value {
                let $x = self;
                $value
            }
        }
    )*};
}

scalar! {
    bool => |b| Value::Bool(*b);
    u64 => |n| Value::U64(*n);
    usize => |n| Value::U64(*n as u64);
    str => |s| Value::Str(s.to_owned());
    String => |s| Value::Str(s.clone());
}

impl<T: ToValue + ?Sized> ToValue for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Declares a report cell: the struct as written plus a [`ToValue`]
/// whose keys are its field names, in declaration order.
macro_rules! cell {
    ($(#[$attr:meta])* pub struct $name:ident {
        $($(#[$doc:meta])* pub $field:ident: $ty:ty,)*
    }) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $crate::report::ToValue for $name {
            fn to_value(&self) -> $crate::report::Value {
                $crate::report::Value::object([
                    $((stringify!($field), $crate::report::ToValue::to_value(&self.$field)),)*
                ])
            }
        }
    };
}
pub(crate) use cell;

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A list of report values.
    pub fn list<T: ToValue>(items: impl IntoIterator<Item = T>) -> Value {
        Value::List(items.into_iter().map(|v| v.to_value()).collect())
    }

    /// The value at a dotted `path` of object keys, or which is missing.
    pub fn at(&self, path: &str) -> Result<&Value, String> {
        path.split('.').try_fold(self, |value, key| {
            match value {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
            .ok_or_else(|| format!("missing `{path}`"))
        })
    }

    /// The integer at `path`, or why there is none.
    pub fn u64_at(&self, path: &str) -> Result<u64, String> {
        match self.at(path)? {
            Value::U64(n) => Ok(*n),
            other => Err(format!("`{path}` is {}", other.kind())),
        }
    }

    /// The string at `path`, or why there is none.
    pub fn str_at(&self, path: &str) -> Result<&str, String> {
        match self.at(path)? {
            Value::Str(s) => Ok(s),
            other => Err(format!("`{path}` is {}", other.kind())),
        }
    }

    /// The list at `path`, or why there is none.
    pub fn list_at(&self, path: &str) -> Result<&[Value], String> {
        match self.at(path)? {
            Value::List(items) => Ok(items),
            other => Err(format!("`{path}` is {}", other.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Bool(_) => "a boolean",
            Value::U64(_) => "an integer",
            Value::Str(_) => "a string",
            Value::List(_) => "a list",
            Value::Object(_) => "an object",
        }
    }

    /// The value as compact JSON (no whitespace).
    pub fn to_json(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::U64(n) => n.to_string(),
            Value::Str(s) => format!("\"{}\"", json_escape(s)),
            Value::List(items) => {
                let items: Vec<String> = items.iter().map(Value::to_json).collect();
                format!("[{}]", items.join(","))
            }
            Value::Object(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.to_json()))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }
}

/// A bench report: `experiment`, `generated_by` and `smoke`, then the
/// experiment's own sections, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report(Vec<(String, Value)>);

impl Report {
    /// The report of `experiment` (the name of its bench target).
    pub fn new<'a>(
        experiment: &str,
        smoke: bool,
        sections: impl IntoIterator<Item = (&'a str, Value)>,
    ) -> Report {
        let generated_by = format!("cargo bench -p cscw-bench --bench {experiment}");
        let head = [
            ("experiment", experiment.to_value()),
            ("generated_by", generated_by.to_value()),
            ("smoke", smoke.to_value()),
        ];
        let fields = head.into_iter().chain(sections);
        Report(fields.map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The document.
    pub fn value(&self) -> Value {
        Value::Object(self.0.clone())
    }

    /// The document in the committed layout: one top-level key per
    /// line, scalar lists inline, one compact cell per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out += &format!("{sep}\n  \"{}\": ", json_escape(key));
            let Value::List(items) = value else {
                out.push_str(&value.to_json());
                continue;
            };
            let items: Vec<String> = items.iter().map(Value::to_json).collect();
            if items.iter().any(|v| v.starts_with('{')) {
                out += &format!("[\n    {}\n  ]", items.join(",\n    "));
            } else {
                out += &format!("[{}]", items.join(", "));
            }
        }
        out + "\n}\n"
    }

    /// Writes the document to `path` once [`check`] passes, or says
    /// why it did not.
    pub fn write(&self, path: &str) -> Result<(), String> {
        check(&self.value())?;
        std::fs::write(path, self.to_json()).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// A named headline claim over a whole report document.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// What the claim asserts, as diagnostics name it.
    pub name: &'static str,
    /// `Err` names the cell that breaks the claim.
    pub check: fn(&Value) -> Result<(), String>,
}

/// Claims every report must satisfy.
const COMMON_CLAIMS: &[Claim] = &[Claim {
    name: "every cell's seed is listed in `seeds`",
    check: |doc| {
        let seeds = doc.list_at("seeds")?;
        let Value::Object(sections) = doc else {
            return Ok(());
        };
        let cells =
            |v: &Value| matches!(v, Value::List(c) if matches!(c.first(), Some(Value::Object(_))));
        sections
            .iter()
            .filter(|(_, v)| cells(v))
            .try_for_each(|(section, _)| {
                every_cell(doc, section, |c| Ok(seeds.contains(c.at("seed")?)))
            })
    },
}];

/// `Ok` when `holds` for every cell of `section`; otherwise names the
/// first cell where it does not.
pub(crate) fn every_cell<'a>(
    doc: &'a Value,
    section: &str,
    mut holds: impl FnMut(&'a Value) -> Result<bool, String>,
) -> Result<(), String> {
    for (i, cell) in doc.list_at(section)?.iter().enumerate() {
        if !holds(cell)? {
            return Err(format!("{section}[{i}] (seed {})", cell.u64_at("seed")?));
        }
    }
    Ok(())
}

/// Checks a report document: its `"experiment"` picks the contract,
/// its key tree must equal that experiment's `template()` exactly
/// (nested keys, their order and value kinds), and then every common
/// and experiment claim must hold. `Err` names the first key path or claim
/// that fails.
pub fn check(doc: &Value) -> Result<(), String> {
    use crate::{fed_scale, net_congestion, paper, query_scale};
    let name = doc.str_at("experiment")?;
    let (template, claims) = match name {
        "fed_scale" => (fed_scale::template(), fed_scale::CLAIMS),
        "net_congestion" => (net_congestion::template(), net_congestion::CLAIMS),
        "query_scale" => (query_scale::template(), query_scale::CLAIMS),
        "paper" => (paper::template(), paper::CLAIMS),
        _ => return Err(format!("unknown experiment `{name}`")),
    };
    same_keys(&template.value(), doc, name)?;
    for claim in COMMON_CLAIMS.iter().chain(claims) {
        (claim.check)(doc).map_err(|e| format!("claim `{}` fails: {e}", claim.name))?;
    }
    Ok(())
}

/// `got` has `want`'s key tree: the same object keys in the same
/// order, the same value kinds, and every list item shaped like
/// `want`'s first.
fn same_keys(want: &Value, got: &Value, at: &str) -> Result<(), String> {
    match (want, got) {
        (Value::Object(w), Value::Object(g)) => {
            let key = |fields: &[(String, Value)], i: usize| {
                fields
                    .get(i)
                    .map_or("no key".to_owned(), |(k, _)| format!("`{k}`"))
            };
            if let Some(i) = (0..w.len().max(g.len())).find(|&i| key(w, i) != key(g, i)) {
                return Err(format!("{at}: {} where {} belongs", key(g, i), key(w, i)));
            }
            w.iter()
                .zip(g)
                .try_for_each(|((k, w), (_, g))| same_keys(w, g, &format!("{at}.{k}")))
        }
        (Value::List(w), Value::List(g)) => match w.first() {
            Some(_) if g.is_empty() => Err(format!("{at}: empty list")),
            Some(item) => g
                .iter()
                .enumerate()
                .try_for_each(|(i, v)| same_keys(item, v, &format!("{at}[{i}]"))),
            None => Ok(()),
        },
        _ if want.kind() == got.kind() => Ok(()),
        _ => Err(format!(
            "{at}: {} where {} belongs",
            got.kind(),
            want.kind()
        )),
    }
}

/// Nesting beyond this is an error rather than a risk to the stack.
const MAX_DEPTH: usize = 32;

/// Reads one value as [`Value::to_json`] or [`Report::to_json`] write
/// it, ignoring whitespace between tokens. Anything else is an error
/// naming its line and column, never a panic.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    match reader.eat("") && reader.pos == text.len() {
        true => Ok(value),
        false => reader.error("trailing characters"),
    }
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn error<T>(&self, msg: &str) -> Result<T, String> {
        let before = &self.text[..self.pos];
        let line = before.matches('\n').count() + 1;
        let column = before.chars().rev().take_while(|&c| c != '\n').count() + 1;
        Err(format!("line {line}, column {column}: {msg}"))
    }

    /// Consumes `token` after any whitespace; `false` if it is not next.
    fn eat(&mut self, token: &str) -> bool {
        let rest = self.rest().trim_start_matches([' ', '\n', '\r', '\t']);
        let after = rest.strip_prefix(token);
        self.pos = self.text.len() - after.unwrap_or(rest).len();
        after.is_some()
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return self.error("nesting too deep");
        }
        if self.eat("{") {
            let field = |r: &mut Self| match (r.string()?, r.eat(":")) {
                (key, true) => Ok((key, r.value(depth + 1)?)),
                _ => r.error("expected `:`"),
            };
            return self.items("}", field).map(Value::Object);
        }
        if self.eat("[") {
            return self.items("]", |r| r.value(depth + 1)).map(Value::List);
        }
        if self.rest().starts_with('"') {
            return self.string().map(Value::Str);
        }
        let rest = self.rest();
        let word = &rest[..rest
            .find(|c: char| !c.is_alphanumeric())
            .unwrap_or(rest.len())];
        let value = match (word, word.parse::<u64>()) {
            ("true" | "false", _) => Value::Bool(word == "true"),
            (_, Ok(n)) if n.to_string() == word => Value::U64(n),
            _ => return self.error("expected a value"),
        };
        self.pos += word.len();
        Ok(value)
    }

    /// Comma-separated `item`s up to `close`; the opener is consumed.
    fn items<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        while !self.eat(close) {
            if !items.is_empty() && !self.eat(",") {
                return self.error(&format!("expected `,` or `{close}`"));
            }
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A string literal, accepted only as `json_escape` writes it.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.error("expected a string");
        }
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        while let Some((i, c)) = chars.next() {
            out.push(match c {
                '"' if json_escape(&out) == self.rest()[..i] => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '"' => return self.error("not a string `json_escape` writes"),
                '\\' => match chars.next().map_or('\\', |(_, e)| e) {
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16).ok();
                        code.and_then(char::from_u32).unwrap_or('\\')
                    }
                    e => e,
                },
                c => c,
            });
        }
        self.error("unterminated string")
    }
}

cell! {
    /// p50/p90/p99/max of one latency distribution, in micros — the
    /// quantile view every experiment's cells carry.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PhaseQuantiles {
        /// Median.
        pub p50: u64,
        /// 90th percentile.
        pub p90: u64,
        /// 99th percentile.
        pub p99: u64,
        /// Largest sample (exact).
        pub max: u64,
    }
}

impl PhaseQuantiles {
    /// The quantiles of `telemetry`'s `name` histogram under `layer`
    /// (all-zero when it never recorded).
    pub fn of(telemetry: &Telemetry, layer: Layer, name: &str) -> Self {
        let summary = telemetry.histogram(layer, name);
        summary.map_or_else(PhaseQuantiles::default, |s| PhaseQuantiles {
            p50: s.p50_micros,
            p90: s.p90_micros,
            p99: s.p99_micros,
            max: s.max_micros,
        })
    }
}

/// A wall-clock latency distribution: mean plus quantiles, in micros.
impl ToValue for LogHistogram {
    fn to_value(&self) -> Value {
        Value::object([
            ("mean_micros", self.mean().unwrap_or(0).to_value()),
            ("p50_micros", self.p50().unwrap_or(0).to_value()),
            ("p90_micros", self.p90().unwrap_or(0).to_value()),
            ("p99_micros", self.p99().unwrap_or(0).to_value()),
            ("max_micros", self.max().unwrap_or(0).to_value()),
        ])
    }
}

/// FNV-1a 64-bit — a stable, dependency-free digest for fingerprints.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
