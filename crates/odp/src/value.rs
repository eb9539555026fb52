//! Values exchanged across computational interfaces.

use std::fmt;

/// A dynamically-typed value crossing an ODP operational interface.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A string.
    Text(String),
    /// A name referring to some other entity (object id, DN, address…).
    Name(String),
    /// An ordered list.
    List(Vec<Value>),
}

impl Value {
    /// The kind tag, used in signature checking.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Unit => ValueKind::Unit,
            Value::Bool(_) => ValueKind::Bool,
            Value::Int(_) => ValueKind::Int,
            Value::Text(_) => ValueKind::Text,
            Value::Name(_) => ValueKind::Name,
            Value::List(_) => ValueKind::List,
        }
    }

    /// Borrow as text, when textual (`Text` or `Name`).
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) | Value::Name(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Borrow as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Approximate marshalled size in bytes, for the bandwidth model.
    pub fn wire_size(&self) -> u64 {
        match self {
            Value::Unit => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Text(s) | Value::Name(s) => 4 + s.len() as u64,
            Value::List(v) => 4 + v.iter().map(Value::wire_size).sum::<u64>(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Name(s) => write!(f, "@{s}"),
            Value::List(v) => {
                f.write_str("[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

/// Value kinds, for signatures. `Any` matches every kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// No value.
    Unit,
    /// Boolean.
    Bool,
    /// Integer.
    Int,
    /// String.
    Text,
    /// Reference name.
    Name,
    /// List.
    List,
    /// Wildcard (matches anything).
    Any,
}

impl ValueKind {
    /// True when a value of kind `actual` is acceptable where `self` is
    /// declared.
    pub fn accepts(self, actual: ValueKind) -> bool {
        self == ValueKind::Any || self == actual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_accessors() {
        assert_eq!(Value::Int(3).kind(), ValueKind::Int);
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::from("x").as_text(), Some("x"));
        assert_eq!(Value::Name("n".into()).as_text(), Some("n"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from(vec![Value::Unit]).as_list().unwrap().len(), 1);
        assert_eq!(Value::Unit.as_int(), None);
    }

    #[test]
    fn any_accepts_everything() {
        for k in [
            ValueKind::Unit,
            ValueKind::Bool,
            ValueKind::Int,
            ValueKind::Text,
        ] {
            assert!(ValueKind::Any.accepts(k));
            assert!(k.accepts(k));
        }
        assert!(!ValueKind::Int.accepts(ValueKind::Text));
        assert!(
            !ValueKind::Int.accepts(ValueKind::Any),
            "Any is not a value kind"
        );
    }

    #[test]
    fn wire_sizes_scale() {
        assert_eq!(Value::Unit.wire_size(), 1);
        assert_eq!(Value::Int(0).wire_size(), 8);
        assert_eq!(Value::from("abcd").wire_size(), 8);
        let l = Value::List(vec![Value::Int(0), Value::Int(1)]);
        assert_eq!(l.wire_size(), 4 + 16);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Name("obj1".into()).to_string(), "@obj1");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Bool(false)]).to_string(),
            "[1, false]"
        );
    }
}
