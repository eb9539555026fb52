//! Scoped, constrained, tailorable parameters.
//!
//! "Systems and the environment need to be tailorable both by
//! developers and users… the environment needs to provide a set of
//! services akin to a developers toolkit to enable this tailorability"
//! (§4). A parameter is declared once with a constraint (the developer
//! side) and then overridden at organisation, group or user scope (the
//! user side); the most specific scope wins.

use std::collections::BTreeMap;

use odp::Value;

use crate::error::MoccaError;

/// Where a setting applies, in increasing precedence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// The declared default.
    System,
    /// Everyone in an organisation.
    Organisation(String),
    /// Everyone in a group (project, activity).
    Group(String),
    /// One user (by DN string).
    User(String),
}

/// Who is asking — used to resolve the effective value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TailorContext {
    /// The user's DN string.
    pub user: String,
    /// Groups the user belongs to.
    pub groups: Vec<String>,
    /// The user's organisation.
    pub organisation: Option<String>,
}

/// What values a parameter accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Any text value.
    AnyText,
    /// Any boolean.
    AnyBool,
    /// An integer within the inclusive range.
    IntRange(i64, i64),
    /// One of the listed text values.
    OneOf(Vec<String>),
}

impl Constraint {
    /// Validates a value.
    pub fn accepts(&self, value: &Value) -> bool {
        match (self, value) {
            (Constraint::AnyText, Value::Text(_)) => true,
            (Constraint::AnyBool, Value::Bool(_)) => true,
            (Constraint::IntRange(lo, hi), Value::Int(i)) => lo <= i && i <= hi,
            (Constraint::OneOf(options), Value::Text(s)) => options.iter().any(|o| o == s),
            _ => false,
        }
    }
}

/// One declared parameter.
#[derive(Debug, Clone)]
struct ParamDecl {
    constraint: Constraint,
    default: Value,
    overrides: BTreeMap<Scope, Value>,
}

/// The tailoring store.
#[derive(Debug, Clone, Default)]
pub struct TailorStore {
    params: BTreeMap<String, ParamDecl>,
}

impl TailorStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a parameter with its constraint and system default.
    ///
    /// # Errors
    ///
    /// [`MoccaError::TailoringViolation`] when the default itself
    /// violates the constraint.
    pub fn declare(
        &mut self,
        name: &str,
        constraint: Constraint,
        default: Value,
    ) -> Result<(), MoccaError> {
        if !constraint.accepts(&default) {
            return Err(MoccaError::TailoringViolation(format!(
                "default for {name} violates its constraint"
            )));
        }
        self.params.insert(
            name.to_owned(),
            ParamDecl {
                constraint,
                default,
                overrides: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Sets an override at a scope.
    ///
    /// # Errors
    ///
    /// [`MoccaError::TailoringViolation`] for unknown parameters or
    /// constraint violations.
    pub fn set(&mut self, name: &str, scope: Scope, value: Value) -> Result<(), MoccaError> {
        let decl = self
            .params
            .get_mut(name)
            .ok_or_else(|| MoccaError::TailoringViolation(format!("unknown parameter {name}")))?;
        if !decl.constraint.accepts(&value) {
            return Err(MoccaError::TailoringViolation(format!(
                "value {value} violates the constraint of {name}"
            )));
        }
        decl.overrides.insert(scope, value);
        Ok(())
    }

    /// Removes an override; returns whether one existed.
    pub fn unset(&mut self, name: &str, scope: &Scope) -> bool {
        self.params
            .get_mut(name)
            .map(|d| d.overrides.remove(scope).is_some())
            .unwrap_or(false)
    }

    /// Resolves the effective value for a context:
    /// user > group (first matching group in context order) >
    /// organisation > system default.
    ///
    /// # Errors
    ///
    /// [`MoccaError::TailoringViolation`] for unknown parameters.
    pub fn effective(&self, name: &str, ctx: &TailorContext) -> Result<Value, MoccaError> {
        let decl = self
            .params
            .get(name)
            .ok_or_else(|| MoccaError::TailoringViolation(format!("unknown parameter {name}")))?;
        if let Some(v) = decl.overrides.get(&Scope::User(ctx.user.clone())) {
            return Ok(v.clone());
        }
        for group in &ctx.groups {
            if let Some(v) = decl.overrides.get(&Scope::Group(group.clone())) {
                return Ok(v.clone());
            }
        }
        if let Some(org) = &ctx.organisation {
            if let Some(v) = decl.overrides.get(&Scope::Organisation(org.clone())) {
                return Ok(v.clone());
            }
        }
        Ok(decl
            .overrides
            .get(&Scope::System)
            .cloned()
            .unwrap_or_else(|| decl.default.clone()))
    }

    /// Declared parameter names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.params.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TailorStore {
        let mut s = TailorStore::new();
        s.declare(
            "notification-medium",
            Constraint::OneOf(vec!["text".into(), "fax".into(), "paper".into()]),
            Value::from("text"),
        )
        .unwrap();
        s.declare(
            "max-session-members",
            Constraint::IntRange(2, 50),
            Value::Int(10),
        )
        .unwrap();
        s.declare("activity-isolation", Constraint::AnyBool, Value::Bool(true))
            .unwrap();
        s
    }

    fn ctx(user: &str) -> TailorContext {
        TailorContext {
            user: user.to_owned(),
            groups: vec!["mocca".into()],
            organisation: Some("lancaster".into()),
        }
    }

    #[test]
    fn default_when_nothing_set() {
        let s = store();
        assert_eq!(
            s.effective("notification-medium", &ctx("tom")).unwrap(),
            Value::from("text")
        );
    }

    #[test]
    fn precedence_user_over_group_over_org() {
        let mut s = store();
        s.set(
            "notification-medium",
            Scope::Organisation("lancaster".into()),
            Value::from("paper"),
        )
        .unwrap();
        assert_eq!(
            s.effective("notification-medium", &ctx("tom")).unwrap(),
            Value::from("paper")
        );
        s.set(
            "notification-medium",
            Scope::Group("mocca".into()),
            Value::from("fax"),
        )
        .unwrap();
        assert_eq!(
            s.effective("notification-medium", &ctx("tom")).unwrap(),
            Value::from("fax")
        );
        s.set(
            "notification-medium",
            Scope::User("tom".into()),
            Value::from("text"),
        )
        .unwrap();
        assert_eq!(
            s.effective("notification-medium", &ctx("tom")).unwrap(),
            Value::from("text")
        );
        // A different user still gets the group value.
        assert_eq!(
            s.effective("notification-medium", &ctx("wolfgang"))
                .unwrap(),
            Value::from("fax")
        );
    }

    #[test]
    fn constraints_are_enforced_everywhere() {
        let mut s = store();
        assert!(s
            .set(
                "notification-medium",
                Scope::User("tom".into()),
                Value::from("telegraph")
            )
            .is_err());
        assert!(s
            .set("max-session-members", Scope::System, Value::Int(100))
            .is_err());
        assert!(s
            .set("max-session-members", Scope::System, Value::from("ten"))
            .is_err());
        assert!(s.set("ghost-param", Scope::System, Value::Int(1)).is_err());
        assert!(s
            .declare("bad", Constraint::IntRange(0, 5), Value::Int(9))
            .is_err());
    }

    #[test]
    fn unset_restores_next_scope() {
        let mut s = store();
        s.set(
            "max-session-members",
            Scope::User("tom".into()),
            Value::Int(3),
        )
        .unwrap();
        assert_eq!(
            s.effective("max-session-members", &ctx("tom")).unwrap(),
            Value::Int(3)
        );
        assert!(s.unset("max-session-members", &Scope::User("tom".into())));
        assert!(!s.unset("max-session-members", &Scope::User("tom".into())));
        assert_eq!(
            s.effective("max-session-members", &ctx("tom")).unwrap(),
            Value::Int(10)
        );
    }

    #[test]
    fn group_order_in_context_decides_ties() {
        let mut s = store();
        s.set(
            "max-session-members",
            Scope::Group("a".into()),
            Value::Int(5),
        )
        .unwrap();
        s.set(
            "max-session-members",
            Scope::Group("b".into()),
            Value::Int(7),
        )
        .unwrap();
        let ctx = TailorContext {
            user: "x".into(),
            groups: vec!["b".into(), "a".into()],
            organisation: None,
        };
        assert_eq!(
            s.effective("max-session-members", &ctx).unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn names_lists_declared() {
        let s = store();
        assert_eq!(s.names().count(), 3);
    }
}
