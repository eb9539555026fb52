//! User-programmable rules (the Object-Lens-style end of tailoring).
//!
//! §4: "the traditional divide between users and developers becomes
//! less clear with users having similar powers and status as system
//! developers." A [`TailorRule`] is the users' programming surface:
//! *when* an event matching a pattern arrives, *do* an action. The
//! groupware mail application (and the environment's event bus) run
//! events through a [`RuleEngine`].

use cscw_directory::Dn;

use crate::info::InfoContent;

/// Matches events by kind and field values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventPattern {
    /// Event kind to match; `None` matches every kind.
    pub kind: Option<String>,
    /// Every listed field must be present with the given value.
    pub field_equals: Vec<(String, String)>,
    /// Every listed field must be present containing the substring.
    pub field_contains: Vec<(String, String)>,
}

impl EventPattern {
    /// Matches any event of a kind.
    pub fn of_kind(kind: &str) -> Self {
        EventPattern {
            kind: Some(kind.to_owned()),
            ..Default::default()
        }
    }

    /// Adds an exact-field requirement.
    #[must_use]
    pub fn with_field(mut self, field: &str, value: &str) -> Self {
        self.field_equals.push((field.to_owned(), value.to_owned()));
        self
    }

    /// Adds a substring requirement.
    #[must_use]
    pub fn with_field_containing(mut self, field: &str, needle: &str) -> Self {
        self.field_contains
            .push((field.to_owned(), needle.to_owned()));
        self
    }

    /// Evaluates against an event.
    pub fn matches(&self, kind: &str, content: &InfoContent) -> bool {
        if let Some(k) = &self.kind {
            if k != kind {
                return false;
            }
        }
        for (field, expected) in &self.field_equals {
            if content.field(field) != Some(expected.as_str()) {
                return false;
            }
        }
        for (field, needle) in &self.field_contains {
            match content.field(field) {
                Some(v) if v.contains(needle.as_str()) => {}
                _ => return false,
            }
        }
        true
    }
}

/// What a rule does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleAction {
    /// File the object into a folder.
    MoveToFolder(String),
    /// Forward a copy to someone.
    Forward(Dn),
    /// Raise a notification for the user.
    Notify(String),
    /// Rewrite a field.
    SetField(String, String),
    /// Discard the object.
    Delete,
}

/// One user rule.
#[derive(Debug, Clone, PartialEq)]
pub struct TailorRule {
    /// Rule name (for the user's rule list).
    pub name: String,
    /// When it fires.
    pub pattern: EventPattern,
    /// What it does.
    pub action: RuleAction,
}

/// Applies an ordered rule list to events.
#[derive(Debug, Clone, Default)]
pub struct RuleEngine {
    rules: Vec<TailorRule>,
}

impl RuleEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule (rules fire in insertion order).
    pub fn add_rule(&mut self, rule: TailorRule) {
        self.rules.push(rule);
    }

    /// Removes a rule by name; returns whether it existed.
    pub fn remove_rule(&mut self, name: &str) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.name != name);
        self.rules.len() != before
    }

    /// The rules, in firing order.
    pub fn rules(&self) -> &[TailorRule] {
        &self.rules
    }

    /// Runs an event through the rules; returns the actions of every
    /// matching rule, in order. `SetField` actions are applied to the
    /// content *between* rules, so later patterns see earlier rewrites —
    /// that is what makes rules composable programs rather than a flat
    /// filter list.
    pub fn apply(&self, kind: &str, content: &mut InfoContent) -> Vec<RuleAction> {
        let mut fired = Vec::new();
        for rule in &self.rules {
            if rule.pattern.matches(kind, content) {
                if let RuleAction::SetField(field, value) = &rule.action {
                    if let InfoContent::Fields(map) = content {
                        map.insert(field.clone(), value.clone());
                    }
                }
                fired.push(rule.action.clone());
                if rule.action == RuleAction::Delete {
                    break; // nothing survives a delete
                }
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(from: &str, subject: &str) -> InfoContent {
        InfoContent::fields([("from", from), ("subject", subject)])
    }

    fn engine() -> RuleEngine {
        let mut e = RuleEngine::new();
        e.add_rule(TailorRule {
            name: "file-mocca".into(),
            pattern: EventPattern::of_kind("message").with_field_containing("subject", "MOCCA"),
            action: RuleAction::MoveToFolder("mocca".into()),
        });
        e.add_rule(TailorRule {
            name: "flag-boss".into(),
            pattern: EventPattern::of_kind("message").with_field("from", "cn=Boss"),
            action: RuleAction::SetField("priority".into(), "high".into()),
        });
        e.add_rule(TailorRule {
            name: "notify-high".into(),
            pattern: EventPattern::of_kind("message").with_field("priority", "high"),
            action: RuleAction::Notify("urgent mail".into()),
        });
        e.add_rule(TailorRule {
            name: "drop-spam".into(),
            pattern: EventPattern::of_kind("message").with_field_containing("subject", "WIN BIG"),
            action: RuleAction::Delete,
        });
        e
    }

    #[test]
    fn patterns_match_kind_and_fields() {
        let p = EventPattern::of_kind("message").with_field("from", "cn=Boss");
        assert!(p.matches("message", &message("cn=Boss", "hi")));
        assert!(!p.matches("document", &message("cn=Boss", "hi")));
        assert!(!p.matches("message", &message("cn=Other", "hi")));
        let any = EventPattern::default();
        assert!(any.matches("anything", &InfoContent::Text("x".into())));
    }

    #[test]
    fn rules_fire_in_order() {
        let e = engine();
        let mut content = message("cn=Tom", "MOCCA progress");
        let fired = e.apply("message", &mut content);
        assert_eq!(fired, vec![RuleAction::MoveToFolder("mocca".into())]);
    }

    #[test]
    fn set_field_feeds_later_rules() {
        let e = engine();
        let mut content = message("cn=Boss", "budget");
        let fired = e.apply("message", &mut content);
        assert_eq!(fired.len(), 2, "SetField then the Notify that sees it");
        assert!(matches!(fired[1], RuleAction::Notify(_)));
        assert_eq!(content.field("priority"), Some("high"));
    }

    #[test]
    fn delete_short_circuits() {
        let mut e = engine();
        e.add_rule(TailorRule {
            name: "after-delete".into(),
            pattern: EventPattern::default(),
            action: RuleAction::Notify("should never fire".into()),
        });
        let mut content = message("cn=Spammer", "WIN BIG NOW");
        let fired = e.apply("message", &mut content);
        assert_eq!(*fired.last().unwrap(), RuleAction::Delete);
        assert!(!fired
            .iter()
            .any(|a| matches!(a, RuleAction::Notify(msg) if msg.contains("never"))));
    }

    #[test]
    fn remove_rule_by_name() {
        let mut e = engine();
        assert!(e.remove_rule("drop-spam"));
        assert!(!e.remove_rule("drop-spam"));
        assert_eq!(e.rules().len(), 3);
    }

    #[test]
    fn non_field_content_matches_kind_only_patterns() {
        let e = RuleEngine::new();
        let mut text = InfoContent::Text("plain".into());
        assert!(e.apply("note", &mut text).is_empty());
        let p = EventPattern::of_kind("note").with_field("x", "y");
        assert!(!p.matches("note", &InfoContent::Text("plain".into())));
    }
}
