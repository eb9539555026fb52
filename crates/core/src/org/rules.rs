//! Organisational rules: role-based authorisation with deontic
//! modality.
//!
//! Rules bind roles and units (not individuals) to actions on target
//! kinds, in the X.500/role tradition the paper cites: "traditionally,
//! roles have been used to signify different access rights of users"
//! (§4). A rule bound to a unit is that management domain's policy: it
//! holds for every member. Prohibitions override permissions;
//! obligations are permissions that monitoring can audit against.

use cscw_directory::Dn;

/// Rule modality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// The role may perform the action.
    Permit,
    /// The role must not perform the action (overrides permits).
    Forbid,
    /// The role must perform the action (implies permit).
    Oblige,
}

/// One organisational rule.
#[derive(Debug, Clone, PartialEq)]
pub struct OrgRule {
    /// The role or unit the rule binds (by DN): it holds for whoever
    /// occupies the role or is a member of the unit.
    pub role: Dn,
    /// Modality.
    pub kind: RuleKind,
    /// Action name (`read`, `schedule`, `import`, …).
    pub action: String,
    /// The kind of target it applies to (`document`, `activity`,
    /// `service:printer`, …); `*` matches every kind.
    pub target_kind: String,
}

impl OrgRule {
    /// Creates a rule.
    pub fn new(role: Dn, kind: RuleKind, action: &str, target_kind: &str) -> Self {
        OrgRule {
            role,
            kind,
            action: action.to_owned(),
            target_kind: target_kind.to_owned(),
        }
    }

    /// True when the rule speaks about this action/target pair.
    pub fn applies_to(&self, action: &str, target_kind: &str) -> bool {
        self.action == action && (self.target_kind == "*" || self.target_kind == target_kind)
    }
}

/// The verdict of evaluating the rules for a set of roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Authorisation {
    /// Some rule permits (or obliges) and none forbids.
    Permitted,
    /// A rule forbids (regardless of permits).
    Forbidden,
    /// No rule speaks: the default-deny posture applies.
    NotCovered,
}

impl Authorisation {
    /// True only for [`Authorisation::Permitted`].
    pub fn is_permitted(self) -> bool {
        self == Authorisation::Permitted
    }
}

/// Evaluates `rules` for a principal holding `roles`.
pub fn evaluate(rules: &[OrgRule], roles: &[Dn], action: &str, target_kind: &str) -> Authorisation {
    let mut permitted = false;
    for rule in rules {
        if !roles.contains(&rule.role) || !rule.applies_to(action, target_kind) {
            continue;
        }
        match rule.kind {
            RuleKind::Forbid => return Authorisation::Forbidden,
            RuleKind::Permit | RuleKind::Oblige => permitted = true,
        }
    }
    if permitted {
        Authorisation::Permitted
    } else {
        Authorisation::NotCovered
    }
}

/// The obligations a set of roles carries (for progress monitoring).
pub fn obligations<'a>(rules: &'a [OrgRule], roles: &[Dn]) -> Vec<&'a OrgRule> {
    rules
        .iter()
        .filter(|r| r.kind == RuleKind::Oblige && roles.contains(&r.role))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn role(n: &str) -> Dn {
        format!("cn={n}").parse().unwrap()
    }

    fn rules() -> Vec<OrgRule> {
        vec![
            OrgRule::new(
                role("coordinator"),
                RuleKind::Permit,
                "schedule",
                "activity",
            ),
            OrgRule::new(role("coordinator"), RuleKind::Oblige, "monitor", "activity"),
            OrgRule::new(role("visitor"), RuleKind::Forbid, "schedule", "activity"),
            OrgRule::new(role("member"), RuleKind::Permit, "read", "*"),
        ]
    }

    #[test]
    fn permit_and_default_deny() {
        let rs = rules();
        assert_eq!(
            evaluate(&rs, &[role("coordinator")], "schedule", "activity"),
            Authorisation::Permitted
        );
        assert_eq!(
            evaluate(&rs, &[role("coordinator")], "delete", "activity"),
            Authorisation::NotCovered
        );
        assert!(!Authorisation::NotCovered.is_permitted());
    }

    #[test]
    fn forbid_overrides_permit() {
        let rs = rules();
        // Someone who is both coordinator and visitor: forbid wins.
        assert_eq!(
            evaluate(
                &rs,
                &[role("coordinator"), role("visitor")],
                "schedule",
                "activity"
            ),
            Authorisation::Forbidden
        );
    }

    #[test]
    fn oblige_implies_permit() {
        let rs = rules();
        assert_eq!(
            evaluate(&rs, &[role("coordinator")], "monitor", "activity"),
            Authorisation::Permitted
        );
    }

    #[test]
    fn wildcard_target() {
        let rs = rules();
        assert_eq!(
            evaluate(&rs, &[role("member")], "read", "document"),
            Authorisation::Permitted
        );
        assert_eq!(
            evaluate(&rs, &[role("member")], "read", "activity"),
            Authorisation::Permitted
        );
        assert_eq!(
            evaluate(&rs, &[role("member")], "write", "document"),
            Authorisation::NotCovered
        );
    }

    #[test]
    fn obligations_are_listed_per_role() {
        let rs = rules();
        let obs = obligations(&rs, &[role("coordinator")]);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].action, "monitor");
        assert!(obligations(&rs, &[role("member")]).is_empty());
    }
}
