//! The organisational trading policy.
//!
//! §6.1: "within future ODP systems aimed at supporting CSCW
//! applications the organisational knowledge base considered in the
//! Mocca environment will be associated to the trader, containing or
//! dictating among other the trading policy." This module is that
//! association: an [`odp::TradingPolicy`] whose decisions come from the
//! organisational rule base, so trader imports respect organisational
//! authority. Bench R6 measures imports with and without it.

use cscw_directory::Dn;
use odp::{ServiceOffer, TradingPolicy, Value};

use crate::org::model::SharedOrgModel;

/// The DN under which the environment itself performs engineering
/// imports (e.g. locating the destination application's interface
/// during an exchange). Those imports are the environment's own
/// plumbing — user-level authority for the *cooperation* is checked by
/// `CscwEnvironment::check_cooperation`, not by the trading policy.
pub const ENV_PRINCIPAL: &str = "cn=mocca-environment";

/// Trading policy driven by organisational rules.
///
/// An import of service type `T` by principal `P` (the import request's
/// `importer` string, a directory DN) is allowed iff the organisational
/// model authorises `P` to perform action `"import"` on target kind
/// `"service:T"`. Offers carrying an `org` property are additionally
/// checked for action `"import-from"` on `"org:<value>"` — the
/// inter-organisational hook. The environment's own engineering
/// identity ([`ENV_PRINCIPAL`]) is always allowed.
#[derive(Clone)]
pub struct OrgTradingPolicy {
    model: SharedOrgModel,
}

impl std::fmt::Debug for OrgTradingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrgTradingPolicy").finish_non_exhaustive()
    }
}

impl OrgTradingPolicy {
    /// Creates the policy over a shared organisational model.
    pub fn new(model: SharedOrgModel) -> Self {
        OrgTradingPolicy { model }
    }
}

impl TradingPolicy for OrgTradingPolicy {
    fn name(&self) -> &str {
        "mocca-organisational-policy"
    }

    fn allows(&self, offer: &ServiceOffer, importer: &str) -> bool {
        if importer == ENV_PRINCIPAL {
            return true;
        }
        let Ok(dn) = importer.parse::<Dn>() else {
            return false; // unidentified importers get nothing
        };
        let model = self.model.read();
        let service_target = format!("service:{}", offer.service_type());
        if !model
            .authorise(&dn, "import", &service_target)
            .is_permitted()
        {
            return false;
        }
        if let Some(org) = offer.property("org").and_then(Value::as_text) {
            let org_target = format!("org:{org}");
            if !model
                .authorise(&dn, "import-from", &org_target)
                .is_permitted()
            {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::model::OrganisationalModel;
    use crate::org::objects::{Person, Role};
    use crate::org::rules::{OrgRule, RuleKind};
    use crate::org::RelationKind;
    use odp::{ImportRequest, InterfaceRef, InterfaceType, OperationSig, Trader, ValueKind};
    use simnet::NodeId;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn shared_model() -> SharedOrgModel {
        let mut m = OrganisationalModel::new();
        m.add_person(Person::new(dn("c=UK,cn=Tom"), "Tom"));
        m.add_person(Person::new(dn("c=DE,cn=Wolfgang"), "Wolfgang"));
        m.add_role(Role::new(dn("cn=staff"), "staff"));
        m.relate(&dn("c=UK,cn=Tom"), RelationKind::Occupies, &dn("cn=staff"))
            .unwrap();
        // Staff may import printers, and may import from GMD but not UPC.
        m.add_rule(OrgRule::new(
            dn("cn=staff"),
            RuleKind::Permit,
            "import",
            "service:printer",
        ));
        m.add_rule(OrgRule::new(
            dn("cn=staff"),
            RuleKind::Permit,
            "import-from",
            "org:GMD",
        ));
        m.add_rule(OrgRule::new(
            dn("cn=staff"),
            RuleKind::Forbid,
            "import-from",
            "org:UPC",
        ));
        SharedOrgModel::new(m)
    }

    fn trader_with_policy(model: SharedOrgModel) -> Trader {
        let iface = InterfaceType::new("printer").with_operation(OperationSig::new(
            "print",
            [ValueKind::Text],
            ValueKind::Bool,
        ));
        let mut t = Trader::new("t");
        t.register_service_type(iface.clone());
        for (i, org) in ["GMD", "UPC"].iter().enumerate() {
            t.export(
                "printer",
                &iface,
                InterfaceRef {
                    object: format!("lp{i}").as_str().into(),
                    node: NodeId::from_raw(i as u32),
                    interface: "printer".into(),
                },
                [("org", Value::from(*org))],
            )
            .unwrap();
        }
        t.attach_policy(OrgTradingPolicy::new(model));
        t
    }

    #[test]
    fn authorised_importer_sees_only_policy_compatible_offers() {
        let t = trader_with_policy(shared_model());
        let req = ImportRequest::any("printer").with_importer("c=UK,cn=Tom");
        let offers = t.import(&req).unwrap();
        assert_eq!(offers.len(), 1, "UPC offer filtered by import-from rule");
        assert_eq!(offers[0].property("org").unwrap(), &Value::from("GMD"));
    }

    #[test]
    fn person_without_role_sees_nothing() {
        let t = trader_with_policy(shared_model());
        let req = ImportRequest::any("printer").with_importer("c=DE,cn=Wolfgang");
        assert!(
            t.import(&req).is_err(),
            "no permit rule for Wolfgang's (empty) roles"
        );
    }

    #[test]
    fn anonymous_or_garbage_importers_are_refused() {
        let t = trader_with_policy(shared_model());
        assert!(
            t.import(&ImportRequest::any("printer")).is_err(),
            "empty importer"
        );
        let req = ImportRequest::any("printer").with_importer("not a dn ,,,=");
        assert!(t.import(&req).is_err());
    }

    #[test]
    fn policy_reflects_model_changes_live() {
        let model = shared_model();
        let t = trader_with_policy(model.clone());
        // Grant Wolfgang the staff role at runtime.
        model
            .write()
            .relate(
                &dn("c=DE,cn=Wolfgang"),
                RelationKind::Occupies,
                &dn("cn=staff"),
            )
            .unwrap();
        let req = ImportRequest::any("printer").with_importer("c=DE,cn=Wolfgang");
        assert_eq!(t.import(&req).unwrap().len(), 1);
    }
}
