//! The ODP trader: service export, import and federation.
//!
//! Exporters advertise [`ServiceOffer`]s — an interface reference plus
//! typed properties — under a named service type. Importers ask for a
//! service type with a [`Constraint`] over properties and an optional
//! preference ordering. Offers are checked for *structural conformance*
//! against the service type's interface at export time, so every import
//! result is invocable.
//!
//! §6.1 of the paper proposes that "the organisational knowledge base…
//! will be associated to the trader, containing or dictating among
//! other the trading policy". [`TradingPolicy`] is that hook: the MOCCA
//! organisational model implements it to filter imports by
//! organisational rules (bench R6 measures the effect).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::OdpError;
use crate::interface::InterfaceType;
use crate::object::InterfaceRef;
use crate::value::Value;

/// A unique offer identifier within one trader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OfferId(u64);

impl fmt::Display for OfferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offer{}", self.0)
    }
}

/// An advertised service.
///
/// An offer is immutable once exported, so clones share one body:
/// handing import results to an importer (over the wire or in process)
/// bumps a reference count instead of copying the property map.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOffer(Arc<OfferBody>);

/// The immutable body shared by clones of one [`ServiceOffer`].
#[derive(Debug, PartialEq)]
struct OfferBody {
    id: OfferId,
    service_type: String,
    interface: InterfaceRef,
    properties: BTreeMap<String, Value>,
}

impl ServiceOffer {
    /// The offer id.
    pub fn id(&self) -> OfferId {
        self.0.id
    }

    /// The service type it was exported under.
    pub fn service_type(&self) -> &str {
        &self.0.service_type
    }

    /// The interface to invoke.
    pub fn interface(&self) -> &InterfaceRef {
        &self.0.interface
    }

    /// A property value.
    pub fn property(&self, name: &str) -> Option<&Value> {
        self.0.properties.get(name)
    }

    /// All properties.
    pub fn properties(&self) -> &BTreeMap<String, Value> {
        &self.0.properties
    }
}

/// A constraint over offer properties.
///
/// Built with combinators rather than parsed: the trader is programmatic
/// infrastructure, not a user interface.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Matches every offer.
    True,
    /// The property exists.
    Has(String),
    /// The property equals the value.
    Eq(String, Value),
    /// The property is an integer `>=` the bound.
    Ge(String, i64),
    /// The property is an integer `<=` the bound.
    Le(String, i64),
    /// All sub-constraints hold.
    All(Vec<Constraint>),
    /// At least one sub-constraint holds.
    Any(Vec<Constraint>),
    /// The sub-constraint does not hold.
    Not(Box<Constraint>),
}

impl Constraint {
    /// Evaluates against an offer.
    pub fn matches(&self, offer: &ServiceOffer) -> bool {
        match self {
            Constraint::True => true,
            Constraint::Has(p) => offer.property(p).is_some(),
            Constraint::Eq(p, v) => offer.property(p) == Some(v),
            Constraint::Ge(p, bound) => offer
                .property(p)
                .and_then(Value::as_int)
                .map(|i| i >= *bound)
                .unwrap_or(false),
            Constraint::Le(p, bound) => offer
                .property(p)
                .and_then(Value::as_int)
                .map(|i| i <= *bound)
                .unwrap_or(false),
            Constraint::All(cs) => cs.iter().all(|c| c.matches(offer)),
            Constraint::Any(cs) => cs.iter().any(|c| c.matches(offer)),
            Constraint::Not(c) => !c.matches(offer),
        }
    }
}

/// Result ordering preference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Preference {
    /// Trader's discretion (offer id order — deterministic).
    None,
    /// Prefer the largest integer value of this property.
    Max(String),
    /// Prefer the smallest integer value of this property.
    Min(String),
}

/// An import request.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportRequest {
    /// The service type wanted.
    pub service_type: String,
    /// Property constraint.
    pub constraint: Constraint,
    /// Ordering preference.
    pub preference: Preference,
    /// Maximum matches to return; `None` is unlimited.
    pub max_matches: Option<usize>,
    /// The importing principal, passed to trading policies. The MOCCA
    /// layer puts the importer's directory DN here.
    pub importer: String,
}

impl ImportRequest {
    /// A request for any offer of `service_type`.
    pub fn any(service_type: &str) -> Self {
        ImportRequest {
            service_type: service_type.to_owned(),
            constraint: Constraint::True,
            preference: Preference::None,
            max_matches: None,
            importer: String::new(),
        }
    }

    /// Sets the constraint.
    #[must_use]
    pub fn with_constraint(mut self, constraint: Constraint) -> Self {
        self.constraint = constraint;
        self
    }

    /// Sets the preference.
    #[must_use]
    pub fn with_preference(mut self, preference: Preference) -> Self {
        self.preference = preference;
        self
    }

    /// Limits the number of matches.
    #[must_use]
    pub fn with_max_matches(mut self, n: usize) -> Self {
        self.max_matches = Some(n);
        self
    }

    /// Identifies the importer (for trading policy).
    #[must_use]
    pub fn with_importer(mut self, importer: impl Into<String>) -> Self {
        self.importer = importer.into();
        self
    }
}

/// A trading policy: decides, per offer and importer, whether the offer
/// may be returned. The paper's organisational knowledge base attaches
/// here.
pub trait TradingPolicy {
    /// A name for diagnostics.
    fn name(&self) -> &str;

    /// Whether `importer` may see `offer`.
    fn allows(&self, offer: &ServiceOffer, importer: &str) -> bool;
}

/// A single trader.
///
/// # Examples
///
/// ```
/// use odp::*;
/// use simnet::NodeId;
///
/// let mut trader = Trader::new("t1");
/// trader.register_service_type(
///     InterfaceType::new("printer")
///         .with_operation(OperationSig::new("print", [ValueKind::Text], ValueKind::Bool)),
/// );
/// let iface = InterfaceRef {
///     object: "lp0".into(),
///     node: NodeId::from_raw(0),
///     interface: "printer".into(),
/// };
/// let offering_type = InterfaceType::new("printer")
///     .with_operation(OperationSig::new("print", [ValueKind::Text], ValueKind::Bool));
/// trader.export("printer", &offering_type, iface, [("dpi", Value::Int(300))])?;
///
/// let offers = trader.import(&ImportRequest::any("printer"))?;
/// assert_eq!(offers.len(), 1);
/// # Ok::<(), odp::OdpError>(())
/// ```
pub struct Trader {
    name: String,
    service_types: BTreeMap<String, InterfaceType>,
    offers: Vec<ServiceOffer>,
    policies: Vec<Box<dyn TradingPolicy>>,
    next_offer: u64,
}

impl fmt::Debug for Trader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trader")
            .field("name", &self.name)
            .field(
                "service_types",
                &self.service_types.keys().collect::<Vec<_>>(),
            )
            .field("offers", &self.offers.len())
            .field(
                "policies",
                &self.policies.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Trader {
    /// Creates an empty trader.
    pub fn new(name: impl Into<String>) -> Self {
        Trader {
            name: name.into(),
            service_types: BTreeMap::new(),
            offers: Vec::new(),
            policies: Vec::new(),
            next_offer: 0,
        }
    }

    /// The trader's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a service type (keyed by the interface type's name).
    pub fn register_service_type(&mut self, iface: InterfaceType) {
        self.service_types.insert(iface.name().to_owned(), iface);
    }

    /// Attaches a trading policy; all policies must allow an offer for it
    /// to be imported.
    pub fn attach_policy(&mut self, policy: impl TradingPolicy + 'static) {
        self.policies.push(Box::new(policy));
    }

    /// Attaches an already-boxed trading policy (for callers that only
    /// hold the policy as a trait object).
    pub fn attach_policy_boxed(&mut self, policy: Box<dyn TradingPolicy>) {
        self.policies.push(policy);
    }

    /// Number of active offers.
    pub fn offer_count(&self) -> usize {
        self.offers.len()
    }

    /// Exports an offer.
    ///
    /// `offering_type` is the full interface type of the exported
    /// interface; it must structurally conform to the registered service
    /// type.
    ///
    /// # Errors
    ///
    /// * [`OdpError::UnknownServiceType`] — service type not registered.
    /// * [`OdpError::NotConformant`] — the offered interface does not
    ///   conform to the service type.
    pub fn export(
        &mut self,
        service_type: &str,
        offering_type: &InterfaceType,
        interface: InterfaceRef,
        properties: impl IntoIterator<Item = (&'static str, Value)>,
    ) -> Result<OfferId, OdpError> {
        self.export_dynamic(
            service_type,
            offering_type,
            interface,
            properties.into_iter().map(|(k, v)| (k.to_owned(), v)),
        )
    }

    /// [`Trader::export`] with owned property keys, for callers (like
    /// the network-facing [`crate::TraderNode`]) whose keys are not
    /// static.
    ///
    /// # Errors
    ///
    /// As for [`Trader::export`].
    pub fn export_dynamic(
        &mut self,
        service_type: &str,
        offering_type: &InterfaceType,
        interface: InterfaceRef,
        properties: impl IntoIterator<Item = (String, Value)>,
    ) -> Result<OfferId, OdpError> {
        let required = self
            .service_types
            .get(service_type)
            .ok_or_else(|| OdpError::UnknownServiceType(service_type.to_owned()))?;
        offering_type.conforms_to(required)?;
        let id = OfferId(self.next_offer);
        self.next_offer += 1;
        self.offers.push(ServiceOffer(Arc::new(OfferBody {
            id,
            service_type: service_type.to_owned(),
            interface,
            properties: properties.into_iter().collect(),
        })));
        Ok(id)
    }

    /// Withdraws an offer.
    ///
    /// # Errors
    ///
    /// [`OdpError::NoSuchObject`] when the offer id is unknown.
    pub fn withdraw(&mut self, id: OfferId) -> Result<(), OdpError> {
        let before = self.offers.len();
        self.offers.retain(|o| o.id() != id);
        if self.offers.len() == before {
            return Err(OdpError::NoSuchObject(id.to_string()));
        }
        Ok(())
    }

    /// Imports: returns matching offers, policy-filtered, preference-
    /// ordered, truncated to `max_matches`.
    ///
    /// # Errors
    ///
    /// * [`OdpError::UnknownServiceType`] — the requested type is not
    ///   registered here.
    /// * [`OdpError::NoMatchingOffer`] — nothing matched.
    pub fn import(&self, request: &ImportRequest) -> Result<Vec<&ServiceOffer>, OdpError> {
        if !self.service_types.contains_key(&request.service_type) {
            return Err(OdpError::UnknownServiceType(request.service_type.clone()));
        }
        let mut matches: Vec<&ServiceOffer> = self
            .offers
            .iter()
            .filter(|o| self.type_matches(o.service_type(), &request.service_type))
            .filter(|o| request.constraint.matches(o))
            .filter(|o| self.policies.iter().all(|p| p.allows(o, &request.importer)))
            .collect();
        if matches.is_empty() {
            return Err(OdpError::NoMatchingOffer {
                service_type: request.service_type.clone(),
            });
        }
        match &request.preference {
            Preference::None => matches.sort_by_key(|o| o.id()),
            Preference::Max(p) => {
                matches.sort_by_key(|o| {
                    std::cmp::Reverse(o.property(p).and_then(Value::as_int).unwrap_or(i64::MIN))
                });
            }
            Preference::Min(p) => {
                matches.sort_by_key(|o| o.property(p).and_then(Value::as_int).unwrap_or(i64::MAX));
            }
        }
        if let Some(n) = request.max_matches {
            matches.truncate(n);
        }
        Ok(matches)
    }

    /// Service-type matching: exact name, or the offered type's
    /// interface structurally conforms to the requested type (subtype
    /// matching).
    fn type_matches(&self, offered: &str, requested: &str) -> bool {
        if offered == requested {
            return true;
        }
        match (
            self.service_types.get(offered),
            self.service_types.get(requested),
        ) {
            (Some(o), Some(r)) => o.conforms_to(r).is_ok(),
            _ => false,
        }
    }
}

/// Health of a trader-interworking link. Links degrade under platform
/// faults and heal afterwards; a down link removes its target domain
/// from federated query propagation without unlinking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Queries propagate across the link.
    Up,
    /// The link is partitioned; queries fall back to local-only matches.
    Down,
}

/// A directed interworking link between two trading *domains* — ODP's
/// "linked traders". The federation layer owns a set of these; the odp
/// crate owns the vocabulary so both ends speak the same types. `D`
/// names a domain: its text, or a dense id the owner assigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraderLink<D> {
    /// The querying domain.
    pub from: D,
    /// The domain unmatched queries are forwarded to.
    pub to: D,
    /// Current link health.
    pub state: LinkState,
}

impl<D> TraderLink<D> {
    /// Creates an up link.
    pub fn new(from: D, to: D) -> Self {
        TraderLink {
            from,
            to,
            state: LinkState::Up,
        }
    }

    /// True when queries may cross.
    pub fn is_up(&self) -> bool {
        self.state == LinkState::Up
    }
}

/// Scope control for one federated query: a hop budget plus the set of
/// domains already consulted. Together they guarantee termination on
/// arbitrary link graphs — cycles are cut by the visited set, long
/// chains by the hop budget.
#[derive(Debug, Clone)]
pub struct QueryScope<D> {
    hops_left: u8,
    visited: Vec<D>,
}

impl<D: PartialEq> QueryScope<D> {
    /// A scope allowing at most `hops` link traversals beyond the
    /// originating domain.
    pub fn with_hop_limit(hops: u8) -> Self {
        QueryScope {
            hops_left: hops,
            visited: Vec::new(),
        }
    }

    /// Remaining hop budget.
    pub fn hops_left(&self) -> u8 {
        self.hops_left
    }

    /// Domains consulted so far, in visit order.
    pub fn visited(&self) -> &[D] {
        &self.visited
    }

    /// Records entry into `domain`.
    ///
    /// # Errors
    ///
    /// [`OdpError::FederationLoop`] when the domain was already
    /// consulted within this query — the loop-suppression guarantee.
    pub fn enter(&mut self, domain: D) -> Result<(), OdpError> {
        if self.visited.contains(&domain) {
            return Err(OdpError::FederationLoop);
        }
        self.visited.push(domain);
        Ok(())
    }

    /// Consumes one hop of budget; `false` (budget exhausted) means the
    /// query must not be forwarded any further.
    pub fn descend(&mut self) -> bool {
        if self.hops_left == 0 {
            return false;
        }
        self.hops_left -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::OperationSig;
    use crate::value::ValueKind;
    use simnet::NodeId;

    fn printer_type() -> InterfaceType {
        InterfaceType::new("printer").with_operation(OperationSig::new(
            "print",
            [ValueKind::Text],
            ValueKind::Bool,
        ))
    }

    fn laser_type() -> InterfaceType {
        InterfaceType::new("laser-printer")
            .with_operation(OperationSig::new(
                "print",
                [ValueKind::Text],
                ValueKind::Bool,
            ))
            .with_operation(OperationSig::new("duplex", [], ValueKind::Unit))
    }

    fn iref(n: u32, obj: &str) -> InterfaceRef {
        InterfaceRef {
            object: obj.into(),
            node: NodeId::from_raw(n),
            interface: "printer".into(),
        }
    }

    fn trader_with_printers() -> Trader {
        let mut t = Trader::new("t");
        t.register_service_type(printer_type());
        t.register_service_type(laser_type());
        t.export(
            "printer",
            &printer_type(),
            iref(1, "lp0"),
            [("dpi", Value::Int(300)), ("site", Value::from("UK"))],
        )
        .unwrap();
        t.export(
            "printer",
            &printer_type(),
            iref(2, "lp1"),
            [("dpi", Value::Int(600)), ("site", Value::from("DE"))],
        )
        .unwrap();
        t.export(
            "laser-printer",
            &laser_type(),
            iref(3, "laser0"),
            [("dpi", Value::Int(1200))],
        )
        .unwrap();
        t
    }

    #[test]
    fn export_requires_registered_and_conformant_type() {
        let mut t = Trader::new("t");
        assert!(matches!(
            t.export("printer", &printer_type(), iref(1, "x"), []),
            Err(OdpError::UnknownServiceType(_))
        ));
        t.register_service_type(printer_type());
        let bad = InterfaceType::new("printer"); // no operations
        assert!(matches!(
            t.export("printer", &bad, iref(1, "x"), []),
            Err(OdpError::NotConformant { .. })
        ));
        assert!(t
            .export("printer", &printer_type(), iref(1, "x"), [])
            .is_ok());
    }

    #[test]
    fn import_matches_constraint() {
        let t = trader_with_printers();
        let req = ImportRequest::any("printer").with_constraint(Constraint::Ge("dpi".into(), 600));
        let offers = t.import(&req).unwrap();
        // lp1 (600) and the laser (1200, subtype) match.
        assert_eq!(offers.len(), 2);
        assert!(offers
            .iter()
            .all(|o| o.property("dpi").unwrap().as_int().unwrap() >= 600));
    }

    #[test]
    fn subtype_offers_match_supertype_requests() {
        let t = trader_with_printers();
        let offers = t.import(&ImportRequest::any("printer")).unwrap();
        assert_eq!(offers.len(), 3, "laser-printer conforms to printer");
        // The reverse does not hold.
        let lasers = t.import(&ImportRequest::any("laser-printer")).unwrap();
        assert_eq!(lasers.len(), 1);
    }

    #[test]
    fn preference_orders_results() {
        let t = trader_with_printers();
        let req = ImportRequest::any("printer").with_preference(Preference::Max("dpi".into()));
        let offers = t.import(&req).unwrap();
        let dpis: Vec<i64> = offers
            .iter()
            .map(|o| o.property("dpi").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(dpis, vec![1200, 600, 300]);
        let req = req
            .with_preference(Preference::Min("dpi".into()))
            .with_max_matches(1);
        let offers = t.import(&req).unwrap();
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].property("dpi").unwrap(), &Value::Int(300));
    }

    #[test]
    fn withdraw_removes_offer() {
        let mut t = trader_with_printers();
        let all = t.import(&ImportRequest::any("printer")).unwrap();
        let victim = all[0].id();
        t.withdraw(victim).unwrap();
        assert_eq!(t.offer_count(), 2);
        assert!(t.withdraw(victim).is_err());
    }

    #[test]
    fn no_match_is_an_error_not_empty() {
        let t = trader_with_printers();
        let req =
            ImportRequest::any("printer").with_constraint(Constraint::Ge("dpi".into(), 10_000));
        assert!(matches!(
            t.import(&req),
            Err(OdpError::NoMatchingOffer { .. })
        ));
        assert!(matches!(
            t.import(&ImportRequest::any("scanner")),
            Err(OdpError::UnknownServiceType(_))
        ));
    }

    struct SitePolicy {
        forbidden_site: &'static str,
    }
    impl TradingPolicy for SitePolicy {
        fn name(&self) -> &str {
            "site-policy"
        }
        fn allows(&self, offer: &ServiceOffer, _importer: &str) -> bool {
            offer.property("site").and_then(Value::as_text) != Some(self.forbidden_site)
        }
    }

    #[test]
    fn trading_policy_filters_offers() {
        let mut t = trader_with_printers();
        t.attach_policy(SitePolicy {
            forbidden_site: "DE",
        });
        let offers = t.import(&ImportRequest::any("printer")).unwrap();
        assert_eq!(offers.len(), 2, "DE offer hidden by policy");
        assert!(offers
            .iter()
            .all(|o| o.property("site").and_then(Value::as_text) != Some("DE")));
    }

    #[test]
    fn constraint_combinators() {
        let t = trader_with_printers();
        let c = Constraint::All(vec![
            Constraint::Has("site".into()),
            Constraint::Not(Box::new(Constraint::Eq("site".into(), Value::from("DE")))),
        ]);
        let offers = t
            .import(&ImportRequest::any("printer").with_constraint(c))
            .unwrap();
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].property("site").unwrap(), &Value::from("UK"));
        let any = Constraint::Any(vec![
            Constraint::Eq("site".into(), Value::from("UK")),
            Constraint::Eq("site".into(), Value::from("DE")),
        ]);
        let offers = t
            .import(&ImportRequest::any("printer").with_constraint(any))
            .unwrap();
        assert_eq!(offers.len(), 2);
    }

    #[test]
    fn query_scope_cuts_loops_and_exhausts_hops() {
        let mut scope = QueryScope::with_hop_limit(2);
        scope.enter("a").unwrap();
        scope.enter("b").unwrap();
        assert!(matches!(scope.enter("a"), Err(OdpError::FederationLoop)));
        assert_eq!(scope.visited(), ["a", "b"]);
        assert!(scope.descend());
        assert!(scope.descend());
        assert!(!scope.descend(), "hop budget exhausted");
    }

    #[test]
    fn trader_links_report_health() {
        let mut link = TraderLink::new("a", "b");
        assert!(link.is_up());
        link.state = LinkState::Down;
        assert!(!link.is_up());
    }
}
