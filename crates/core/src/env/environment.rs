//! The CSCW environment facade.
//!
//! "A central aim of such environment is to provide interoperability
//! between a variety of applications ensuring that CSCW applications
//! can work in harmony rather than in isolation of each other" (§3,
//! Figure 3). [`CscwEnvironment`] wires the five MOCCA models, the four
//! CSCW transparencies, tailoring, the application registry and the
//! interop hub into one object, and attaches the organisational
//! knowledge base to the ODP trader as §6.1 proposes.
//!
//! Every service the environment performs is counted in an operations
//! ledger; the F4 bench uses it to show the CSCW layer's cost over raw
//! ODP.
//!
//! The environment is *platform-pluggable*: all distribution-touching
//! work (trading, directory, message transfer) goes through the
//! [`Platform`] ports, so the same environment runs in-process
//! ([`LocalPlatform`]) or across a simulated network
//! ([`SimPlatform`](crate::platform::SimPlatform)).

use std::collections::BTreeMap;
use std::fmt;

use cscw_directory::{Attribute, DirOp, Dn, Entry, Rdn};
use cscw_federation::{FederationPort, RemoteDelivery};
use cscw_kernel::Layer;
use cscw_kernel::Timestamp;
use cscw_messaging::OrAddress;
use cscw_query::{CompiledQuery, QueryDelta, Source, SubscriptionId, SubscriptionRegistry};

use crate::activity::{Activity, ActivityId, ActivityRole, InterActivityModel};
use crate::comm::CommunicationModel;
use crate::env::events::{EnvEvent, EventBus};
use crate::env::interop::{ClosedWorld, FormatMapping, InteropHub, NativeArtifact};
use crate::env::registry::{AppDescriptor, AppId, AppRegistry};
use crate::error::MoccaError;
use crate::expertise::UserExpertiseModel;
use crate::info::{InfoContent, InfoObject, InfoObjectId, InformationRepository};
use crate::org::{KnowledgeBase, OrgTradingPolicy, SharedOrgModel, ENV_PRINCIPAL};
use crate::platform::{DirectoryPort, LocalPlatform, Platform, TraderPort, TransportPort};
use crate::tailor::TailorStore;
use crate::transparency::activity::ActivityIsolation;
use crate::transparency::{CscwTransparencySelection, OrganisationTransparency, ViewRegistry};

/// The service type under which registered applications are advertised
/// to the platform's trader (one offer per [`register_app`]).
///
/// [`register_app`]: CscwEnvironment::register_app
pub const APP_SERVICE_TYPE: &str = "cscw-application";

/// The trader interface type every registered application offers.
fn app_service_type() -> odp::InterfaceType {
    odp::InterfaceType::new(APP_SERVICE_TYPE).with_operation(odp::OperationSig::new(
        "deliver",
        [odp::ValueKind::Text],
        odp::ValueKind::Bool,
    ))
}

/// O/R address for a registered application's notification mailbox.
fn app_address(app: &AppId) -> Result<OrAddress, cscw_messaging::MtsError> {
    OrAddress::new("ZZ", "mocca", ["apps"], app.as_str())
}

/// O/R address for a person; DN separators are not legal in O/R
/// components, so they are folded to `-` (`cn=Tom` → `cn-Tom`).
fn person_address(dn: &Dn) -> Result<OrAddress, cscw_messaging::MtsError> {
    let name: String = dn
        .to_string()
        .chars()
        .map(|c| {
            if c == '=' || c == ',' || c == ';' {
                '-'
            } else {
                c
            }
        })
        .collect();
    OrAddress::new("ZZ", "mocca", ["users"], name)
}

/// Deterministic single-line rendering of object content for federation
/// replica entries (gossip bodies are line-oriented).
fn render_content(content: &InfoContent) -> String {
    match content {
        InfoContent::Text(t) => format!("text:{}", t.replace('\n', " ")),
        InfoContent::Fields(fields) => {
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("fields:{}", body.join(";"))
        }
        InfoContent::Binary { format, data } => format!("binary:{format}:{} bytes", data.len()),
    }
}

/// The assembled open CSCW environment.
pub struct CscwEnvironment {
    org: SharedOrgModel,
    knowledge: KnowledgeBase,
    activities: InterActivityModel,
    repository: InformationRepository,
    comm: CommunicationModel,
    expertise: UserExpertiseModel,
    tailoring: TailorStore,
    transparencies: CscwTransparencySelection,
    org_transparency: OrganisationTransparency,
    views: ViewRegistry,
    registry: AppRegistry,
    hub: InteropHub,
    bus: EventBus,
    platform: Box<dyn Platform>,
    federation: Option<Box<dyn FederationPort>>,
    queries: SubscriptionRegistry,
    /// App-bound subscriptions: the mailbox each one's deltas go to.
    query_apps: BTreeMap<SubscriptionId, OrAddress>,
    pending_deltas: Vec<(SubscriptionId, QueryDelta)>,
    operations: u64,
}

impl std::fmt::Debug for CscwEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CscwEnvironment")
            .field("activities", &self.activities.len())
            .field("objects", &self.repository.len())
            .field("apps", &self.registry.apps().len())
            .field("operations", &self.operations)
            .finish()
    }
}

impl Default for CscwEnvironment {
    fn default() -> Self {
        Self::new()
    }
}

impl CscwEnvironment {
    /// Creates an environment on the in-process [`LocalPlatform`] with
    /// all transparencies engaged and the organisational trading policy
    /// attached to the platform's trader.
    pub fn new() -> Self {
        Self::with_platform(Box::new(LocalPlatform::new()))
    }

    /// Creates an environment whose platform ports are wrapped in a
    /// [`ResilientPlatform`](crate::ResilientPlatform) — retries with
    /// seeded-jitter backoff, per-port circuit breakers, and graceful
    /// degradation — before the environment is constructed on top.
    ///
    /// This is the failure-transparent configuration RM-ODP asks of the
    /// engineering infrastructure: applications above the environment
    /// see transient platform faults masked, degraded (flagged stale)
    /// answers while a breaker is open, and classified errors otherwise.
    pub fn with_resilient_platform(platform: Box<dyn Platform>, seed: u64) -> Self {
        Self::with_platform(Box::new(
            crate::ResilientPlatform::new(platform).with_seed(seed),
        ))
    }

    /// Creates an environment on an arbitrary engineering platform.
    ///
    /// The platform's trader gets the organisational trading policy
    /// attached and the [`APP_SERVICE_TYPE`] registered, so application
    /// registration can advertise offers immediately.
    pub fn with_platform(mut platform: Box<dyn Platform>) -> Self {
        let org = SharedOrgModel::default();
        platform
            .trader()
            .attach_policy(Box::new(OrgTradingPolicy::new(org.clone())));
        platform.trader().register_service_type(app_service_type());
        // The knowledge base's DIT logs its changes for the standing-
        // query registry, which shares the platform's telemetry stream.
        let mut knowledge = KnowledgeBase::new();
        knowledge.dit_mut().record_changes();
        let queries = SubscriptionRegistry::with_telemetry(platform.telemetry().clone());
        CscwEnvironment {
            org,
            knowledge,
            activities: InterActivityModel::new(),
            repository: InformationRepository::new(),
            comm: CommunicationModel::new(),
            expertise: UserExpertiseModel::new(),
            tailoring: TailorStore::new(),
            transparencies: CscwTransparencySelection::full(),
            org_transparency: OrganisationTransparency::new(),
            views: ViewRegistry::new(),
            registry: AppRegistry::new(),
            hub: InteropHub::new(),
            bus: EventBus::new(),
            platform,
            federation: None,
            queries,
            query_apps: BTreeMap::new(),
            pending_deltas: Vec::new(),
            operations: 0,
        }
    }

    /// Installs a federation port: the environment joins an
    /// inter-environment federation. Applications already registered
    /// are advertised immediately; future registrations advertise as
    /// they happen, and [`exchange`](Self::exchange) falls through to
    /// federated resolution when the local trader cannot locate the
    /// destination.
    pub fn install_federation(&mut self, mut port: Box<dyn FederationPort>) {
        for descriptor in self.registry.apps() {
            port.advertise_app(descriptor.id.as_str());
        }
        self.emit_env("env.federation_installed", port.domain());
        self.federation = Some(port);
    }

    /// The federation domain this environment joined, if any.
    pub fn federation_domain(&self) -> Option<String> {
        self.federation.as_ref().map(|p| p.domain())
    }

    /// The canonical fingerprint of this environment's replicated
    /// knowledge (None when not federated).
    pub fn federation_fingerprint(&self) -> Option<String> {
        self.federation.as_ref().map(|p| p.replica_fingerprint())
    }

    fn count_op(&mut self) {
        self.operations += 1;
    }

    /// Emits an environment-layer telemetry event on the platform's
    /// stream.
    fn emit_env(&self, name: &'static str, detail: impl fmt::Display) {
        let t = self.platform.telemetry();
        t.incr(Layer::Env, name);
        t.emit(self.platform.clock().now_micros(), Layer::Env, name, detail);
    }

    /// Emits an application-layer telemetry event (the environment
    /// recording what the *application* asked of it).
    fn emit_app(&self, name: &'static str, detail: impl fmt::Display) {
        let t = self.platform.telemetry();
        // conform: allow(R4) — deliberate: the event belongs to the app
        t.incr(Layer::App, name);
        // conform: allow(R4) — deliberate: the event belongs to the app
        t.emit(self.platform.clock().now_micros(), Layer::App, name, detail);
    }

    /// Environment operations performed (each lowers to ODP/substrate
    /// work; the F4 layering bench reads this).
    pub fn operations(&self) -> u64 {
        self.operations
    }

    // ---- model access ----------------------------------------------------

    /// The shared organisational model.
    pub fn org(&self) -> SharedOrgModel {
        self.org.clone()
    }

    /// The inter-activity model.
    pub fn activities(&self) -> &InterActivityModel {
        &self.activities
    }

    /// Mutable inter-activity model access.
    pub fn activities_mut(&mut self) -> &mut InterActivityModel {
        &mut self.activities
    }

    /// The information repository.
    pub fn repository(&self) -> &InformationRepository {
        &self.repository
    }

    /// Mutable repository access.
    pub fn repository_mut(&mut self) -> &mut InformationRepository {
        &mut self.repository
    }

    /// The communication model.
    pub fn comm(&self) -> &CommunicationModel {
        &self.comm
    }

    /// Mutable communication model access.
    pub fn comm_mut(&mut self) -> &mut CommunicationModel {
        &mut self.comm
    }

    /// The user-expertise model.
    pub fn expertise(&self) -> &UserExpertiseModel {
        &self.expertise
    }

    /// Mutable expertise access.
    pub fn expertise_mut(&mut self) -> &mut UserExpertiseModel {
        &mut self.expertise
    }

    /// The tailoring store.
    pub fn tailoring(&self) -> &TailorStore {
        &self.tailoring
    }

    /// Mutable tailoring access.
    pub fn tailoring_mut(&mut self) -> &mut TailorStore {
        &mut self.tailoring
    }

    /// The organisational knowledge base (directory-backed).
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    /// Mutable knowledge-base access, for entries maintained beyond
    /// what [`publish_knowledge`](Self::publish_knowledge) mirrors
    /// (e.g. project state attributes). The knowledge DIT logs every
    /// change made through it; pump afterwards with
    /// [`pump_queries`](Self::pump_queries) to push the resulting
    /// standing-query deltas (the next operation that feeds the
    /// standing queries delivers them otherwise).
    pub fn knowledge_mut(&mut self) -> &mut KnowledgeBase {
        &mut self.knowledge
    }

    /// Publishes the organisational model into the knowledge base and
    /// mirrors every entry into the platform's directory (already-
    /// existing entries are left alone — publication is idempotent).
    ///
    /// # Errors
    ///
    /// Any directory error from entry creation.
    pub fn publish_knowledge(&mut self) -> Result<usize, MoccaError> {
        self.count_op();
        // The read guard is a temporary, released at the `;`, before
        // any port call below.
        let published = self.knowledge.publish(&self.org.read())?;
        self.emit_env("env.publish_knowledge", format_args!("{published} entries"));
        // `knowledge` and `platform` are disjoint fields, so the DIT is
        // walked in place. The copy the DSA keeps is a shallow clone: it
        // shares every attribute with the knowledge DIT's entry.
        for entry in self.knowledge.dit().iter() {
            match self.platform.directory().apply(DirOp::Add(entry.clone())) {
                Ok(_) | Err(cscw_directory::DirectoryError::EntryExists(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Replicate the organisational model into the federation: each
        // DIT entry becomes a versioned replica entry gossiped to peer
        // environments (publication is idempotent — unchanged values
        // do not advance the replica clock). The writes that changed
        // the replica feed the knowledge queries, in DIT order, then
        // the publication's DIT changes feed the entry queries.
        let mut changed = Vec::new();
        if let Some(port) = self.federation.as_mut() {
            for entry in self.knowledge.dit().iter() {
                let key = format!("org:{}", entry.dn());
                let value = entry.to_string();
                if port.publish_entry(&key, &value) {
                    changed.push((key, value));
                }
            }
        }
        self.feed_queries(changed.iter().map(|(k, v)| (k.as_str(), v.as_str())))?;
        Ok(published)
    }

    // ---- standing queries (selective awareness) ---------------------------

    /// The standing-query registry (result sets, re-scan counter).
    pub fn queries(&self) -> &SubscriptionRegistry {
        &self.queries
    }

    /// Registers a standing query over the organisational knowledge.
    /// Entry queries (`class = …`, attribute and edge predicates) watch
    /// the knowledge base's DIT; knowledge queries (`from knowledge
    /// key/value …`) watch the federation's replicated knowledge. The
    /// initial result set and every later change arrive as
    /// [`QueryDelta`]s, collected via
    /// [`take_query_deltas`](Self::take_query_deltas).
    ///
    /// # Errors
    ///
    /// [`MoccaError::Query`] when the query fails to parse or compile.
    pub fn subscribe(&mut self, src: &str) -> Result<SubscriptionId, MoccaError> {
        self.subscribe_inner(src, None)
    }

    /// As [`subscribe`](Self::subscribe), but deltas are pushed to the
    /// registered application's mailbox through the platform's message
    /// transfer port (subject `query-delta`) instead of being buffered.
    ///
    /// # Errors
    ///
    /// As [`subscribe`](Self::subscribe), plus
    /// [`MoccaError::Messaging`] when the app id is not a legal O/R
    /// name and [`MoccaError::UnknownApplication`] when the app is not
    /// registered; either way nothing is subscribed.
    pub fn subscribe_for_app(
        &mut self,
        src: &str,
        app: &AppId,
    ) -> Result<SubscriptionId, MoccaError> {
        let mailbox = app_address(app)?;
        if self.registry.app(app).is_none() {
            return Err(MoccaError::UnknownApplication(app.to_string()));
        }
        self.subscribe_inner(src, Some(mailbox))
    }

    fn subscribe_inner(
        &mut self,
        src: &str,
        mailbox: Option<OrAddress>,
    ) -> Result<SubscriptionId, MoccaError> {
        self.count_op();
        // Flush logged directory changes first so priming sees a
        // consistent tree and emits no duplicate deltas.
        self.feed_queries([])?;
        let at = self.platform.clock().now_micros();
        let source = CompiledQuery::compile(src)?.source();
        let id = self.queries.subscribe(src, at)?;
        if let Some(mailbox) = mailbox {
            self.query_apps.insert(id, mailbox);
        }
        let initial = match source {
            Source::Entries => self.queries.prime(id, self.knowledge.dit(), at)?,
            Source::Knowledge => {
                // The replica is the knowledge: prime from its snapshot.
                let snapshot = self.federation.as_ref().map(|p| p.replica_snapshot());
                let entries = snapshot.iter().flatten();
                let knowledge = entries.map(|(k, v)| (k.as_str(), v.as_str()));
                self.queries.prime_knowledge(id, knowledge, at)?
            }
        };
        self.emit_env("env.subscribe", format_args!("{id}: {src}"));
        let deltas: Vec<_> = initial.into_iter().map(|d| (id, d)).collect();
        self.dispatch_query_deltas(deltas)?;
        Ok(id)
    }

    /// Cancels a standing query; returns whether it existed.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        self.query_apps.remove(&id);
        self.queries.unsubscribe(id)
    }

    /// Feeds the knowledge DIT's logged changes through the standing
    /// queries. The operations that mutate the knowledge base feed them
    /// implicitly; call this directly after mutating the DIT through
    /// [`knowledge_mut`](Self::knowledge_mut).
    ///
    /// # Errors
    ///
    /// Transport errors from app-bound delta delivery.
    pub fn pump_queries(&mut self) -> Result<(), MoccaError> {
        self.feed_queries([])
    }

    /// The one path by which knowledge changes reach the standing
    /// queries: the replicated-knowledge `pairs` whose resolved value
    /// changed (local publishes that changed the replica, or what a
    /// gossip ingest reported changed), then every change the
    /// knowledge DIT logged since the last feed, through one registry
    /// apply; the deltas are then dispatched.
    ///
    /// # Errors
    ///
    /// Transport errors from app-bound delta delivery.
    pub(crate) fn feed_queries<'a>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<(), MoccaError> {
        let mut pairs = pairs.into_iter().peekable();
        let changes = self.knowledge.dit_mut().take_changes();
        if pairs.peek().is_none() && changes.is_empty() {
            return Ok(());
        }
        let at = self.platform.clock().now_micros();
        let deltas = self
            .queries
            .apply(pairs, &changes, self.knowledge.dit(), at);
        self.dispatch_query_deltas(deltas)
    }

    /// Drains the buffered deltas of subscriptions without an app
    /// binding, in emission order.
    pub fn take_query_deltas(&mut self) -> Vec<(SubscriptionId, QueryDelta)> {
        std::mem::take(&mut self.pending_deltas)
    }

    /// Routes emitted deltas: app-bound subscriptions get a mailbox
    /// notification through the MTS, the rest buffer for
    /// [`take_query_deltas`](Self::take_query_deltas).
    fn dispatch_query_deltas(
        &mut self,
        deltas: Vec<(SubscriptionId, QueryDelta)>,
    ) -> Result<(), MoccaError> {
        for (id, delta) in deltas {
            self.emit_env("env.query_delta", format_args!("{id}: {delta}"));
            let Some(dest) = self.query_apps.get(&id) else {
                self.pending_deltas.push((id, delta));
                continue;
            };
            // `sub-<n>` is always a legal O/R name.
            let from = OrAddress::new("ZZ", "mocca", ["queries"], id.to_string())?;
            self.platform.transport().notify(
                &from,
                dest,
                "query-delta",
                &format!("{id} {delta}"),
            )?;
        }
        Ok(())
    }

    /// The engineering platform the environment runs on.
    pub fn platform(&self) -> &dyn Platform {
        self.platform.as_ref()
    }

    /// Mutable platform access.
    pub fn platform_mut(&mut self) -> &mut dyn Platform {
        self.platform.as_mut()
    }

    /// The platform's layer-tagged telemetry stream.
    pub fn telemetry(&self) -> &cscw_kernel::Telemetry {
        self.platform.telemetry()
    }

    /// The platform's trading port (with the organisational policy
    /// attached) — to register service types, export offers and import.
    pub fn trader_mut(&mut self) -> &mut dyn TraderPort {
        self.platform.trader()
    }

    /// The platform's directory port.
    pub fn directory_mut(&mut self) -> &mut dyn DirectoryPort {
        self.platform.directory()
    }

    /// The platform's message-transfer port.
    pub fn transport_mut(&mut self) -> &mut dyn TransportPort {
        self.platform.transport()
    }

    /// The view registry.
    pub fn views(&self) -> &ViewRegistry {
        &self.views
    }

    /// Mutable view registry access.
    pub fn views_mut(&mut self) -> &mut ViewRegistry {
        &mut self.views
    }

    /// The organisation-transparency layer.
    pub fn org_transparency(&self) -> &OrganisationTransparency {
        &self.org_transparency
    }

    /// Mutable organisation-transparency access.
    pub fn org_transparency_mut(&mut self) -> &mut OrganisationTransparency {
        &mut self.org_transparency
    }

    /// The event bus.
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// Mutable bus access.
    pub fn bus_mut(&mut self) -> &mut EventBus {
        &mut self.bus
    }

    // ---- transparencies ---------------------------------------------------

    /// Current CSCW transparency selection.
    pub fn transparencies(&self) -> CscwTransparencySelection {
        self.transparencies
    }

    /// Re-selects transparencies (user-tailorable, §6.1); updates the
    /// bus isolation policy to match.
    pub fn select_transparencies(&mut self, selection: CscwTransparencySelection) {
        self.transparencies = selection;
        self.bus.set_isolation(if selection.activity {
            ActivityIsolation::on()
        } else {
            ActivityIsolation::off()
        });
    }

    // ---- application registry & interop (Figures 2/3) ---------------------

    /// Registers an application with its mapping into the common
    /// information model. One registration makes it interoperable with
    /// every other registered application, and exports a
    /// [`APP_SERVICE_TYPE`] offer to the platform's trader so the
    /// application can be *located* through the trading function.
    pub fn register_app(&mut self, descriptor: AppDescriptor, mapping: FormatMapping) {
        self.count_op();
        let id = descriptor.id.clone();
        self.emit_env("env.register_app", &id);
        self.hub.register_mapping(id.clone(), mapping);
        self.registry.register(descriptor);
        let export = self.platform.trader().export(
            APP_SERVICE_TYPE,
            &app_service_type(),
            odp::InterfaceRef {
                object: id.as_str().into(),
                node: cscw_messaging::net::NodeId::from_raw(0),
                interface: APP_SERVICE_TYPE.into(),
            },
            vec![("app".to_owned(), odp::Value::from(id.as_str()))],
        );
        if export.is_err() {
            // Registration itself succeeded; the app is just not
            // locatable via trading (e.g. the trader node is down).
            self.emit_env("env.app_offer_failed", &id);
        }
        // Advertise into the federation so peer environments can
        // resolve this application through trader interworking.
        if let Some(port) = self.federation.as_mut() {
            port.advertise_app(id.as_str());
        }
    }

    /// The application registry.
    pub fn apps(&self) -> &AppRegistry {
        &self.registry
    }

    /// The interop hub.
    pub fn hub(&self) -> &InteropHub {
        &self.hub
    }

    /// Exchanges an artifact between two registered applications via
    /// the common model, recording it in the information repository as
    /// a shared object owned by `sharer`.
    ///
    /// The exchange is *lowered* through the platform, walking the
    /// Figure-4 stack top to bottom: the application's request (App),
    /// the environment service (Env), a trader import locating the
    /// destination application (Odp), a directory record of the shared
    /// object (Directory) and a notification to the destination
    /// application's mailbox (Messaging) — each of which becomes Net
    /// traffic on a distributed platform.
    ///
    /// When the destination application is not registered locally but a
    /// federation port is installed, the exchange is routed *across
    /// environments*: the federated trader resolves the hosting domain,
    /// the artifact is lowered to the common information model and
    /// delivered to the peer environment, and the caller gets the
    /// common-form artifact back (the peer raises it natively on its
    /// side).
    ///
    /// # Errors
    ///
    /// * [`MoccaError::UnknownApplication`] — unmapped application
    ///   (locally, and in the federation when one is joined).
    /// * [`MoccaError::Federation`] — the federation could not resolve
    ///   or route (partition, hop limit).
    /// * [`MoccaError::Messaging`] — the sharer or the destination
    ///   application has no legal O/R mailbox address; nothing is
    ///   converted, stored or mirrored.
    /// * Repository errors for the shared record.
    /// * Substrate errors when the platform cannot complete the
    ///   lowering (trader unreachable, transfer failed).
    pub fn exchange(
        &mut self,
        sharer: &Dn,
        artifact: &NativeArtifact,
        to: &AppId,
        at: Timestamp,
    ) -> Result<NativeArtifact, MoccaError> {
        // The App/Env boundary is where a trace is minted: the root
        // span is the application's request, its Env child is this
        // service, and every lowering below (trader, directory, MTS,
        // net, federation) parents under them — one exchange, one
        // causally-ordered tree down the Figure-4 stack.
        let t = self.platform.telemetry().clone();
        let now = self.platform.clock().now_micros();
        // conform: allow(R4) — deliberate: the root span belongs to the app
        let app_span = t.span_begin(Layer::App, "app.exchange", now);
        let env_span = t.span_begin(Layer::Env, "env.exchange", now);
        let result = self.exchange_inner(sharer, artifact, to, at);
        let end = self.platform.clock().now_micros();
        t.span_end(env_span, end);
        t.span_end(app_span, end);
        result
    }

    fn exchange_inner(
        &mut self,
        sharer: &Dn,
        artifact: &NativeArtifact,
        to: &AppId,
        at: Timestamp,
    ) -> Result<NativeArtifact, MoccaError> {
        self.count_op();
        self.emit_app(
            "app.exchange",
            format_args!("{} -> {} by {sharer}", artifact.app, to),
        );
        self.emit_env("env.exchange", format_args!("{} -> {to}", artifact.app));
        let common = self.hub.to_common(artifact)?;
        if self.registry.app(to).is_none() && self.federation.is_some() {
            return self.exchange_remote(sharer, artifact, to, common, at);
        }
        // Both mailboxes must be addressable before anything is
        // converted, stored or mirrored: an exchange whose destination
        // can never be notified is refused, not half done.
        let from = person_address(sharer)?;
        let dest = app_address(to)?;
        let result = self.hub.exchange_common(to, &common)?;
        // Locate the destination application through the trading
        // function (§6.1): the environment imports under its own
        // engineering identity.
        let offers = self
            .platform
            .trader()
            .import(&odp::ImportRequest::any(APP_SERVICE_TYPE).with_importer(ENV_PRINCIPAL))?;
        let located = offers
            .iter()
            .any(|o| o.property("app").and_then(odp::Value::as_text) == Some(to.as_str()));
        if !located {
            return Err(MoccaError::UnknownApplication(to.to_string()));
        }
        // Record the exchanged object in the shared repository (ids are
        // deterministic per exchange count).
        let id = InfoObjectId::new(format!("xchg:{}:{}", self.hub.conversions_performed(), to));
        self.repository.store(InfoObject::new(
            id.clone(),
            "exchanged-artifact",
            sharer.clone(),
            InfoContent::Fields(common),
        ))?;
        self.mirror_to_directory(&id, "exchanged-artifact", sharer);
        // Notify the destination application's mailbox via the MTS.
        self.platform
            .transport()
            .notify(&from, &dest, "artifact-exchanged", id.as_str())?;
        self.bus.publish(EnvEvent {
            kind: "artifact-exchanged".into(),
            activity: None,
            at,
            payload: InfoContent::fields([
                ("from", artifact.app.to_string()),
                ("to", to.to_string()),
                ("object", id.to_string()),
            ]),
        });
        Ok(result)
    }

    /// Routes an exchange whose destination lives in a peer environment
    /// through the federation: resolve the hosting domain via trader
    /// interworking, then hand the common-form artifact to the fabric
    /// for delivery.
    fn exchange_remote(
        &mut self,
        sharer: &Dn,
        artifact: &NativeArtifact,
        to: &AppId,
        common: std::collections::BTreeMap<String, String>,
        at: Timestamp,
    ) -> Result<NativeArtifact, MoccaError> {
        let Some(port) = self.federation.as_mut() else {
            // Only reachable if the caller raced an uninstall; classify
            // as the local miss it would have been.
            return Err(MoccaError::UnknownApplication(to.to_string()));
        };
        let resolution = port.resolve_app(to.as_str(), at)?;
        let delivery = RemoteDelivery {
            from_domain: port.domain(),
            to_domain: resolution.domain.clone(),
            sharer: sharer.to_string(),
            from_app: artifact.app.to_string(),
            to_app: to.to_string(),
            fields: common.clone(),
            at,
            // Carry the sending exchange's span across the domain
            // boundary so the peer's delivery joins the same trace.
            ctx: self.platform.telemetry().current_context(),
        };
        port.route_exchange(delivery)?;
        self.hub.count_sent();
        self.emit_env(
            "env.exchange_remote",
            format_args!("{to} @ {}", resolution.domain),
        );
        // Record the outbound exchange locally; ids are deterministic
        // per the operations ledger.
        let id = InfoObjectId::new(format!("xchg-remote:{}:{}", self.operations, to));
        self.repository.store(InfoObject::new(
            id.clone(),
            "exchanged-artifact-remote",
            sharer.clone(),
            InfoContent::Fields(common.clone()),
        ))?;
        self.mirror_to_directory(&id, "exchanged-artifact-remote", sharer);
        self.bus.publish(EnvEvent {
            kind: "artifact-exchanged".into(),
            activity: None,
            at,
            payload: InfoContent::fields([
                ("from", artifact.app.to_string()),
                ("to", to.to_string()),
                ("object", id.to_string()),
                ("domain", resolution.domain),
            ]),
        });
        // The caller gets the artifact in the common information model;
        // the destination environment raises it into the peer's native
        // format on delivery.
        Ok(NativeArtifact {
            app: to.clone(),
            format: "common".to_owned(),
            fields: common,
        })
    }

    /// Accepts an exchange routed here by a peer environment: raises
    /// the common-form payload into the destination application's
    /// native format, records it, and notifies the application's
    /// mailbox — the inbound half of federated
    /// [`exchange`](Self::exchange).
    ///
    /// # Errors
    ///
    /// * [`MoccaError::UnknownApplication`] — the destination is not
    ///   registered here (stale federation advertisement).
    /// * Repository errors for the delivered record.
    pub fn deliver_remote_artifact(
        &mut self,
        delivery: &RemoteDelivery,
    ) -> Result<NativeArtifact, MoccaError> {
        // Resume the sender's trace if the delivery carried a context
        // (same-process federations share trace identity); otherwise
        // the delivery roots a trace of its own.
        let t = self.platform.telemetry().clone();
        let now = self.platform.clock().now_micros();
        let span = match delivery.ctx {
            Some(parent) => t.span_begin_with_parent(parent, Layer::Env, "env.deliver_remote", now),
            None => t.span_begin(Layer::Env, "env.deliver_remote", now),
        };
        let result = self.deliver_remote_inner(delivery);
        t.span_end(span, self.platform.clock().now_micros());
        result
    }

    fn deliver_remote_inner(
        &mut self,
        delivery: &RemoteDelivery,
    ) -> Result<NativeArtifact, MoccaError> {
        self.count_op();
        self.emit_env(
            "env.deliver_remote",
            format_args!("{} <- {}", delivery.to_app, delivery.from_domain),
        );
        let to = AppId::new(delivery.to_app.clone());
        let raised = self.hub.from_common(&to, &delivery.fields)?;
        let sharer = delivery.sharer.parse::<Dn>().unwrap_or_else(|_| Dn::root());
        let id = InfoObjectId::new(format!(
            "xchg-in:{}:{}",
            self.operations, delivery.from_domain
        ));
        self.repository.store(InfoObject::new(
            id.clone(),
            "exchanged-artifact-inbound",
            sharer.clone(),
            InfoContent::Fields(delivery.fields.clone()),
        ))?;
        self.mirror_to_directory(&id, "exchanged-artifact-inbound", &sharer);
        if let (Ok(from), Ok(dest)) = (person_address(&sharer), app_address(&to)) {
            self.platform
                .transport()
                .notify(&from, &dest, "artifact-exchanged", id.as_str())?;
        }
        self.bus.publish(EnvEvent {
            kind: "artifact-delivered".into(),
            activity: None,
            at: delivery.at,
            payload: InfoContent::fields([
                ("from-domain", delivery.from_domain.clone()),
                ("to", delivery.to_app.clone()),
                ("object", id.to_string()),
            ]),
        });
        Ok(raised)
    }

    /// Best-effort directory record of a stored object; objects whose
    /// ids cannot form a valid RDN are simply not mirrored, and an
    /// already-present record is left alone.
    fn mirror_to_directory(&mut self, id: &InfoObjectId, kind: &str, owner: &Dn) {
        let Ok(rdn) = Rdn::new("cn", id.as_str()) else {
            return;
        };
        let entry = Entry::new(Dn::root().child(rdn))
            .with_class("cscwresource")
            .with_attr(Attribute::single("cn", id.as_str()))
            .with_attr(Attribute::single("resourcetype", kind))
            .with_attr(Attribute::single("owner", owner.to_string()));
        let _ = self.platform.directory().apply(DirOp::Add(entry));
    }

    // ---- activities --------------------------------------------------------

    /// Creates an activity, checking the creator's organisational
    /// authority for `schedule` on `activity`.
    ///
    /// # Errors
    ///
    /// * [`MoccaError::AccessDenied`] — creator lacks the right.
    /// * Duplicate registration errors.
    pub fn create_activity(
        &mut self,
        creator: &Dn,
        activity: Activity,
        at: Timestamp,
    ) -> Result<(), MoccaError> {
        self.count_op();
        self.org.read().require(creator, "schedule", "activity")?;
        let id = activity.id.clone();
        self.activities.register(activity)?;
        self.bus.publish(EnvEvent {
            kind: "activity-created".into(),
            activity: Some(id.clone()),
            at,
            payload: InfoContent::fields([("id", id.to_string()), ("by", creator.to_string())]),
        });
        Ok(())
    }

    /// Joins a person to an activity in a role and refreshes their bus
    /// memberships.
    ///
    /// # Errors
    ///
    /// [`MoccaError::UnknownActivity`] when the activity is missing.
    pub fn join_activity(
        &mut self,
        person: &Dn,
        id: &ActivityId,
        role: ActivityRole,
        at: Timestamp,
    ) -> Result<(), MoccaError> {
        self.count_op();
        let activity = self
            .activities
            .activity_mut(id)
            .ok_or_else(|| MoccaError::UnknownActivity(id.to_string()))?;
        activity.join(person.clone(), role);
        let memberships: Vec<ActivityId> = self
            .activities
            .activities()
            .filter(|a| a.has_member(person))
            .map(|a| a.id.clone())
            .collect();
        self.bus.subscribe(person.clone(), memberships);
        self.bus.publish(EnvEvent {
            kind: "member-joined".into(),
            activity: Some(id.clone()),
            at,
            payload: InfoContent::fields([("who", person.to_string())]),
        });
        Ok(())
    }

    // ---- information -------------------------------------------------------

    /// Stores an information object, publishing a scoped event.
    ///
    /// # Errors
    ///
    /// Repository errors (duplicate id).
    pub fn store_object(
        &mut self,
        object: InfoObject,
        activity: Option<ActivityId>,
        at: Timestamp,
    ) -> Result<(), MoccaError> {
        self.count_op();
        let id = object.id.clone();
        let kind = object.kind.clone();
        let owner = object.owner.clone();
        self.emit_env("env.store_object", &id);
        // Only a federation replicates the rendered record.
        let rendered = self
            .federation
            .is_some()
            .then(|| render_content(&object.content));
        self.repository.store(object)?;
        self.mirror_to_directory(&id, &kind, &owner);
        // Replicate the information-model record into the federation;
        // a write that changed the replica feeds the knowledge queries.
        if let (Some(port), Some(rendered)) = (self.federation.as_mut(), rendered) {
            let key = format!("info:{id}");
            let value = format!("{kind}:{rendered}");
            if port.publish_entry(&key, &value) {
                self.feed_queries([(key.as_str(), value.as_str())])?;
            }
        }
        self.bus.publish(EnvEvent {
            kind: "object-stored".into(),
            activity,
            at,
            payload: InfoContent::fields([("id", id.to_string())]),
        });
        Ok(())
    }

    /// Reads an object *as the reader sees it*: access-checked, then
    /// rendered through their view when view transparency is engaged.
    ///
    /// # Errors
    ///
    /// Repository access errors.
    pub fn read_object(
        &mut self,
        reader: &Dn,
        id: &InfoObjectId,
    ) -> Result<InfoContent, MoccaError> {
        self.count_op();
        let org = self.org.read();
        let object = self.repository.fetch(&org, reader, id)?;
        Ok(if self.transparencies.view {
            self.views.render_for(reader, object)
        } else {
            object.content.clone()
        })
    }

    // ---- inter-organisational cooperation ----------------------------------

    /// May these two people cooperate over a service? With organisation
    /// transparency engaged this consults the domain registry; with it
    /// disengaged the check is skipped and the *caller* owns the
    /// consequences (the ablation the R5 bench measures).
    ///
    /// # Errors
    ///
    /// [`MoccaError::IncompatiblePolicies`] /
    /// [`MoccaError::UnknownOrgObject`] from the transparency layer.
    pub fn check_cooperation(
        &mut self,
        importer: &Dn,
        exporter: &Dn,
        service_type: &str,
    ) -> Result<(), MoccaError> {
        self.count_op();
        if !self.transparencies.organisation {
            return Ok(());
        }
        self.org_transparency
            .check_interaction(importer, exporter, service_type)
    }

    // ---- expertise-driven assignment ----------------------------------------

    /// Suggests who should take responsibility for work needing `skill`
    /// at `min_level`: the best-ranked capable person who is a member of
    /// the activity (or the best overall when `activity` is `None`).
    /// The negotiation protocol then formalises the assignment — this is
    /// the opening proposal, not a decree.
    pub fn suggest_responsible(
        &mut self,
        skill: &str,
        min_level: u8,
        activity: Option<&ActivityId>,
    ) -> Option<Dn> {
        self.count_op();
        let ranked = self.expertise.find_capable(skill, min_level);
        match activity.and_then(|id| self.activities.activity(id)) {
            Some(act) => ranked
                .into_iter()
                .map(|(dn, _)| dn.clone())
                .find(|dn| act.has_member(dn)),
            None => ranked.first().map(|(dn, _)| (*dn).clone()),
        }
    }

    // ---- model interrelation (§7) -------------------------------------------

    /// Checks that the five models agree with each other — the paper's
    /// closing future work ("the details and interrelation of the
    /// models") made executable. Empty result = consistent.
    pub fn check_consistency(&self) -> Vec<crate::env::consistency::ModelInconsistency> {
        crate::env::consistency::check_models(self)
    }

    // ---- figure 2 baseline -------------------------------------------------

    /// Builds the closed-world baseline for the currently registered
    /// applications with only `adapters` pairs wired — used by the
    /// F2/F3 experiment.
    pub fn closed_world_baseline(
        &self,
        adapters: impl IntoIterator<Item = (AppId, AppId, FormatMapping)>,
    ) -> ClosedWorld {
        let mut world = ClosedWorld::new();
        for (from, to, mapping) in adapters {
            world.install_adapter(from, to, mapping);
        }
        world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::registry::Quadrant;
    use crate::org::{OrgRule, Person, RelationKind, Role, RuleKind};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    /// An environment with Tom (coordinator) and Wolfgang (member).
    fn env() -> CscwEnvironment {
        let e = CscwEnvironment::new();
        {
            let mut org = e.org.write();
            org.add_person(Person::new(dn("cn=Tom"), "Tom"));
            org.add_person(Person::new(dn("cn=Wolfgang"), "Wolfgang"));
            org.add_role(Role::new(dn("cn=coordinator"), "coordinator"));
            org.relate(&dn("cn=Tom"), RelationKind::Occupies, &dn("cn=coordinator"))
                .unwrap();
            org.add_rule(OrgRule::new(
                dn("cn=coordinator"),
                RuleKind::Permit,
                "schedule",
                "activity",
            ));
        }
        e
    }

    fn descriptor(id: &str) -> AppDescriptor {
        AppDescriptor {
            id: id.into(),
            name: id.into(),
            quadrant: Quadrant::DESKTOP_CONFERENCE,
            native_format: format!("{id}-native"),
            kinds: vec!["document".into()],
        }
    }

    #[test]
    fn app_bound_subscriptions_mail_their_deltas() {
        let mut e = env();
        e.publish_knowledge().unwrap();
        e.register_app(descriptor("board"), FormatMapping::new([("x", "x")]));
        e.telemetry().clear();
        let id = e
            .subscribe_for_app(r#"class = person and cn = "Tom""#, &"board".into())
            .unwrap();
        let mailbox = app_address(&"board".into()).unwrap();
        assert_eq!(e.transport_mut().delivered(&mailbox), ["query-delta"]);
        let named: Vec<String> = e
            .telemetry()
            .events()
            .into_iter()
            .filter(|ev| ev.name == "env.query_delta")
            .map(|ev| ev.detail)
            .collect();
        assert_eq!(named, [format!("{id}: added cn=Tom")]);
        assert!(e.take_query_deltas().is_empty(), "mailed, not buffered");
    }

    #[test]
    fn app_subscriptions_need_a_registered_app_with_a_legal_name() {
        let mut e = env();
        e.register_app(descriptor("shared=board"), FormatMapping::new([("x", "x")]));
        let query = "class = person";
        assert!(matches!(
            e.subscribe_for_app(query, &"shared=board".into()),
            Err(MoccaError::Messaging(
                cscw_messaging::MtsError::InvalidAddress(_)
            ))
        ));
        assert!(matches!(
            e.subscribe_for_app(query, &"unregistered".into()),
            Err(MoccaError::UnknownApplication(_))
        ));
        assert_eq!(e.queries().len(), 0, "nothing was subscribed");
    }

    #[test]
    fn activity_creation_is_authorised() {
        let mut e = env();
        let a = Activity::new("report".into(), "Joint report");
        assert!(e
            .create_activity(&dn("cn=Wolfgang"), a.clone(), Timestamp::ZERO)
            .is_err_and(|err| matches!(err, MoccaError::AccessDenied { .. })));
        e.create_activity(&dn("cn=Tom"), a, Timestamp::ZERO)
            .unwrap();
        assert_eq!(e.activities().len(), 1);
    }

    #[test]
    fn joining_updates_bus_memberships() {
        let mut e = env();
        e.create_activity(
            &dn("cn=Tom"),
            Activity::new("report".into(), "r"),
            Timestamp::ZERO,
        )
        .unwrap();
        e.join_activity(
            &dn("cn=Wolfgang"),
            &"report".into(),
            ActivityRole("writer".into()),
            Timestamp::ZERO,
        )
        .unwrap();
        // A scoped event reaches the member.
        e.bus_mut().publish(EnvEvent {
            kind: "object-updated".into(),
            activity: Some("report".into()),
            at: Timestamp::ZERO,
            payload: InfoContent::Text("x".into()),
        });
        let got = e.bus().delivered_to(&dn("cn=Wolfgang"));
        assert!(got.iter().any(|ev| ev.kind == "object-updated"));
        assert!(e
            .join_activity(
                &dn("cn=Tom"),
                &"ghost".into(),
                ActivityRole("x".into()),
                Timestamp::ZERO
            )
            .is_err());
    }

    #[test]
    fn read_object_applies_views_only_when_engaged() {
        let mut e = env();
        let obj = InfoObject::new(
            "doc1".into(),
            "document",
            dn("cn=Tom"),
            InfoContent::fields([("title", "Report"), ("secret", "x")]),
        );
        e.store_object(obj, None, Timestamp::ZERO).unwrap();
        e.views_mut().set_view(
            dn("cn=Tom"),
            "document",
            crate::transparency::View::selecting([("title", "Title")]),
        );
        let seen = e.read_object(&dn("cn=Tom"), &"doc1".into()).unwrap();
        assert_eq!(seen.field("Title"), Some("Report"));
        assert_eq!(seen.field("secret"), None);

        let mut selection = e.transparencies();
        selection.view = false;
        e.select_transparencies(selection);
        let raw = e.read_object(&dn("cn=Tom"), &"doc1".into()).unwrap();
        assert_eq!(raw.field("secret"), Some("x"));
    }

    #[test]
    fn exchange_goes_through_hub_and_repository() {
        let mut e = env();
        for (id, native, common) in [
            ("sharedx", "window_title", "title"),
            ("com", "subject", "title"),
        ] {
            e.register_app(descriptor(id), FormatMapping::new([(native, common)]));
        }
        let artifact = NativeArtifact::new(
            "sharedx".into(),
            "sharedx-native",
            [("window_title", "Minutes".to_owned())],
        );
        let got = e
            .exchange(&dn("cn=Tom"), &artifact, &"com".into(), Timestamp::ZERO)
            .unwrap();
        assert_eq!(
            got.fields.get("subject").map(String::as_str),
            Some("Minutes")
        );
        assert_eq!(
            e.repository().len(),
            1,
            "exchange recorded as shared object"
        );
        assert_eq!(e.hub().mappings_needed(), 2);
    }

    /// An environment with `sharedx` and `to` registered, and a
    /// `sharedx` artifact to exchange.
    fn exchange_env(to: &str) -> (CscwEnvironment, NativeArtifact) {
        let mut e = env();
        e.register_app(
            descriptor("sharedx"),
            FormatMapping::new([("window_title", "title")]),
        );
        e.register_app(descriptor(to), FormatMapping::new([("subject", "title")]));
        let artifact = NativeArtifact::new(
            "sharedx".into(),
            "sharedx-native",
            [("window_title", "Minutes".to_owned())],
        );
        (e, artifact)
    }

    fn is_invalid_address(result: Result<NativeArtifact, MoccaError>) -> bool {
        matches!(
            result,
            Err(MoccaError::Messaging(
                cscw_messaging::MtsError::InvalidAddress(_)
            ))
        )
    }

    #[test]
    fn exchange_to_an_unaddressable_app_is_refused_whole() {
        let (mut e, artifact) = exchange_env("shared=board");
        let to = AppId::new("shared=board");
        let result = e.exchange(&dn("cn=Tom"), &artifact, &to, Timestamp::ZERO);
        assert!(is_invalid_address(result));
        assert_eq!(e.repository().len(), 0, "nothing stored");
        assert_eq!(e.hub().conversions_performed(), 0, "nothing converted");
    }

    #[test]
    fn every_sharer_has_a_mailbox_so_the_destination_is_notified() {
        // Folding DN separators leaves no reserved character, and the
        // root renders as `<root>`, so no sharer is unaddressable.
        for sharer in [Dn::root(), dn("cn=Tom"), dn("o=GMD,ou=FIT;x,cn=Wolfgang")] {
            assert!(person_address(&sharer).is_ok(), "{sharer}");
        }
        let (mut e, artifact) = exchange_env("com");
        e.exchange(&Dn::root(), &artifact, &"com".into(), Timestamp::ZERO)
            .unwrap();
        assert_eq!(e.repository().len(), 1);
        let mailbox = app_address(&"com".into()).unwrap();
        assert_eq!(
            e.transport_mut().delivered(&mailbox),
            ["artifact-exchanged"]
        );
    }

    #[test]
    fn cooperation_check_respects_transparency_toggle() {
        let mut e = env();
        // Nothing configured: with transparency on, unknown people fail…
        let err = e
            .check_cooperation(&dn("cn=Tom"), &dn("cn=Wolfgang"), "document-store")
            .unwrap_err();
        assert!(matches!(err, MoccaError::UnknownOrgObject(_)));
        // …with it off, the check is the caller's problem.
        let mut sel = e.transparencies();
        sel.organisation = false;
        e.select_transparencies(sel);
        assert!(e
            .check_cooperation(&dn("cn=Tom"), &dn("cn=Wolfgang"), "document-store")
            .is_ok());
    }

    #[test]
    fn trader_carries_org_policy() {
        let mut e = env();
        {
            let mut org = e.org.write();
            org.add_rule(OrgRule::new(
                dn("cn=coordinator"),
                RuleKind::Permit,
                "import",
                "service:scheduler",
            ));
        }
        let iface = odp::InterfaceType::new("scheduler").with_operation(odp::OperationSig::new(
            "book",
            [odp::ValueKind::Text],
            odp::ValueKind::Bool,
        ));
        e.trader_mut().register_service_type(iface.clone());
        e.trader_mut()
            .export(
                "scheduler",
                &iface,
                odp::InterfaceRef {
                    object: "sched1".into(),
                    node: simnet::NodeId::from_raw(0),
                    interface: "scheduler".into(),
                },
                vec![],
            )
            .unwrap();
        // Tom (coordinator) may import; Wolfgang may not.
        let ok = e
            .trader_mut()
            .import(&odp::ImportRequest::any("scheduler").with_importer("cn=Tom"));
        assert!(ok.is_ok());
        let denied = e
            .trader_mut()
            .import(&odp::ImportRequest::any("scheduler").with_importer("cn=Wolfgang"));
        assert!(denied.is_err());
    }

    #[test]
    fn suggest_responsible_prefers_capable_members() {
        use crate::expertise::Capability;
        let mut e = env();
        e.create_activity(
            &dn("cn=Tom"),
            Activity::new("report".into(), "r"),
            Timestamp::ZERO,
        )
        .unwrap();
        e.join_activity(
            &dn("cn=Tom"),
            &"report".into(),
            ActivityRole("editor".into()),
            Timestamp::ZERO,
        )
        .unwrap();
        e.expertise_mut()
            .declare_capability(&dn("cn=Tom"), Capability::new("writing", 3));
        e.expertise_mut()
            .declare_capability(&dn("cn=Wolfgang"), Capability::new("writing", 5));
        // Overall best is Wolfgang…
        assert_eq!(
            e.suggest_responsible("writing", 3, None),
            Some(dn("cn=Wolfgang"))
        );
        // …but within the activity only Tom qualifies.
        let within = e.suggest_responsible("writing", 3, Some(&"report".into()));
        assert_eq!(within, Some(dn("cn=Tom")));
        // Nobody has the skill at level 5 inside the activity.
        assert_eq!(
            e.suggest_responsible("writing", 5, Some(&"report".into())),
            None
        );
        assert_eq!(e.suggest_responsible("juggling", 1, None), None);
    }

    #[test]
    fn operations_ledger_counts_environment_work() {
        let mut e = env();
        let before = e.operations();
        e.create_activity(
            &dn("cn=Tom"),
            Activity::new("a".into(), "a"),
            Timestamp::ZERO,
        )
        .unwrap();
        e.store_object(
            InfoObject::new(
                "o".into(),
                "document",
                dn("cn=Tom"),
                InfoContent::Text("x".into()),
            ),
            None,
            Timestamp::ZERO,
        )
        .unwrap();
        assert_eq!(e.operations(), before + 2);
    }
}
