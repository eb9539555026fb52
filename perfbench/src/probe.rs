//! The timing platform wrapper: forwards the three ports of a
//! [`SimPlatform`] and, while probes are on, times each port call.
//! Calls and returned offers are counted whether probes are on or not,
//! so counts replay exactly for a seed.

use cscw_directory::{DirOp, DirResult, DirectoryError};
use cscw_kernel::{Clock, Telemetry};
use cscw_messaging::{MtsError, OrAddress};
use mocca::{DirectoryPort, Platform, SimPlatform, TraderPort, TransportPort};
use odp::{
    ImportRequest, InterfaceRef, InterfaceType, OdpError, OfferId, ServiceOffer, TradingPolicy,
    Value,
};

use crate::{probe, Acc};

/// Port calls and their probed times.
#[derive(Default, Clone, Copy)]
pub struct PortStats {
    /// Trader imports.
    pub import: Acc,
    /// Directory applies.
    pub apply: Acc,
    /// Transport notifies.
    pub notify: Acc,
    /// Import calls made.
    pub imports: u64,
    /// Offers those imports returned.
    pub offers: u64,
    /// Directory apply calls made.
    pub applies: u64,
    /// Notify calls made.
    pub notifies: u64,
}

/// A [`SimPlatform`] whose port calls are timed from outside.
pub struct Probe {
    /// The wrapped platform.
    pub inner: SimPlatform,
    /// What the ports did so far.
    pub stats: PortStats,
}

impl TraderPort for Probe {
    fn register_service_type(&mut self, iface: InterfaceType) {
        self.inner.register_service_type(iface);
    }

    fn export(
        &mut self,
        service_type: &str,
        offering_type: &InterfaceType,
        interface: InterfaceRef,
        properties: Vec<(String, Value)>,
    ) -> Result<OfferId, OdpError> {
        self.inner
            .export(service_type, offering_type, interface, properties)
    }

    fn import(&mut self, request: &ImportRequest) -> Result<Vec<ServiceOffer>, OdpError> {
        let inner = &mut self.inner;
        let result = probe(&mut self.stats.import, || inner.import(request));
        self.stats.imports += 1;
        if let Ok(offers) = &result {
            self.stats.offers += offers.len() as u64;
        }
        result
    }

    fn attach_policy(&mut self, policy: Box<dyn TradingPolicy>) {
        self.inner.attach_policy(policy);
    }

    fn offer_count(&mut self) -> usize {
        self.inner.offer_count()
    }
}

impl DirectoryPort for Probe {
    fn apply(&mut self, op: DirOp) -> Result<DirResult, DirectoryError> {
        let inner = &mut self.inner;
        self.stats.applies += 1;
        probe(&mut self.stats.apply, || inner.apply(op))
    }
}

impl TransportPort for Probe {
    fn notify(
        &mut self,
        from: &OrAddress,
        to: &OrAddress,
        subject: &str,
        body: &str,
    ) -> Result<u64, MtsError> {
        let inner = &mut self.inner;
        self.stats.notifies += 1;
        probe(&mut self.stats.notify, || {
            inner.notify(from, to, subject, body)
        })
    }

    fn delivered(&mut self, to: &OrAddress) -> Vec<String> {
        self.inner.delivered(to)
    }
}

impl Platform for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clock(&self) -> &dyn Clock {
        self.inner.clock()
    }

    fn telemetry(&self) -> &Telemetry {
        self.inner.telemetry()
    }

    fn trader(&mut self) -> &mut dyn TraderPort {
        self
    }

    fn directory(&mut self) -> &mut dyn DirectoryPort {
        self
    }

    fn transport(&mut self) -> &mut dyn TransportPort {
        self
    }
}
