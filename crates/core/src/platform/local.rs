//! The in-process platform: the zero-network fast path.
//!
//! conform: allow-file(R4) — like the simulated platform, the port
//! front-end narrates the layer each call lowers *into*, so both
//! platforms produce comparable per-layer telemetry.

use std::collections::BTreeMap;
use std::fmt;

use cscw_directory::{DirOp, DirResult, DirectoryError, Dit};
use cscw_kernel::{Clock, Layer, Telemetry, WallClock};
use cscw_messaging::{MtsError, OrAddress};
use odp::{
    ImportRequest, InterfaceRef, InterfaceType, OdpError, ServiceOffer, Trader, TradingPolicy,
    Value,
};

use super::{DirectoryPort, Platform, TraderPort, TransportPort};

/// Everything in one address space: a [`Trader`], a [`Dit`] and
/// in-memory mailboxes. No wire is crossed, so no `Net`-layer telemetry
/// appears — but the port calls still emit their own layer's events, so
/// even a local run tells the layered story down to the substrate
/// boundary.
///
/// A mailbox keeps only what [`delivered`](TransportPort::delivered)
/// exposes, each notification's subject in arrival order, stored as
/// runs of equal consecutive subjects. Originators and bodies are not
/// stored, and the gossip frames a federation ships under one subject
/// share one run, so a long run's mailbox does not grow with every
/// frame it ever shipped.
pub struct LocalPlatform {
    trader: Trader,
    dit: Dit,
    mailboxes: BTreeMap<OrAddress, Vec<(String, usize)>>,
    telemetry: Telemetry,
    clock: WallClock,
    next_message_id: u64,
}

impl std::fmt::Debug for LocalPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalPlatform")
            .field("offers", &self.trader.offer_count())
            .field("mailboxes", &self.mailboxes.len())
            .finish_non_exhaustive()
    }
}

impl Default for LocalPlatform {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalPlatform {
    /// Creates an empty local platform.
    pub fn new() -> Self {
        LocalPlatform {
            trader: Trader::new("mocca-trader"),
            dit: Dit::new(),
            mailboxes: BTreeMap::new(),
            telemetry: Telemetry::new(),
            clock: WallClock::new(),
            next_message_id: 1,
        }
    }

    /// Read access to the backing directory information tree.
    pub fn dit(&self) -> &Dit {
        &self.dit
    }

    /// Read access to the backing trader.
    pub fn raw_trader(&self) -> &Trader {
        &self.trader
    }

    /// How many runs of equal subjects `to`'s mailbox stores.
    #[cfg(test)]
    pub(crate) fn stored_runs(&self, to: &OrAddress) -> usize {
        self.mailboxes.get(to).map_or(0, Vec::len)
    }

    fn emit(&self, layer: Layer, name: &'static str, detail: impl fmt::Display) {
        self.telemetry.incr(layer, name);
        self.telemetry
            .emit(self.clock.now_micros(), layer, name, detail);
    }
}

impl TraderPort for LocalPlatform {
    fn register_service_type(&mut self, iface: InterfaceType) {
        self.trader.register_service_type(iface);
    }

    fn export(
        &mut self,
        service_type: &str,
        offering_type: &InterfaceType,
        interface: InterfaceRef,
        properties: Vec<(String, Value)>,
    ) -> Result<odp::OfferId, OdpError> {
        self.emit(
            Layer::Odp,
            "odp.export",
            format_args!("offer of {service_type}"),
        );
        self.trader
            .export_dynamic(service_type, offering_type, interface, properties)
    }

    fn import(&mut self, request: &ImportRequest) -> Result<Vec<ServiceOffer>, OdpError> {
        self.emit(
            Layer::Odp,
            "odp.import",
            format_args!("seeking {}", request.service_type),
        );
        self.trader
            .import(request)
            .map(|offers| offers.into_iter().cloned().collect())
    }

    fn attach_policy(&mut self, policy: Box<dyn TradingPolicy>) {
        self.trader.attach_policy_boxed(policy);
    }

    fn offer_count(&mut self) -> usize {
        self.trader.offer_count()
    }
}

impl DirectoryPort for LocalPlatform {
    fn apply(&mut self, op: DirOp) -> Result<DirResult, DirectoryError> {
        self.emit(Layer::Directory, "dir.apply", op.target());
        match op {
            DirOp::Add(entry) => {
                self.dit.add(entry)?;
                Ok(DirResult::Done)
            }
            DirOp::Remove(dn) => {
                self.dit.remove(&dn)?;
                Ok(DirResult::Done)
            }
            DirOp::Modify(dn, mods) => {
                self.dit.modify(&dn, |e| {
                    for m in &mods {
                        m.apply(e);
                    }
                })?;
                Ok(DirResult::Done)
            }
            DirOp::Rename(from, to) => {
                self.dit.rename(&from, to)?;
                Ok(DirResult::Done)
            }
            DirOp::Read(dn) => Ok(DirResult::Entry(self.dit.read(&dn)?.clone())),
            DirOp::Search(req) => Ok(DirResult::Search(self.dit.search(&req)?)),
        }
    }
}

impl TransportPort for LocalPlatform {
    fn notify(
        &mut self,
        from: &OrAddress,
        to: &OrAddress,
        subject: &str,
        _body: &str,
    ) -> Result<u64, MtsError> {
        self.emit(
            Layer::Messaging,
            "mts.submit",
            format_args!("{from} -> {to}"),
        );
        let id = self.next_message_id;
        self.next_message_id += 1;
        // An existing mailbox is found by reference; only a new one
        // copies its address, and only a new run its subject.
        match self.mailboxes.get_mut(to) {
            Some(runs) => match runs.last_mut() {
                Some((last, count)) if last == subject => *count += 1,
                _ => runs.push((subject.to_owned(), 1)),
            },
            None => {
                self.mailboxes
                    .insert(to.clone(), vec![(subject.to_owned(), 1)]);
            }
        }
        Ok(id)
    }

    fn delivered(&mut self, to: &OrAddress) -> Vec<String> {
        let runs = self.mailboxes.get(to).into_iter().flatten();
        runs.flat_map(|(subject, count)| std::iter::repeat_n(subject, *count))
            .cloned()
            .collect()
    }
}

impl Platform for LocalPlatform {
    fn name(&self) -> &'static str {
        "local"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clock(&self) -> &dyn Clock {
        &self.clock
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
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

#[cfg(test)]
mod tests {
    use super::*;
    use cscw_directory::{Attribute, Entry};

    fn addr(name: &str) -> OrAddress {
        OrAddress::new("ZZ", "mocca", ["users"], name).unwrap()
    }

    #[test]
    fn directory_port_mirrors_dsa_semantics() {
        let mut p = LocalPlatform::new();
        let dn: cscw_directory::Dn = "cn=doc1".parse().unwrap();
        let entry = Entry::new(dn.clone())
            .with_class("cscwresource")
            .with_attr(Attribute::single("cn", "doc1"))
            .with_attr(Attribute::single("resourcetype", "document"));
        assert!(matches!(p.apply(DirOp::Add(entry)), Ok(DirResult::Done)));
        let got = p.apply(DirOp::Read(dn.clone())).unwrap();
        assert!(matches!(got, DirResult::Entry(e) if e.dn() == &dn));
        assert!(matches!(
            p.apply(DirOp::Remove("cn=ghost".parse().unwrap())),
            Err(DirectoryError::NoSuchEntry(_))
        ));
        assert_eq!(p.telemetry().counter(Layer::Directory, "dir.apply"), 3);
    }

    #[test]
    fn transport_port_delivers_in_memory() {
        let mut p = LocalPlatform::new();
        let subjects = [
            "artifact-exchanged",
            "artifact-exchanged",
            "object-stored",
            "artifact-exchanged",
        ];
        for subject in subjects {
            p.notify(&addr("env"), &addr("tom"), subject, "doc1")
                .unwrap();
        }
        // Equal consecutive subjects share one stored run.
        assert_eq!(p.stored_runs(&addr("tom")), 3);
        assert_eq!(p.delivered(&addr("tom")), subjects);
        assert!(p.delivered(&addr("nobody")).is_empty());
        assert_eq!(p.telemetry().counter(Layer::Messaging, "mts.submit"), 4);
    }
}
