//! Semi-structured, rule-processing mail (Object-Lens-like).
//!
//! The paper cites Malone & Lai's Object Lens, "a spreadsheet for
//! cooperative work" (§2, \[7\]): mail messages are semi-structured
//! objects of declared *types* with named fields, and users write rules
//! that file, forward, flag or delete them automatically. Here the
//! message templates come from the shared information model and the
//! rules from the MOCCA tailoring layer — groupware *built on* the
//! environment rather than beside it.

use std::collections::BTreeMap;
use std::sync::Arc;

use cscw_messaging::net::Sim;
use cscw_messaging::{BodyPart, Ipm, OrAddress, SubmitOptions, UserAgent};
use mocca::info::InfoContent;
use mocca::tailor::{RuleAction, RuleEngine};

use crate::GroupwareError;

/// A semi-structured message template: a type name plus its fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageTemplate {
    /// Type name (`Bug Report`, `Meeting Announcement`…).
    pub type_name: String,
    /// Field names the type declares.
    pub fields: Vec<String>,
}

impl MessageTemplate {
    /// Declares a template.
    pub fn new<S: Into<String>>(type_name: &str, fields: impl IntoIterator<Item = S>) -> Self {
        MessageTemplate {
            type_name: type_name.to_owned(),
            fields: fields.into_iter().map(Into::into).collect(),
        }
    }

    /// Instantiates the template, keeping only declared fields.
    pub fn instantiate(
        &self,
        values: impl IntoIterator<Item = (&'static str, String)>,
    ) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        out.insert("type".to_owned(), self.type_name.clone());
        for (k, v) in values {
            if self.fields.iter().any(|f| f == k) {
                out.insert(k.to_owned(), v);
            }
        }
        out
    }
}

/// A processed message as the user's folders see it.
#[derive(Debug, Clone, PartialEq)]
pub struct FiledMessage {
    /// Message id from the MTS.
    pub message_id: u64,
    /// The folder the rules chose (inbox by default).
    pub folder: String,
    /// The (possibly rule-rewritten) fields.
    pub fields: BTreeMap<String, String>,
    /// Notifications the rules raised.
    pub notifications: Vec<String>,
}

/// An Object-Lens-style mailbox: a user agent plus a rule engine.
#[derive(Debug)]
pub struct LensMailbox {
    agent: UserAgent,
    rules: RuleEngine,
    templates: Vec<MessageTemplate>,
    filed: Vec<FiledMessage>,
    processed: usize,
    forwards_sent: u64,
    deleted: u64,
}

impl LensMailbox {
    /// Creates a mailbox over a messaging user agent.
    pub fn new(agent: UserAgent) -> Self {
        LensMailbox {
            agent,
            rules: RuleEngine::new(),
            templates: Vec::new(),
            filed: Vec::new(),
            processed: 0,
            forwards_sent: 0,
            deleted: 0,
        }
    }

    /// The user's rule engine (add/remove rules — the tailoring
    /// surface).
    pub fn rules_mut(&mut self) -> &mut RuleEngine {
        &mut self.rules
    }

    /// Declares a message template.
    pub fn declare_template(&mut self, template: MessageTemplate) {
        self.templates.retain(|t| t.type_name != template.type_name);
        self.templates.push(template);
    }

    /// Looks up a template.
    pub fn template(&self, type_name: &str) -> Option<&MessageTemplate> {
        self.templates.iter().find(|t| t.type_name == type_name)
    }

    /// Sends a semi-structured message of a declared type.
    ///
    /// # Errors
    ///
    /// [`GroupwareError::NoSuchConference`] (naming the template) when
    /// the type was never declared with
    /// [`LensMailbox::declare_template`].
    pub fn send_structured(
        &mut self,
        sim: &mut Sim,
        to: OrAddress,
        type_name: &str,
        values: impl IntoIterator<Item = (&'static str, String)>,
    ) -> Result<u64, GroupwareError> {
        let template = self
            .templates
            .iter()
            .find(|t| t.type_name == type_name)
            .ok_or_else(|| GroupwareError::NoSuchConference(format!("template {type_name}")))?;
        let fields = template.instantiate(values);
        let subject = fields
            .get("subject")
            .cloned()
            .unwrap_or_else(|| type_name.to_owned());
        let mut ipm = Ipm::text(self.agent.address().clone(), to, &subject, "");
        // The structured fields ride as a labelled binary body part.
        let encoded = fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("\n");
        ipm.body = vec![BodyPart::Binary {
            format: "application/x-lens-fields".into(),
            data: encoded.into_bytes().into(),
        }];
        Ok(self.agent.submit(sim, ipm, SubmitOptions::default()))
    }

    fn decode_fields(ipm: &Ipm) -> BTreeMap<String, String> {
        let mut fields = BTreeMap::new();
        fields.insert("from".to_owned(), ipm.heading.originator.to_string());
        fields.insert("subject".to_owned(), ipm.heading.subject.clone());
        for part in &ipm.body {
            if let BodyPart::Binary { format, data } = part {
                if format == "application/x-lens-fields" {
                    for line in String::from_utf8_lossy(data).lines() {
                        if let Some((k, v)) = line.split_once('=') {
                            fields.insert(k.to_owned(), v.to_owned());
                        }
                    }
                }
            }
        }
        fields
    }

    /// Fetches new MTS deliveries and runs them through the rules.
    /// Returns how many new messages were processed.
    ///
    /// # Errors
    ///
    /// Messaging errors from the store access.
    pub fn process_new_mail(&mut self, sim: &mut Sim) -> Result<usize, GroupwareError> {
        let new: Vec<(u64, Arc<Ipm>)> = self
            .agent
            .inbox(sim)?
            .iter()
            .skip(self.processed)
            .map(|m| (m.message_id, m.ipm.clone()))
            .collect();
        self.processed += new.len();
        let mut forwards: Vec<(OrAddress, Arc<Ipm>)> = Vec::new();
        let mut count = 0;
        for (message_id, ipm) in new {
            count += 1;
            let fields = Self::decode_fields(&ipm);
            let kind = fields
                .get("type")
                .cloned()
                .unwrap_or_else(|| "message".to_owned());
            let mut content = InfoContent::Fields(fields);
            let actions = self.rules.apply(&kind, &mut content);
            let final_fields = match content {
                InfoContent::Fields(map) => map,
                _ => BTreeMap::new(),
            };
            let mut folder = "inbox".to_owned();
            let mut notifications = Vec::new();
            let mut deleted = false;
            for action in actions {
                match action {
                    RuleAction::MoveToFolder(f) => folder = f,
                    RuleAction::Notify(msg) => notifications.push(msg),
                    RuleAction::Forward(who) => {
                        // Forward to the person's mailbox, by convention
                        // the DN's cn rendered as a PN at our own domain.
                        if let Some(cn) = who.rdn().map(|r| r.value().to_owned()) {
                            let me = self.agent.address().clone();
                            if let Ok(addr) = OrAddress::new(
                                me.country(),
                                me.organization(),
                                me.org_units().to_vec(),
                                cn,
                            ) {
                                forwards.push((addr, ipm.clone()));
                            }
                        }
                    }
                    RuleAction::Delete => {
                        deleted = true;
                        self.deleted += 1;
                    }
                    RuleAction::SetField(..) => { /* applied inside the engine */ }
                }
            }
            if !deleted {
                self.filed.push(FiledMessage {
                    message_id,
                    folder,
                    fields: final_fields,
                    notifications,
                });
            }
        }
        for (addr, ipm) in forwards {
            let mut ipm = Arc::unwrap_or_clone(ipm);
            ipm.heading.subject = format!("Fwd: {}", ipm.heading.subject);
            let me = self.agent.address().clone();
            ipm.heading.originator = me;
            ipm.heading.to = vec![addr.clone()];
            self.agent.submit(sim, ipm, SubmitOptions::default());
            self.forwards_sent += 1;
        }
        Ok(count)
    }

    /// Messages in a folder, in processing order.
    pub fn folder(&self, name: &str) -> Vec<&FiledMessage> {
        self.filed.iter().filter(|m| m.folder == name).collect()
    }

    /// All filed messages.
    pub fn filed(&self) -> &[FiledMessage] {
        &self.filed
    }

    /// Rule-driven forwards sent.
    pub fn forwards_sent(&self) -> u64 {
        self.forwards_sent
    }

    /// Rule-driven deletions.
    pub fn deleted(&self) -> u64 {
        self.deleted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscw_messaging::net::{LinkSpec, NodeId, TopologyBuilder};
    use cscw_messaging::MtaNode;
    use mocca::tailor::{EventPattern, TailorRule};

    struct World {
        sim: Sim,
        tom: LensMailbox,
        wolfgang_agent: UserAgent,
        mta: NodeId,
    }

    fn world() -> World {
        let mut b = TopologyBuilder::new();
        let mta = b.add_node("mta");
        let tom_ws = b.add_node("tom-ws");
        let wolfgang_ws = b.add_node("wolfgang-ws");
        b.full_mesh(LinkSpec::lan());
        let mut sim = Sim::new(b.build(), 51);

        let tom_addr: OrAddress = "C=UK;O=Lancaster;PN=Tom Rodden".parse().unwrap();
        let wolfgang_addr: OrAddress = "C=UK;O=Lancaster;PN=Wolfgang Prinz".parse().unwrap();
        let mut mta_node = MtaNode::new("mta");
        mta_node.register_mailbox(tom_addr.clone());
        mta_node.register_mailbox(wolfgang_addr.clone());
        sim.register(mta, mta_node);

        let mut tom = LensMailbox::new(UserAgent::new(tom_addr, tom_ws, mta));
        tom.declare_template(MessageTemplate::new(
            "Bug Report",
            ["subject", "severity", "component"],
        ));
        World {
            sim,
            tom,
            wolfgang_agent: UserAgent::new(wolfgang_addr, wolfgang_ws, mta),
            mta,
        }
    }

    #[test]
    fn structured_send_round_trips_fields() {
        let mut w = world();
        let mut wolfgang = LensMailbox::new(w.wolfgang_agent.clone());
        let to = w.wolfgang_agent.address().clone();
        w.tom
            .send_structured(
                &mut w.sim,
                to,
                "Bug Report",
                [
                    ("subject", "trader crash".to_owned()),
                    ("severity", "high".to_owned()),
                    ("component", "import".to_owned()),
                    ("not-declared", "dropped".to_owned()),
                ],
            )
            .unwrap();
        w.sim.run_until_idle();
        let n = wolfgang.process_new_mail(&mut w.sim).unwrap();
        assert_eq!(n, 1);
        let msg = &wolfgang.filed()[0];
        assert_eq!(
            msg.fields.get("type").map(String::as_str),
            Some("Bug Report")
        );
        assert_eq!(msg.fields.get("severity").map(String::as_str), Some("high"));
        assert!(!msg.fields.contains_key("not-declared"));
    }

    #[test]
    fn unknown_template_is_rejected() {
        let mut w = world();
        let to = w.wolfgang_agent.address().clone();
        assert!(w
            .tom
            .send_structured(&mut w.sim, to, "Love Letter", [])
            .is_err());
    }

    #[test]
    fn rules_file_and_notify() {
        let mut w = world();
        let mut wolfgang = LensMailbox::new(w.wolfgang_agent.clone());
        wolfgang.rules_mut().add_rule(TailorRule {
            name: "file-bugs".into(),
            pattern: EventPattern::of_kind("Bug Report"),
            action: RuleAction::MoveToFolder("bugs".into()),
        });
        wolfgang.rules_mut().add_rule(TailorRule {
            name: "page-on-high".into(),
            pattern: EventPattern::of_kind("Bug Report").with_field("severity", "high"),
            action: RuleAction::Notify("high severity bug!".into()),
        });
        wolfgang.declare_template(MessageTemplate::new("Bug Report", ["subject", "severity"]));

        let to = w.wolfgang_agent.address().clone();
        w.tom
            .send_structured(
                &mut w.sim,
                to.clone(),
                "Bug Report",
                [
                    ("subject", "minor typo".to_owned()),
                    ("severity", "low".to_owned()),
                ],
            )
            .unwrap();
        w.tom
            .send_structured(
                &mut w.sim,
                to,
                "Bug Report",
                [
                    ("subject", "data loss".to_owned()),
                    ("severity", "high".to_owned()),
                ],
            )
            .unwrap();
        w.sim.run_until_idle();
        wolfgang.process_new_mail(&mut w.sim).unwrap();

        assert_eq!(wolfgang.folder("bugs").len(), 2);
        assert_eq!(wolfgang.folder("inbox").len(), 0);
        let high = wolfgang
            .folder("bugs")
            .into_iter()
            .find(|m| m.fields.get("severity").map(String::as_str) == Some("high"))
            .unwrap();
        assert_eq!(high.notifications, vec!["high severity bug!".to_owned()]);
    }

    #[test]
    fn delete_rules_drop_messages() {
        let mut w = world();
        let mut wolfgang = LensMailbox::new(w.wolfgang_agent.clone());
        wolfgang.rules_mut().add_rule(TailorRule {
            name: "drop-low".into(),
            pattern: EventPattern::of_kind("Bug Report").with_field("severity", "low"),
            action: RuleAction::Delete,
        });
        let to = w.wolfgang_agent.address().clone();
        w.tom
            .send_structured(
                &mut w.sim,
                to,
                "Bug Report",
                [
                    ("subject", "meh".to_owned()),
                    ("severity", "low".to_owned()),
                ],
            )
            .unwrap();
        w.sim.run_until_idle();
        wolfgang.process_new_mail(&mut w.sim).unwrap();
        assert!(wolfgang.filed().is_empty());
        assert_eq!(wolfgang.deleted(), 1);
    }

    #[test]
    fn forward_rules_send_mail_onward() {
        let mut w = world();
        let mut wolfgang = LensMailbox::new(w.wolfgang_agent.clone());
        wolfgang.rules_mut().add_rule(TailorRule {
            name: "delegate-bugs".into(),
            pattern: EventPattern::of_kind("Bug Report"),
            action: RuleAction::Forward("cn=Tom Rodden".parse().unwrap()),
        });
        let to = w.wolfgang_agent.address().clone();
        w.tom
            .send_structured(
                &mut w.sim,
                to,
                "Bug Report",
                [("subject", "bounce back".to_owned())],
            )
            .unwrap();
        w.sim.run_until_idle();
        wolfgang.process_new_mail(&mut w.sim).unwrap();
        w.sim.run_until_idle();
        assert_eq!(wolfgang.forwards_sent(), 1);
        // Tom received the forwarded copy.
        let mta = w.sim.node::<MtaNode>(w.mta).unwrap();
        let tom_addr: OrAddress = "C=UK;O=Lancaster;PN=Tom Rodden".parse().unwrap();
        let inbox = mta.mailbox(&tom_addr).unwrap().inbox();
        assert_eq!(inbox.len(), 1);
        assert!(inbox[0].ipm.heading.subject.starts_with("Fwd:"));
    }

    #[test]
    fn processing_is_incremental() {
        let mut w = world();
        let mut wolfgang = LensMailbox::new(w.wolfgang_agent.clone());
        wolfgang.declare_template(MessageTemplate::new("Bug Report", ["subject"]));
        let to = w.wolfgang_agent.address().clone();
        w.tom
            .send_structured(
                &mut w.sim,
                to.clone(),
                "Bug Report",
                [("subject", "one".to_owned())],
            )
            .unwrap();
        w.sim.run_until_idle();
        assert_eq!(wolfgang.process_new_mail(&mut w.sim).unwrap(), 1);
        assert_eq!(
            wolfgang.process_new_mail(&mut w.sim).unwrap(),
            0,
            "no reprocessing"
        );
        w.tom
            .send_structured(
                &mut w.sim,
                to,
                "Bug Report",
                [("subject", "two".to_owned())],
            )
            .unwrap();
        w.sim.run_until_idle();
        assert_eq!(wolfgang.process_new_mail(&mut w.sim).unwrap(), 1);
        assert_eq!(wolfgang.filed().len(), 2);
    }
}
