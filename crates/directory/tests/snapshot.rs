//! Seeded property test of copy-on-write entries: random streams of
//! adds, modifies, removes, renames and subtree removals run on a
//! recording [`Dit`] and on a reference model of deep-copied entries,
//! with a [`Dit::clone`] snapshot taken mid-stream and written to on its
//! own. Every logged change must carry the model's states, no-op
//! modifies must log nothing, the snapshot and its source must never
//! see each other's writes, and a `Modified` pair must share every
//! attribute the modification did not touch: a shared attribute is one
//! allocation, so `Entry::attr` returns the same address for both.
//!
//! The model also keeps every entry's [`EntryId`]: a modify and a
//! rename keep it, an add takes one no live entry holds (a reused slot
//! under a higher generation), a removed entry's id stops resolving,
//! and a snapshot keeps the ids of its source while each side's later
//! writes leave the other's id table alone.
//!
//! After every step the point lookups (`get`, `id`, `entry`, `name`)
//! must agree with the model for every name the stream can use, each
//! entry's `children()` must be the model's children in DN order, and
//! removing an entry with descendants must fail with `NotLeaf`.

use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

use cscw_kernel::SeededRng;

use cscw_directory::{
    Attribute, AttributeType, AttributeValue, DirectoryError, Dit, DitChange, Dn, Entry, EntryId,
    Schema,
};

const SEEDS: u64 = 48;
const STEPS: usize = 160;
const ORGS: u64 = 3;
const PEOPLE: u64 = 6;
const MAILS: u64 = 3;

/// One modification, applied alike to the DIT and to the model.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// Merge one `mail` value (a no-op when present).
    PutMail(u64),
    /// Replace `sn` (a no-op when equal).
    ReplaceSn(u64),
    /// Remove an attribute: `mail` (maybe absent) or the mandatory
    /// `sn` (a schema violation).
    RemoveAttr(&'static str),
    /// Remove one `mail` value (maybe absent).
    RemoveMail(u64),
    /// Change nothing.
    Nothing,
}

impl Edit {
    fn random(rng: &mut SeededRng) -> Self {
        match rng.below(6) {
            0 => Edit::PutMail(rng.below(MAILS)),
            1 => Edit::ReplaceSn(rng.below(2)),
            2 => Edit::RemoveAttr(if rng.chance(0.8) { "mail" } else { "sn" }),
            3 => Edit::RemoveMail(rng.below(MAILS)),
            _ => Edit::Nothing,
        }
    }

    /// The attribute the edit writes, if any.
    fn touches(self) -> Option<&'static str> {
        match self {
            Edit::PutMail(_) | Edit::RemoveMail(_) => Some("mail"),
            Edit::ReplaceSn(_) => Some("sn"),
            Edit::RemoveAttr(ty) => Some(ty),
            Edit::Nothing => None,
        }
    }

    fn apply(self, e: &mut Entry) {
        match self {
            Edit::PutMail(i) => e.put_attr(Attribute::single("mail", mail(i))),
            Edit::ReplaceSn(i) => e.replace_attr(Attribute::single("sn", format!("S{i}"))),
            Edit::RemoveAttr(ty) => {
                e.remove_attr(&AttributeType::new(ty));
            }
            Edit::RemoveMail(i) => {
                e.remove_value(&"mail".into(), &AttributeValue::from(mail(i)));
            }
            Edit::Nothing => {}
        }
    }
}

#[derive(Debug)]
enum Op {
    Add(Dn),
    Modify(Dn, Edit),
    Remove(Dn),
    Rename(Dn, Dn),
    RemoveSubtree(Dn),
}

fn mail(i: u64) -> String {
    format!("m{i}@uk")
}

fn org_dn(o: u64) -> Dn {
    format!("c=UK,o=org{o}").parse().unwrap()
}

fn person_dn(o: u64, p: u64) -> Dn {
    format!("c=UK,o=org{o},cn=p{p}").parse().unwrap()
}

fn random_person(rng: &mut SeededRng) -> Dn {
    person_dn(rng.below(ORGS), rng.below(PEOPLE))
}

fn random_op(rng: &mut SeededRng) -> Op {
    match rng.below(20) {
        0..=4 => Op::Add(if rng.chance(0.2) {
            org_dn(rng.below(ORGS))
        } else {
            random_person(rng)
        }),
        5..=13 => Op::Modify(random_person(rng), Edit::random(rng)),
        14..=15 => Op::Remove(if rng.chance(0.25) {
            org_dn(rng.below(ORGS))
        } else {
            random_person(rng)
        }),
        16..=18 => Op::Rename(random_person(rng), random_person(rng)),
        _ => Op::RemoveSubtree(org_dn(rng.below(ORGS))),
    }
}

/// Every name a stream can use: the country, the organisations and
/// the people.
static NAMES: LazyLock<Vec<Dn>> = LazyLock::new(|| {
    let people = (0..ORGS).flat_map(|o| (0..PEOPLE).map(move |p| person_dn(o, p)));
    std::iter::once("c=UK".parse().unwrap())
        .chain((0..ORGS).map(org_dn))
        .chain(people)
        .collect()
});

/// A valid entry for `dn`: an organisation, or a person with a
/// multi-valued `mail`.
fn entry_for(dn: &Dn) -> Entry {
    let rdn = dn.rdn().unwrap();
    let e = Entry::new(dn.clone());
    if rdn.attr().as_str() == "o" {
        return e
            .with_class("organization")
            .with_attr(Attribute::single("o", rdn.value()));
    }
    e.with_class("person")
        .with_attr(Attribute::single("cn", rdn.value()))
        .with_attr(Attribute::single("sn", "S0"))
        .with_attr(Attribute::multi("mail", [mail(0), mail(1)]))
}

/// A copy of `e` at `dn` that shares no attribute with it.
fn deep_at(e: &Entry, dn: &Dn) -> Entry {
    e.attrs()
        .fold(Entry::new(dn.clone()), |copy, a| copy.with_attr(a.clone()))
}

/// A copy of `e` that shares no attribute with it.
fn deep(e: &Entry) -> Entry {
    deep_at(e, e.dn())
}

/// The reference model: deep-copied entries with their ids, by DN.
#[derive(Default)]
struct Model {
    entries: BTreeMap<Dn, (EntryId, Entry)>,
    /// Per slot, the generation of its last holder; a removed entry's
    /// id stays here, so it can be checked to resolve to nothing.
    slots: BTreeMap<usize, EntryId>,
}

impl Model {
    fn deep_clone(&self) -> Model {
        Model {
            entries: self
                .entries
                .iter()
                .map(|(dn, (id, e))| (dn.clone(), (*id, deep(e))))
                .collect(),
            slots: self.slots.clone(),
        }
    }

    fn has_parent(&self, dn: &Dn) -> bool {
        dn.parent()
            .is_some_and(|p| p.is_root() || self.entries.contains_key(&p))
    }

    fn is_leaf(&self, dn: &Dn) -> bool {
        !self.entries.keys().any(|k| dn.is_ancestor_of(k))
    }

    /// Takes `id` as the id of a new entry: its slot is free, and a
    /// reused slot comes back under a higher generation.
    fn fresh(&mut self, id: EntryId, ctx: &str) -> EntryId {
        assert!(
            self.entries
                .values()
                .all(|(live, _)| live.slot() != id.slot()),
            "{ctx}: {id:?} reuses a held slot"
        );
        if let Some(last) = self.slots.insert(id.slot(), id) {
            assert!(
                id.generation() > last.generation(),
                "{ctx}: slot {} came back as {id:?} after {last:?}",
                id.slot()
            );
        }
        id
    }

    /// Applies `op` to the model; returns whether it succeeds and the
    /// changes a recording DIT must log for it. `added` is the id the
    /// DIT gave a name it added.
    fn apply(
        &mut self,
        op: &Op,
        added: impl FnOnce(&Dn) -> Option<EntryId>,
        ctx: &str,
    ) -> (bool, Vec<DitChange>) {
        let shared = |e: &Entry| Arc::new(deep(e));
        match op {
            Op::Add(dn) => {
                if self.entries.contains_key(dn) || !self.has_parent(dn) {
                    return (false, vec![]);
                }
                let id = added(dn).unwrap_or_else(|| panic!("{ctx}: {dn} added without an id"));
                let id = self.fresh(id, ctx);
                let e = entry_for(dn);
                let log = vec![DitChange::Added {
                    id,
                    entry: shared(&e),
                }];
                self.entries.insert(dn.clone(), (id, e));
                (true, log)
            }
            Op::Modify(dn, edit) => {
                let Some((id, before)) = self.entries.get(dn) else {
                    return (false, vec![]);
                };
                let mut after = deep(before);
                edit.apply(&mut after);
                if Schema::standard().validate(&after).is_err() {
                    return (false, vec![]);
                }
                if after == *before {
                    return (true, vec![]);
                }
                let id = *id;
                let log = vec![DitChange::Modified {
                    id,
                    before: shared(before),
                    after: shared(&after),
                }];
                self.entries.insert(dn.clone(), (id, after));
                (true, log)
            }
            Op::Remove(dn) => {
                if !self.entries.contains_key(dn) || !self.is_leaf(dn) {
                    return (false, vec![]);
                }
                let (id, e) = self.entries.remove(dn).unwrap();
                (
                    true,
                    vec![DitChange::Removed {
                        id,
                        entry: shared(&e),
                    }],
                )
            }
            Op::Rename(from, to) => {
                let ok = !self.entries.contains_key(to)
                    && self.has_parent(to)
                    && self.entries.contains_key(from)
                    && self.is_leaf(from);
                if !ok {
                    return (false, vec![]);
                }
                let (id, e) = self.entries.remove(from).unwrap();
                let moved = deep_at(&e, to);
                let log = vec![
                    DitChange::Removed {
                        id,
                        entry: shared(&e),
                    },
                    DitChange::Added {
                        id,
                        entry: shared(&moved),
                    },
                ];
                self.entries.insert(to.clone(), (id, moved));
                (true, log)
            }
            Op::RemoveSubtree(dn) => {
                if !self.entries.contains_key(dn) {
                    return (false, vec![]);
                }
                let doomed: Vec<Dn> = self
                    .entries
                    .keys()
                    .filter(|k| dn.is_prefix_of(k))
                    .cloned()
                    .collect();
                let log = doomed
                    .iter()
                    .map(|d| {
                        let (id, e) = self.entries.remove(d).unwrap();
                        DitChange::Removed {
                            id,
                            entry: shared(&e),
                        }
                    })
                    .collect();
                (true, log)
            }
        }
    }
}

fn run(dit: &mut Dit, op: &Op) -> Result<(), DirectoryError> {
    match op {
        Op::Add(dn) => dit.add(entry_for(dn)),
        Op::Modify(dn, edit) => dit.modify(dn, |e| edit.apply(e)),
        Op::Remove(dn) => dit.remove(dn).map(drop),
        Op::Rename(from, to) => dit.rename(from, to.clone()),
        Op::RemoveSubtree(dn) => dit.remove_subtree(dn).map(drop),
    }
}

/// Runs `op` on `dit` and `model` and checks the outcome, the log and
/// the resulting state.
fn step(dit: &mut Dit, model: &mut Model, op: &Op, ctx: &str) {
    let inner = match op {
        Op::Remove(dn) => model.entries.contains_key(dn) && !model.is_leaf(dn),
        _ => false,
    };
    let outcome = run(dit, op);
    if inner {
        assert!(
            matches!(outcome, Err(DirectoryError::NotLeaf(_))),
            "{ctx}: {op:?} of an entry with descendants gave {outcome:?}"
        );
    }
    let ran = outcome.is_ok();
    let (ok, expected) = model.apply(op, |dn| dit.id(dn), ctx);
    assert_eq!(ran, ok, "{ctx}: outcome of {op:?}");
    let logged = dit.take_changes();
    assert_eq!(logged, expected, "{ctx}: log of {op:?}");
    if let (Op::Modify(_, edit), [DitChange::Modified { before, after, .. }]) = (op, &logged[..]) {
        for attr in before.attrs() {
            let ty = attr.ty().as_str();
            if Some(ty) == edit.touches() {
                continue;
            }
            let (b, a) = (before.attr(ty), after.attr(ty));
            assert!(
                b.zip(a).is_some_and(|(b, a)| std::ptr::eq(b, a)),
                "{ctx}: {op:?} copied untouched attribute {ty}"
            );
        }
    }
    assert_state(dit, model, ctx);
}

/// The tree holds the model's entries, each under the model's id, and
/// every id the model saw retired resolves to nothing.
fn assert_state(dit: &Dit, model: &Model, ctx: &str) {
    assert!(
        dit.iter_ids()
            .eq(model.entries.values().map(|(id, e)| (*id, e))),
        "{ctx}: tree differs from the model"
    );
    for (dn, (id, e)) in &model.entries {
        assert_eq!(dit.name(*id), Some(dn), "{ctx}: {id:?} names another entry");
        assert_eq!(dit.id(dn), Some(*id), "{ctx}: {dn} has another id");
        assert_eq!(dit.get(dn), Some(e), "{ctx}: get({dn})");
        assert_eq!(dit.entry(*id), Some(e), "{ctx}: entry({id:?})");
    }
    for dn in NAMES.iter() {
        if !model.entries.contains_key(dn) {
            assert!(dit.get(dn).is_none(), "{ctx}: absent {dn} is found");
            assert_eq!(dit.id(dn), None, "{ctx}: absent {dn} has an id");
        }
    }
    let mut by_parent: BTreeMap<Dn, Vec<&Dn>> = BTreeMap::new();
    for dn in model.entries.keys() {
        by_parent.entry(dn.parent().unwrap()).or_default().push(dn);
    }
    for base in std::iter::once(Dn::root()).chain(model.entries.keys().cloned()) {
        let children: Vec<&Dn> = dit.children(&base).map(Entry::dn).collect();
        let expected = by_parent.get(&base).map_or(&[][..], Vec::as_slice);
        assert_eq!(children, expected, "{ctx}: children of {base}");
    }
    for id in model.slots.values() {
        if !model.entries.values().any(|(live, _)| live == id) {
            assert_eq!(dit.name(*id), None, "{ctx}: retired {id:?} still resolves");
        }
    }
}

#[test]
fn logs_and_snapshots_match_a_deep_copied_model() {
    for seed in 0..SEEDS {
        let mut rng = SeededRng::seed_from(seed);
        let mut dit = Dit::new();
        dit.record_changes();
        let mut model = Model::default();
        let root: Dn = "c=UK".parse().unwrap();
        dit.add(
            Entry::new(root.clone())
                .with_class("country")
                .with_attr(Attribute::single("c", "UK")),
        )
        .unwrap();
        let root_id = dit.id(&root).unwrap();
        model.slots.insert(root_id.slot(), root_id);
        model
            .entries
            .insert(root.clone(), (root_id, dit.get(&root).unwrap().clone()));
        dit.take_changes();
        for o in 0..ORGS {
            step(&mut dit, &mut model, &Op::Add(org_dn(o)), "set-up");
        }

        let mut snapshot = None;
        for i in 0..STEPS {
            let op = random_op(&mut rng);
            step(&mut dit, &mut model, &op, &format!("seed {seed} step {i}"));
            if i == STEPS / 2 {
                let copy = dit.clone();
                assert_state(&copy, &model, "fresh snapshot");
                snapshot = Some((copy, model.deep_clone()));
            }
            if let Some((snap, snap_model)) = snapshot.as_mut() {
                // The snapshot records nothing, so `step` checks it
                // against an empty log and the model's state.
                let op = random_op(&mut rng);
                let ctx = format!("seed {seed} step {i}: snapshot");
                let ran = run(snap, &op).is_ok();
                let (ok, _) = snap_model.apply(&op, |dn| snap.id(dn), &ctx);
                assert_eq!(ran, ok, "{ctx} {op:?}");
                assert!(snap.take_changes().is_empty(), "a snapshot records nothing");
                assert_state(snap, snap_model, &format!("seed {seed} step {i}: snapshot"));
                assert_state(&dit, &model, &format!("seed {seed} step {i}: source"));
            }
        }
    }
}
