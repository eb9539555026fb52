//! The User Expertise Model (§5).
//!
//! "This model is expressed in terms of user's responsibility, which is
//! imposed by the organisation and user's capabilities, which describes
//! the users individual skills."

use cscw_directory::Dn;

use crate::activity::ActivityId;

/// One skill a user holds, with a proficiency level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capability {
    /// The skill name (`minute-taking`, `odp-modelling`, `german`…).
    pub skill: String,
    /// Proficiency 1..=5.
    pub level: u8,
}

impl Capability {
    /// Creates a capability (level clamped to 1..=5).
    pub fn new(skill: impl Into<String>, level: u8) -> Self {
        Capability {
            skill: skill.into(),
            level: level.clamp(1, 5),
        }
    }
}

/// A responsibility imposed by the organisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Responsibility {
    /// The activity it concerns.
    pub activity: ActivityId,
    /// The duty (`chair`, `deliver-report`…).
    pub duty: String,
    /// The organisational role that imposed it.
    pub imposed_by: Dn,
}

/// One user's expertise record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expertise {
    /// Individual skills.
    pub capabilities: Vec<Capability>,
    /// Organisation-imposed duties.
    pub responsibilities: Vec<Responsibility>,
}

impl Expertise {
    /// The level held for a skill (0 when absent).
    pub fn level(&self, skill: &str) -> u8 {
        self.capabilities
            .iter()
            .find(|c| c.skill == skill)
            .map(|c| c.level)
            .unwrap_or(0)
    }
}

/// The environment-wide expertise model.
#[derive(Debug, Clone, Default)]
pub struct UserExpertiseModel {
    records: Vec<(Dn, Expertise)>,
}

impl UserExpertiseModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a capability for a person (replacing a previous level
    /// for the same skill).
    pub fn declare_capability(&mut self, person: &Dn, capability: Capability) {
        let record = self.record_mut(person);
        record.capabilities.retain(|c| c.skill != capability.skill);
        record.capabilities.push(capability);
    }

    /// Imposes a responsibility on a person.
    pub fn impose(&mut self, person: &Dn, responsibility: Responsibility) {
        self.record_mut(person)
            .responsibilities
            .push(responsibility);
    }

    fn record_mut(&mut self, person: &Dn) -> &mut Expertise {
        let pos = match self.records.iter().position(|(dn, _)| dn == person) {
            Some(pos) => pos,
            None => {
                self.records.push((person.clone(), Expertise::default()));
                self.records.len() - 1
            }
        };
        &mut self.records[pos].1
    }

    /// A person's record.
    pub fn expertise(&self, person: &Dn) -> Option<&Expertise> {
        self.records
            .iter()
            .find(|(dn, _)| dn == person)
            .map(|(_, e)| e)
    }

    /// People holding `skill` at `min_level` or better, best first, ties
    /// broken by fewest responsibilities (least loaded) then by DN.
    /// This is the "find the best person for the task" query the
    /// environment offers other systems.
    pub fn find_capable(&self, skill: &str, min_level: u8) -> Vec<(&Dn, u8)> {
        let mut hits: Vec<(&Dn, u8, usize)> = self
            .records
            .iter()
            .filter_map(|(dn, e)| {
                let level = e.level(skill);
                (level >= min_level).then_some((dn, level, e.responsibilities.len()))
            })
            .collect();
        hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)).then(a.0.cmp(b.0)));
        hits.into_iter().map(|(dn, level, _)| (dn, level)).collect()
    }

    /// The duties a person carries for an activity.
    pub fn duties_in(&self, person: &Dn, activity: &ActivityId) -> Vec<&Responsibility> {
        self.expertise(person)
            .map(|e| {
                e.responsibilities
                    .iter()
                    .filter(|r| &r.activity == activity)
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn model() -> UserExpertiseModel {
        let mut m = UserExpertiseModel::new();
        m.declare_capability(&dn("cn=Tom"), Capability::new("odp-modelling", 3));
        m.declare_capability(&dn("cn=Wolfgang"), Capability::new("odp-modelling", 5));
        m.declare_capability(&dn("cn=Leandro"), Capability::new("odp-modelling", 5));
        m.declare_capability(&dn("cn=Leandro"), Capability::new("catalan", 5));
        m.impose(
            &dn("cn=Leandro"),
            Responsibility {
                activity: "workshop".into(),
                duty: "organise".into(),
                imposed_by: dn("cn=chair"),
            },
        );
        m
    }

    #[test]
    fn levels_clamp_and_default_to_zero() {
        assert_eq!(Capability::new("x", 9).level, 5);
        assert_eq!(Capability::new("x", 0).level, 1);
        let m = model();
        assert_eq!(m.expertise(&dn("cn=Tom")).unwrap().level("catalan"), 0);
        assert!(m.expertise(&dn("cn=Nobody")).is_none());
    }

    #[test]
    fn redeclaring_replaces_level() {
        let mut m = model();
        m.declare_capability(&dn("cn=Tom"), Capability::new("odp-modelling", 4));
        assert_eq!(
            m.expertise(&dn("cn=Tom")).unwrap().level("odp-modelling"),
            4
        );
        assert_eq!(m.expertise(&dn("cn=Tom")).unwrap().capabilities.len(), 1);
    }

    #[test]
    fn find_capable_ranks_by_level_then_load() {
        let m = model();
        let hits = m.find_capable("odp-modelling", 3);
        assert_eq!(hits.len(), 3);
        // Wolfgang and Leandro are both level 5, but Leandro carries a
        // responsibility, so Wolfgang ranks first.
        assert_eq!(hits[0].0, &dn("cn=Wolfgang"));
        assert_eq!(hits[1].0, &dn("cn=Leandro"));
        assert_eq!(hits[2].0, &dn("cn=Tom"));
        assert!(m.find_capable("odp-modelling", 4).len() == 2);
        assert!(m.find_capable("cooking", 1).is_empty());
    }

    #[test]
    fn duties_are_scoped_by_activity() {
        let m = model();
        assert_eq!(m.duties_in(&dn("cn=Leandro"), &"workshop".into()).len(), 1);
        assert!(m.duties_in(&dn("cn=Leandro"), &"other".into()).is_empty());
        assert!(m.duties_in(&dn("cn=Tom"), &"workshop".into()).is_empty());
    }
}
