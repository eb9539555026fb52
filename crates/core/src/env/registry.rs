//! Application registration.
//!
//! The environment knows each CSCW application by a descriptor: which
//! quadrant of the groupware time–space matrix (Figure 1) it occupies,
//! which information-object kinds it produces and consumes, and how its
//! native format maps to the common information model.

/// Identifies a registered application.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(String);

impl AppId {
    /// Creates an id.
    pub fn new(id: impl Into<String>) -> Self {
        AppId(id.into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AppId {
    fn from(s: &str) -> Self {
        AppId::new(s)
    }
}

/// The time dimension of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeMode {
    /// Same time (synchronous interaction).
    SameTime,
    /// Different times (asynchronous interaction).
    DifferentTimes,
}

/// The place dimension of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceMode {
    /// Same place (co-located, e.g. a meeting room).
    SamePlace,
    /// Different places (remote).
    DifferentPlaces,
}

/// One cell of the groupware time–space matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quadrant {
    /// Time dimension.
    pub time: TimeMode,
    /// Place dimension.
    pub place: PlaceMode,
}

impl Quadrant {
    /// Same time, same place — meeting rooms (COLAB).
    pub const MEETING_ROOM: Quadrant = Quadrant {
        time: TimeMode::SameTime,
        place: PlaceMode::SamePlace,
    };
    /// Same time, different places — desktop conferencing (Shared X).
    pub const DESKTOP_CONFERENCE: Quadrant = Quadrant {
        time: TimeMode::SameTime,
        place: PlaceMode::DifferentPlaces,
    };
    /// Different times, same place — shared workstations / procedure
    /// systems (DOMINO).
    pub const SHARED_FACILITY: Quadrant = Quadrant {
        time: TimeMode::DifferentTimes,
        place: PlaceMode::SamePlace,
    };
    /// Different times, different places — message & conferencing
    /// systems (COM, Object Lens).
    pub const CORRESPONDENCE: Quadrant = Quadrant {
        time: TimeMode::DifferentTimes,
        place: PlaceMode::DifferentPlaces,
    };

    /// All four quadrants.
    pub fn all() -> [Quadrant; 4] {
        [
            Quadrant::MEETING_ROOM,
            Quadrant::DESKTOP_CONFERENCE,
            Quadrant::SHARED_FACILITY,
            Quadrant::CORRESPONDENCE,
        ]
    }
}

/// A registered application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppDescriptor {
    /// The id.
    pub id: AppId,
    /// Human name.
    pub name: String,
    /// Where it sits in the time–space matrix.
    pub quadrant: Quadrant,
    /// The name of its native artifact format.
    pub native_format: String,
    /// Information-object kinds it can produce/consume through the hub.
    pub kinds: Vec<String>,
}

/// The application registry.
#[derive(Debug, Clone, Default)]
pub struct AppRegistry {
    apps: Vec<AppDescriptor>,
}

impl AppRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) an application.
    pub fn register(&mut self, descriptor: AppDescriptor) {
        self.apps.retain(|a| a.id != descriptor.id);
        self.apps.push(descriptor);
    }

    /// Looks up an application.
    pub fn app(&self, id: &AppId) -> Option<&AppDescriptor> {
        self.apps.iter().find(|a| &a.id == id)
    }

    /// All registered applications.
    pub fn apps(&self) -> &[AppDescriptor] {
        &self.apps
    }

    /// Applications in a quadrant.
    pub fn in_quadrant(&self, quadrant: Quadrant) -> Vec<&AppDescriptor> {
        self.apps
            .iter()
            .filter(|a| a.quadrant == quadrant)
            .collect()
    }

    /// Matrix coverage: which quadrants have at least one application —
    /// the "co-existence of remote/local, synchronous/asynchronous"
    /// check (§3).
    pub fn covered_quadrants(&self) -> Vec<Quadrant> {
        Quadrant::all()
            .into_iter()
            .filter(|q| self.apps.iter().any(|a| a.quadrant == *q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> AppRegistry {
        let mut r = AppRegistry::new();
        for (id, q) in [
            ("colab", Quadrant::MEETING_ROOM),
            ("sharedx", Quadrant::DESKTOP_CONFERENCE),
            ("com", Quadrant::CORRESPONDENCE),
        ] {
            r.register(AppDescriptor {
                id: id.into(),
                name: id.to_uppercase(),
                quadrant: q,
                native_format: format!("{id}-format"),
                kinds: vec!["document".into()],
            });
        }
        r
    }

    #[test]
    fn register_and_lookup() {
        let r = registry();
        assert_eq!(r.apps().len(), 3);
        assert!(r.app(&"colab".into()).is_some());
        assert!(r.app(&"ghost".into()).is_none());
    }

    #[test]
    fn reregistration_replaces() {
        let mut r = registry();
        r.register(AppDescriptor {
            id: "colab".into(),
            name: "Colab v2".into(),
            quadrant: Quadrant::MEETING_ROOM,
            native_format: "colab2".into(),
            kinds: vec![],
        });
        assert_eq!(r.apps().len(), 3);
        assert_eq!(r.app(&"colab".into()).unwrap().name, "Colab v2");
    }

    #[test]
    fn quadrant_queries() {
        let r = registry();
        assert_eq!(r.in_quadrant(Quadrant::MEETING_ROOM).len(), 1);
        assert!(r.in_quadrant(Quadrant::SHARED_FACILITY).is_empty());
        let covered = r.covered_quadrants();
        assert_eq!(covered.len(), 3, "one quadrant uncovered");
        assert!(!covered.contains(&Quadrant::SHARED_FACILITY));
    }

    #[test]
    fn quadrant_constants_are_distinct() {
        let all = Quadrant::all();
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
    }
}
