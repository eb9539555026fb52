//! The four CSCW transparencies (§4, "Support for Transparency").
//!
//! "The CSCW environment should provide some degree of transparency to
//! facilitate people cooperating from different coordinates." Unlike the
//! five ODP distribution transparencies (see [`odp::TransparencySelection`]),
//! these mask *cooperative* heterogeneity:
//!
//! * [`organisation`] — hide inter-organisational policy complexity;
//!   surface [`crate::error::MoccaError::IncompatiblePolicies`] only
//!   when interaction is truly impossible.
//! * [`time`] — make interaction "independent of the mode we are using"
//!   by bridging synchronous sessions and asynchronous messaging.
//! * [`view`] — let applications care (WYSIWIS) or not care how each
//!   user views data.
//! * [`activity`] — keep unrelated activities from disturbing each
//!   other.
//!
//! [`CscwTransparencySelection`] is the user-tailorable toggle set; the
//! R5 bench ablates each flag.

pub mod activity;
pub mod organisation;
pub mod time;
pub mod view;

pub use activity::ActivityIsolation;
pub use organisation::OrganisationTransparency;
pub use time::TimeBridge;
pub use view::{View, ViewRegistry};

/// Which CSCW transparencies are engaged. Plain data so the tailoring
/// layer can expose it to end users, per §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CscwTransparencySelection {
    /// Mask organisational boundaries and policies.
    pub organisation: bool,
    /// Mask the synchronous/asynchronous divide.
    pub time: bool,
    /// Mask per-user view differences.
    pub view: bool,
    /// Mask unrelated activities.
    pub activity: bool,
}

impl CscwTransparencySelection {
    /// Everything masked.
    pub fn full() -> Self {
        CscwTransparencySelection {
            organisation: true,
            time: true,
            view: true,
            activity: true,
        }
    }

    /// Nothing masked.
    pub fn none() -> Self {
        CscwTransparencySelection {
            organisation: false,
            time: false,
            view: false,
            activity: false,
        }
    }

    /// Count of engaged transparencies.
    pub fn engaged_count(&self) -> usize {
        [self.organisation, self.time, self.view, self.activity]
            .iter()
            .filter(|&&b| b)
            .count()
    }
}

impl Default for CscwTransparencySelection {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_counts_and_default() {
        assert_eq!(CscwTransparencySelection::full().engaged_count(), 4);
        assert_eq!(CscwTransparencySelection::none().engaged_count(), 0);
        assert_eq!(
            CscwTransparencySelection::default(),
            CscwTransparencySelection::full()
        );
    }
}
