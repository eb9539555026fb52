//! Cross-environment groupware: the Figure-3 population split over a
//! two-site federation.
//!
//! Figures 2/3 integrate the heterogeneous population *within one*
//! environment. This module restages the experiment across
//! environments: the synchronous systems (Shared X, COLAB) live at one
//! site, the asynchronous systems (COM, DOMINO, Object Lens) at
//! another, and the two `CscwEnvironment`s are federated through
//! `mocca::federation` — trader interworking locates a remote
//! application, the exchange routes across sites, and anti-entropy
//! gossip converges the sites' shared knowledge.

use cscw_directory::Dn;
use cscw_kernel::Timestamp;
use mocca::env::{AppId, CscwEnvironment};
use mocca::federation::FederatedEnvironments;

use crate::closed::{descriptor_for, mapping_for, sample_artifact};
use crate::GroupwareError;

/// The synchronous half of the population (same-time quadrants).
pub const SITE_SYNC: [&str; 2] = ["sharedx", "colab"];

/// The asynchronous half (different-times quadrants).
pub const SITE_ASYNC: [&str; 3] = ["com", "domino", "lens"];

/// Builds one site's environment with the given population apps
/// registered (descriptor + common-model mapping each).
///
/// # Errors
///
/// [`GroupwareError::UnknownApp`] on apps outside the population.
pub fn site_environment(apps: &[&str]) -> Result<CscwEnvironment, GroupwareError> {
    let mut env = CscwEnvironment::new();
    for app in apps {
        env.register_app(descriptor_for(app)?, mapping_for(app)?);
    }
    Ok(env)
}

/// The two-site federation: `site-sync` hosts [`SITE_SYNC`],
/// `site-async` hosts [`SITE_ASYNC`], linked both ways.
///
/// # Errors
///
/// [`GroupwareError::UnknownApp`] (population fixture violated).
pub fn two_site_federation() -> Result<FederatedEnvironments, GroupwareError> {
    let mut fed = FederatedEnvironments::new();
    fed.federate("site-sync", site_environment(&SITE_SYNC)?);
    fed.federate("site-async", site_environment(&SITE_ASYNC)?);
    fed.link_bidi("site-sync", "site-async");
    Ok(fed)
}

/// What the cross-site demo observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossSiteReport {
    /// The format the sharing site got back (`"common"` — the exchange
    /// crossed environments in the common information model).
    pub exchange_format: String,
    /// Remote artifacts delivered into their destination environments.
    pub delivered: usize,
    /// Simulated microseconds the event-driven run took to deliver and
    /// converge.
    pub sim_micros: u64,
    /// Did both sites' knowledge replicas converge bit-for-bit?
    pub converged: bool,
}

/// Simulated-time budget for the demo's run (one simulated minute).
const DEMO_BUDGET_MICROS: u64 = 60_000_000;

/// Runs the cross-site scenario on a fresh [`two_site_federation`]:
/// a Shared X artifact at `site-sync` is exchanged to COM at
/// `site-async` (resolved through trader interworking, routed through
/// the fabric), and the event-driven runtime (seed 1) runs until the
/// delivery has landed and the two sites' replicated knowledge has
/// converged.
///
/// # Errors
///
/// Population errors, and [`GroupwareError::Mocca`] on exchange,
/// delivery or gossip failures.
pub fn cross_site_demo() -> Result<CrossSiteReport, GroupwareError> {
    let mut fed = two_site_federation()?;
    let sharer: Dn = "cn=Tom"
        .parse()
        .map_err(|e: cscw_directory::DirectoryError| GroupwareError::Mocca(e.into()))?;
    let artifact = sample_artifact("sharedx")?;
    let out = fed
        .env_mut("site-sync")
        // Unreachable after two_site_federation; classified rather than
        // panicking, per the workspace R2 rule.
        .ok_or_else(|| GroupwareError::UnknownApp("site-sync".to_owned()))?
        .exchange(&sharer, &artifact, &AppId::new("com"), Timestamp::ZERO)?;
    let run = fed.run_until_converged(1, DEMO_BUDGET_MICROS)?;
    Ok(CrossSiteReport {
        exchange_format: out.format,
        delivered: run.activity.deliveries,
        sim_micros: run.sim_micros,
        converged: run.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_site_cannot_reach_the_other_population() {
        // Without federation the sync site has no route to COM.
        let mut env = site_environment(&SITE_SYNC).unwrap();
        let sharer: Dn = "cn=Tom".parse().unwrap();
        let artifact = sample_artifact("sharedx").unwrap();
        let err = env
            .exchange(&sharer, &artifact, &AppId::new("com"), Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(err, mocca::MoccaError::UnknownApplication(_)));
    }

    #[test]
    fn cross_site_demo_delivers_and_converges() {
        let report = cross_site_demo().unwrap();
        assert_eq!(report.exchange_format, "common");
        assert_eq!(report.delivered, 1);
        assert!(report.converged, "replicas must converge");
        // Re-running the whole demo reproduces the same report —
        // federation is deterministic.
        assert_eq!(cross_site_demo().unwrap(), report);
    }

    #[test]
    fn both_sites_raise_natively() {
        let mut fed = two_site_federation().unwrap();
        let sharer: Dn = "cn=Wolfgang".parse().unwrap();
        // async → sync direction as well.
        let artifact = sample_artifact("com").unwrap();
        fed.env_mut("site-async")
            .unwrap()
            .exchange(&sharer, &artifact, &AppId::new("colab"), Timestamp::ZERO)
            .unwrap();
        let run = fed.run_until_converged(1, DEMO_BUDGET_MICROS).unwrap();
        assert_eq!(run.activity.deliveries, 1);
        let sync = fed.env("site-sync").unwrap();
        assert_eq!(sync.repository().len(), 1);
    }
}
