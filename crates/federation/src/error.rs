//! Federation-layer errors, classified for the resilience machinery.

use std::fmt;

use cscw_kernel::{ErrorClass, KernelError, Layer, LayerError};

/// What can go wrong between environments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// The named domain never joined the fabric.
    UnknownDomain(String),
    /// No reachable domain advertises the application.
    UnknownApplication(String),
    /// The application may exist, but every path to it crossed a down
    /// link — the resolver fell back to local-only matching.
    Partitioned(String),
    /// A gossip frame or replicated entry failed to decode.
    Codec(String),
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::UnknownDomain(d) => write!(f, "unknown federation domain: {d}"),
            FederationError::UnknownApplication(a) => {
                write!(f, "application not advertised in any reachable domain: {a}")
            }
            FederationError::Partitioned(a) => {
                write!(f, "federation partitioned while resolving: {a}")
            }
            FederationError::Codec(msg) => write!(f, "federation codec error: {msg}"),
        }
    }
}

impl std::error::Error for FederationError {}

impl From<cscw_messaging::GossipCodecError> for FederationError {
    fn from(e: cscw_messaging::GossipCodecError) -> Self {
        FederationError::Codec(e.to_string())
    }
}

impl LayerError for FederationError {
    fn layer(&self) -> Layer {
        Layer::Federation
    }

    fn kind(&self) -> &'static str {
        match self {
            FederationError::UnknownDomain(_) => "unknown_domain",
            FederationError::UnknownApplication(_) => "unknown_application",
            FederationError::Partitioned(_) => "partitioned",
            FederationError::Codec(_) => "codec",
        }
    }

    fn class(&self) -> ErrorClass {
        match self {
            // A partition is the one fault healing can clear; everything
            // else is a property of the query or the data.
            FederationError::Partitioned(_) => ErrorClass::Transient,
            _ => ErrorClass::Permanent,
        }
    }
}

impl From<FederationError> for KernelError {
    fn from(e: FederationError) -> Self {
        e.to_kernel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_federation_layer_and_classification() {
        let e = FederationError::Partitioned("com".into());
        assert_eq!(e.layer(), Layer::Federation);
        assert!(e.class().is_transient());
        let e = FederationError::UnknownApplication("com".into());
        assert_eq!(e.kind(), "unknown_application");
        assert!(!e.class().is_transient());
        assert_eq!(e.to_kernel().layer(), Layer::Federation);
    }
}
