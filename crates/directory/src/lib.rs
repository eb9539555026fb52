//! # cscw-directory — an X.500-style directory service
//!
//! The paper's open-CSCW environment requires "smooth integration and
//! utilization of standard information repositories, for example, the
//! X.500 directory service" (§4). This crate provides that repository:
//! a schema-checked Directory Information Tree with X.500-style names,
//! filters and scoped searches, distributed across several Directory
//! System Agents over the simulated network with chaining, referrals and
//! primary-copy shadow replication.
//!
//! The MOCCA organisational knowledge base (`mocca::org`) is stored in
//! this directory, as the paper proposes.
//!
//! ## Layers
//!
//! * **Data model** — [`Dn`]/[`Rdn`] names, [`Attribute`]s, [`Entry`]s,
//!   validated against an object-class [`Schema`].
//! * **Single DSA** — [`Dit`]: add/read/modify/remove/rename plus scoped,
//!   filtered [`SearchRequest`]s.
//! * **Distribution** — [`DsaNode`] (a `simnet` node) masters naming
//!   contexts, chains or refers requests it cannot answer, pushes shadow
//!   updates to replicas; [`Dua`] is the synchronous client.
//!
//! ## Example: a local DIT
//!
//! ```
//! use cscw_directory::{Attribute, Dit, Entry, Filter};
//!
//! let mut dit = Dit::new();
//! dit.add(Entry::new("c=ES".parse()?)
//!     .with_class("country")
//!     .with_attr(Attribute::single("c", "ES")))?;
//! dit.add(Entry::new("c=ES,o=UPC".parse()?)
//!     .with_class("organization")
//!     .with_attr(Attribute::single("o", "UPC")))?;
//! dit.add(Entry::new("c=ES,o=UPC,cn=Leandro Navarro".parse()?)
//!     .with_class("person")
//!     .with_attr(Attribute::single("cn", "Leandro Navarro"))
//!     .with_attr(Attribute::single("sn", "Navarro")))?;
//!
//! let people = dit.search_all("(objectClass=person)".parse()?)?;
//! assert_eq!(people.len(), 1);
//! # Ok::<(), cscw_directory::DirectoryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribute;
mod dit;
pub mod dsa;
mod entry;
mod error;
mod filter;
mod name;
mod observer;
mod schema;
mod search;

pub use attribute::{Attribute, AttributeType, AttributeValue};
pub use dit::{Dit, EntryId};
pub use dsa::{DapMessage, DirOp, DirResult, DsaNode, Dua, DuaNode, InteractionMode, Modification};
pub use entry::{Entry, OBJECT_CLASS};
pub use error::DirectoryError;
pub use filter::{Filter, SubstringPattern};
pub use name::{Dn, Rdn};
pub use observer::DitChange;
pub use schema::{ObjectClass, Schema};
pub use search::{SearchOutcome, SearchRequest, SearchScope};
