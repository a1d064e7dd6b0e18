//! Fleet control plane for the GHSOM serving stack: a std-only,
//! length-prefixed frame protocol (**GHSF**) over `std::net::TcpStream`
//! that replicates content-addressed engine bundles into scoring
//! nodes' spool directories and queries their streaming baselines.
//!
//! The record plane (scoring traffic) stays on the GHSD protocol
//! served by `ghsom-daemon`; this crate carries the *control* plane:
//!
//! - [`FleetNode`] — the receiving endpoint a scoring node runs next
//!   to its spool. Offered bundles are staged in hidden `.part` files,
//!   verified against their FNV-1a 64 content address, and published
//!   with an atomic rename, so the node's `SpoolWatcher` only ever
//!   sees complete, verified bundles.
//! - [`Replicator`] — the client that pushes one bundle to one node,
//!   resuming interrupted transfers from the bytes the node staged.
//! - [`SpoolPublisher`] — the fleet loop: watch a source spool
//!   directory, fan every new bundle out to N nodes, report per-node
//!   sync/failure, converge nodes that were down when they return.
//!
//! The wire protocol is specified normatively in `docs/FLEET.md`; the
//! operator's view (deploy, rollback, fleet walkthrough) lives in
//! `docs/OPERATIONS.md`.
//!
//! # Example: replicate a bundle to a node
//!
//! ```
//! use std::sync::Arc;
//! use ghsom_comms::{FleetNode, FleetNodeConfig, NodeEvent, Replicator};
//!
//! // A node serving a spool directory (port 0: OS-assigned).
//! let spool = std::env::temp_dir().join(format!("ghsf-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&spool)?;
//! let node = FleetNode::start(
//!     FleetNodeConfig::new("127.0.0.1:0".parse()?, &spool),
//!     Arc::new(|_tenant: &str| None),     // no baselines to report
//!     Arc::new(|_event: &NodeEvent| {}),  // ignore node events
//! )?;
//!
//! // Push a bundle; the node verifies it and makes it visible.
//! let mut rep = Replicator::connect(node.local_addr())?;
//! let report = rep.replicate("edge", b"engine bundle bytes")?;
//! assert!(!report.already_current);
//! assert!(spool.join("edge.bundle").exists());
//!
//! // Pushing identical bytes again moves nothing over the wire.
//! let again = rep.replicate("edge", b"engine bundle bytes")?;
//! assert!(again.already_current);
//! # std::fs::remove_dir_all(&spool)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Example: keep a fleet in sync with a source spool
//!
//! ```no_run
//! use ghsom_comms::SpoolPublisher;
//!
//! let nodes = vec!["10.0.0.1:7071".parse()?, "10.0.0.2:7071".parse()?];
//! let mut publisher = SpoolPublisher::new("/var/ghsom/source-spool", nodes);
//! for event in publisher.poll_once() {
//!     println!("{event:?}");
//! }
//! # Ok::<(), std::net::AddrParseError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod node;
pub mod publish;
pub mod wire;

pub use error::{CommsError, NakCode};
pub use frame::{
    FrameHeader, FrameType, Request, Response, CHUNK_LEN, DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAGIC,
    MAX_TENANT_LEN, VERSION,
};
pub use node::{
    validate_tenant, EventFn, FleetNode, FleetNodeConfig, NodeEvent, StateFn,
    DEFAULT_FRAME_TIMEOUT, DEFAULT_MAX_BUNDLE_LEN,
};
pub use publish::{PublishEvent, ReplicateReport, Replicator, SpoolPublisher, DEFAULT_IO_TIMEOUT};
pub use wire::{FrameKind, WireError};
