//! The sending end of the fleet plane: a [`Replicator`] client that
//! pushes one bundle to one node, and a [`SpoolPublisher`] that watches
//! a source spool directory and keeps a whole fleet of nodes in sync
//! with it.
//!
//! The publisher is the fleet-wide generalisation of dropping a bundle
//! file into a local spool: `fleet-ctl` (the binary wrapper around
//! [`SpoolPublisher`]) watches the source directory by `(mtime, len)`
//! fingerprint, and whenever a bundle appears or changes it replicates
//! the bytes to every node that has not yet acknowledged that exact
//! content address. A node that is down simply stays one version
//! behind and is retried on every poll — convergence, not choreography.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, SystemTime};

use mathkit::bytes::fnv1a64;

use crate::error::CommsError;
use crate::frame::{
    decode_response, encode_request, FrameType, Request, Response, CHUNK_LEN, DEFAULT_MAX_FRAME_LEN,
};
use crate::wire::{self, FrameKind, WireError};

/// Default socket I/O timeout for publisher-side reads and writes.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What one [`Replicator::replicate`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicateReport {
    /// FNV-1a 64 content address of the bundle.
    pub checksum: u64,
    /// Total bundle length in bytes.
    pub total_len: u64,
    /// Offset the node asked us to resume from (0 for a fresh send).
    pub resumed_from: u64,
    /// Bytes actually sent over the wire this call.
    pub bytes_sent: u64,
    /// `true` when the node already held this exact bundle and no
    /// payload bytes flowed.
    pub already_current: bool,
}

/// A GHSF client connection to one fleet node.
///
/// Lock-step except for chunk streaming: `replicate` sends
/// `Offer`, waits for the `OfferAck`, streams `Chunk` frames
/// unacknowledged, then sends `Commit` and waits for the single
/// `BundleAck`/`Nak` that answers for the whole transfer.
pub struct Replicator {
    stream: TcpStream,
    max_frame_len: usize,
}

impl Replicator {
    /// Connects to a node with the default I/O timeout.
    ///
    /// # Errors
    ///
    /// [`CommsError::Wire`] when the connection fails.
    pub fn connect(addr: SocketAddr) -> Result<Self, CommsError> {
        Self::connect_with_timeout(addr, DEFAULT_IO_TIMEOUT)
    }

    /// Connects with an explicit I/O timeout (applied to connect, reads
    /// and writes).
    ///
    /// # Errors
    ///
    /// [`CommsError::Wire`] when the connection fails.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, CommsError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Replicator {
            stream,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), CommsError> {
        let frame = encode_request(request)?;
        self.stream.write_all(&frame)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, CommsError> {
        let mut payload = Vec::new();
        let header = wire::read_frame(&mut self.stream, self.max_frame_len, &mut payload)?;
        match decode_response(header.frame_type, &payload)? {
            Response::Nak { code, detail } => Err(CommsError::Nak { code, detail }),
            other => Ok(other),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Any [`CommsError`] from the socket or a non-pong reply.
    pub fn ping(&mut self) -> Result<(), CommsError> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Replicates one bundle to the node: offer, resume-aware chunk
    /// stream, commit, verify. On success the bundle is visible in the
    /// node's spool (the node's watcher deploys it on its next poll).
    ///
    /// # Errors
    ///
    /// [`CommsError::Nak`] carrying the node's typed refusal, or any
    /// socket-level [`CommsError`]. After an error the connection must
    /// be discarded; a reconnect resumes from the bytes the node staged.
    pub fn replicate(&mut self, tenant: &str, bytes: &[u8]) -> Result<ReplicateReport, CommsError> {
        let checksum = fnv1a64(bytes);
        let total_len = bytes.len() as u64;
        self.send(&Request::Offer {
            tenant: tenant.to_string(),
            total_len,
            checksum,
        })?;
        let have = match self.recv()? {
            Response::OfferAck { have } => have,
            other => return Err(unexpected("offer ack", &other)),
        };
        if have > total_len {
            return Err(WireError::Malformed("node claims more bytes than offered").into());
        }
        let mut offset = have as usize;
        while offset < bytes.len() {
            let end = offset.saturating_add(CHUNK_LEN).min(bytes.len());
            let data = bytes.get(offset..end).unwrap_or_default().to_vec();
            self.send(&Request::Chunk {
                offset: offset as u64,
                data,
            })?;
            offset = end;
        }
        self.send(&Request::Commit { checksum })?;
        match self.recv()? {
            Response::BundleAck { checksum: echoed } if echoed == checksum => Ok(ReplicateReport {
                checksum,
                total_len,
                resumed_from: have,
                bytes_sent: total_len - have,
                already_current: have == total_len,
            }),
            Response::BundleAck { .. } => {
                Err(WireError::Malformed("bundle ack echoed a foreign checksum").into())
            }
            other => Err(unexpected("bundle ack", &other)),
        }
    }

    /// Asks the node for a tenant's exported streaming baseline.
    ///
    /// # Errors
    ///
    /// Any [`CommsError`] from the socket or a non-state reply.
    pub fn query_state(&mut self, tenant: &str) -> Result<Option<Vec<u8>>, CommsError> {
        self.send(&Request::StateQuery {
            tenant: tenant.to_string(),
        })?;
        match self.recv()? {
            Response::StateReply { state } => Ok(state),
            other => Err(unexpected("state reply", &other)),
        }
    }
}

fn unexpected(expected: &'static str, got: &Response) -> CommsError {
    let found = match got {
        Response::OfferAck { .. } => FrameType::OfferAck,
        Response::BundleAck { .. } => FrameType::BundleAck,
        Response::StateReply { .. } => FrameType::StateReply,
        Response::Nak { .. } => FrameType::Nak,
        Response::Pong => FrameType::Pong,
    }
    .to_wire();
    CommsError::UnexpectedFrame { expected, found }
}

/// One observable outcome of a publisher poll.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum PublishEvent {
    /// A node acknowledged a bundle (it is now visible in that node's
    /// spool).
    NodeSynced {
        /// The node that acknowledged.
        node: SocketAddr,
        /// Tenant the bundle deploys.
        tenant: String,
        /// What the transfer did (resume offset, bytes sent, …).
        report: ReplicateReport,
    },
    /// A node could not be brought in sync this poll; it stays behind
    /// and is retried on the next poll.
    NodeFailed {
        /// The node that failed.
        node: SocketAddr,
        /// Tenant being replicated when the failure happened.
        tenant: String,
        /// Why.
        error: CommsError,
    },
}

/// Per-tenant cache entry: source fingerprint plus the bundle bytes and
/// their content address.
struct SourceBundle {
    fingerprint: (SystemTime, u64),
    checksum: u64,
    bytes: Vec<u8>,
}

/// Watches a source spool directory and keeps N fleet nodes' spools in
/// sync with it.
///
/// Deletions are deliberately **not** replicated: removing a bundle
/// from the source stops future syncs but never retires a deployed
/// engine on the nodes. Rollback is achieved by publishing the previous
/// bundle version into the source spool — it fingerprints as a change
/// and rolls the fleet back through the same verified path.
pub struct SpoolPublisher {
    source: PathBuf,
    nodes: Vec<SocketAddr>,
    io_timeout: Duration,
    cache: HashMap<String, SourceBundle>,
    /// checksum each node has acknowledged, per tenant.
    acked: HashMap<(SocketAddr, String), u64>,
}

impl SpoolPublisher {
    /// A publisher for `source` fanning out to `nodes`.
    pub fn new(source: impl Into<PathBuf>, nodes: Vec<SocketAddr>) -> Self {
        SpoolPublisher {
            source: source.into(),
            nodes,
            io_timeout: DEFAULT_IO_TIMEOUT,
            cache: HashMap::new(),
            acked: HashMap::new(),
        }
    }

    /// Overrides the per-node socket I/O timeout.
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// The fleet this publisher fans out to.
    pub fn nodes(&self) -> &[SocketAddr] {
        &self.nodes
    }

    /// Scans the source spool once and replicates every bundle each
    /// node has not yet acknowledged. Returns what happened, in
    /// deterministic (tenant, node) order.
    pub fn poll_once(&mut self) -> Vec<PublishEvent> {
        let mut events = Vec::new();
        self.refresh_cache();

        let mut tenants: Vec<String> = self.cache.keys().cloned().collect();
        tenants.sort();

        for node in self.nodes.clone() {
            // One connection per node per poll, reused across tenants;
            // a connect failure reports once per pending tenant so the
            // operator sees exactly what is out of sync.
            let mut conn: Option<Replicator> = None;
            for tenant in &tenants {
                let Some(bundle) = self.cache.get(tenant) else {
                    continue;
                };
                let key = (node, tenant.clone());
                if self.acked.get(&key) == Some(&bundle.checksum) {
                    continue;
                }
                if conn.is_none() {
                    match Replicator::connect_with_timeout(node, self.io_timeout) {
                        Ok(c) => conn = Some(c),
                        Err(error) => {
                            events.push(PublishEvent::NodeFailed {
                                node,
                                tenant: tenant.clone(),
                                error,
                            });
                            continue;
                        }
                    }
                }
                let Some(c) = conn.as_mut() else { continue };
                match c.replicate(tenant, &bundle.bytes) {
                    Ok(report) => {
                        self.acked.insert(key, bundle.checksum);
                        events.push(PublishEvent::NodeSynced {
                            node,
                            tenant: tenant.clone(),
                            report,
                        });
                    }
                    Err(error) => {
                        // The GHSF state machine is per-connection;
                        // after any error the connection is dead.
                        conn = None;
                        events.push(PublishEvent::NodeFailed {
                            node,
                            tenant: tenant.clone(),
                            error,
                        });
                    }
                }
            }
        }
        events
    }

    /// Polls until `stop` is set, sleeping `interval` between polls and
    /// reporting every event to `on_event`.
    pub fn run(
        &mut self,
        stop: &AtomicBool,
        interval: Duration,
        mut on_event: impl FnMut(&PublishEvent),
    ) {
        const TICK: Duration = Duration::from_millis(50);
        while !stop.load(Ordering::SeqCst) {
            for event in self.poll_once() {
                on_event(&event);
            }
            let mut slept = Duration::ZERO;
            while slept < interval && !stop.load(Ordering::SeqCst) {
                let step = TICK.min(interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
        }
    }

    /// Re-reads source bundles whose `(mtime, len)` fingerprint changed
    /// and drops cache entries whose file disappeared.
    fn refresh_cache(&mut self) {
        let mut seen: Vec<String> = Vec::new();
        let Ok(entries) = fs::read_dir(&self.source) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("bundle") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if crate::node::validate_tenant(stem).is_err() {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let fingerprint = (
                meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                meta.len(),
            );
            seen.push(stem.to_string());
            let fresh = self
                .cache
                .get(stem)
                .map(|b| b.fingerprint != fingerprint)
                .unwrap_or(true);
            if fresh {
                if let Ok(bytes) = fs::read(&path) {
                    let checksum = fnv1a64(&bytes);
                    self.cache.insert(
                        stem.to_string(),
                        SourceBundle {
                            fingerprint,
                            checksum,
                            bytes,
                        },
                    );
                }
            }
        }
        self.cache.retain(|tenant, _| seen.contains(tenant));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{FleetNode, FleetNodeConfig, NodeEvent};
    use std::path::Path;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ghsf-pub-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quiet_node(spool: &Path) -> FleetNode {
        FleetNode::start(
            FleetNodeConfig::new("127.0.0.1:0".parse().unwrap(), spool),
            Arc::new(|_: &str| None),
            Arc::new(|_: &NodeEvent| {}),
        )
        .unwrap()
    }

    /// Writes a bundle into a source spool the way `publish_bundle`
    /// does: temp file + rename.
    fn drop_bundle(source: &Path, tenant: &str, bytes: &[u8]) {
        let tmp = source.join(format!(".{tenant}.tmp"));
        fs::write(&tmp, bytes).unwrap();
        fs::rename(&tmp, source.join(format!("{tenant}.bundle"))).unwrap();
    }

    #[test]
    fn publisher_converges_a_three_node_fleet() {
        let source = temp_dir("src");
        let spools: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("n{i}"))).collect();
        let nodes: Vec<FleetNode> = spools.iter().map(|s| quiet_node(s)).collect();
        let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.local_addr()).collect();

        drop_bundle(&source, "edge", &vec![9u8; 70_000]);
        let mut publisher =
            SpoolPublisher::new(&source, addrs).with_io_timeout(Duration::from_secs(5));
        let events = publisher.poll_once();
        let synced = events
            .iter()
            .filter(|e| matches!(e, PublishEvent::NodeSynced { .. }))
            .count();
        assert_eq!(synced, 3, "events: {events:?}");
        for spool in &spools {
            assert_eq!(
                fs::read(spool.join("edge.bundle")).unwrap(),
                vec![9u8; 70_000]
            );
        }

        // A second poll is a no-op: every node has acked this address.
        assert!(publisher.poll_once().is_empty());

        // Touching the bundle with new content re-syncs everyone.
        drop_bundle(&source, "edge", &vec![5u8; 80_000]);
        let events = publisher.poll_once();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, PublishEvent::NodeSynced { .. }))
                .count(),
            3
        );
        for spool in &spools {
            assert_eq!(
                fs::read(spool.join("edge.bundle")).unwrap(),
                vec![5u8; 80_000]
            );
        }
    }

    #[test]
    fn dead_node_reports_failure_and_recovers_on_later_poll() {
        let source = temp_dir("src2");
        let live_spool = temp_dir("live");
        let live = quiet_node(&live_spool);

        // A port with nothing listening: grab and drop a listener.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };

        drop_bundle(&source, "edge", &vec![1u8; 10_000]);
        let mut publisher = SpoolPublisher::new(&source, vec![live.local_addr(), dead_addr])
            .with_io_timeout(Duration::from_millis(500));
        let events = publisher.poll_once();
        assert!(events.iter().any(
            |e| matches!(e, PublishEvent::NodeSynced { node, .. } if *node == live.local_addr())
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, PublishEvent::NodeFailed { node, .. } if *node == dead_addr)));

        // The dead node comes up; the next poll converges it without
        // resending to the live one.
        let revived_spool = temp_dir("revived");
        let revived = FleetNode::start(
            FleetNodeConfig::new(dead_addr, &revived_spool),
            Arc::new(|_: &str| None),
            Arc::new(|_: &NodeEvent| {}),
        )
        .unwrap();
        let events = publisher.poll_once();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(matches!(
            &events[0],
            PublishEvent::NodeSynced { node, .. } if *node == dead_addr
        ));
        assert!(revived_spool.join("edge.bundle").exists());
        drop(revived);
    }

    #[test]
    fn replicator_reports_resume_and_already_current() {
        let spool = temp_dir("rep");
        let node = quiet_node(&spool);
        let bytes = vec![3u8; 50_000];
        let mut rep = Replicator::connect(node.local_addr()).unwrap();
        let first = rep.replicate("edge", &bytes).unwrap();
        assert_eq!(first.bytes_sent, 50_000);
        assert!(!first.already_current);
        let second = rep.replicate("edge", &bytes).unwrap();
        assert_eq!(second.bytes_sent, 0);
        assert!(second.already_current);
        assert_eq!(second.checksum, first.checksum);
        rep.ping().unwrap();
    }

    #[test]
    fn hostile_source_names_are_skipped() {
        let source = temp_dir("hostile-src");
        let spool = temp_dir("hostile-n");
        let node = quiet_node(&spool);
        fs::write(source.join(".sneaky.bundle"), b"x").unwrap();
        fs::write(source.join("ok.bundle"), b"y").unwrap();
        let mut publisher = SpoolPublisher::new(&source, vec![node.local_addr()]);
        let events = publisher.poll_once();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            PublishEvent::NodeSynced { tenant, .. } if tenant == "ok"
        ));
    }
}
