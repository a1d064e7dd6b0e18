//! The receiving end of the fleet plane: a TCP listener that stages
//! offered bundles next to a scoring node's spool, verifies them
//! against their content address, and atomically publishes them for the
//! node's `SpoolWatcher` to deploy.
//!
//! # Verify-before-visible
//!
//! An in-flight transfer lives in a hidden staging file
//! `.{tenant}.{checksum:016x}.part` inside the spool directory. The
//! watcher only considers `*.bundle` files, so a partial transfer is
//! never deployable. Only after a `Commit` frame arrives, every offered
//! byte is staged, and the staged file's FNV-1a 64 hash equals the
//! offered checksum does the node rename the part onto
//! `{tenant}.bundle` — the same single-syscall publish the local
//! hot-reload path uses, so the watcher observes either the old bundle
//! or the complete new one, never a torn write.
//!
//! # Resume
//!
//! The staging file is the resume state. A publisher that reconnects
//! and re-offers the same `(tenant, checksum, total_len)` gets back
//! `OfferAck { have }` where `have` is the staged prefix length, and
//! only sends the remaining bytes. Because the checksum is in the part
//! file's name, a *different* bundle for the same tenant never resumes
//! onto stale bytes — it starts its own part (and retires any stale
//! parts for that tenant).
//!
//! # Failure containment
//!
//! Hostile bytes cost exactly the connection that sent them: the node
//! answers with a typed `Nak` frame where it still can, closes that
//! socket, and keeps serving every other connection. A checksum
//! mismatch additionally deletes the staged part — those bytes are
//! provably corrupt and must not seed a resume.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mathkit::bytes::fnv1a64;

use crate::error::{CommsError, NakCode};
use crate::frame::{decode_request, encode_response, Request, Response, DEFAULT_MAX_FRAME_LEN};
use crate::wire::{self, WireError};

/// Default cap on an offered bundle's total length (64 MiB — a trained
/// engine bundle on the acceptance corpus is well under 1 MiB).
pub const DEFAULT_MAX_BUNDLE_LEN: u64 = 64 * 1024 * 1024;

/// Default per-frame completion deadline (slow-loris defence).
pub const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// How often a blocked node thread wakes to check the stop flag.
const TICK: Duration = Duration::from_millis(50);

/// Looks up a tenant's exported streaming baseline (`None` when the
/// node has nothing deployed under that tenant).
pub type StateFn = Arc<dyn Fn(&str) -> Option<Vec<u8>> + Send + Sync>;

/// Observes [`NodeEvent`]s, typically to bump metrics counters.
pub type EventFn = Arc<dyn Fn(&NodeEvent) + Send + Sync>;

/// Something observable happened on the node's fleet endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NodeEvent {
    /// A bundle verified against its content address and was renamed
    /// into the spool, visible to the watcher's next poll.
    BundleStored {
        /// Tenant the bundle deploys.
        tenant: String,
        /// Total bundle length in bytes.
        bytes: u64,
        /// Staged prefix the transfer resumed from (0 for a fresh send).
        resumed_from: u64,
    },
    /// A request was refused with a `Nak`; the connection closed.
    BundleRejected {
        /// Tenant of the in-flight transfer, when one was established.
        tenant: Option<String>,
        /// The refusal code sent back.
        code: NakCode,
    },
    /// A `StateQuery` was answered.
    StateServed {
        /// Tenant queried.
        tenant: String,
        /// Whether the node had a baseline to report.
        hit: bool,
    },
}

/// Configuration for a [`FleetNode`].
#[derive(Debug, Clone)]
pub struct FleetNodeConfig {
    /// Address to listen on (use port 0 to let the OS pick).
    pub addr: SocketAddr,
    /// Spool directory bundles are published into — the same directory
    /// the node's `SpoolWatcher` polls.
    pub spool: PathBuf,
    /// Cap on a single frame's declared payload length.
    pub max_frame_len: usize,
    /// Cap on an offered bundle's total length.
    pub max_bundle_len: u64,
    /// A started frame must complete within this deadline.
    pub frame_timeout: Duration,
}

impl FleetNodeConfig {
    /// Configuration with default limits.
    pub fn new(addr: SocketAddr, spool: impl Into<PathBuf>) -> Self {
        FleetNodeConfig {
            addr,
            spool: spool.into(),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_bundle_len: DEFAULT_MAX_BUNDLE_LEN,
            frame_timeout: DEFAULT_FRAME_TIMEOUT,
        }
    }

    /// Overrides the frame length cap.
    #[must_use]
    pub fn with_max_frame_len(mut self, cap: usize) -> Self {
        self.max_frame_len = cap;
        self
    }

    /// Overrides the bundle length cap.
    #[must_use]
    pub fn with_max_bundle_len(mut self, cap: u64) -> Self {
        self.max_bundle_len = cap;
        self
    }

    /// Overrides the frame completion deadline.
    #[must_use]
    pub fn with_frame_timeout(mut self, deadline: Duration) -> Self {
        self.frame_timeout = deadline;
        self
    }
}

/// Checks that a tenant name is safe to use as a spool file stem.
///
/// Accepted: 1–255 bytes of UTF-8 containing no `/`, `\`, or NUL, not
/// `.` or `..`, and not starting with `.` (hidden names are reserved
/// for staging files). This is deliberately stricter than the frame
/// codec, which only bounds length: the codec carries names, the node
/// turns them into paths.
///
/// # Errors
///
/// [`WireError::Malformed`] naming the violated rule.
pub fn validate_tenant(tenant: &str) -> Result<(), WireError> {
    wire::check_tenant_len(tenant.len())?;
    if tenant == "." || tenant == ".." {
        return Err(WireError::Malformed("tenant name must not be . or .."));
    }
    if tenant.starts_with('.') {
        return Err(WireError::Malformed("tenant name must not start with ."));
    }
    if tenant.contains(['/', '\\', '\0']) {
        return Err(WireError::Malformed(
            "tenant name must not contain path separators or NUL",
        ));
    }
    Ok(())
}

/// Spool path a committed bundle is published to.
fn bundle_path(spool: &Path, tenant: &str) -> PathBuf {
    spool.join(format!("{tenant}.bundle"))
}

/// Hidden staging path for an in-flight transfer of one content address.
fn part_path(spool: &Path, tenant: &str, checksum: u64) -> PathBuf {
    spool.join(format!(".{tenant}.{checksum:016x}.part"))
}

/// One transfer in flight on a connection.
struct Transfer {
    tenant: String,
    total_len: u64,
    checksum: u64,
    have: u64,
    resumed_from: u64,
    part: PathBuf,
    /// Open append handle to the part file; `None` when the spool's
    /// visible bundle already matches the offer and no bytes need to
    /// be staged.
    file: Option<File>,
}

/// A running fleet endpoint: accepts GHSF connections and publishes
/// verified bundles into the spool. Stop it with
/// [`FleetNode::stop_and_join`] (also called on drop).
pub struct FleetNode {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FleetNode {
    /// Binds the listener and starts the accept loop.
    ///
    /// `state_fn` answers `StateQuery` frames; `event_fn` observes node
    /// events (pass a no-op closure if you don't care).
    ///
    /// # Errors
    ///
    /// [`CommsError::Wire`] ([`WireError::Io`]) when the spool can't be
    /// created or the address can't be bound.
    pub fn start(
        config: FleetNodeConfig,
        state_fn: StateFn,
        event_fn: EventFn,
    ) -> Result<Self, CommsError> {
        fs::create_dir_all(&config.spool)?;
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = thread::Builder::new()
            .name("ghsf-accept".to_string())
            .spawn(move || {
                let conn_stop = Arc::clone(&accept_stop);
                wire::accept_until(&listener, &accept_stop, move |stream| {
                    handle_connection(stream, &config, &state_fn, &event_fn, &conn_stop);
                });
            })?;
        Ok(FleetNode {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the node is actually listening on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals every node thread to stop and joins them.
    pub fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetNode {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Maps a decode-side error onto the nak code the peer should see.
fn nak_code_for(err: &WireError) -> NakCode {
    match err {
        WireError::BadMagic
        | WireError::UnsupportedVersion { .. }
        | WireError::UnknownFrameType(_) => NakCode::Unsupported,
        WireError::FrameTooLarge { .. } => NakCode::TooLarge,
        _ => NakCode::Malformed,
    }
}

fn send_response(stream: &mut TcpStream, response: &Response) -> Result<(), CommsError> {
    let frame = encode_response(response)?;
    stream.write_all(&frame)?;
    Ok(())
}

fn handle_connection(
    mut stream: TcpStream,
    config: &FleetNodeConfig,
    state_fn: &StateFn,
    event_fn: &EventFn,
    stop: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TICK));
    let mut transfer: Option<Transfer> = None;
    let mut payload = Vec::new();
    loop {
        let parsed = wire::read_frame_until(
            &mut stream,
            config.max_frame_len,
            &mut payload,
            config.frame_timeout,
            stop,
        )
        .and_then(|header| {
            header
                .map(|h| decode_request(h.frame_type, &payload))
                .transpose()
        });
        let request = match parsed {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                refuse(
                    &mut stream,
                    event_fn,
                    &transfer,
                    nak_code_for(&e),
                    &e.to_string(),
                );
                return;
            }
        };
        match step(
            &mut stream,
            config,
            state_fn,
            event_fn,
            &mut transfer,
            request,
        ) {
            Ok(()) => {}
            Err(()) => return, // nak sent (or socket dead): connection is done
        }
    }
}

/// Sends a nak (best effort), emits the reject event, and lets the
/// caller close the connection. The staged part file survives for
/// resume unless the caller already removed it.
fn refuse(
    stream: &mut TcpStream,
    event_fn: &EventFn,
    transfer: &Option<Transfer>,
    code: NakCode,
    detail: &str,
) {
    let _ = send_response(
        stream,
        &Response::Nak {
            code,
            detail: detail.to_string(),
        },
    );
    event_fn(&NodeEvent::BundleRejected {
        tenant: transfer.as_ref().map(|t| t.tenant.clone()),
        code,
    });
}

/// Handles one decoded request. `Err(())` means the connection must
/// close (a nak was sent, or the socket failed).
fn step(
    stream: &mut TcpStream,
    config: &FleetNodeConfig,
    state_fn: &StateFn,
    event_fn: &EventFn,
    transfer: &mut Option<Transfer>,
    request: Request,
) -> Result<(), ()> {
    match request {
        Request::Ping => send_response(stream, &Response::Pong).map_err(|_| ()),
        Request::StateQuery { tenant } => {
            if let Err(e) = validate_tenant(&tenant) {
                refuse(
                    stream,
                    event_fn,
                    transfer,
                    NakCode::Malformed,
                    &e.to_string(),
                );
                return Err(());
            }
            let state = state_fn(&tenant);
            event_fn(&NodeEvent::StateServed {
                tenant,
                hit: state.is_some(),
            });
            send_response(stream, &Response::StateReply { state }).map_err(|_| ())
        }
        Request::Offer {
            tenant,
            total_len,
            checksum,
        } => {
            if transfer.is_some() {
                refuse(
                    stream,
                    event_fn,
                    transfer,
                    NakCode::Malformed,
                    "offer while a transfer is in flight",
                );
                return Err(());
            }
            if let Err(e) = validate_tenant(&tenant) {
                refuse(
                    stream,
                    event_fn,
                    transfer,
                    NakCode::Malformed,
                    &e.to_string(),
                );
                return Err(());
            }
            if total_len > config.max_bundle_len {
                refuse(
                    stream,
                    event_fn,
                    transfer,
                    NakCode::TooLarge,
                    &format!(
                        "offered {total_len} bytes, node accepts at most {} bytes",
                        config.max_bundle_len
                    ),
                );
                return Err(());
            }
            match open_transfer(config, &tenant, total_len, checksum) {
                Ok(t) => {
                    let have = t.have;
                    *transfer = Some(t);
                    send_response(stream, &Response::OfferAck { have }).map_err(|_| ())
                }
                Err(e) => {
                    refuse(
                        stream,
                        event_fn,
                        transfer,
                        NakCode::Internal,
                        &e.to_string(),
                    );
                    Err(())
                }
            }
        }
        Request::Chunk { offset, data } => {
            // Check invariants under a scoped borrow so a refusal can
            // still read the transfer for its tenant label.
            let outcome = match transfer.as_mut() {
                None => Err((
                    NakCode::Malformed,
                    "chunk without an accepted offer".to_string(),
                )),
                Some(t) => {
                    let end = t.have.saturating_add(data.len() as u64);
                    if offset != t.have {
                        Err((
                            NakCode::BadOffset,
                            format!("chunk at offset {offset}, node expected {}", t.have),
                        ))
                    } else if end > t.total_len {
                        Err((
                            NakCode::BadOffset,
                            format!(
                                "chunk runs to byte {end}, past the offered {} bytes",
                                t.total_len
                            ),
                        ))
                    } else {
                        match t.file.as_mut() {
                            None => Err((
                                NakCode::BadOffset,
                                "chunk for a bundle the node already has in full".to_string(),
                            )),
                            Some(file) => match file.write_all(&data) {
                                Ok(()) => {
                                    t.have = end;
                                    Ok(())
                                }
                                Err(e) => Err((NakCode::Internal, e.to_string())),
                            },
                        }
                    }
                }
            };
            match outcome {
                // Chunks are streamed: no ack until the commit.
                Ok(()) => Ok(()),
                Err((code, detail)) => {
                    refuse(stream, event_fn, transfer, code, &detail);
                    Err(())
                }
            }
        }
        Request::Commit { checksum } => {
            let Some(t) = transfer.take() else {
                refuse(
                    stream,
                    event_fn,
                    transfer,
                    NakCode::Malformed,
                    "commit without an accepted offer",
                );
                return Err(());
            };
            if checksum != t.checksum {
                refuse(
                    stream,
                    event_fn,
                    &Some(t),
                    NakCode::Malformed,
                    "commit checksum disagrees with the offer",
                );
                return Err(());
            }
            if t.have != t.total_len {
                let detail = format!("commit after {} of {} offered bytes", t.have, t.total_len);
                refuse(stream, event_fn, &Some(t), NakCode::BadOffset, &detail);
                return Err(());
            }
            match seal_transfer(config, &t) {
                Ok(()) => {
                    if t.file.is_some() {
                        event_fn(&NodeEvent::BundleStored {
                            tenant: t.tenant.clone(),
                            bytes: t.total_len,
                            resumed_from: t.resumed_from,
                        });
                    }
                    send_response(stream, &Response::BundleAck { checksum }).map_err(|_| ())
                }
                Err((code, detail)) => {
                    refuse(stream, event_fn, &Some(t), code, &detail);
                    Err(())
                }
            }
        }
    }
}

/// Opens (or resumes) the staging file for an offer and reports how
/// many bytes are already present. Also retires stale parts for the
/// same tenant under a different content address.
fn open_transfer(
    config: &FleetNodeConfig,
    tenant: &str,
    total_len: u64,
    checksum: u64,
) -> Result<Transfer, CommsError> {
    let part = part_path(&config.spool, tenant, checksum);
    retire_stale_parts(&config.spool, tenant, &part);

    // Already-current check: if the visible bundle is byte-identical to
    // the offer, no bytes need to flow — ack with have == total_len and
    // let the commit answer trivially.
    let visible = bundle_path(&config.spool, tenant);
    if let Ok(bytes) = fs::read(&visible) {
        if bytes.len() as u64 == total_len && fnv1a64(&bytes) == checksum {
            return Ok(Transfer {
                tenant: tenant.to_string(),
                total_len,
                checksum,
                have: total_len,
                resumed_from: total_len,
                part,
                file: None,
            });
        }
    }

    let staged = fs::metadata(&part).map(|m| m.len()).unwrap_or(0);
    let have = if staged > total_len {
        // A part longer than the offer can't belong to this content
        // address; start over.
        let _ = fs::remove_file(&part);
        0
    } else {
        staged
    };
    let file = OpenOptions::new().create(true).append(true).open(&part)?;
    Ok(Transfer {
        tenant: tenant.to_string(),
        total_len,
        checksum,
        have,
        resumed_from: have,
        part,
        file: Some(file),
    })
}

/// Removes staging files for `tenant` other than the one in use: they
/// belong to content addresses the publisher has moved past.
fn retire_stale_parts(spool: &Path, tenant: &str, keep: &Path) {
    let prefix = format!(".{tenant}.");
    let Ok(entries) = fs::read_dir(spool) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path == keep {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(&prefix) && name.ends_with(".part") {
            let _ = fs::remove_file(&path);
        }
    }
}

/// Verifies the staged bytes against the offered checksum and renames
/// the part onto the visible bundle path. A mismatch deletes the part —
/// it is provably corrupt and must not seed a resume.
fn seal_transfer(config: &FleetNodeConfig, t: &Transfer) -> Result<(), (NakCode, String)> {
    if t.file.is_none() {
        // Visible bundle already matched the offer; nothing to publish.
        return Ok(());
    }
    let staged = fs::read(&t.part)
        .map_err(|e| (NakCode::Internal, format!("reading staged bundle: {e}")))?;
    if staged.len() as u64 != t.total_len {
        let _ = fs::remove_file(&t.part);
        return Err((
            NakCode::Internal,
            format!(
                "staged file is {} bytes, offer said {}",
                staged.len(),
                t.total_len
            ),
        ));
    }
    let actual = fnv1a64(&staged);
    if actual != t.checksum {
        let _ = fs::remove_file(&t.part);
        return Err((
            NakCode::ChecksumMismatch,
            format!(
                "staged bundle hashes to {actual:#018x}, offer said {:#018x}",
                t.checksum
            ),
        ));
    }
    fs::rename(&t.part, bundle_path(&config.spool, &t.tenant))
        .map_err(|e| (NakCode::Internal, format!("publishing bundle: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_request, FrameHeader, CHUNK_LEN, HEADER_LEN};
    use std::io::Read;
    use std::sync::Mutex;
    use std::time::Instant;

    fn temp_spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ghsf-node-{tag}-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn start_node(spool: &Path) -> (FleetNode, Arc<Mutex<Vec<NodeEvent>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let node = FleetNode::start(
            FleetNodeConfig::new("127.0.0.1:0".parse().unwrap(), spool),
            Arc::new(|tenant: &str| (tenant == "known").then(|| vec![0xAB; 40])),
            Arc::new(move |e: &NodeEvent| sink.lock().unwrap().push(e.clone())),
        )
        .unwrap();
        (node, events)
    }

    fn send(stream: &mut TcpStream, request: &Request) {
        stream.write_all(&encode_request(request).unwrap()).unwrap();
    }

    fn recv(stream: &mut TcpStream) -> Response {
        let mut header = [0u8; HEADER_LEN];
        stream.read_exact(&mut header).unwrap();
        let header = FrameHeader::decode(&header, DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut payload = vec![0u8; header.payload_len];
        stream.read_exact(&mut payload).unwrap();
        crate::frame::decode_response(header.frame_type, &payload).unwrap()
    }

    fn replicate_raw(addr: SocketAddr, tenant: &str, bytes: &[u8]) -> Response {
        let checksum = fnv1a64(bytes);
        let mut stream = TcpStream::connect(addr).unwrap();
        send(
            &mut stream,
            &Request::Offer {
                tenant: tenant.to_string(),
                total_len: bytes.len() as u64,
                checksum,
            },
        );
        let ack = recv(&mut stream);
        let have = match ack {
            Response::OfferAck { have } => have,
            other => panic!("expected offer ack, got {other:?}"),
        };
        let mut offset = have as usize;
        while offset < bytes.len() {
            let end = (offset + CHUNK_LEN).min(bytes.len());
            send(
                &mut stream,
                &Request::Chunk {
                    offset: offset as u64,
                    data: bytes[offset..end].to_vec(),
                },
            );
            offset = end;
        }
        send(&mut stream, &Request::Commit { checksum });
        recv(&mut stream)
    }

    #[test]
    fn ping_pong_and_state_query() {
        let spool = temp_spool("ping");
        let (node, events) = start_node(&spool);
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        send(&mut stream, &Request::Ping);
        assert_eq!(recv(&mut stream), Response::Pong);
        send(
            &mut stream,
            &Request::StateQuery {
                tenant: "known".to_string(),
            },
        );
        assert_eq!(
            recv(&mut stream),
            Response::StateReply {
                state: Some(vec![0xAB; 40])
            }
        );
        send(
            &mut stream,
            &Request::StateQuery {
                tenant: "absent".to_string(),
            },
        );
        assert_eq!(recv(&mut stream), Response::StateReply { state: None });
        drop(stream);
        drop(node);
        let events = events.lock().unwrap();
        assert!(events.contains(&NodeEvent::StateServed {
            tenant: "known".to_string(),
            hit: true
        }));
    }

    #[test]
    fn replicates_verifies_and_publishes() {
        let spool = temp_spool("publish");
        let (node, events) = start_node(&spool);
        let bytes: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let reply = replicate_raw(node.local_addr(), "edge", &bytes);
        assert_eq!(
            reply,
            Response::BundleAck {
                checksum: fnv1a64(&bytes)
            }
        );
        assert_eq!(fs::read(spool.join("edge.bundle")).unwrap(), bytes);
        // No stray staging files remain.
        let leftovers: Vec<_> = fs::read_dir(&spool)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".part"))
            .collect();
        assert!(leftovers.is_empty());
        drop(node);
        assert!(events.lock().unwrap().iter().any(|e| matches!(
            e,
            NodeEvent::BundleStored { tenant, bytes: 300_000, resumed_from: 0 } if tenant == "edge"
        )));
    }

    #[test]
    fn resumes_after_disconnect_mid_stream() {
        let spool = temp_spool("resume");
        let (node, events) = start_node(&spool);
        let bytes: Vec<u8> = (0..100_000u32).map(|i| (i % 13) as u8).collect();
        let checksum = fnv1a64(&bytes);

        // First attempt: offer, send 40_000 bytes, drop the connection.
        {
            let mut stream = TcpStream::connect(node.local_addr()).unwrap();
            send(
                &mut stream,
                &Request::Offer {
                    tenant: "edge".to_string(),
                    total_len: bytes.len() as u64,
                    checksum,
                },
            );
            assert_eq!(recv(&mut stream), Response::OfferAck { have: 0 });
            send(
                &mut stream,
                &Request::Chunk {
                    offset: 0,
                    data: bytes[..40_000].to_vec(),
                },
            );
            // Half-close and wait for the node to notice so the staged
            // prefix is fully written.
            drop(stream);
        }
        // The write is synchronous in the connection thread; poll until
        // the part file holds the prefix.
        let part = part_path(&spool, "edge", checksum);
        let deadline = Instant::now() + Duration::from_secs(5);
        while fs::metadata(&part).map(|m| m.len()).unwrap_or(0) < 40_000 {
            assert!(Instant::now() < deadline, "staged prefix never appeared");
            thread::sleep(Duration::from_millis(10));
        }

        // Second attempt resumes from the staged prefix.
        let reply = replicate_raw(node.local_addr(), "edge", &bytes);
        assert_eq!(reply, Response::BundleAck { checksum });
        assert_eq!(fs::read(spool.join("edge.bundle")).unwrap(), bytes);
        drop(node);
        assert!(events.lock().unwrap().iter().any(|e| matches!(
            e,
            NodeEvent::BundleStored {
                resumed_from: 40_000,
                ..
            }
        )));
    }

    #[test]
    fn already_current_bundle_sends_no_bytes() {
        let spool = temp_spool("current");
        let (node, events) = start_node(&spool);
        let bytes = vec![7u8; 5_000];
        assert!(matches!(
            replicate_raw(node.local_addr(), "edge", &bytes),
            Response::BundleAck { .. }
        ));
        // Second replication of identical content: offer ack says
        // have == total, commit acks without a store event.
        let checksum = fnv1a64(&bytes);
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        send(
            &mut stream,
            &Request::Offer {
                tenant: "edge".to_string(),
                total_len: bytes.len() as u64,
                checksum,
            },
        );
        assert_eq!(
            recv(&mut stream),
            Response::OfferAck {
                have: bytes.len() as u64
            }
        );
        send(&mut stream, &Request::Commit { checksum });
        assert_eq!(recv(&mut stream), Response::BundleAck { checksum });
        drop(node);
        let stores = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| matches!(e, NodeEvent::BundleStored { .. }))
            .count();
        assert_eq!(stores, 1);
    }

    #[test]
    fn checksum_mismatch_naks_and_discards_the_part() {
        let spool = temp_spool("mismatch");
        let (node, events) = start_node(&spool);
        let bytes = vec![1u8; 10_000];
        let lied = fnv1a64(&bytes) ^ 0xFFFF;
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        send(
            &mut stream,
            &Request::Offer {
                tenant: "edge".to_string(),
                total_len: bytes.len() as u64,
                checksum: lied,
            },
        );
        assert_eq!(recv(&mut stream), Response::OfferAck { have: 0 });
        send(
            &mut stream,
            &Request::Chunk {
                offset: 0,
                data: bytes.clone(),
            },
        );
        send(&mut stream, &Request::Commit { checksum: lied });
        match recv(&mut stream) {
            Response::Nak { code, .. } => assert_eq!(code, NakCode::ChecksumMismatch),
            other => panic!("expected nak, got {other:?}"),
        }
        drop(stream);
        drop(node);
        assert!(!spool.join("edge.bundle").exists());
        assert!(!part_path(&spool, "edge", lied).exists());
        assert!(events.lock().unwrap().iter().any(|e| matches!(
            e,
            NodeEvent::BundleRejected {
                code: NakCode::ChecksumMismatch,
                ..
            }
        )));
    }

    #[test]
    fn bad_offsets_and_protocol_violations_are_naked() {
        let spool = temp_spool("violations");
        let (node, _events) = start_node(&spool);

        // Chunk without an offer.
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        send(
            &mut stream,
            &Request::Chunk {
                offset: 0,
                data: vec![1],
            },
        );
        assert!(matches!(
            recv(&mut stream),
            Response::Nak {
                code: NakCode::Malformed,
                ..
            }
        ));

        // Non-sequential chunk offset.
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        send(
            &mut stream,
            &Request::Offer {
                tenant: "edge".to_string(),
                total_len: 100,
                checksum: 1,
            },
        );
        assert_eq!(recv(&mut stream), Response::OfferAck { have: 0 });
        send(
            &mut stream,
            &Request::Chunk {
                offset: 50,
                data: vec![1],
            },
        );
        assert!(matches!(
            recv(&mut stream),
            Response::Nak {
                code: NakCode::BadOffset,
                ..
            }
        ));

        // Early commit.
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        send(
            &mut stream,
            &Request::Offer {
                tenant: "edge2".to_string(),
                total_len: 100,
                checksum: 1,
            },
        );
        assert_eq!(recv(&mut stream), Response::OfferAck { have: 0 });
        send(&mut stream, &Request::Commit { checksum: 1 });
        assert!(matches!(
            recv(&mut stream),
            Response::Nak {
                code: NakCode::BadOffset,
                ..
            }
        ));

        // Hostile tenant names.
        for tenant in ["../escape", ".hidden", "a/b", "..", "nul\0"] {
            let mut stream = TcpStream::connect(node.local_addr()).unwrap();
            send(
                &mut stream,
                &Request::Offer {
                    tenant: tenant.to_string(),
                    total_len: 1,
                    checksum: 0,
                },
            );
            assert!(
                matches!(recv(&mut stream), Response::Nak { .. }),
                "tenant {tenant:?} was accepted"
            );
        }

        // Oversized offer.
        let spool2 = temp_spool("toolarge");
        let small = FleetNode::start(
            FleetNodeConfig::new("127.0.0.1:0".parse().unwrap(), &spool2).with_max_bundle_len(64),
            Arc::new(|_: &str| None),
            Arc::new(|_: &NodeEvent| {}),
        )
        .unwrap();
        let mut stream = TcpStream::connect(small.local_addr()).unwrap();
        send(
            &mut stream,
            &Request::Offer {
                tenant: "edge".to_string(),
                total_len: 65,
                checksum: 0,
            },
        );
        assert!(matches!(
            recv(&mut stream),
            Response::Nak {
                code: NakCode::TooLarge,
                ..
            }
        ));
    }

    #[test]
    fn hostile_magic_costs_the_connection_not_the_node() {
        let spool = temp_spool("hostile");
        let (node, _events) = start_node(&spool);
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        stream.write_all(b"HTTP/1.1 GET /\r\n").unwrap();
        // The node naks (unsupported) and closes; the nak may or may
        // not arrive before the reset depending on timing — what
        // matters is the connection dies and the node survives.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        drop(stream);
        // Node still serves fresh connections.
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        send(&mut stream, &Request::Ping);
        assert_eq!(recv(&mut stream), Response::Pong);
    }

    #[test]
    fn validate_tenant_rules() {
        assert!(validate_tenant("edge-7").is_ok());
        assert!(validate_tenant("αβγ").is_ok());
        for bad in ["", ".", "..", ".hidden", "a/b", "a\\b", "a\0b"] {
            assert!(validate_tenant(bad).is_err(), "{bad:?} accepted");
        }
        assert!(validate_tenant(&"x".repeat(256)).is_err());
    }
}
