//! The daemon itself: TCP ingest, per-tenant admission control, scoring
//! workers, a spool watcher and the metrics listener, all std-thread.
//!
//! ```text
//!           ┌────────────┐   bounded lane    ┌──────────────┐
//!  client ──┤ reader thr ├──── try_send ────▶│ tenant worker│── registry
//!           │  (decode)  │     Full? ⇒       │ score/observe│   lookup per
//!           └─────┬──────┘   Reject(Overl.)  └──────┬───────┘   batch
//!                 │ rejects                         │ verdicts
//!                 ▼                                 ▼
//!           ┌───────────────── bounded reply channel ──────────┐
//!           │                writer thr (write_all)            │
//!           └───────────────────────────────────────────────────┘
//! ```
//!
//! Backpressure is end-to-end and memory is bounded at every hop: the
//! per-tenant lane is a `sync_channel` of at most
//! [`DaemonConfig::queue_capacity`] batches (`try_send`, so a full lane
//! sheds load as a typed `Overloaded` reject instead of buffering), and
//! the per-connection reply channel is equally bounded — a client that
//! stops reading wedges its own writer thread, fills its reply channel,
//! blocks the worker's reply send, fills the lane, and from then on is
//! load-shed. Nothing grows without bound.
//!
//! Hostile input is contained per connection: a malformed frame gets a
//! best-effort typed reject and closes *that* connection — never the
//! process, never an engine. A peer that starts a frame and stalls
//! (slow-loris) is cut off by the frame timeout ([`DaemonConfig::with_frame_timeout`]).

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ghsom_comms::wire::{self, WireError};
use ghsom_serve::{EngineRegistry, SpoolEvent, SpoolWatcher};
use parking_lot::{Mutex, RwLock};
use traffic::ConnectionRecord;

use crate::error::{DaemonError, RejectCode};
use crate::metrics::DaemonMetrics;
use crate::protocol::{self, BatchMode, FrameType, Reject, Request, Response, VerdictPayload};

/// Granularity of every stop-flag check: reads, writes and accepts wake
/// at least this often to notice shutdown.
const TICK: Duration = Duration::from_millis(50);

/// How long a writer thread waits for a wedged client to drain one
/// response before giving up on the connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration of a [`Daemon`]. Start from [`DaemonConfig::new`] and
/// chain `with_*` setters; the defaults serve a local spool on ephemeral
/// loopback ports.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    spool: PathBuf,
    ingest_addr: String,
    metrics_addr: String,
    fleet_addr: Option<String>,
    queue_capacity: usize,
    max_frame_len: usize,
    shards: usize,
    poll_interval: Duration,
    frame_timeout: Duration,
}

impl DaemonConfig {
    /// A config serving bundles from `spool` with default knobs:
    /// ephemeral loopback listeners, 64-batch lanes, an 8 MiB frame cap,
    /// unsharded scoring, 250 ms spool polls and a 10 s frame deadline.
    pub fn new<P: Into<PathBuf>>(spool: P) -> Self {
        DaemonConfig {
            spool: spool.into(),
            ingest_addr: "127.0.0.1:0".to_string(),
            metrics_addr: "127.0.0.1:0".to_string(),
            fleet_addr: None,
            queue_capacity: 64,
            max_frame_len: protocol::DEFAULT_MAX_FRAME_LEN,
            shards: 1,
            poll_interval: Duration::from_millis(250),
            frame_timeout: Duration::from_secs(10),
        }
    }

    /// Replaces the ingest listener address (e.g. `0.0.0.0:7700`).
    #[must_use]
    pub fn with_ingest_addr(mut self, addr: &str) -> Self {
        self.ingest_addr = addr.to_string();
        self
    }

    /// Replaces the metrics listener address.
    #[must_use]
    pub fn with_metrics_addr(mut self, addr: &str) -> Self {
        self.metrics_addr = addr.to_string();
        self
    }

    /// Enables the GHSF fleet endpoint on `addr` (e.g. `0.0.0.0:7071`):
    /// a `fleet-ctl` publisher can then replicate bundles straight into
    /// this daemon's spool and query its tenants' streaming baselines.
    /// Off by default — a daemon that isn't part of a fleet exposes no
    /// replication surface.
    #[must_use]
    pub fn with_fleet_addr(mut self, addr: &str) -> Self {
        self.fleet_addr = Some(addr.to_string());
        self
    }

    /// Replaces the per-tenant lane capacity in batches (clamped to at
    /// least 1). A full lane rejects with `Overloaded`.
    #[must_use]
    pub fn with_queue_capacity(mut self, batches: usize) -> Self {
        self.queue_capacity = batches.max(1);
        self
    }

    /// Replaces the cap on a frame's declared payload length.
    #[must_use]
    pub fn with_max_frame_len(mut self, bytes: usize) -> Self {
        self.max_frame_len = bytes;
        self
    }

    /// Replaces the scoring shard count (clamped to at least 1). Values
    /// above 1 split each batch across that many threads.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Replaces the spool poll interval.
    #[must_use]
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// Replaces the slow-loris deadline: a frame whose first byte has
    /// arrived must complete within this window.
    #[must_use]
    pub fn with_frame_timeout(mut self, timeout: Duration) -> Self {
        self.frame_timeout = timeout;
        self
    }

    /// The spool directory served.
    pub fn spool(&self) -> &Path {
        &self.spool
    }

    /// The per-tenant lane capacity in batches.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }
}

/// One admitted batch in flight from a reader thread to a tenant worker.
struct Job {
    req_id: u64,
    mode: BatchMode,
    records: Vec<ConnectionRecord>,
    /// The originating connection's bounded reply channel; the worker's
    /// blocking send here is what extends backpressure to the client.
    reply: SyncSender<Vec<u8>>,
}

/// State shared by every thread of one daemon.
struct Shared {
    registry: Arc<EngineRegistry>,
    metrics: Arc<DaemonMetrics>,
    stop: Arc<AtomicBool>,
    lanes: RwLock<HashMap<String, SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    queue_capacity: usize,
    max_frame_len: usize,
    shards: usize,
    frame_timeout: Duration,
}

/// A running serving daemon: ingest listener, metrics listener, spool
/// watcher, and per-tenant scoring workers. Stop it with
/// [`Daemon::shutdown`] (or drop it — drop also stops and joins).
pub struct Daemon {
    shared: Arc<Shared>,
    ingest_addr: SocketAddr,
    metrics_addr: SocketAddr,
    fleet_node: Option<ghsom_comms::FleetNode>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("ingest_addr", &self.ingest_addr)
            .field("metrics_addr", &self.metrics_addr)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Binds both listeners, runs one synchronous spool scan (so tenants
    /// already in the spool are serving before the first connection is
    /// accepted), and spawns the accept, metrics and watcher threads.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Wire`] when a listener cannot bind. A missing or
    /// unreadable spool directory is *not* a startup error: the watcher
    /// reports it as a scan failure every poll and recovers the moment
    /// the directory appears.
    pub fn start(config: DaemonConfig) -> Result<Self, DaemonError> {
        let registry = Arc::new(EngineRegistry::new());
        let metrics = Arc::new(DaemonMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            registry: Arc::clone(&registry),
            metrics: Arc::clone(&metrics),
            stop: Arc::clone(&stop),
            lanes: RwLock::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            queue_capacity: config.queue_capacity,
            max_frame_len: config.max_frame_len,
            shards: config.shards,
            frame_timeout: config.frame_timeout,
        });

        let mut watcher = SpoolWatcher::new(Arc::clone(&registry), &config.spool)
            .with_interval(config.poll_interval);
        match watcher.poll_once() {
            Ok(events) => {
                for event in events {
                    apply_spool_event(&shared, &event);
                }
            }
            Err(error) => {
                shared
                    .metrics
                    .record_spool_event(&SpoolEvent::ScanFailed { error });
            }
        }

        let ingest = TcpListener::bind(&config.ingest_addr)?;
        let metrics_listener = TcpListener::bind(&config.metrics_addr)?;
        let ingest_addr = ingest.local_addr()?;
        let metrics_addr = metrics_listener.local_addr()?;

        // Optional GHSF fleet endpoint: replicated bundles land in the
        // same spool the watcher polls, so a fleet deploy is exactly a
        // local hot-reload whose file arrived over TCP. State queries
        // export the live adaptive baseline for fleet-wide reduction.
        let fleet_node = match &config.fleet_addr {
            None => None,
            Some(addr) => {
                use std::net::ToSocketAddrs;
                let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    WireError::Io(format!("fleet address '{addr}' resolves to nothing"))
                })?;
                let state_registry = Arc::clone(&registry);
                let event_metrics = Arc::clone(&metrics);
                let node = ghsom_comms::FleetNode::start(
                    ghsom_comms::FleetNodeConfig::new(addr, &config.spool)
                        .with_max_frame_len(config.max_frame_len)
                        .with_frame_timeout(config.frame_timeout),
                    Arc::new(move |tenant: &str| {
                        state_registry
                            .get(tenant)
                            .ok()
                            .map(|engine| engine.stream_state().to_wire().to_vec())
                    }),
                    Arc::new(move |event: &ghsom_comms::NodeEvent| {
                        event_metrics.record_fleet_event(event);
                    }),
                )
                .map_err(|e| WireError::Io(e.to_string()))?;
                Some(node)
            }
        };

        let mut threads = Vec::with_capacity(3);

        let watcher_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            let stop = Arc::clone(&watcher_shared.stop);
            watcher.run(&stop, |event| {
                apply_spool_event(&watcher_shared, &event);
            });
        }));

        ingest.set_nonblocking(true)?;
        let accept_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            let conn_shared = Arc::clone(&accept_shared);
            wire::accept_until(&ingest, &accept_shared.stop, move |stream| {
                handle_connection(&conn_shared, stream);
            });
        }));

        let metrics_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            metrics_loop(&metrics_shared, &metrics_listener);
        }));

        Ok(Daemon {
            shared,
            ingest_addr,
            metrics_addr,
            fleet_node,
            threads,
        })
    }

    /// Address the ingest listener actually bound (resolves `:0`).
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// Address the metrics listener actually bound.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// Address the GHSF fleet endpoint actually bound, when
    /// [`DaemonConfig::with_fleet_addr`] enabled one.
    pub fn fleet_addr(&self) -> Option<SocketAddr> {
        self.fleet_node.as_ref().map(|n| n.local_addr())
    }

    /// The registry the spool watcher keeps live.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        &self.shared.registry
    }

    /// The daemon's metrics root (the same counters the metrics listener
    /// renders).
    pub fn metrics(&self) -> &Arc<DaemonMetrics> {
        &self.shared.metrics
    }

    /// Signals every thread to stop and joins them all: the accept loop
    /// (which joins its connections), the metrics loop, the watcher, and
    /// every tenant worker (which first drain their lanes).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // The fleet endpoint stops first: no new bundles land while the
        // serving threads wind down.
        if let Some(mut node) = self.fleet_node.take() {
            node.stop_and_join();
        }
        // Dropping the lane senders lets each worker drain and exit.
        self.shared.lanes.write().clear();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        let workers: Vec<JoinHandle<()>> = self.shared.workers.lock().drain(..).collect();
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Folds one watcher event into metrics and, on retirement, drops the
/// tenant's lane so its worker drains and exits.
fn apply_spool_event(shared: &Shared, event: &SpoolEvent) {
    if let SpoolEvent::Retired { tenant, .. } = event {
        shared.lanes.write().remove(tenant.as_str());
    }
    shared.metrics.record_spool_event(event);
}

// ---------------------------------------------------------------------------
// metrics loop
// ---------------------------------------------------------------------------

fn metrics_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let body = shared.metrics.render();
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                let _ = stream.write_all(body.as_bytes());
                let _ = stream.shutdown(Shutdown::Both);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

// ---------------------------------------------------------------------------
// per-connection reader + writer
// ---------------------------------------------------------------------------

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    shared.metrics.connection_opened();
    serve_connection(shared, stream);
    shared.metrics.connection_closed();
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(shared.queue_capacity);
    let writer_stop = Arc::clone(&shared.stop);
    let writer = std::thread::spawn(move || {
        writer_loop(write_half, &reply_rx, &writer_stop);
    });

    if let Err(error) = read_loop(shared, &stream, &reply_tx) {
        // Protocol violation: best-effort typed reject, then close. The
        // byte stream has lost framing, so the connection cannot go on.
        shared.metrics.record_malformed();
        let code = reject_code_for(&error);
        if let Ok(frame) = protocol::encode_response(&Response::Reject(Reject {
            req_id: 0,
            code,
            detail: error.to_string(),
        })) {
            let _ = reply_tx.try_send(frame);
        }
    }
    drop(reply_tx);
    // The writer exits once every queued response (including ones still
    // owed by in-flight jobs holding reply senders) has been delivered
    // or the peer stops accepting them, then shuts the socket down.
    let _ = writer.join();
}

/// Maps a reader-side protocol error to the reject code sent before the
/// connection closes.
fn reject_code_for(error: &DaemonError) -> RejectCode {
    match error {
        DaemonError::Wire(WireError::FrameTooLarge { .. }) => RejectCode::TooLarge,
        DaemonError::Wire(
            WireError::UnsupportedVersion { .. } | WireError::UnknownFrameType(_),
        ) => RejectCode::Unsupported,
        _ => RejectCode::Malformed,
    }
}

fn writer_loop(mut stream: TcpStream, replies: &Receiver<Vec<u8>>, stop: &AtomicBool) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    loop {
        match replies.recv_timeout(TICK) {
            Ok(frame) => {
                if stream.write_all(&frame).is_err() {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Unblocks the reader (its next read errors) and tells the peer the
    // conversation is over.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reads and dispatches frames until clean EOF, stop, or a protocol
/// error (returned for the caller to turn into a closing reject).
fn read_loop(
    shared: &Arc<Shared>,
    stream: &TcpStream,
    reply: &SyncSender<Vec<u8>>,
) -> Result<(), DaemonError> {
    let mut payload = Vec::new();
    let mut reader = stream;
    loop {
        let Some(header) = wire::read_frame_until::<FrameType>(
            &mut reader,
            shared.max_frame_len,
            &mut payload,
            shared.frame_timeout,
            &shared.stop,
        )?
        else {
            return Ok(());
        };
        shared.metrics.frame_received();
        match protocol::decode_request(header.frame_type, &payload)? {
            Request::Ping => {
                let frame = protocol::encode_response(&Response::Pong)?;
                let _ = reply.send(frame);
            }
            Request::Batch(batch) => admit_batch(shared, batch, reply),
        }
    }
}

/// Admission control: route an already-decoded batch onto its tenant's
/// bounded lane, or answer with a typed reject. Rejects here keep the
/// connection open — the stream is still framed correctly.
fn admit_batch(shared: &Arc<Shared>, batch: protocol::BatchRequest, reply: &SyncSender<Vec<u8>>) {
    let record_count = batch.records.len();
    if !shared.registry.contains(&batch.tenant) {
        shared.metrics.record_unknown_tenant();
        send_reject(
            reply,
            batch.req_id,
            RejectCode::UnknownTenant,
            format!("no engine deployed for tenant '{}'", batch.tenant),
        );
        return;
    }
    let tenant_metrics = shared.metrics.tenant(&batch.tenant);
    let lane = lane_for(shared, &batch.tenant);
    let job = Job {
        req_id: batch.req_id,
        mode: batch.mode,
        records: batch.records,
        reply: reply.clone(),
    };
    match lane.try_send(job) {
        Ok(()) => tenant_metrics.queue_entered(),
        Err(TrySendError::Full(job)) => {
            tenant_metrics.record_overload(record_count as u64);
            send_reject(
                reply,
                job.req_id,
                RejectCode::Overloaded,
                format!(
                    "tenant '{}' ingest queue is full ({} batches)",
                    batch.tenant, shared.queue_capacity
                ),
            );
        }
        Err(TrySendError::Disconnected(job)) => {
            // The worker exited between lookup and send (tenant retired
            // mid-flight). Drop the lane entry and reject; the client
            // can retry and will get UnknownTenant or a fresh lane. (If
            // a fresh lane raced in, removing it only makes its worker
            // drain and exit early — the next batch recreates it.)
            shared.lanes.write().remove(&batch.tenant);
            tenant_metrics.record_internal_reject();
            send_reject(
                reply,
                job.req_id,
                RejectCode::Internal,
                format!("tenant '{}' worker is gone", batch.tenant),
            );
        }
    }
}

fn send_reject(reply: &SyncSender<Vec<u8>>, req_id: u64, code: RejectCode, detail: String) {
    if let Ok(frame) = protocol::encode_response(&Response::Reject(Reject {
        req_id,
        code,
        detail,
    })) {
        let _ = reply.send(frame);
    }
}

/// The tenant's lane sender, creating the lane and its worker thread on
/// first use.
fn lane_for(shared: &Arc<Shared>, tenant: &str) -> SyncSender<Job> {
    if let Some(tx) = shared.lanes.read().get(tenant) {
        return tx.clone();
    }
    let mut lanes = shared.lanes.write();
    if let Some(tx) = lanes.get(tenant) {
        return tx.clone();
    }
    let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(shared.queue_capacity);
    let worker_shared = Arc::clone(shared);
    let worker_tenant = tenant.to_string();
    let handle = std::thread::spawn(move || {
        worker_loop(&worker_shared, &worker_tenant, &rx);
    });
    shared.workers.lock().push(handle);
    lanes.insert(tenant.to_string(), tx.clone());
    tx
}

// ---------------------------------------------------------------------------
// tenant workers
// ---------------------------------------------------------------------------

/// Drains one tenant's lane until every sender is gone (tenant retired
/// or daemon shutdown), scoring whole batches against the registry's
/// current engine so every batch sees post-swap engines immediately.
fn worker_loop(shared: &Arc<Shared>, tenant: &str, lane: &Receiver<Job>) {
    let tenant_metrics = shared.metrics.tenant(tenant);
    while let Ok(job) = lane.recv() {
        tenant_metrics.queue_left();
        let started = Instant::now();
        let outcome = score_batch(shared, tenant, job.mode, &job.records);
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        match outcome {
            Ok(verdicts) => {
                let flagged = match &verdicts {
                    VerdictPayload::Hybrid(v) => v.iter().filter(|v| v.anomalous).count(),
                    VerdictPayload::Stream(v) => v.iter().filter(|v| v.anomalous).count(),
                };
                tenant_metrics.record_batch(job.records.len() as u64, flagged as u64, elapsed_us);
                match protocol::encode_response(&Response::Verdicts {
                    req_id: job.req_id,
                    verdicts,
                }) {
                    Ok(frame) => {
                        // Blocking send: this is the backpressure edge.
                        // Errors only when the connection is gone.
                        let _ = job.reply.send(frame);
                    }
                    Err(_) => {
                        tenant_metrics.record_internal_reject();
                        send_reject(
                            &job.reply,
                            job.req_id,
                            RejectCode::Internal,
                            "verdict batch failed to encode".to_string(),
                        );
                    }
                }
            }
            Err(error) => {
                tenant_metrics.record_internal_reject();
                send_reject(
                    &job.reply,
                    job.req_id,
                    RejectCode::Internal,
                    error.to_string(),
                );
            }
        }
    }
}

fn score_batch(
    shared: &Shared,
    tenant: &str,
    mode: BatchMode,
    records: &[ConnectionRecord],
) -> Result<VerdictPayload, ghsom_serve::ServeError> {
    if shared.shards > 1 {
        let sharded = shared.registry.sharded(tenant, shared.shards)?;
        match mode {
            BatchMode::Score => Ok(VerdictPayload::Hybrid(sharded.score_records(records)?)),
            BatchMode::Observe => Ok(VerdictPayload::Stream(sharded.observe_records(records)?)),
        }
    } else {
        match mode {
            BatchMode::Score => Ok(VerdictPayload::Hybrid(
                shared.registry.score_records(tenant, records)?,
            )),
            BatchMode::Observe => Ok(VerdictPayload::Stream(
                shared.registry.observe_records(tenant, records)?,
            )),
        }
    }
}
