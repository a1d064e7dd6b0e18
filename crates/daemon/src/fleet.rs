//! The fleet router: fan one GHSD record stream out across N daemon
//! endpoints and reduce their answers back into one.
//!
//! [`FleetClient`] mirrors `ghsom-serve`'s `ShardedEngine` one level
//! up: where the sharded engine splits a batch into contiguous chunks
//! across *threads* and concatenates verdicts in order, the fleet
//! client splits it into contiguous chunks across *daemons* and
//! concatenates in order. Because scoring is deterministic per record,
//! the routed verdicts are bit-identical to a single engine scoring the
//! whole batch — regardless of how many nodes served it.
//!
//! Failure semantics are typed and bounded:
//!
//! - **Score** batches are idempotent (they touch no baseline), so a
//!   chunk whose node fails is retried on the other healthy nodes —
//!   each chunk tries each node at most once per call. Chunks no node
//!   could serve come back as [`FleetError::Partial`] naming the exact
//!   record ranges, never as a silent gap and never as a hang (every
//!   socket wears a read timeout).
//! - **Observe** batches mutate the target node's adaptive baseline,
//!   so they are routed whole to one node (round-robin) and **never**
//!   retried — a retry after an ambiguous failure could double-count
//!   records into a baseline. The typed error tells the caller exactly
//!   which node took the failure.
//! - A node that fails at the transport level is marked down and not
//!   retried until a backoff window passes ([`FleetClient::with_backoff`]);
//!   protocol-level rejects (e.g. `UnknownTenant` mid-rolling-deploy)
//!   fail over without tarring the node as down.
//!
//! Fleet-wide baselines reduce through `StreamState::merge_all` over
//! the per-node states fetched from each daemon's GHSF endpoint — the
//! collector-side reduction documented in `detect::online`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use detect::hybrid::HybridVerdict;
use detect::online::{StreamState, StreamVerdict};
use detect::DetectError;
use ghsom_comms::{CommsError, Replicator};
use ghsom_serve::shard::{chunk_len, MIN_SHARD_CHUNK};
use traffic::ConnectionRecord;

use crate::client::DaemonClient;
use crate::error::{DaemonError, RejectCode};

/// Smallest record chunk worth routing to a distinct node —
/// `ShardedEngine`'s per-thread floor, one level up.
pub const FLEET_MIN_CHUNK: usize = MIN_SHARD_CHUNK;

/// Default per-node socket read timeout: the "never a hang" bound.
pub const DEFAULT_NODE_TIMEOUT: Duration = Duration::from_secs(10);

/// Default down-node backoff: how long a transport-failed node sits out
/// before the router offers it work again.
pub const DEFAULT_BACKOFF: Duration = Duration::from_secs(1);

/// One daemon in the fleet: its GHSD ingest address and, optionally,
/// its GHSF fleet endpoint (needed only for baseline state queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEndpoint {
    /// GHSD ingest listener (`Daemon::ingest_addr`).
    pub ingest: SocketAddr,
    /// GHSF fleet endpoint (`Daemon::fleet_addr`), when the node runs
    /// one.
    pub fleet: Option<SocketAddr>,
}

impl FleetEndpoint {
    /// An endpoint with no GHSF side (scoring fan-out only).
    pub fn ingest_only(ingest: SocketAddr) -> Self {
        FleetEndpoint {
            ingest,
            fleet: None,
        }
    }
}

/// Errors produced by the fleet router.
///
/// The enum is `#[non_exhaustive]`. `Partial` is the graceful
/// degradation path: it names exactly which contiguous record ranges
/// went unserved so a caller can re-drive just those.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// The client was built with an empty node list.
    NoNodes,
    /// Every node was down or refused the batch.
    AllNodesDown {
        /// Tenant the batch addressed.
        tenant: String,
    },
    /// Some chunks were served, some were not: the typed partial
    /// failure. Served chunks' verdicts were discarded — re-drive the
    /// whole batch or just the missing ranges.
    Partial {
        /// Total records in the batch.
        total: usize,
        /// Unserved record ranges, as `(start, end)` half-open indices
        /// into the submitted batch, ascending and non-overlapping.
        missing: Vec<(usize, usize)>,
        /// The last per-node error seen while trying the missing
        /// ranges, for the operator.
        detail: String,
    },
    /// A single-node operation (observe) failed on the node it was
    /// routed to. The batch was **not** retried elsewhere: observation
    /// mutates the baseline, and a retry after an ambiguous failure
    /// could double-count.
    Node {
        /// The node that failed.
        node: SocketAddr,
        /// The underlying daemon-plane error.
        source: DaemonError,
    },
    /// A GHSF state query failed on one node.
    State {
        /// The node that failed.
        node: SocketAddr,
        /// The underlying comms-plane error.
        source: CommsError,
    },
    /// A state query needs nodes with GHSF endpoints, and none were
    /// configured.
    NoFleetEndpoints,
    /// A node returned state bytes that do not decode as a
    /// `StreamState`.
    BadState {
        /// The node that sent them.
        node: SocketAddr,
        /// Why they were refused.
        reason: &'static str,
    },
    /// The per-node baselines failed to merge (inconsistent or
    /// non-finite state — see `StreamState::merge`).
    Merge(DetectError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoNodes => write!(f, "fleet client has no nodes"),
            FleetError::AllNodesDown { tenant } => {
                write!(f, "no fleet node could serve tenant '{tenant}'")
            }
            FleetError::Partial {
                total,
                missing,
                detail,
            } => {
                let lost: usize = missing.iter().map(|(s, e)| e - s).sum();
                write!(
                    f,
                    "partial fleet result: {lost} of {total} records unserved (ranges {missing:?}); last error: {detail}"
                )
            }
            FleetError::Node { node, source } => {
                write!(f, "fleet node {node} failed: {source}")
            }
            FleetError::State { node, source } => {
                write!(f, "state query to {node} failed: {source}")
            }
            FleetError::NoFleetEndpoints => {
                write!(f, "no node has a GHSF fleet endpoint configured")
            }
            FleetError::BadState { node, reason } => {
                write!(f, "node {node} sent an invalid baseline state: {reason}")
            }
            FleetError::Merge(e) => write!(f, "fleet baseline merge failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Node { source, .. } => Some(source),
            FleetError::State { source, .. } => Some(source),
            FleetError::Merge(e) => Some(e),
            _ => None,
        }
    }
}

/// One node's routing state.
struct Slot {
    endpoint: FleetEndpoint,
    conn: Option<DaemonClient>,
    down_until: Option<Instant>,
}

/// A router over N daemon endpoints: contiguous-chunk score fan-out
/// with ordered concatenation, round-robin observe routing, per-node
/// health/backoff, and fleet-wide baseline reduction.
pub struct FleetClient {
    slots: Vec<Slot>,
    backoff: Duration,
    node_timeout: Duration,
    failover: bool,
    rr: usize,
}

impl FleetClient {
    /// A client over the given endpoints. Connections are opened
    /// lazily, so building the client never blocks on a dead node.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoNodes`] when `endpoints` is empty.
    pub fn new(endpoints: Vec<FleetEndpoint>) -> Result<Self, FleetError> {
        if endpoints.is_empty() {
            return Err(FleetError::NoNodes);
        }
        Ok(FleetClient {
            slots: endpoints
                .into_iter()
                .map(|endpoint| Slot {
                    endpoint,
                    conn: None,
                    down_until: None,
                })
                .collect(),
            backoff: DEFAULT_BACKOFF,
            node_timeout: DEFAULT_NODE_TIMEOUT,
            failover: true,
            rr: 0,
        })
    }

    /// A client over ingest addresses only (no GHSF endpoints; state
    /// queries will return [`FleetError::NoFleetEndpoints`]).
    ///
    /// # Errors
    ///
    /// [`FleetError::NoNodes`] when `addrs` is empty.
    pub fn over_ingest(addrs: Vec<SocketAddr>) -> Result<Self, FleetError> {
        Self::new(addrs.into_iter().map(FleetEndpoint::ingest_only).collect())
    }

    /// Overrides the down-node backoff window. `Duration::ZERO` makes
    /// failed nodes immediately eligible again (deterministic tests).
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Overrides the per-node read timeout.
    #[must_use]
    pub fn with_node_timeout(mut self, timeout: Duration) -> Self {
        self.node_timeout = timeout;
        self
    }

    /// Enables/disables score-chunk failover. With failover off a
    /// chunk is tried only on its primary node — useful for observing
    /// deterministic partial failures.
    #[must_use]
    pub fn with_failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// How many nodes are currently eligible (not inside a backoff
    /// window).
    pub fn healthy_nodes(&self) -> usize {
        let now = Instant::now();
        self.slots.iter().filter(|s| slot_healthy(s, now)).count()
    }

    /// Scores a batch across the fleet: contiguous chunks over the
    /// healthy nodes, verdicts concatenated in record order —
    /// bit-identical to one engine scoring the whole batch.
    ///
    /// # Errors
    ///
    /// [`FleetError::AllNodesDown`] when nothing was served;
    /// [`FleetError::Partial`] naming the unserved ranges when only
    /// some chunks found a node.
    pub fn score(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<HybridVerdict>, FleetError> {
        if records.is_empty() {
            return Ok(Vec::new());
        }
        let healthy = self.healthy_indices();
        if healthy.is_empty() {
            return Err(FleetError::AllNodesDown {
                tenant: tenant.to_string(),
            });
        }
        let chunk = chunk_len(records.len(), healthy.len());
        let ranges: Vec<(usize, usize)> = (0..records.len())
            .step_by(chunk)
            .map(|start| (start, (start + chunk).min(records.len())))
            .collect();

        let mut verdicts: Vec<Option<Vec<HybridVerdict>>> = vec![None; ranges.len()];
        let mut missing: Vec<(usize, usize)> = Vec::new();
        let mut last_error = String::new();
        for (k, &(start, end)) in ranges.iter().enumerate() {
            let slice = records.get(start..end).unwrap_or_default();
            // Primary node k % healthy, then (with failover) the rest —
            // each node tried at most once per chunk.
            let mut served = false;
            let candidates = healthy.len();
            let tried = if self.failover { candidates } else { 1 };
            for attempt in 0..tried {
                let Some(&slot_idx) = healthy.get((k + attempt) % candidates) else {
                    continue;
                };
                match self.score_on(slot_idx, tenant, slice) {
                    Ok(v) => {
                        if let Some(cell) = verdicts.get_mut(k) {
                            *cell = Some(v);
                        }
                        served = true;
                        break;
                    }
                    Err(e) => {
                        last_error = e.to_string();
                        if transport_failure(&e) {
                            self.mark_down(slot_idx);
                        }
                    }
                }
            }
            if !served {
                missing.push((start, end));
            }
        }

        if missing.is_empty() {
            let mut out = Vec::with_capacity(records.len());
            for v in verdicts.into_iter().flatten() {
                out.extend(v);
            }
            return Ok(out);
        }
        let lost: usize = missing.iter().map(|(s, e)| e - s).sum();
        if lost == records.len() {
            return Err(FleetError::AllNodesDown {
                tenant: tenant.to_string(),
            });
        }
        Err(FleetError::Partial {
            total: records.len(),
            missing,
            detail: last_error,
        })
    }

    /// Observes a batch on **one** node (round-robin over the healthy
    /// set). Never retried: observation mutates that node's adaptive
    /// baseline, and a retry after an ambiguous failure could
    /// double-count records.
    ///
    /// # Errors
    ///
    /// [`FleetError::AllNodesDown`] when no node is eligible;
    /// [`FleetError::Node`] naming the node that took (and failed) the
    /// batch.
    pub fn observe(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<StreamVerdict>, FleetError> {
        let healthy = self.healthy_indices();
        if healthy.is_empty() {
            return Err(FleetError::AllNodesDown {
                tenant: tenant.to_string(),
            });
        }
        let pick = self.rr % healthy.len();
        self.rr = self.rr.wrapping_add(1);
        let Some(&slot_idx) = healthy.get(pick) else {
            return Err(FleetError::AllNodesDown {
                tenant: tenant.to_string(),
            });
        };
        let node = self
            .slots
            .get(slot_idx)
            .map(|s| s.endpoint.ingest)
            .unwrap_or(([0, 0, 0, 0], 0).into());
        match self.observe_on(slot_idx, tenant, records) {
            Ok(v) => Ok(v),
            Err(source) => {
                if transport_failure(&source) {
                    self.mark_down(slot_idx);
                }
                Err(FleetError::Node { node, source })
            }
        }
    }

    /// Fetches every node's exported baseline for `tenant` over GHSF
    /// and reduces them with `StreamState::merge_all` (node order =
    /// endpoint order; nodes without the tenant contribute nothing).
    ///
    /// # Errors
    ///
    /// [`FleetError::NoFleetEndpoints`] when no node has a GHSF
    /// address; [`FleetError::State`]/[`FleetError::BadState`] for a
    /// failing or lying node; [`FleetError::Merge`] when the states
    /// don't reduce.
    pub fn fleet_state(&mut self, tenant: &str) -> Result<StreamState, FleetError> {
        let mut states: Vec<StreamState> = Vec::new();
        let mut queried = 0usize;
        for slot in &self.slots {
            let Some(fleet_addr) = slot.endpoint.fleet else {
                continue;
            };
            queried += 1;
            let mut rep = Replicator::connect_with_timeout(fleet_addr, self.node_timeout).map_err(
                |source| FleetError::State {
                    node: fleet_addr,
                    source,
                },
            )?;
            let reply = rep
                .query_state(tenant)
                .map_err(|source| FleetError::State {
                    node: fleet_addr,
                    source,
                })?;
            if let Some(bytes) = reply {
                let Ok(wire): Result<[u8; StreamState::WIRE_LEN], _> = bytes.as_slice().try_into()
                else {
                    return Err(FleetError::BadState {
                        node: fleet_addr,
                        reason: "state payload is not 40 bytes",
                    });
                };
                let state = StreamState::from_wire(&wire).map_err(|_| FleetError::BadState {
                    node: fleet_addr,
                    reason: "state bytes failed validation",
                })?;
                states.push(state);
            }
        }
        if queried == 0 {
            return Err(FleetError::NoFleetEndpoints);
        }
        StreamState::merge_all(&states).map_err(FleetError::Merge)
    }

    fn healthy_indices(&self) -> Vec<usize> {
        let now = Instant::now();
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| slot_healthy(s, now))
            .map(|(i, _)| i)
            .collect()
    }

    fn mark_down(&mut self, idx: usize) {
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.conn = None;
            slot.down_until = Some(Instant::now() + self.backoff);
        }
    }

    fn score_on(
        &mut self,
        idx: usize,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<HybridVerdict>, DaemonError> {
        self.with_conn(idx, |conn| conn.score(tenant, records))
    }

    fn observe_on(
        &mut self,
        idx: usize,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<StreamVerdict>, DaemonError> {
        self.with_conn(idx, |conn| conn.observe(tenant, records))
    }

    /// Runs `op` on the slot's connection, opening it (with the node
    /// read timeout) if needed. A transport-level failure drops the
    /// cached connection so the next attempt reconnects.
    fn with_conn<T>(
        &mut self,
        idx: usize,
        op: impl FnOnce(&mut DaemonClient) -> Result<T, DaemonError>,
    ) -> Result<T, DaemonError> {
        let timeout = self.node_timeout;
        let Some(slot) = self.slots.get_mut(idx) else {
            return Err(DaemonError::ShuttingDown);
        };
        if slot.conn.is_none() {
            let mut conn = DaemonClient::connect(slot.endpoint.ingest)?;
            conn.set_read_timeout(Some(timeout))?;
            slot.conn = Some(conn);
        }
        let Some(conn) = slot.conn.as_mut() else {
            return Err(DaemonError::ShuttingDown);
        };
        let result = op(conn);
        if let Err(e) = &result {
            if transport_failure(e) {
                slot.conn = None;
            }
        }
        result
    }
}

/// Whether an error means the node itself (or the pipe to it) is
/// unhealthy, as opposed to a well-formed protocol answer. Only
/// transport failures tar a node as down; a typed reject (unknown
/// tenant mid-deploy, momentary overload) fails over without backoff.
fn transport_failure(e: &DaemonError) -> bool {
    !matches!(e, DaemonError::Rejected { code, .. }
        if matches!(code, RejectCode::Overloaded | RejectCode::UnknownTenant))
}

fn slot_healthy(slot: &Slot, now: Instant) -> bool {
    slot.down_until.is_none_or(|until| now >= until)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghsom_comms::WireError;

    #[test]
    fn empty_fleet_is_a_typed_error() {
        assert!(matches!(
            FleetClient::over_ingest(Vec::new()),
            Err(FleetError::NoNodes)
        ));
    }

    #[test]
    fn partial_error_reports_exact_ranges() {
        let e = FleetError::Partial {
            total: 300,
            missing: vec![(100, 200)],
            detail: "connection refused".to_string(),
        };
        let text = e.to_string();
        assert!(text.contains("100 of 300"));
        assert!(text.contains("(100, 200)"));
        assert!(text.contains("connection refused"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<FleetError>();
    }

    #[test]
    fn rejects_fail_over_without_tarring_the_node() {
        assert!(!transport_failure(&DaemonError::Rejected {
            req_id: 1,
            code: RejectCode::UnknownTenant,
            detail: String::new()
        }));
        assert!(!transport_failure(&DaemonError::Rejected {
            req_id: 1,
            code: RejectCode::Overloaded,
            detail: String::new()
        }));
        assert!(transport_failure(&WireError::Disconnected.into()));
        assert!(transport_failure(&DaemonError::Rejected {
            req_id: 1,
            code: RejectCode::Internal,
            detail: String::new()
        }));
    }
}
