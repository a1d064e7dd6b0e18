//! A small synchronous client for the GHSD protocol — used by the
//! integration tests, the soak harness and the benches, and usable as a
//! library building block for real feeders.
//!
//! [`DaemonClient::score`] and [`DaemonClient::observe`] are the simple
//! lock-step calls (send one batch, wait for its response). The
//! `send_*_batch` / [`DaemonClient::recv_response`] split exposes
//! pipelining: fire many batches without waiting, then drain responses
//! and match them back by the echoed `req_id` — which is also how a
//! flooding client observes `Overloaded` rejects interleaved with
//! verdicts for its admitted batches.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use detect::hybrid::HybridVerdict;
use detect::online::StreamVerdict;
use ghsom_comms::wire;
use traffic::ConnectionRecord;

use crate::error::DaemonError;
use crate::protocol::{
    self, BatchMode, BatchRequest, FrameHeader, FrameKind, FrameType, Request, Response,
    VerdictPayload, DEFAULT_MAX_FRAME_LEN,
};

/// A blocking connection to a running daemon's ingest listener.
#[derive(Debug)]
pub struct DaemonClient {
    stream: TcpStream,
    next_req_id: u64,
    max_frame_len: usize,
}

impl DaemonClient {
    /// Connects to a daemon's ingest address.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Wire`] when the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, DaemonError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(DaemonClient {
            stream,
            next_req_id: 1,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        })
    }

    /// Bounds how long [`DaemonClient::recv_response`] waits for bytes
    /// (`None` waits forever, the default); expiry is a typed `TimedOut`.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Wire`] when the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), DaemonError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Any protocol or I/O error; [`DaemonError::UnexpectedFrame`] when
    /// the daemon answers with something other than a pong.
    pub fn ping(&mut self) -> Result<(), DaemonError> {
        let frame = protocol::encode_request(&Request::Ping)?;
        self.stream.write_all(&frame)?;
        match self.recv_response()? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other, "pong")),
        }
    }

    /// Scores one batch and waits for its verdicts (lock-step).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Rejected`] carrying the server's typed reject
    /// code, or any protocol/I/O error.
    pub fn score(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<HybridVerdict>, DaemonError> {
        let req_id = self.send_score_batch(tenant, records)?;
        match self.recv_matching(req_id)? {
            VerdictPayload::Hybrid(v) => Ok(v),
            VerdictPayload::Stream(_) => Err(DaemonError::UnexpectedFrame {
                expected: "hybrid verdicts",
                found: FrameType::Verdicts.to_wire(),
            }),
        }
    }

    /// Scores **and observes** one batch (folds it into the tenant's
    /// adaptive baseline) and waits for its verdicts (lock-step).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Rejected`] carrying the server's typed reject
    /// code, or any protocol/I/O error.
    pub fn observe(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<Vec<StreamVerdict>, DaemonError> {
        let req_id = self.send_observe_batch(tenant, records)?;
        match self.recv_matching(req_id)? {
            VerdictPayload::Stream(v) => Ok(v),
            VerdictPayload::Hybrid(_) => Err(DaemonError::UnexpectedFrame {
                expected: "stream verdicts",
                found: FrameType::Verdicts.to_wire(),
            }),
        }
    }

    /// Sends a score batch without waiting; returns its `req_id` for
    /// matching against [`DaemonClient::recv_response`] (pipelining).
    ///
    /// # Errors
    ///
    /// Encoding or I/O errors.
    pub fn send_score_batch(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<u64, DaemonError> {
        self.send_batch(tenant, records, BatchMode::Score)
    }

    /// Sends an observe batch without waiting; returns its `req_id`.
    ///
    /// # Errors
    ///
    /// Encoding or I/O errors.
    pub fn send_observe_batch(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
    ) -> Result<u64, DaemonError> {
        self.send_batch(tenant, records, BatchMode::Observe)
    }

    fn send_batch(
        &mut self,
        tenant: &str,
        records: &[ConnectionRecord],
        mode: BatchMode,
    ) -> Result<u64, DaemonError> {
        let req_id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1).max(1);
        let frame = protocol::encode_request(&Request::Batch(BatchRequest {
            req_id,
            mode,
            tenant: tenant.to_string(),
            records: records.to_vec(),
        }))?;
        self.stream.write_all(&frame)?;
        Ok(req_id)
    }

    /// Reads the next response frame off the connection, whatever it
    /// answers.
    ///
    /// # Errors
    ///
    /// Any error of [`wire::read_frame`] (e.g. `Disconnected` when the
    /// daemon closed the connection, `TimedOut` when the read timeout
    /// expired) or of the payload decode, as [`DaemonError::Wire`];
    /// [`DaemonError::UnexpectedFrame`] when a *request* frame type
    /// arrives on what should be a response stream.
    pub fn recv_response(&mut self) -> Result<Response, DaemonError> {
        let mut payload = Vec::new();
        let header: FrameHeader =
            wire::read_frame(&mut self.stream, self.max_frame_len, &mut payload)?;
        if header.frame_type.is_request() {
            return Err(DaemonError::UnexpectedFrame {
                expected: "a response frame",
                found: header.frame_type.to_wire(),
            });
        }
        protocol::decode_response(header.frame_type, &payload)
    }

    /// Receives the next response and insists it answers `req_id` with
    /// verdicts; a matching reject becomes [`DaemonError::Rejected`].
    fn recv_matching(&mut self, req_id: u64) -> Result<VerdictPayload, DaemonError> {
        match self.recv_response()? {
            Response::Verdicts {
                req_id: answered,
                verdicts,
            } if answered == req_id => Ok(verdicts),
            Response::Reject(reject) => Err(DaemonError::Rejected {
                req_id: reject.req_id,
                code: reject.code,
                detail: reject.detail,
            }),
            other => Err(unexpected(&other, "verdicts for the outstanding request")),
        }
    }
}

fn unexpected(response: &Response, expected: &'static str) -> DaemonError {
    let found = match response {
        Response::Verdicts { .. } => FrameType::Verdicts,
        Response::Reject(_) => FrameType::Reject,
        Response::Pong => FrameType::Pong,
    }
    .to_wire();
    DaemonError::UnexpectedFrame { expected, found }
}
