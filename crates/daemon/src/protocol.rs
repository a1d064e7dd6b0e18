//! The GHSD wire protocol: length-prefixed binary frames over TCP.
//!
//! The normative specification lives in `docs/PROTOCOL.md`; this module is
//! its reference implementation. The 12-byte header, its check order and
//! the payload cursor come from [`ghsom_comms::wire`], shared with the
//! GHSF fleet protocol; this module keeps the GHSD frame-type table
//! (magic `"GHSD"`) and the payload grammar.
//!
//! Requests are [`FrameType::Batch`] (a tenant-addressed batch of
//! [`ConnectionRecord`]s to score or observe) and [`FrameType::Ping`].
//! Responses are [`FrameType::Verdicts`], [`FrameType::Reject`] and
//! [`FrameType::Pong`]. Every batch carries a client-chosen `req_id` that
//! the server echoes in its response, so a client may pipeline requests
//! and still match responses when typed rejects interleave with verdicts.
//!
//! Decoding is total: any byte sequence either decodes or produces a typed
//! [`DaemonError`] — never a panic, and a hostile declared length is
//! rejected from the 12-byte header alone, before any payload allocation.

use detect::hybrid::HybridVerdict;
use detect::online::StreamVerdict;
use ghsom_comms::wire::{self, finish_frame, truncate_utf8, write_tenant, Cursor, WireError};
pub use ghsom_comms::wire::{FrameKind, DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAX_TENANT_LEN};
use traffic::{AttackType, ConnectionRecord, Flag, Protocol, Service};

use crate::error::{DaemonError, RejectCode};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"GHSD";

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Wire length of one encoded [`ConnectionRecord`]: four categorical code
/// bytes followed by the 38 continuous features as little-endian `f64`s.
pub const RECORD_WIRE_LEN: usize = 4 + ConnectionRecord::CONTINUOUS_COUNT * 8;

/// Longest reject detail string the server will send.
pub const MAX_REJECT_DETAIL_LEN: usize = 512;

/// Discriminates the five frame kinds. Request types have the high bit
/// clear, response types have it set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameType {
    /// Client → server: a batch of records for one tenant.
    Batch,
    /// Client → server: liveness probe.
    Ping,
    /// Server → client: one verdict per record of an admitted batch.
    Verdicts,
    /// Server → client: typed refusal of a request.
    Reject,
    /// Server → client: answer to [`FrameType::Ping`].
    Pong,
}

impl FrameKind for FrameType {
    const MAGIC: [u8; 4] = MAGIC;
    const VERSION: u8 = VERSION;
    const WIRE: &'static [(Self, u8)] = &[
        (FrameType::Batch, 0x01),
        (FrameType::Ping, 0x02),
        (FrameType::Verdicts, 0x81),
        (FrameType::Reject, 0x82),
        (FrameType::Pong, 0x83),
    ];
}

/// What the server should do with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BatchMode {
    /// Hybrid scoring only; the adaptive baseline is not updated. The
    /// response carries [`HybridVerdict`]s.
    Score,
    /// Score *and* fold the batch into the tenant's streaming baseline.
    /// The response carries [`StreamVerdict`]s.
    Observe,
}

impl BatchMode {
    /// The frozen wire byte of this mode.
    pub fn to_wire(self) -> u8 {
        match self {
            BatchMode::Score => 0,
            BatchMode::Observe => 1,
        }
    }

    /// Decodes a wire byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for any other byte.
    pub fn from_wire(byte: u8) -> Result<Self, WireError> {
        match byte {
            0 => Ok(BatchMode::Score),
            1 => Ok(BatchMode::Observe),
            _ => Err(WireError::Malformed("unknown batch mode byte")),
        }
    }
}

/// A validated GHSD frame header.
pub type FrameHeader = wire::FrameHeader<FrameType>;

/// A batch of records addressed to one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Client-chosen id, echoed verbatim in the response.
    pub req_id: u64,
    /// Score-only or score-and-observe.
    pub mode: BatchMode,
    /// Registry tenant the batch is for (1–255 UTF-8 bytes).
    pub tenant: String,
    /// The records to score, in order; verdicts come back in the same
    /// order.
    pub records: Vec<ConnectionRecord>,
}

/// A decoded client → server frame.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// A batch of records for one tenant.
    Batch(BatchRequest),
    /// Liveness probe.
    Ping,
}

/// The per-record verdicts of an admitted batch; the variant matches the
/// request's [`BatchMode`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VerdictPayload {
    /// Verdicts of a [`BatchMode::Score`] batch.
    Hybrid(Vec<HybridVerdict>),
    /// Verdicts of a [`BatchMode::Observe`] batch.
    Stream(Vec<StreamVerdict>),
}

impl VerdictPayload {
    /// Number of verdicts carried.
    pub fn len(&self) -> usize {
        match self {
            VerdictPayload::Hybrid(v) => v.len(),
            VerdictPayload::Stream(v) => v.len(),
        }
    }

    /// `true` when no verdicts are carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A typed refusal. `req_id` is `0` when the request never parsed far
/// enough to recover one.
#[derive(Debug, Clone, PartialEq)]
pub struct Reject {
    /// Echoed request id (`0` if unrecoverable).
    pub req_id: u64,
    /// Why the request was refused.
    pub code: RejectCode,
    /// Operator-facing detail, truncated to [`MAX_REJECT_DETAIL_LEN`].
    pub detail: String,
}

/// A decoded server → client frame.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Verdicts for an admitted batch, echoing its `req_id`.
    Verdicts {
        /// Echoed request id.
        req_id: u64,
        /// One verdict per record, in request order.
        verdicts: VerdictPayload,
    },
    /// Typed refusal of a request.
    Reject(Reject),
    /// Answer to a ping.
    Pong,
}

// ---------------------------------------------------------------------------
// record codec
// ---------------------------------------------------------------------------

fn categorical_code<T: PartialEq + Copy>(all: &[T], value: T) -> u8 {
    // The vocabularies are total enums, so `value` is always present and
    // the fallback is unreachable; it exists to keep encoding panic-free.
    all.iter().position(|v| *v == value).unwrap_or(0) as u8
}

fn categorical_decode<T: Copy>(all: &[T], code: u8, what: &'static str) -> Result<T, WireError> {
    match all.get(code as usize) {
        Some(v) => Ok(*v),
        None => Err(WireError::Malformed(what)),
    }
}

/// Appends one record's [`RECORD_WIRE_LEN`] bytes to `out`.
pub fn encode_record(record: &ConnectionRecord, out: &mut Vec<u8>) {
    out.push(categorical_code(&Protocol::ALL, record.protocol));
    out.push(categorical_code(&Service::ALL, record.service));
    out.push(categorical_code(&Flag::ALL, record.flag));
    out.push(categorical_code(&AttackType::ALL, record.label));
    let mut features = [0.0; ConnectionRecord::CONTINUOUS_COUNT];
    record.write_continuous_features(&mut features);
    for f in features {
        out.extend_from_slice(&f.to_le_bytes());
    }
}

fn decode_record(cur: &mut Cursor<'_>) -> Result<ConnectionRecord, WireError> {
    let protocol = categorical_decode(&Protocol::ALL, cur.u8()?, "bad protocol code")?;
    let service = categorical_decode(&Service::ALL, cur.u8()?, "bad service code")?;
    let flag = categorical_decode(&Flag::ALL, cur.u8()?, "bad flag code")?;
    let label = categorical_decode(&AttackType::ALL, cur.u8()?, "bad label code")?;
    let mut features = [0.0; ConnectionRecord::CONTINUOUS_COUNT];
    for slot in &mut features {
        let value = cur.f64()?;
        // A NaN or infinity here would poison the tenant's adaptive
        // baseline through `observe`; reject it at the trust boundary.
        if !value.is_finite() {
            return Err(WireError::Malformed("non-finite feature value"));
        }
        *slot = value;
    }
    Ok(record_from_parts(protocol, service, flag, label, &features))
}

/// Rebuilds a [`ConnectionRecord`] from its categorical values and the 38
/// continuous features in [`traffic::CONTINUOUS_FEATURE_NAMES`] order —
/// the inverse of [`ConnectionRecord::write_continuous_features`].
fn record_from_parts(
    protocol: Protocol,
    service: Service,
    flag: Flag,
    label: AttackType,
    f: &[f64; ConnectionRecord::CONTINUOUS_COUNT],
) -> ConnectionRecord {
    ConnectionRecord {
        duration: f[0],
        protocol,
        service,
        flag,
        src_bytes: f[1],
        dst_bytes: f[2],
        land: f[3],
        wrong_fragment: f[4],
        urgent: f[5],
        hot: f[6],
        num_failed_logins: f[7],
        logged_in: f[8],
        num_compromised: f[9],
        root_shell: f[10],
        su_attempted: f[11],
        num_root: f[12],
        num_file_creations: f[13],
        num_shells: f[14],
        num_access_files: f[15],
        num_outbound_cmds: f[16],
        is_host_login: f[17],
        is_guest_login: f[18],
        count: f[19],
        srv_count: f[20],
        serror_rate: f[21],
        srv_serror_rate: f[22],
        rerror_rate: f[23],
        srv_rerror_rate: f[24],
        same_srv_rate: f[25],
        diff_srv_rate: f[26],
        srv_diff_host_rate: f[27],
        dst_host_count: f[28],
        dst_host_srv_count: f[29],
        dst_host_same_srv_rate: f[30],
        dst_host_diff_srv_rate: f[31],
        dst_host_same_src_port_rate: f[32],
        dst_host_srv_diff_host_rate: f[33],
        dst_host_serror_rate: f[34],
        dst_host_srv_serror_rate: f[35],
        dst_host_rerror_rate: f[36],
        dst_host_srv_rerror_rate: f[37],
        label,
    }
}

// ---------------------------------------------------------------------------
// frame encode
// ---------------------------------------------------------------------------

/// Encodes a complete request frame (header + payload).
///
/// # Errors
///
/// [`WireError::Malformed`] when a batch's tenant name is empty, longer
/// than [`MAX_TENANT_LEN`] bytes, or the batch holds more than `u32::MAX`
/// records; [`WireError::FrameTooLarge`] when the payload overflows the
/// u32 length field.
pub fn encode_request(request: &Request) -> Result<Vec<u8>, WireError> {
    match request {
        Request::Ping => finish_frame(FrameType::Ping, Vec::new()),
        Request::Batch(batch) => {
            let mut payload =
                Vec::with_capacity(15 + batch.tenant.len() + batch.records.len() * RECORD_WIRE_LEN);
            payload.extend_from_slice(&batch.req_id.to_le_bytes());
            payload.push(batch.mode.to_wire());
            write_tenant(&mut payload, &batch.tenant)?;
            let count = u32::try_from(batch.records.len())
                .map_err(|_| WireError::Malformed("more than u32::MAX records"))?;
            payload.extend_from_slice(&count.to_le_bytes());
            for record in &batch.records {
                encode_record(record, &mut payload);
            }
            finish_frame(FrameType::Batch, payload)
        }
    }
}

/// Encodes a complete response frame (header + payload). Reject details
/// are truncated to [`MAX_REJECT_DETAIL_LEN`] bytes on a char boundary.
///
/// # Errors
///
/// [`WireError::Malformed`] when a verdict batch holds more than
/// `u32::MAX` verdicts; [`WireError::FrameTooLarge`] when the payload
/// overflows the u32 length field.
pub fn encode_response(response: &Response) -> Result<Vec<u8>, WireError> {
    match response {
        Response::Pong => finish_frame(FrameType::Pong, Vec::new()),
        Response::Reject(reject) => {
            let detail = truncate_utf8(&reject.detail, MAX_REJECT_DETAIL_LEN);
            let mut payload = Vec::with_capacity(11 + detail.len());
            payload.extend_from_slice(&reject.req_id.to_le_bytes());
            payload.push(reject.code.to_wire());
            payload.extend_from_slice(&(detail.len() as u16).to_le_bytes());
            payload.extend_from_slice(detail.as_bytes());
            finish_frame(FrameType::Reject, payload)
        }
        Response::Verdicts { req_id, verdicts } => {
            let count = u32::try_from(verdicts.len())
                .map_err(|_| WireError::Malformed("more than u32::MAX verdicts"))?;
            let (mode, wire_len) = match verdicts {
                VerdictPayload::Hybrid(_) => (BatchMode::Score, HybridVerdict::WIRE_LEN),
                VerdictPayload::Stream(_) => (BatchMode::Observe, StreamVerdict::WIRE_LEN),
            };
            let mut payload = Vec::with_capacity(13 + verdicts.len() * wire_len);
            payload.extend_from_slice(&req_id.to_le_bytes());
            payload.push(mode.to_wire());
            payload.extend_from_slice(&count.to_le_bytes());
            match verdicts {
                VerdictPayload::Hybrid(list) => {
                    for v in list {
                        payload.extend_from_slice(&v.to_wire());
                    }
                }
                VerdictPayload::Stream(list) => {
                    for v in list {
                        payload.extend_from_slice(&v.to_wire());
                    }
                }
            }
            finish_frame(FrameType::Verdicts, payload)
        }
    }
}

// ---------------------------------------------------------------------------
// frame decode
// ---------------------------------------------------------------------------

/// Decodes the payload of a request frame whose header was already
/// validated by [`FrameHeader::decode`].
///
/// # Errors
///
/// [`WireError::Malformed`] or [`WireError::Truncated`] describing the
/// first structural violation; [`WireError::UnknownFrameType`] when fed a
/// response frame type.
pub fn decode_request(frame_type: FrameType, payload: &[u8]) -> Result<Request, WireError> {
    match frame_type {
        FrameType::Ping => {
            Cursor::new(payload).finish()?;
            Ok(Request::Ping)
        }
        FrameType::Batch => {
            let mut cur = Cursor::new(payload);
            let req_id = cur.u64()?;
            let mode = BatchMode::from_wire(cur.u8()?)?;
            let tenant = cur.tenant()?;
            let count = cur.u32()? as usize;
            let declared = count
                .checked_mul(RECORD_WIRE_LEN)
                .ok_or(WireError::Malformed(
                    "record count overflows the payload length",
                ))?;
            if declared != cur.remaining() {
                return Err(WireError::Truncated {
                    needed: declared,
                    got: cur.remaining(),
                });
            }
            let mut records = Vec::with_capacity(count);
            for _ in 0..count {
                records.push(decode_record(&mut cur)?);
            }
            cur.finish()?;
            Ok(Request::Batch(BatchRequest {
                req_id,
                mode,
                tenant,
                records,
            }))
        }
        other => Err(WireError::UnknownFrameType(other.to_wire())),
    }
}

/// Decodes the payload of a response frame whose header was already
/// validated by [`FrameHeader::decode`].
///
/// # Errors
///
/// [`DaemonError::Wire`] carrying [`WireError::Malformed`] or
/// [`WireError::Truncated`] for the first structural violation, or
/// [`WireError::UnknownFrameType`] when fed a request frame type;
/// [`DaemonError::Verdict`] when a verdict fails to decode.
pub fn decode_response(frame_type: FrameType, payload: &[u8]) -> Result<Response, DaemonError> {
    match frame_type {
        FrameType::Pong => {
            Cursor::new(payload).finish()?;
            Ok(Response::Pong)
        }
        FrameType::Reject => {
            let mut cur = Cursor::new(payload);
            let req_id = cur.u64()?;
            let code = RejectCode::from_wire(cur.u8()?)?;
            let detail_len = cur.u16()? as usize;
            let detail = std::str::from_utf8(cur.take(detail_len)?)
                .map_err(|_| WireError::Malformed("reject detail is not UTF-8"))?
                .to_string();
            cur.finish()?;
            Ok(Response::Reject(Reject {
                req_id,
                code,
                detail,
            }))
        }
        FrameType::Verdicts => {
            let mut cur = Cursor::new(payload);
            let req_id = cur.u64()?;
            let mode = BatchMode::from_wire(cur.u8()?)?;
            let count = cur.u32()? as usize;
            let wire_len = match mode {
                BatchMode::Score => HybridVerdict::WIRE_LEN,
                BatchMode::Observe => StreamVerdict::WIRE_LEN,
            };
            let declared = count.checked_mul(wire_len).ok_or(WireError::Malformed(
                "verdict count overflows the payload length",
            ))?;
            if declared != cur.remaining() {
                return Err(WireError::Truncated {
                    needed: declared,
                    got: cur.remaining(),
                }
                .into());
            }
            let verdicts = match mode {
                BatchMode::Score => {
                    let mut list = Vec::with_capacity(count);
                    for _ in 0..count {
                        let mut wire = [0u8; HybridVerdict::WIRE_LEN];
                        wire.copy_from_slice(cur.take(HybridVerdict::WIRE_LEN)?);
                        list.push(HybridVerdict::from_wire(&wire)?);
                    }
                    VerdictPayload::Hybrid(list)
                }
                BatchMode::Observe => {
                    let mut list = Vec::with_capacity(count);
                    for _ in 0..count {
                        let mut wire = [0u8; StreamVerdict::WIRE_LEN];
                        wire.copy_from_slice(cur.take(StreamVerdict::WIRE_LEN)?);
                        list.push(StreamVerdict::from_wire(&wire)?);
                    }
                    VerdictPayload::Stream(list)
                }
            };
            cur.finish()?;
            Ok(Response::Verdicts { req_id, verdicts })
        }
        other => Err(WireError::UnknownFrameType(other.to_wire()).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::AttackCategory;

    fn sample_records() -> Vec<ConnectionRecord> {
        vec![
            ConnectionRecord::default(),
            ConnectionRecord {
                protocol: Protocol::Icmp,
                service: Service::EcrI,
                flag: Flag::Sh,
                label: AttackType::Smurf,
                src_bytes: 1032.0,
                count: 511.0,
                serror_rate: 0.25,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn record_wire_len_matches_encoder() {
        let mut buf = Vec::new();
        encode_record(&ConnectionRecord::default(), &mut buf);
        assert_eq!(buf.len(), RECORD_WIRE_LEN);
    }

    #[test]
    fn batch_request_roundtrip() {
        let request = Request::Batch(BatchRequest {
            req_id: 0xDEAD_BEEF_0042,
            mode: BatchMode::Observe,
            tenant: "edge-α".to_string(),
            records: sample_records(),
        });
        let frame = encode_request(&request).unwrap();
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&frame[..HEADER_LEN]);
        let header = FrameHeader::decode(&header, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(header.frame_type, FrameType::Batch);
        assert_eq!(header.payload_len, frame.len() - HEADER_LEN);
        let back = decode_request(header.frame_type, &frame[HEADER_LEN..]).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn response_roundtrips() {
        let responses = [
            Response::Pong,
            Response::Reject(Reject {
                req_id: 9,
                code: RejectCode::Overloaded,
                detail: "queue full (64 batches)".to_string(),
            }),
            Response::Verdicts {
                req_id: 3,
                verdicts: VerdictPayload::Hybrid(vec![HybridVerdict {
                    score: 1.25,
                    anomalous: true,
                    category: Some(AttackCategory::Dos),
                }]),
            },
            Response::Verdicts {
                req_id: 4,
                verdicts: VerdictPayload::Stream(vec![StreamVerdict {
                    score: 0.5,
                    anomalous: false,
                    threshold: 2.0,
                }]),
            },
        ];
        for response in responses {
            let frame = encode_response(&response).unwrap();
            let mut header = [0u8; HEADER_LEN];
            header.copy_from_slice(&frame[..HEADER_LEN]);
            let header = FrameHeader::decode(&header, DEFAULT_MAX_FRAME_LEN).unwrap();
            let back = decode_response(header.frame_type, &frame[HEADER_LEN..]).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn batch_decode_rejects_count_mismatch() {
        let request = Request::Batch(BatchRequest {
            req_id: 1,
            mode: BatchMode::Score,
            tenant: "t".to_string(),
            records: sample_records(),
        });
        let frame = encode_request(&request).unwrap();
        // Lie about the count: the count field sits after req_id(8) +
        // mode(1) + tenant_len(2) + tenant(1).
        let mut tampered = frame[HEADER_LEN..].to_vec();
        tampered[12] = 99;
        assert!(matches!(
            decode_request(FrameType::Batch, &tampered),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn batch_decode_rejects_hostile_values() {
        let base = BatchRequest {
            req_id: 1,
            mode: BatchMode::Score,
            tenant: "t".to_string(),
            records: vec![ConnectionRecord::default()],
        };
        let frame = encode_request(&Request::Batch(base)).unwrap();
        let payload_start = HEADER_LEN;
        let record_start = payload_start + 8 + 1 + 2 + 1 + 4;

        // Out-of-range categorical code.
        let mut bad = frame.clone();
        bad[record_start] = 200;
        assert_eq!(
            decode_request(FrameType::Batch, &bad[payload_start..]),
            Err(WireError::Malformed("bad protocol code"))
        );

        // NaN feature.
        let mut bad = frame.clone();
        bad[record_start + 4..record_start + 12].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            decode_request(FrameType::Batch, &bad[payload_start..]),
            Err(WireError::Malformed("non-finite feature value"))
        );

        // Truncated payload.
        assert!(matches!(
            decode_request(FrameType::Batch, &frame[payload_start..frame.len() - 3]),
            Err(WireError::Truncated { .. })
        ));

        // Trailing garbage.
        let mut bad = frame[payload_start..].to_vec();
        bad.push(0);
        assert!(decode_request(FrameType::Batch, &bad).is_err());
    }

    #[test]
    fn tenant_name_limits_enforced_both_ways() {
        let empty = Request::Batch(BatchRequest {
            req_id: 1,
            mode: BatchMode::Score,
            tenant: String::new(),
            records: Vec::new(),
        });
        assert!(encode_request(&empty).is_err());

        let long = Request::Batch(BatchRequest {
            req_id: 1,
            mode: BatchMode::Score,
            tenant: "x".repeat(MAX_TENANT_LEN + 1),
            records: Vec::new(),
        });
        assert!(encode_request(&long).is_err());
    }

    #[test]
    fn ping_rejects_nonempty_payload() {
        assert!(decode_request(FrameType::Ping, &[1, 2, 3]).is_err());
        assert!(decode_request(FrameType::Ping, &[]).is_ok());
    }
}
