//! The GHSF wire protocol: length-prefixed binary frames over TCP for
//! the fleet control plane.
//!
//! The normative specification lives in `docs/FLEET.md`; this module is
//! its reference implementation. The header, its check order and the
//! payload cursor come from [`crate::wire`], shared byte for byte with
//! GHSD — only the magic differs (`"GHSF"`), so a frame aimed at the
//! wrong plane dies on the first four bytes. This module keeps the
//! frame-type table and the payload grammar.
//!
//! Requests are [`FrameType::Offer`] / [`FrameType::Chunk`] /
//! [`FrameType::Commit`] (the bundle replication plane),
//! [`FrameType::StateQuery`] (the baseline reduction plane) and
//! [`FrameType::Ping`]. Responses are [`FrameType::OfferAck`],
//! [`FrameType::BundleAck`], [`FrameType::StateReply`],
//! [`FrameType::Nak`] and [`FrameType::Pong`].
//!
//! GHSF is **lock-step with one streamed exception**: every request
//! expects exactly one response before the next request, except `Chunk`
//! frames, which are streamed unacknowledged between an `OfferAck` and
//! a `Commit` — the commit's single `BundleAck`/`Nak` answers for the
//! whole transfer. Decoding is total: any byte sequence either decodes
//! or produces a typed [`WireError`] — never a panic, and a hostile
//! declared length is rejected from the 12 header bytes alone, before
//! any payload allocation.

use crate::error::NakCode;
use crate::wire::{self, finish_frame, truncate_utf8, write_tenant, Cursor, FrameKind, WireError};
pub use crate::wire::{DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAX_TENANT_LEN};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"GHSF";

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Longest nak detail string a node will send.
pub const MAX_NAK_DETAIL_LEN: usize = 512;

/// Longest opaque state payload a [`FrameType::StateReply`] carries.
/// (An exported `StreamState` is 40 bytes; the u16 length field leaves
/// generous room for future state formats.)
pub const MAX_STATE_LEN: usize = u16::MAX as usize;

/// Payload bytes the replicator sends per [`FrameType::Chunk`] (256 KiB:
/// far below the frame cap, large enough that syscall overhead is
/// negligible for multi-MiB bundles).
pub const CHUNK_LEN: usize = 256 * 1024;

/// Discriminates the ten frame kinds. Request types have the high bit
/// clear, response types have it set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameType {
    /// Publisher → node: announce a content-addressed bundle for one
    /// tenant (total length + FNV-1a 64 checksum).
    Offer,
    /// Publisher → node: one contiguous slice of the offered bundle.
    /// Streamed unacknowledged; any error comes back on the commit.
    Chunk,
    /// Publisher → node: every byte was sent — verify and make visible.
    Commit,
    /// Publisher → node: ask for a tenant's exported streaming baseline.
    StateQuery,
    /// Publisher → node: liveness probe.
    Ping,
    /// Node → publisher: the offer is accepted; resume from byte `have`.
    OfferAck,
    /// Node → publisher: the bundle verified and is visible in the spool.
    BundleAck,
    /// Node → publisher: the tenant's baseline (or its absence).
    StateReply,
    /// Node → publisher: typed refusal; the connection closes after it.
    Nak,
    /// Node → publisher: answer to [`FrameType::Ping`].
    Pong,
}

impl FrameKind for FrameType {
    const MAGIC: [u8; 4] = MAGIC;
    const VERSION: u8 = VERSION;
    const WIRE: &'static [(Self, u8)] = &[
        (FrameType::Offer, 0x01),
        (FrameType::Chunk, 0x02),
        (FrameType::Commit, 0x03),
        (FrameType::StateQuery, 0x04),
        (FrameType::Ping, 0x05),
        (FrameType::OfferAck, 0x81),
        (FrameType::BundleAck, 0x82),
        (FrameType::StateReply, 0x83),
        (FrameType::Nak, 0x84),
        (FrameType::Pong, 0x85),
    ];
}

/// A validated GHSF frame header.
pub type FrameHeader = wire::FrameHeader<FrameType>;

/// A decoded publisher → node frame.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// Announce a content-addressed bundle for one tenant.
    Offer {
        /// Spool tenant the bundle deploys (1–255 UTF-8 bytes, a valid
        /// file stem — see [`crate::node::validate_tenant`]).
        tenant: String,
        /// Total bundle length in bytes (non-zero).
        total_len: u64,
        /// FNV-1a 64 checksum of the whole bundle — its content address.
        checksum: u64,
    },
    /// One contiguous slice of the offered bundle, streamed
    /// unacknowledged after the [`Response::OfferAck`].
    Chunk {
        /// Byte offset this slice starts at; must equal the bytes the
        /// node has staged so far (strictly sequential).
        offset: u64,
        /// The slice itself (length implicit in the frame length).
        data: Vec<u8>,
    },
    /// Every offered byte was sent: verify the staged file against the
    /// offer's checksum and atomically publish it into the spool.
    Commit {
        /// Must echo the offer's checksum.
        checksum: u64,
    },
    /// Ask for a tenant's exported streaming baseline.
    StateQuery {
        /// The tenant to report on.
        tenant: String,
    },
    /// Liveness probe.
    Ping,
}

/// A decoded node → publisher frame.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// The offer is accepted; the publisher should send bytes starting
    /// at offset `have` (`have == total_len` means the node already has
    /// this exact bundle and no bytes need to flow).
    OfferAck {
        /// Bytes of this content address the node already holds.
        have: u64,
    },
    /// The staged bytes verified against the offer and were renamed
    /// into the spool, visible to the node's watcher on its next poll.
    BundleAck {
        /// Echo of the committed checksum.
        checksum: u64,
    },
    /// The tenant's exported baseline, or `None` when the node has no
    /// engine deployed under that tenant.
    StateReply {
        /// Opaque exported state bytes (a 40-byte wire `StreamState`
        /// today; GHSF carries it untyped).
        state: Option<Vec<u8>>,
    },
    /// Typed refusal. The node closes the connection after sending it.
    Nak {
        /// Why the request was refused.
        code: NakCode,
        /// Operator-facing detail, truncated to [`MAX_NAK_DETAIL_LEN`].
        detail: String,
    },
    /// Answer to a ping.
    Pong,
}

// ---------------------------------------------------------------------------
// frame encode
// ---------------------------------------------------------------------------

/// Encodes a complete request frame (header + payload).
///
/// # Errors
///
/// [`WireError::Malformed`] when a tenant name is empty or longer than
/// [`MAX_TENANT_LEN`] bytes; [`WireError::FrameTooLarge`] when the
/// payload overflows the u32 length field.
pub fn encode_request(request: &Request) -> Result<Vec<u8>, WireError> {
    match request {
        Request::Ping => finish_frame(FrameType::Ping, Vec::new()),
        Request::Offer {
            tenant,
            total_len,
            checksum,
        } => {
            let mut payload = Vec::with_capacity(18 + tenant.len());
            write_tenant(&mut payload, tenant)?;
            payload.extend_from_slice(&total_len.to_le_bytes());
            payload.extend_from_slice(&checksum.to_le_bytes());
            finish_frame(FrameType::Offer, payload)
        }
        Request::Chunk { offset, data } => {
            let mut payload = Vec::with_capacity(8 + data.len());
            payload.extend_from_slice(&offset.to_le_bytes());
            payload.extend_from_slice(data);
            finish_frame(FrameType::Chunk, payload)
        }
        Request::Commit { checksum } => {
            finish_frame(FrameType::Commit, checksum.to_le_bytes().to_vec())
        }
        Request::StateQuery { tenant } => {
            let mut payload = Vec::with_capacity(2 + tenant.len());
            write_tenant(&mut payload, tenant)?;
            finish_frame(FrameType::StateQuery, payload)
        }
    }
}

/// Encodes a complete response frame (header + payload). Nak details
/// are truncated to [`MAX_NAK_DETAIL_LEN`] bytes on a char boundary.
///
/// # Errors
///
/// [`WireError::Malformed`] when a state payload exceeds
/// [`MAX_STATE_LEN`]; [`WireError::FrameTooLarge`] when the payload
/// overflows the u32 length field.
pub fn encode_response(response: &Response) -> Result<Vec<u8>, WireError> {
    match response {
        Response::Pong => finish_frame(FrameType::Pong, Vec::new()),
        Response::OfferAck { have } => {
            finish_frame(FrameType::OfferAck, have.to_le_bytes().to_vec())
        }
        Response::BundleAck { checksum } => {
            finish_frame(FrameType::BundleAck, checksum.to_le_bytes().to_vec())
        }
        Response::StateReply { state } => {
            let mut payload = Vec::with_capacity(3 + state.as_ref().map_or(0, Vec::len));
            match state {
                None => payload.extend_from_slice(&[0, 0, 0]),
                Some(bytes) => {
                    if bytes.len() > MAX_STATE_LEN {
                        return Err(WireError::Malformed("state payload longer than u16::MAX"));
                    }
                    payload.push(1);
                    payload.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                    payload.extend_from_slice(bytes);
                }
            }
            finish_frame(FrameType::StateReply, payload)
        }
        Response::Nak { code, detail } => {
            let detail = truncate_utf8(detail, MAX_NAK_DETAIL_LEN);
            let mut payload = Vec::with_capacity(3 + detail.len());
            payload.push(code.to_wire());
            payload.extend_from_slice(&(detail.len() as u16).to_le_bytes());
            payload.extend_from_slice(detail.as_bytes());
            finish_frame(FrameType::Nak, payload)
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
/// first structural violation; [`WireError::UnknownFrameType`] when fed
/// a response frame type.
pub fn decode_request(frame_type: FrameType, payload: &[u8]) -> Result<Request, WireError> {
    match frame_type {
        FrameType::Ping => {
            Cursor::new(payload).finish()?;
            Ok(Request::Ping)
        }
        FrameType::Offer => {
            let mut cur = Cursor::new(payload);
            let tenant = cur.tenant()?;
            let total_len = cur.u64()?;
            let checksum = cur.u64()?;
            cur.finish()?;
            if total_len == 0 {
                return Err(WireError::Malformed("offered bundle is empty"));
            }
            Ok(Request::Offer {
                tenant,
                total_len,
                checksum,
            })
        }
        FrameType::Chunk => {
            let mut cur = Cursor::new(payload);
            let offset = cur.u64()?;
            let data = cur.rest().to_vec();
            if data.is_empty() {
                return Err(WireError::Malformed("empty chunk"));
            }
            Ok(Request::Chunk { offset, data })
        }
        FrameType::Commit => {
            let mut cur = Cursor::new(payload);
            let checksum = cur.u64()?;
            cur.finish()?;
            Ok(Request::Commit { checksum })
        }
        FrameType::StateQuery => {
            let mut cur = Cursor::new(payload);
            let tenant = cur.tenant()?;
            cur.finish()?;
            Ok(Request::StateQuery { tenant })
        }
        other => Err(WireError::UnknownFrameType(other.to_wire())),
    }
}

/// Decodes the payload of a response frame whose header was already
/// validated by [`FrameHeader::decode`].
///
/// # Errors
///
/// [`WireError::Malformed`] or [`WireError::Truncated`] describing the
/// first structural violation; [`WireError::UnknownFrameType`] when fed
/// a request frame type.
pub fn decode_response(frame_type: FrameType, payload: &[u8]) -> Result<Response, WireError> {
    match frame_type {
        FrameType::Pong => {
            Cursor::new(payload).finish()?;
            Ok(Response::Pong)
        }
        FrameType::OfferAck => {
            let mut cur = Cursor::new(payload);
            let have = cur.u64()?;
            cur.finish()?;
            Ok(Response::OfferAck { have })
        }
        FrameType::BundleAck => {
            let mut cur = Cursor::new(payload);
            let checksum = cur.u64()?;
            cur.finish()?;
            Ok(Response::BundleAck { checksum })
        }
        FrameType::StateReply => {
            let mut cur = Cursor::new(payload);
            let present = cur.u8()?;
            let len = cur.u16()? as usize;
            let state = match present {
                0 => {
                    if len != 0 {
                        return Err(WireError::Malformed("absent state with a nonzero length"));
                    }
                    None
                }
                1 => Some(cur.take(len)?.to_vec()),
                _ => return Err(WireError::Malformed("state presence byte must be 0 or 1")),
            };
            cur.finish()?;
            Ok(Response::StateReply { state })
        }
        FrameType::Nak => {
            let mut cur = Cursor::new(payload);
            let code = NakCode::from_wire(cur.u8()?)?;
            let detail_len = cur.u16()? as usize;
            let detail = std::str::from_utf8(cur.take(detail_len)?)
                .map_err(|_| WireError::Malformed("nak detail is not UTF-8"))?
                .to_string();
            cur.finish()?;
            Ok(Response::Nak { code, detail })
        }
        other => Err(WireError::UnknownFrameType(other.to_wire())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::write_tenant;

    fn roundtrip_request(request: Request) {
        let frame = encode_request(&request).unwrap();
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&frame[..HEADER_LEN]);
        let header = FrameHeader::decode(&header, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert!(header.frame_type.is_request());
        assert_eq!(header.payload_len, frame.len() - HEADER_LEN);
        let back = decode_request(header.frame_type, &frame[HEADER_LEN..]).unwrap();
        assert_eq!(back, request);
    }

    fn roundtrip_response(response: Response) {
        let frame = encode_response(&response).unwrap();
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&frame[..HEADER_LEN]);
        let header = FrameHeader::decode(&header, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert!(!header.frame_type.is_request());
        let back = decode_response(header.frame_type, &frame[HEADER_LEN..]).unwrap();
        assert_eq!(back, response);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Offer {
            tenant: "edge-α".to_string(),
            total_len: 123_456,
            checksum: 0xDEAD_BEEF_CAFE_F00D,
        });
        roundtrip_request(Request::Chunk {
            offset: 9_000,
            data: vec![7; 321],
        });
        roundtrip_request(Request::Commit { checksum: 42 });
        roundtrip_request(Request::StateQuery {
            tenant: "edge".to_string(),
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::OfferAck { have: 512 });
        roundtrip_response(Response::BundleAck { checksum: 99 });
        roundtrip_response(Response::StateReply { state: None });
        roundtrip_response(Response::StateReply {
            state: Some(vec![1, 2, 3, 4]),
        });
        roundtrip_response(Response::Nak {
            code: NakCode::BadOffset,
            detail: "expected offset 512".to_string(),
        });
    }

    #[test]
    fn hostile_payloads_are_typed_errors() {
        // Empty offer.
        assert!(decode_request(FrameType::Offer, &[]).is_err());
        // Zero-length bundle offer.
        let mut payload = Vec::new();
        write_tenant(&mut payload, "t").unwrap();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(
            decode_request(FrameType::Offer, &payload),
            Err(WireError::Malformed("offered bundle is empty"))
        );
        // Trailing garbage after a commit.
        let mut payload = 1u64.to_le_bytes().to_vec();
        payload.push(0);
        assert!(decode_request(FrameType::Commit, &payload).is_err());
        // Empty chunk.
        assert_eq!(
            decode_request(FrameType::Chunk, &5u64.to_le_bytes()),
            Err(WireError::Malformed("empty chunk"))
        );
        // Bad presence byte.
        assert!(decode_response(FrameType::StateReply, &[9, 0, 0]).is_err());
        // Absent state with a declared length.
        assert!(decode_response(FrameType::StateReply, &[0, 4, 0]).is_err());
        // Non-UTF-8 tenant.
        let mut payload = vec![2, 0, 0xFF, 0xFE];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        assert!(decode_request(FrameType::Offer, &payload).is_err());
        // Request/response confusion is typed.
        assert!(decode_request(FrameType::Pong, &[]).is_err());
        assert!(decode_response(FrameType::Offer, &[]).is_err());
    }

    #[test]
    fn tenant_limits_enforced_both_ways() {
        assert!(encode_request(&Request::StateQuery {
            tenant: String::new()
        })
        .is_err());
        assert!(encode_request(&Request::Offer {
            tenant: "x".repeat(MAX_TENANT_LEN + 1),
            total_len: 1,
            checksum: 0,
        })
        .is_err());
    }
}
