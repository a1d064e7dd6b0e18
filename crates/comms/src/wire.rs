//! The framed wire shared by GHSD (`ghsom_daemon::protocol`, the record
//! plane) and GHSF ([`crate::frame`], the fleet plane): the 12-byte
//! header codec, the bounds-checked payload [`Cursor`], the tenant and
//! frame-finishing helpers, the [`WireError`] set, and the two frame
//! readers.
//!
//! The normative specification is the "Frame layout" section of
//! `docs/PROTOCOL.md`; this module is its reference codec. Each
//! protocol supplies only its [`FrameKind`] — magic, version and
//! frame-type table — plus its payload grammar:
//!
//! ```text
//! frame   := header payload
//! header  := magic(4) version(1) frame_type(1) reserved(2) payload_len(4)   -- 12 bytes, LE
//! ```
//!
//! Header checks run in a fixed order — magic, version, frame type,
//! reserved bytes, declared length — and the declared length is bounded
//! before a single payload byte is read or allocated for.

use std::fmt;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Default cap on a frame's declared payload length (8 MiB).
pub const DEFAULT_MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// Longest tenant name either protocol carries.
pub const MAX_TENANT_LEN: usize = 255;

/// One protocol's frame-type table. Request types have the high bit of
/// their wire byte clear, response types have it set.
pub trait FrameKind: Copy + Eq + fmt::Debug + 'static {
    /// First four bytes of every frame.
    const MAGIC: [u8; 4];
    /// Protocol version this build speaks.
    const VERSION: u8;
    /// Every frame type with its frozen wire byte.
    const WIRE: &'static [(Self, u8)];

    /// The frozen wire byte of this frame type.
    fn to_wire(self) -> u8 {
        // `WIRE` lists every variant, so the fallback is unreachable; it
        // keeps encoding panic-free.
        Self::WIRE
            .iter()
            .find(|(kind, _)| *kind == self)
            .map_or(0, |&(_, byte)| byte)
    }

    /// Decodes a wire byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownFrameType`] for a byte not in [`FrameKind::WIRE`].
    fn from_wire(byte: u8) -> Result<Self, WireError> {
        Self::WIRE
            .iter()
            .find(|&&(_, b)| b == byte)
            .map(|&(kind, _)| kind)
            .ok_or(WireError::UnknownFrameType(byte))
    }

    /// `true` for frame types the connecting side sends.
    fn is_request(self) -> bool {
        self.to_wire() & 0x80 == 0
    }
}

/// Errors of the framed wire, shared by both protocols.
///
/// Hostile bytes never panic: every malformed input maps to one of these
/// typed variants. The enum is `#[non_exhaustive]`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// Socket or filesystem I/O failed.
    Io(String),
    /// The frame does not start with the protocol's magic.
    BadMagic,
    /// The frame was written by an unknown protocol version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u8,
        /// Newest version this build speaks.
        supported: u8,
    },
    /// The header names a frame type this build does not know.
    UnknownFrameType(u8),
    /// The header's reserved bytes were not zero.
    ReservedNonZero,
    /// The frame declares a payload longer than the configured cap —
    /// rejected before any payload byte is read, so a hostile declared
    /// length can never force an allocation.
    FrameTooLarge {
        /// Declared payload length.
        declared: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The payload ended before a declared structure was complete.
    Truncated {
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The peer disconnected mid-frame (clean EOF *between* frames is
    /// not an error for a server).
    Disconnected,
    /// A frame did not complete in time: a server's frame deadline (the
    /// slow-loris defence) or a client's socket read timeout expired.
    TimedOut,
    /// The payload parses but violates a structural invariant.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "I/O error: {msg}"),
            WireError::BadMagic => write!(f, "not a frame of this protocol (bad magic)"),
            WireError::UnsupportedVersion { found, supported } => write!(
                f,
                "protocol version {found} is not supported (this build speaks <= {supported})"
            ),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::ReservedNonZero => write!(f, "reserved header bytes must be zero"),
            WireError::FrameTooLarge { declared, max } => write!(
                f,
                "frame declares a {declared}-byte payload, above the {max}-byte cap"
            ),
            WireError::Truncated { needed, got } => {
                write!(f, "frame payload truncated: need {needed} bytes, got {got}")
            }
            WireError::Disconnected => write!(f, "peer disconnected mid-frame"),
            WireError::TimedOut => write!(f, "frame not completed within the deadline"),
            WireError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => WireError::TimedOut,
            ErrorKind::UnexpectedEof => WireError::Disconnected,
            _ => WireError::Io(e.to_string()),
        }
    }
}

/// A validated frame header: the frame type plus how many payload bytes
/// follow the 12 header bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader<K> {
    /// Kind of frame the payload encodes.
    pub frame_type: K,
    /// Payload length in bytes (already checked against the caller's cap).
    pub payload_len: usize,
}

impl<K: FrameKind> FrameHeader<K> {
    /// Encodes the 12 header bytes.
    pub fn encode(frame_type: K, payload_len: u32) -> [u8; HEADER_LEN] {
        let [m0, m1, m2, m3] = K::MAGIC;
        let [l0, l1, l2, l3] = payload_len.to_le_bytes();
        let (version, kind) = (K::VERSION, frame_type.to_wire());
        [m0, m1, m2, m3, version, kind, 0, 0, l0, l1, l2, l3]
    }

    /// Validates 12 header bytes against `max_frame_len`, in order:
    /// magic, version, frame type, reserved bytes, declared length.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
    /// [`WireError::UnknownFrameType`], [`WireError::ReservedNonZero`]
    /// or [`WireError::FrameTooLarge`].
    pub fn decode(bytes: &[u8; HEADER_LEN], max_frame_len: usize) -> Result<Self, WireError> {
        let [m0, m1, m2, m3, version, kind, r0, r1, l0, l1, l2, l3] = *bytes;
        if [m0, m1, m2, m3] != K::MAGIC {
            return Err(WireError::BadMagic);
        }
        if version != K::VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: K::VERSION,
            });
        }
        let frame_type = K::from_wire(kind)?;
        if r0 != 0 || r1 != 0 {
            return Err(WireError::ReservedNonZero);
        }
        let payload_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if payload_len > max_frame_len {
            return Err(WireError::FrameTooLarge {
                declared: payload_len,
                max: max_frame_len,
            });
        }
        Ok(FrameHeader {
            frame_type,
            payload_len,
        })
    }
}

/// Prepends the header to `payload`, producing a complete frame;
/// [`WireError::FrameTooLarge`] when the payload overflows the u32
/// length field.
pub fn finish_frame<K: FrameKind>(frame_type: K, payload: Vec<u8>) -> Result<Vec<u8>, WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::FrameTooLarge {
        declared: payload.len(),
        max: u32::MAX as usize,
    })?;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&FrameHeader::encode(frame_type, len));
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Longest prefix of `s` that fits `max` bytes without splitting a
/// UTF-8 sequence.
pub fn truncate_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    s.get(..end).unwrap_or("")
}

/// Checks a tenant name's byte length against the wire limits
/// (1–[`MAX_TENANT_LEN`] bytes); [`WireError::Malformed`] otherwise.
pub fn check_tenant_len(len: usize) -> Result<(), WireError> {
    if len == 0 {
        return Err(WireError::Malformed("empty tenant name"));
    }
    if len > MAX_TENANT_LEN {
        return Err(WireError::Malformed("tenant name longer than 255 bytes"));
    }
    Ok(())
}

/// Appends a tenant name as `len(u16 LE) bytes`, after
/// [`check_tenant_len`].
pub fn write_tenant(payload: &mut Vec<u8>, tenant: &str) -> Result<(), WireError> {
    let bytes = tenant.as_bytes();
    check_tenant_len(bytes.len())?;
    payload.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    payload.extend_from_slice(bytes);
    Ok(())
}

/// Bounds-checked little-endian reader over a payload slice: every read
/// either yields bytes or a typed [`WireError::Truncated`].
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n);
        let slice = end.and_then(|end| self.buf.get(self.pos..end));
        let slice = slice.ok_or_else(|| WireError::Truncated {
            needed: n,
            got: self.remaining(),
        })?;
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Consumes a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Consumes a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Consumes a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Consumes an `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Consumes every remaining byte.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        out
    }

    /// Consumes a tenant name written by [`write_tenant`]; an empty,
    /// over-long or non-UTF-8 name is [`WireError::Malformed`].
    pub fn tenant(&mut self) -> Result<String, WireError> {
        let len = usize::from(self.u16()?);
        check_tenant_len(len)?;
        Ok(std::str::from_utf8(self.take(len)?)
            .map_err(|_| WireError::Malformed("tenant name is not UTF-8"))?
            .to_string())
    }

    /// Fails with [`WireError::Malformed`] unless every payload byte was
    /// consumed — trailing garbage is as malformed as missing bytes.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

// ---------------------------------------------------------------------------
// server side: accept loop and frame readers
// ---------------------------------------------------------------------------

/// The accept loop of both servers: accepts on a non-blocking `listener`
/// until `stop` is set, runs `serve` on a thread per connection (a
/// connection whose thread cannot be spawned is dropped), then joins
/// every connection thread.
pub fn accept_until<F>(listener: &TcpListener, stop: &AtomicBool, serve: F)
where
    F: Fn(TcpStream) + Clone + Send + 'static,
{
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let serve = serve.clone();
                if let Ok(handle) = thread::Builder::new().spawn(move || serve(stream)) {
                    conns.push(handle);
                }
                conns.retain(|h| !h.is_finished());
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    for handle in conns {
        let _ = handle.join();
    }
}

/// The frame deadline of a server-side read: `deadline` stays `None`
/// until the first byte of a frame arrives, so an idle connection may
/// sit quietly forever while a *started* frame must finish in time.
struct Deadline<'a> {
    stop: &'a AtomicBool,
    frame_timeout: Duration,
    deadline: Option<Instant>,
}

/// Fills `buf` from `stream`; `Ok(false)` (guarded reads only) is a
/// clean EOF before the first byte of a frame, or the stop flag.
///
/// With a `guard`, the stop flag and the frame deadline are checked
/// before **every** read, so neither silence nor a steady trickle
/// outlives the deadline; the socket read timeout is then only the
/// wake-up tick. Without one, any EOF is [`WireError::Disconnected`]
/// and an expired socket read timeout is [`WireError::TimedOut`].
fn fill(
    stream: &mut impl Read,
    buf: &mut [u8],
    mut guard: Option<&mut Deadline<'_>>,
) -> Result<bool, WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if let Some(g) = guard.as_deref() {
            if g.stop.load(Ordering::SeqCst) {
                return Ok(false);
            }
            if g.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(WireError::TimedOut);
            }
        }
        let slot = buf.get_mut(filled..).unwrap_or_default();
        match stream.read(slot) {
            // No deadline yet means no byte of this frame has arrived.
            Ok(0) if guard.as_deref().is_some_and(|g| g.deadline.is_none()) => return Ok(false),
            Ok(0) => return Err(WireError::Disconnected),
            Ok(n) => {
                if let Some(g) = guard.as_deref_mut() {
                    g.deadline
                        .get_or_insert_with(|| Instant::now() + g.frame_timeout);
                }
                filled += n;
            }
            Err(e) => match e.kind() {
                ErrorKind::Interrupted => {}
                ErrorKind::WouldBlock | ErrorKind::TimedOut if guard.is_some() => {}
                _ => return Err(WireError::from(e)),
            },
        }
    }
    Ok(true)
}

/// Reads one whole frame, blocking: the client-side reader. The payload
/// lands in `payload`.
///
/// # Errors
///
/// Any [`FrameHeader::decode`] error; [`WireError::Disconnected`] when
/// the peer closes, even between frames; [`WireError::TimedOut`] when
/// the socket read timeout expires; [`WireError::Io`] otherwise.
pub fn read_frame<K: FrameKind>(
    stream: &mut impl Read,
    max_frame_len: usize,
    payload: &mut Vec<u8>,
) -> Result<FrameHeader<K>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    fill(stream, &mut header, None)?;
    let header = FrameHeader::decode(&header, max_frame_len)?;
    payload.clear();
    payload.resize(header.payload_len, 0);
    fill(stream, payload, None)?;
    Ok(header)
}

/// Reads one whole frame under a frame deadline: the reader of a
/// server's connection threads. The deadline is armed at the frame's
/// first byte and covers header and payload together. `stream` must
/// carry a short socket read timeout: it sets how often the stop flag
/// and the deadline are checked while the peer is silent.
///
/// Returns `Ok(None)` on a clean EOF between frames or once `stop` is
/// set; otherwise the validated header, with the payload in `payload`.
///
/// # Errors
///
/// Any [`FrameHeader::decode`] error; [`WireError::TimedOut`] when a
/// started frame misses `frame_timeout`; [`WireError::Disconnected`] on
/// EOF mid-frame; [`WireError::Io`] otherwise.
pub fn read_frame_until<K: FrameKind>(
    stream: &mut impl Read,
    max_frame_len: usize,
    payload: &mut Vec<u8>,
    frame_timeout: Duration,
    stop: &AtomicBool,
) -> Result<Option<FrameHeader<K>>, WireError> {
    let mut guard = Deadline {
        stop,
        frame_timeout,
        deadline: None,
    };
    let mut header = [0u8; HEADER_LEN];
    if !fill(stream, &mut header, Some(&mut guard))? {
        return Ok(None);
    }
    let header = FrameHeader::decode(&header, max_frame_len)?;
    payload.clear();
    payload.resize(header.payload_len, 0);
    let full = fill(stream, payload, Some(&mut guard))?;
    Ok(full.then_some(header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{self, FrameType as Ghsf};

    /// GHSD's frame-type table as `ghsom_daemon::protocol` declares it
    /// (this crate cannot depend on the daemon; its torture suite runs
    /// the same violations against the real table).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ghsd {
        Batch,
        Ping,
        Verdicts,
        Reject,
        Pong,
    }

    impl FrameKind for Ghsd {
        const MAGIC: [u8; 4] = *b"GHSD";
        const VERSION: u8 = 1;
        const WIRE: &'static [(Self, u8)] = &[
            (Ghsd::Batch, 0x01),
            (Ghsd::Ping, 0x02),
            (Ghsd::Verdicts, 0x81),
            (Ghsd::Reject, 0x82),
            (Ghsd::Pong, 0x83),
        ];
    }

    /// Every header violation, in check order, against one protocol's
    /// table; `foreign` is the other plane's magic.
    fn header_rejections<K: FrameKind>(ping: K, big: K, foreign: [u8; 4]) {
        for &(kind, byte) in K::WIRE {
            assert_eq!(kind.to_wire(), byte);
            assert_eq!(K::from_wire(byte), Ok(kind));
        }
        let good = FrameHeader::encode(ping, 0);
        let decode = |bytes: [u8; HEADER_LEN]| {
            FrameHeader::<K>::decode(&bytes, 1024).map(|h| (h.frame_type, h.payload_len))
        };
        let with = |at: usize, byte: u8| {
            let mut bad = good;
            bad[at] = byte;
            bad
        };
        assert_eq!(decode(good), Ok((ping, 0)));

        assert_eq!(decode(with(0, b'X')), Err(WireError::BadMagic));
        // The other plane's magic dies here too: the planes cannot be
        // crossed in either direction.
        let mut crossed = good;
        crossed[..4].copy_from_slice(&foreign);
        assert_eq!(decode(crossed), Err(WireError::BadMagic));

        for version in [9, 99] {
            assert_eq!(
                decode(with(4, version)),
                Err(WireError::UnsupportedVersion {
                    found: version,
                    supported: K::VERSION
                })
            );
        }
        for kind in [0x40, 0x7F] {
            assert_eq!(
                decode(with(5, kind)),
                Err(WireError::UnknownFrameType(kind))
            );
        }
        for (at, byte) in [(6, 1), (7, 3)] {
            assert_eq!(decode(with(at, byte)), Err(WireError::ReservedNonZero));
        }
        assert_eq!(
            decode(FrameHeader::encode(big, u32::MAX)),
            Err(WireError::FrameTooLarge {
                declared: u32::MAX as usize,
                max: 1024
            })
        );
    }

    #[test]
    fn header_rejects_bad_magic_version_type_reserved_and_length() {
        header_rejections(Ghsd::Ping, Ghsd::Batch, frame::MAGIC);
        header_rejections(Ghsf::Ping, Ghsf::Chunk, Ghsd::MAGIC);
        assert!(Ghsd::Batch.is_request() && !Ghsd::Pong.is_request());
        assert!(Ghsf::Commit.is_request() && !Ghsf::Nak.is_request());
    }

    #[test]
    fn display_messages_are_actionable() {
        assert!(WireError::BadMagic.to_string().contains("magic"));
        for (declared, max) in [(42, 7), (99, 10)] {
            let e = WireError::FrameTooLarge { declared, max };
            assert!(e.to_string().contains(&declared.to_string()));
        }
    }

    #[test]
    fn truncate_utf8_respects_char_boundaries() {
        assert_eq!(truncate_utf8("héllo", 2), "h");
        assert_eq!(truncate_utf8("héllo", 3), "hé");
        assert_eq!(truncate_utf8("abc", 10), "abc");

        // A nak detail of 2-byte chars comes back cut to the cap on a
        // char boundary.
        let detail = "é".repeat(frame::MAX_NAK_DETAIL_LEN);
        let code = crate::NakCode::Internal;
        let nak = frame::encode_response(&frame::Response::Nak { code, detail }).unwrap();
        let back = frame::decode_response(Ghsf::Nak, &nak[HEADER_LEN..]);
        assert!(matches!(back, Ok(frame::Response::Nak { detail, .. })
            if detail.len() <= frame::MAX_NAK_DETAIL_LEN));
    }
}
