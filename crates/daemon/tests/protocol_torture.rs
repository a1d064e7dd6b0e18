//! Protocol torture suite (ISSUE 9): byte-level round-trips under
//! proptest, a deterministic hostile-bytes corpus against the pure
//! codec, and the same hostility replayed against a **live daemon** —
//! truncated frames, oversized declared lengths, wrong magic/version,
//! mid-frame disconnects and slow-loris partial writes. Every case must
//! end in a typed error or a clean close; the daemon must keep serving
//! well-formed traffic afterwards and never panic or hang.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use ghsom_comms::WireError;
use ghsom_daemon::protocol::{
    self, FrameHeader, FrameType, Request, Response, DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAGIC,
    MAX_REJECT_DETAIL_LEN, RECORD_WIRE_LEN, VERSION,
};
use ghsom_daemon::{Daemon, DaemonClient, DaemonConfig, DaemonError, RejectCode};
use proptest::prelude::*;
use traffic::{AttackType, Flag, Protocol, Service};

// ---------------------------------------------------------------------------
// raw frame builders (deliberately independent of the production encoder)
// ---------------------------------------------------------------------------

/// Hand-rolls a frame header, with every field overridable for hostility.
fn raw_header(magic: [u8; 4], version: u8, frame_type: u8, reserved: u16, len: u32) -> [u8; 12] {
    let mut h = [0u8; 12];
    h[..4].copy_from_slice(&magic);
    h[4] = version;
    h[5] = frame_type;
    h[6..8].copy_from_slice(&reserved.to_le_bytes());
    h[8..12].copy_from_slice(&len.to_le_bytes());
    h
}

fn good_header(frame_type: u8, len: u32) -> [u8; 12] {
    raw_header(MAGIC, VERSION, frame_type, 0, len)
}

/// Hand-rolls a batch payload from raw parts (no validation).
fn raw_batch_payload(req_id: u64, mode: u8, tenant: &[u8], records: &[u8], count: u32) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&req_id.to_le_bytes());
    p.push(mode);
    p.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
    p.extend_from_slice(tenant);
    p.extend_from_slice(&count.to_le_bytes());
    p.extend_from_slice(records);
    p
}

/// One wire record from raw categorical codes and features.
fn raw_record(codes: [u8; 4], features: &[f64; 38]) -> Vec<u8> {
    let mut r = Vec::with_capacity(RECORD_WIRE_LEN);
    r.extend_from_slice(&codes);
    for f in features {
        r.extend_from_slice(&f.to_le_bytes());
    }
    r
}

// ---------------------------------------------------------------------------
// proptest round-trips
// ---------------------------------------------------------------------------

proptest! {
    /// decode ∘ encode is the identity on well-formed batch frames built
    /// byte-by-byte, and the production encoder reproduces the exact
    /// input bytes (canonical encoding, both directions).
    #[test]
    fn batch_roundtrip_is_canonical(
        req_id in any::<u64>(),
        mode in 0u8..2,
        tenant_raw in prop::collection::vec(0u8..36, 1..24),
        seeds in prop::collection::vec((0u8..3, 0u8..36, 0u8..11, 0u8..33, 0.0f64..1.0e6), 0..5),
    ) {
        let tenant: Vec<u8> = tenant_raw
            .iter()
            .map(|c| b"abcdefghijklmnopqrstuvwxyz0123456789"[*c as usize])
            .collect();
        let mut records = Vec::new();
        for (p, s, f, l, x) in &seeds {
            let mut features = [0.0f64; 38];
            for (i, slot) in features.iter_mut().enumerate() {
                *slot = x * (i as f64 + 1.0);
            }
            records.extend_from_slice(&raw_record([*p, *s, *f, *l], &features));
        }
        let payload = raw_batch_payload(req_id, mode, &tenant, &records, seeds.len() as u32);

        let decoded = protocol::decode_request(FrameType::Batch, &payload).unwrap();
        let Request::Batch(batch) = &decoded else {
            panic!("batch payload decoded to {decoded:?}");
        };
        prop_assert_eq!(batch.req_id, req_id);
        prop_assert_eq!(batch.mode.to_wire(), mode);
        prop_assert_eq!(batch.tenant.as_bytes(), &tenant[..]);
        prop_assert_eq!(batch.records.len(), seeds.len());

        let reencoded = protocol::encode_request(&decoded).unwrap();
        prop_assert_eq!(&reencoded[..HEADER_LEN], &good_header(0x01, payload.len() as u32)[..]);
        prop_assert_eq!(&reencoded[HEADER_LEN..], &payload[..]);
    }

    /// Header encode/decode round-trips for every frame type and length.
    #[test]
    fn header_roundtrip(kind in 0usize..5, len in 0u32..(DEFAULT_MAX_FRAME_LEN as u32)) {
        let frame_type = [
            FrameType::Batch,
            FrameType::Ping,
            FrameType::Verdicts,
            FrameType::Reject,
            FrameType::Pong,
        ][kind];
        let bytes = FrameHeader::encode(frame_type, len);
        let header = FrameHeader::decode(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(header.frame_type, frame_type);
        prop_assert_eq!(header.payload_len, len as usize);
    }

    /// Reject responses round-trip through the production codec.
    #[test]
    fn reject_roundtrip(
        req_id in any::<u64>(),
        code in 1u8..7,
        detail_raw in prop::collection::vec(0u8..26, 0..600),
    ) {
        let detail: String = detail_raw.iter().map(|c| (b'a' + c) as char).collect();
        let frame = protocol::encode_response(&Response::Reject(protocol::Reject {
            req_id,
            code: RejectCode::from_wire(code).unwrap(),
            detail: detail.clone(),
        }))
        .unwrap();
        let header = FrameHeader::decode(
            frame[..HEADER_LEN].try_into().unwrap(),
            DEFAULT_MAX_FRAME_LEN,
        )
        .unwrap();
        let decoded = protocol::decode_response(header.frame_type, &frame[HEADER_LEN..]).unwrap();
        let Response::Reject(reject) = decoded else {
            panic!("reject decoded to something else");
        };
        prop_assert_eq!(reject.req_id, req_id);
        prop_assert_eq!(reject.code.to_wire(), code);
        // Long details are truncated on encode, never dropped.
        let expect_len = detail.len().min(MAX_REJECT_DETAIL_LEN);
        prop_assert_eq!(reject.detail.as_bytes(), &detail.as_bytes()[..expect_len]);
    }

    /// Arbitrary header bytes never panic the decoder.
    #[test]
    fn hostile_header_never_panics(bytes in prop::collection::vec(any::<u8>(), 12)) {
        let array: [u8; 12] = bytes[..].try_into().unwrap();
        let _ = FrameHeader::decode(&array, DEFAULT_MAX_FRAME_LEN);
    }

    /// Arbitrary payload bytes never panic the request decoder.
    #[test]
    fn hostile_payload_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..320)) {
        let _ = protocol::decode_request(FrameType::Batch, &bytes);
        let _ = protocol::decode_request(FrameType::Ping, &bytes);
        let _ = protocol::decode_response(FrameType::Verdicts, &bytes);
        let _ = protocol::decode_response(FrameType::Reject, &bytes);
        let _ = protocol::decode_response(FrameType::Pong, &bytes);
    }
}

// ---------------------------------------------------------------------------
// deterministic hostile-bytes corpus — pure codec
// ---------------------------------------------------------------------------

#[test]
fn corpus_header_violations_are_typed() {
    let max = DEFAULT_MAX_FRAME_LEN;
    let cases: Vec<([u8; 12], WireError)> = vec![
        (
            raw_header(*b"HTTP", VERSION, 0x01, 0, 4),
            WireError::BadMagic,
        ),
        // A GHSF (fleet plane) frame aimed at the record plane.
        (
            raw_header(*b"GHSF", VERSION, 0x01, 0, 4),
            WireError::BadMagic,
        ),
        (
            raw_header(MAGIC, 2, 0x01, 0, 4),
            WireError::UnsupportedVersion {
                found: 2,
                supported: VERSION,
            },
        ),
        (
            raw_header(MAGIC, VERSION, 0x7F, 0, 4),
            WireError::UnknownFrameType(0x7F),
        ),
        (
            raw_header(MAGIC, VERSION, 0x01, 0xBEEF, 4),
            WireError::ReservedNonZero,
        ),
        (
            raw_header(MAGIC, VERSION, 0x01, 0, (max as u32) + 1),
            WireError::FrameTooLarge {
                declared: max + 1,
                max,
            },
        ),
    ];
    for (bytes, want) in cases {
        let got = FrameHeader::decode(&bytes, max).unwrap_err();
        assert_eq!(got, want, "header {bytes:02x?}");
    }
}

#[test]
fn corpus_batch_payload_violations_are_typed() {
    let features = [0.5f64; 38];
    let one = raw_record([0, 0, 0, 0], &features);

    // Truncated mid-tenant: declared 10 tenant bytes, 3 present.
    let mut cut = Vec::new();
    cut.extend_from_slice(&7u64.to_le_bytes());
    cut.push(0);
    cut.extend_from_slice(&10u16.to_le_bytes());
    cut.extend_from_slice(b"abc");
    assert!(matches!(
        protocol::decode_request(FrameType::Batch, &cut),
        Err(WireError::Truncated { .. })
    ));

    // Record count disagrees with the remaining bytes.
    let short = raw_batch_payload(7, 0, b"prod", &one, 2);
    assert!(matches!(
        protocol::decode_request(FrameType::Batch, &short),
        Err(WireError::Truncated { needed, got })
            if needed == 2 * RECORD_WIRE_LEN && got == RECORD_WIRE_LEN
    ));

    // Trailing garbage after the declared records.
    let mut trailing = raw_batch_payload(7, 0, b"prod", &one, 1);
    trailing.push(0xAA);
    assert!(matches!(
        protocol::decode_request(FrameType::Batch, &trailing),
        Err(WireError::Truncated { .. }) | Err(WireError::Malformed(_))
    ));

    // Hostile scalar fields, each a Malformed with a stable message.
    let bad_scalars: Vec<(Vec<u8>, &str)> = vec![
        (raw_batch_payload(7, 9, b"prod", &one, 1), "mode"),
        (raw_batch_payload(7, 0, b"", &one, 1), "tenant"),
        (raw_batch_payload(7, 0, &[0xFF, 0xFE], &one, 1), "utf-8"),
        (
            raw_batch_payload(7, 0, b"prod", &raw_record([9, 0, 0, 0], &features), 1),
            "protocol code",
        ),
        (
            raw_batch_payload(7, 0, b"prod", &raw_record([0, 99, 0, 0], &features), 1),
            "service code",
        ),
        (
            raw_batch_payload(7, 0, b"prod", &raw_record([0, 0, 99, 0], &features), 1),
            "flag code",
        ),
        (
            raw_batch_payload(7, 0, b"prod", &raw_record([0, 0, 0, 99], &features), 1),
            "label code",
        ),
        (
            raw_batch_payload(
                7,
                0,
                b"prod",
                &raw_record([0, 0, 0, 0], &{
                    let mut f = features;
                    f[11] = f64::NAN;
                    f
                }),
                1,
            ),
            "NaN feature",
        ),
        (
            raw_batch_payload(
                7,
                0,
                b"prod",
                &raw_record([0, 0, 0, 0], &{
                    let mut f = features;
                    f[0] = f64::INFINITY;
                    f
                }),
                1,
            ),
            "infinite feature",
        ),
    ];
    for (payload, what) in bad_scalars {
        assert!(
            matches!(
                protocol::decode_request(FrameType::Batch, &payload),
                Err(WireError::Malformed(_))
            ),
            "case `{what}` must be Malformed"
        );
    }

    // A ping must carry no payload.
    assert!(matches!(
        protocol::decode_request(FrameType::Ping, &[0x00]),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn corpus_valid_enum_codes_all_decode() {
    // Every in-range categorical code decodes; the first out-of-range
    // code of each vocabulary fails (exact boundary check).
    let features = [0.0f64; 38];
    let bounds = [
        Protocol::ALL.len(),
        Service::ALL.len(),
        Flag::ALL.len(),
        AttackType::ALL.len(),
    ];
    for (slot, bound) in bounds.iter().enumerate() {
        for code in 0..*bound {
            let mut codes = [0u8; 4];
            codes[slot] = code as u8;
            let payload = raw_batch_payload(1, 0, b"t", &raw_record(codes, &features), 1);
            assert!(
                protocol::decode_request(FrameType::Batch, &payload).is_ok(),
                "slot {slot} code {code} must decode"
            );
        }
        let mut codes = [0u8; 4];
        codes[slot] = *bound as u8;
        let payload = raw_batch_payload(1, 0, b"t", &raw_record(codes, &features), 1);
        assert!(
            protocol::decode_request(FrameType::Batch, &payload).is_err(),
            "slot {slot} code {bound} must be rejected"
        );
    }
}

// ---------------------------------------------------------------------------
// live daemon under hostile bytes
// ---------------------------------------------------------------------------

/// Reads whatever the daemon sends until it closes the connection;
/// returns the bytes. Panics if the daemon keeps the connection open
/// past the deadline (a hang is a failure, not a timeout).
fn drain_until_close(stream: &mut TcpStream, deadline: Duration) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let start = Instant::now();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                assert!(
                    start.elapsed() < deadline,
                    "daemon kept a hostile connection open for {deadline:?}"
                );
            }
            // Reset is as clean a close as EOF for a hostile peer.
            Err(_) => return out,
        }
    }
}

/// Parses a reject frame out of a server byte stream, if one is there.
fn parse_reject(bytes: &[u8]) -> Option<RejectCode> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let header =
        FrameHeader::decode(bytes[..HEADER_LEN].try_into().ok()?, DEFAULT_MAX_FRAME_LEN).ok()?;
    let payload = bytes.get(HEADER_LEN..HEADER_LEN + header.payload_len)?;
    match protocol::decode_response(header.frame_type, payload).ok()? {
        Response::Reject(reject) => Some(reject.code),
        _ => None,
    }
}

/// One daemon, many attacks. Each hostile connection must end in a
/// typed reject and/or a clean close, and the daemon must then serve a
/// fresh well-formed client — process alive, engine intact.
#[test]
fn live_daemon_survives_hostile_bytes() {
    let spool = common::temp_spool("torture");
    let (engine, records) = common::small_engine(41);
    common::publish(&spool, "prod", &engine.to_bytes());

    let daemon = Daemon::start(
        DaemonConfig::new(&spool)
            .with_poll_interval(Duration::from_millis(100))
            .with_frame_timeout(Duration::from_millis(400)),
    )
    .unwrap();
    let addr = daemon.ingest_addr();
    let close_deadline = Duration::from_secs(5);

    // --- wrong magic -----------------------------------------------------
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&raw_header(*b"HTTP", VERSION, 0x01, 0, 0))
        .unwrap();
    let reply = drain_until_close(&mut s, close_deadline);
    assert_eq!(parse_reject(&reply), Some(RejectCode::Malformed));

    // --- wrong version ---------------------------------------------------
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&raw_header(MAGIC, 9, 0x01, 0, 0)).unwrap();
    let reply = drain_until_close(&mut s, close_deadline);
    assert_eq!(parse_reject(&reply), Some(RejectCode::Unsupported));

    // --- oversized declared length ---------------------------------------
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&good_header(0x01, u32::MAX)).unwrap();
    let reply = drain_until_close(&mut s, close_deadline);
    assert_eq!(parse_reject(&reply), Some(RejectCode::TooLarge));

    // --- malformed payload (bad enum code) -------------------------------
    let payload = raw_batch_payload(3, 0, b"prod", &raw_record([9, 0, 0, 0], &[0.0; 38]), 1);
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&good_header(0x01, payload.len() as u32))
        .unwrap();
    s.write_all(&payload).unwrap();
    let reply = drain_until_close(&mut s, close_deadline);
    assert_eq!(parse_reject(&reply), Some(RejectCode::Malformed));

    // --- mid-frame disconnect --------------------------------------------
    let s = TcpStream::connect(addr).unwrap();
    (&s).write_all(&good_header(0x01, 1024)).unwrap();
    (&s).write_all(&[0u8; 100]).unwrap();
    s.shutdown(Shutdown::Both).unwrap();
    drop(s);

    // --- slow-loris: header then silence ---------------------------------
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&good_header(0x01, 1024)).unwrap();
    let start = Instant::now();
    let _ = drain_until_close(&mut s, close_deadline);
    assert!(
        start.elapsed() < close_deadline,
        "slow-loris connection was not cut off by the frame timeout"
    );

    // --- slow-loris trickle: one byte every 20 ms, never a silent tick ----
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&good_header(0x01, 1024)).unwrap();
    let start = Instant::now();
    while s.write_all(&[0u8]).is_ok() {
        assert!(
            start.elapsed() < close_deadline,
            "trickling connection outlived the frame timeout"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // --- byte-at-a-time partial writes, then silence ---------------------
    let mut s = TcpStream::connect(addr).unwrap();
    for b in good_header(0x01, 64).iter().take(7) {
        s.write_all(&[*b]).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = drain_until_close(&mut s, close_deadline);

    // --- the daemon still serves well-formed traffic ----------------------
    let mut client = DaemonClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.ping().unwrap();
    let verdicts = client.score("prod", &records[..64]).unwrap();
    assert_eq!(verdicts.len(), 64);

    // Malformed traffic was counted, and nothing leaked a connection.
    let text = common::scrape(daemon.metrics_addr());
    let malformed = common::metric(&text, "ghsomd_malformed_total").unwrap();
    assert!(
        malformed >= 4.0,
        "expected ≥4 malformed frames, saw {malformed}\n{text}"
    );

    daemon.shutdown();
    std::fs::remove_dir_all(&spool).ok();
}

/// A client read timeout that expires is a typed `TimedOut`, the same
/// error the replicator reports for it.
#[test]
fn client_read_timeout_is_typed() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = DaemonClient::connect(listener.local_addr().unwrap()).unwrap();
    let (_silent_peer, _) = listener.accept().unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    assert_eq!(client.ping(), Err(DaemonError::Wire(WireError::TimedOut)));
}

/// An unknown tenant is a typed reject on an otherwise healthy
/// connection — the client may keep using it.
#[test]
fn live_daemon_rejects_unknown_tenant_and_keeps_connection() {
    let spool = common::temp_spool("torture_tenant");
    let (engine, records) = common::small_engine(43);
    common::publish(&spool, "prod", &engine.to_bytes());

    let daemon = Daemon::start(DaemonConfig::new(&spool)).unwrap();
    let mut client = DaemonClient::connect(daemon.ingest_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let err = client.score("ghost", &records[..8]).unwrap_err();
    assert!(
        matches!(
            &err,
            DaemonError::Rejected {
                code: RejectCode::UnknownTenant,
                ..
            }
        ),
        "{err:?}"
    );

    // Same connection, known tenant: still served.
    let verdicts = client.score("prod", &records[..8]).unwrap();
    assert_eq!(verdicts.len(), 8);

    // Observe mode answers with stream verdicts on the same socket too.
    let stream_verdicts = client.observe("prod", &records[..8]).unwrap();
    assert_eq!(stream_verdicts.len(), 8);

    daemon.shutdown();
    std::fs::remove_dir_all(&spool).ok();
}
