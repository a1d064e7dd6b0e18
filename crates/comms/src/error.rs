//! Error type of the fleet control plane: GHSF frame codec, replication
//! and state-query failures.

use std::fmt;

use crate::wire::WireError;

/// Typed refusal codes a fleet node sends in a `Nak` frame.
///
/// Codes are part of the wire protocol (normative table in
/// `docs/FLEET.md`): publishers dispatch on the code, the detail string
/// is for operators. The numeric values are frozen — new codes append.
/// Every `Nak` closes the connection: the replication stream has lost
/// its state machine, so the transfer must restart (and **resumes** from
/// the bytes already durably staged — see [`crate::node::FleetNode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NakCode {
    /// The frame parsed but violated the replication state machine or a
    /// structural invariant (chunk without an offer, bad tenant name,
    /// commit checksum disagreeing with the offer, …).
    Malformed,
    /// The offered bundle (or one chunk) exceeds what the node accepts.
    TooLarge,
    /// A chunk's declared offset does not continue the staged prefix, or
    /// a commit arrived before every offered byte did.
    BadOffset,
    /// The committed bytes hash to something other than the offered
    /// checksum. The staged partial is discarded — it is provably
    /// corrupt — and the bundle never becomes visible to the watcher.
    ChecksumMismatch,
    /// The frame carried an unknown protocol version or frame type.
    Unsupported,
    /// The node failed server-side after accepting the frame (I/O on the
    /// staging file, rename into the spool, …).
    Internal,
}

impl NakCode {
    /// The frozen wire byte of this code.
    pub fn to_wire(self) -> u8 {
        match self {
            NakCode::Malformed => 1,
            NakCode::TooLarge => 2,
            NakCode::BadOffset => 3,
            NakCode::ChecksumMismatch => 4,
            NakCode::Unsupported => 5,
            NakCode::Internal => 6,
        }
    }

    /// Decodes a wire byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for unknown code bytes.
    pub fn from_wire(byte: u8) -> Result<Self, WireError> {
        match byte {
            1 => Ok(NakCode::Malformed),
            2 => Ok(NakCode::TooLarge),
            3 => Ok(NakCode::BadOffset),
            4 => Ok(NakCode::ChecksumMismatch),
            5 => Ok(NakCode::Unsupported),
            6 => Ok(NakCode::Internal),
            _ => Err(WireError::Malformed("unknown nak code byte")),
        }
    }

    /// Stable snake_case name, used as the metrics/log label.
    pub fn name(self) -> &'static str {
        match self {
            NakCode::Malformed => "malformed",
            NakCode::TooLarge => "too_large",
            NakCode::BadOffset => "bad_offset",
            NakCode::ChecksumMismatch => "checksum_mismatch",
            NakCode::Unsupported => "unsupported",
            NakCode::Internal => "internal",
        }
    }
}

impl fmt::Display for NakCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced by the GHSF frame codec, the fleet node and the
/// replicator client.
///
/// Hostile bytes never panic: every malformed input maps to one of the
/// typed variants below, and on the node side a protocol error costs
/// exactly the offending connection — never the process, never a staged
/// transfer belonging to another connection. The enum is
/// `#[non_exhaustive]`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CommsError {
    /// A framing, payload or socket failure (shared with GHSD).
    Wire(WireError),
    /// Publisher side: the node answered with a `Nak` frame.
    Nak {
        /// Typed refusal code.
        code: NakCode,
        /// Operator-facing detail string.
        detail: String,
    },
    /// The peer sent a frame type that does not answer the outstanding
    /// request.
    UnexpectedFrame {
        /// What the protocol state machine expected.
        expected: &'static str,
        /// Frame type byte actually received.
        found: u8,
    },
}

impl fmt::Display for CommsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommsError::Wire(e) => write!(f, "{e}"),
            CommsError::Nak { code, detail } => {
                write!(f, "node refused the request ({code}): {detail}")
            }
            CommsError::UnexpectedFrame { expected, found } => {
                write!(f, "expected {expected}, got frame type {found:#04x}")
            }
        }
    }
}

impl std::error::Error for CommsError {}

impl From<WireError> for CommsError {
    fn from(e: WireError) -> Self {
        CommsError::Wire(e)
    }
}

impl From<std::io::Error> for CommsError {
    fn from(e: std::io::Error) -> Self {
        CommsError::Wire(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implements_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<CommsError>();
    }

    #[test]
    fn nak_codes_roundtrip() {
        for code in [
            NakCode::Malformed,
            NakCode::TooLarge,
            NakCode::BadOffset,
            NakCode::ChecksumMismatch,
            NakCode::Unsupported,
            NakCode::Internal,
        ] {
            assert_eq!(NakCode::from_wire(code.to_wire()).unwrap(), code);
        }
        assert!(NakCode::from_wire(0).is_err());
        assert!(NakCode::from_wire(77).is_err());
    }

    #[test]
    fn display_messages_are_actionable() {
        assert!(CommsError::Nak {
            code: NakCode::ChecksumMismatch,
            detail: "fnv disagrees".into()
        }
        .to_string()
        .contains("checksum_mismatch"));
    }
}
