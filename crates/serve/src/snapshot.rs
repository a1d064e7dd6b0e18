//! Versioned binary snapshots of [`CompiledGhsom`] arenas.
//!
//! See the [crate-level docs](crate) for the wire-format overview and
//! **`docs/SNAPSHOT_FORMAT.md`** at the repo root for the normative
//! section-for-section specification (header, section table, all 18
//! section layouts incl. the optional `STREAM` section, alignment,
//! endianness, structural validation and the version-1/2 compatibility
//! rules). This module implements it:
//!
//! * [`CompiledGhsom::to_bytes`] / [`CompiledGhsom::from_bytes`] — encode
//!   to / decode from an owned byte buffer (decoding copies section
//!   payloads and therefore accepts any alignment).
//! * [`CompiledGhsom::save`] / [`CompiledGhsom::load`] — the same through
//!   the filesystem.
//! * [`SnapshotView`] — a **zero-copy** view over a mapped or borrowed
//!   byte buffer: section payloads are reinterpreted in place (requires an
//!   8-byte-aligned little-endian buffer, which `mmap` always provides),
//!   validated once, then served directly.
//!
//! Every decode path runs the same structural validation as compilation,
//! so truncated, corrupted or adversarial bytes yield typed
//! [`ServeError`]s — never panics, never an out-of-bounds walk.

use std::collections::BTreeMap;
use std::path::Path;

use ghsom_core::{GhsomError, Projection, Scorer};
use mathkit::bytes;
use mathkit::{Matrix, MatrixView};

use crate::compiled::{ArenaRef, CompiledGhsom};
use crate::ServeError;

/// The 8-byte magic every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"GHSOMSNP";

/// Format version of **model-only** snapshots
/// ([`CompiledGhsom::to_bytes`]): the 15 arena sections, nothing else.
///
/// Policy: the version is bumped on **any** incompatible layout change —
/// new required sections, changed element widths, changed section
/// semantics. Readers reject snapshots whose version they do not know
/// ([`ServeError::UnsupportedVersion`]) instead of guessing. Adding a new
/// *optional* section id does not bump the version: unknown ids are
/// ignored by older readers, and `VERSION` stays the floor both sides
/// agree on.
pub const VERSION: u32 = 1;

/// Format version of **engine bundles** (`Engine::to_bytes`): the same 15
/// arena sections plus the required `PIPELINE` and `DETECTOR` sections
/// (see [`crate::engine`]). Bundles are version-gated upward — a version-1
/// reader rejects them with [`ServeError::UnsupportedVersion`] instead of
/// silently serving a model without its input transform — while
/// version-[`VERSION`] model-only snapshots still load everywhere
/// (`CompiledGhsom::from_bytes` accepts both versions; `Engine::from_bytes`
/// reports [`ServeError::NotABundle`] for them).
pub const BUNDLE_VERSION: u32 = 2;

/// Fixed preamble size: magic (8) + version (4) + section count (4) +
/// total length (8) + checksum (8).
const HEADER_LEN: usize = 32;

/// Bytes per section-table entry: id (4) + reserved (4) + offset (8) +
/// length (8).
const SECTION_ENTRY_LEN: usize = 24;

// Section ids. Gaps are reserved for future optional sections.
const SEC_META: u32 = 1;
const SEC_MEAN: u32 = 2;
const SEC_ROWS: u32 = 3;
const SEC_COLS: u32 = 4;
const SEC_DEPTH: u32 = 5;
const SEC_PARENT_NODE: u32 = 6;
const SEC_PARENT_UNIT: u32 = 7;
const SEC_UNIT_OFF: u32 = 8;
const SEC_WT_OFF: u32 = 9;
const SEC_CHILDREN: u32 = 10;
const SEC_UNIT_HITS: u32 = 11;
const SEC_UNIT_MQE: u32 = 12;
const SEC_WN_HALF: u32 = 13;
const SEC_WT: u32 = 14;
const SEC_PERM: u32 = 15;
/// Bundle section: the fitted feature pipeline as UTF-8 JSON
/// (required from [`BUNDLE_VERSION`] on; see [`crate::engine`]).
pub(crate) const SEC_PIPELINE: u32 = 16;
/// Bundle section: the fitted detector + stream configuration as UTF-8
/// JSON (required from [`BUNDLE_VERSION`] on; see [`crate::engine`]).
pub(crate) const SEC_DETECTOR: u32 = 17;
/// **Optional** bundle section: the live adaptive streaming baseline as
/// UTF-8 JSON (`detect::prelude::StreamState`), written by
/// `Engine::to_bytes_with_stream` so a daemon restart resumes with a
/// warm `mean + k·σ` threshold. Absent section ⇒ cold start; being
/// optional, it does **not** bump [`BUNDLE_VERSION`] (see the version
/// policy on [`VERSION`]).
pub(crate) const SEC_STREAM: u32 = 18;

/// Every section a snapshot of any supported version must carry (the
/// arena tables). Bundles additionally require [`SEC_PIPELINE`] and
/// [`SEC_DETECTOR`].
const REQUIRED: [u32; 15] = [
    SEC_META,
    SEC_MEAN,
    SEC_ROWS,
    SEC_COLS,
    SEC_DEPTH,
    SEC_PARENT_NODE,
    SEC_PARENT_UNIT,
    SEC_UNIT_OFF,
    SEC_WT_OFF,
    SEC_CHILDREN,
    SEC_UNIT_HITS,
    SEC_UNIT_MQE,
    SEC_WN_HALF,
    SEC_WT,
    SEC_PERM,
];

/// `META` payload length: dim (4) + node count (4) + total units (4) +
/// reserved (4) + mqe0 (8).
const META_LEN: usize = 24;

// --- encoding ---------------------------------------------------------------

/// Appends one section, 8-byte aligning its payload, and records its table
/// entry.
fn push_section(buf: &mut Vec<u8>, table: &mut Vec<(u32, usize, usize)>, id: u32, payload: &[u8]) {
    let aligned = bytes::align_up(buf.len(), 8);
    buf.resize(aligned, 0);
    table.push((id, aligned, payload.len()));
    buf.extend_from_slice(payload);
}

/// Lays out a header + section table + payloads buffer and seals it with
/// the total length and checksum — the shared tail of every encoder
/// (model-only snapshots and engine bundles).
// LINT-ALLOW(cast): encode-side widenings only — usize offsets/lengths into u64 wire fields are lossless on every supported target, and the section count is bounded by the fixed section list
pub(crate) fn seal(version: u32, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    bytes::put_u32(&mut buf, version);
    bytes::put_u32(&mut buf, sections.len() as u32);
    bytes::put_u64(&mut buf, 0); // total length, patched below
    bytes::put_u64(&mut buf, 0); // checksum, patched below
    debug_assert_eq!(buf.len(), HEADER_LEN);
    // Reserve the section table, then lay out the payloads.
    buf.resize(HEADER_LEN + sections.len() * SECTION_ENTRY_LEN, 0);
    let mut table = Vec::with_capacity(sections.len());
    for (id, payload) in sections {
        push_section(&mut buf, &mut table, *id, payload);
    }
    // Patch the table…
    for (i, (id, offset, len)) in table.into_iter().enumerate() {
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        buf[at..at + 4].copy_from_slice(&id.to_le_bytes());
        buf[at + 4..at + 8].copy_from_slice(&0u32.to_le_bytes());
        buf[at + 8..at + 16].copy_from_slice(&(offset as u64).to_le_bytes());
        buf[at + 16..at + 24].copy_from_slice(&(len as u64).to_le_bytes());
    }
    // …then the length and the checksum over everything after it.
    let total = buf.len() as u64;
    buf[16..24].copy_from_slice(&total.to_le_bytes());
    let checksum = bytes::fnv1a64(&buf[HEADER_LEN..]);
    buf[24..32].copy_from_slice(&checksum.to_le_bytes());
    buf
}

impl CompiledGhsom {
    /// The arena's 15 sections in canonical id order — the payload of a
    /// model-only snapshot, and the prefix an engine bundle extends.
    // LINT-ALLOW(cast): dim/map_count/total_units are u32 wire fields and already u32-bounded — the arena addresses nodes and units through u32 tables by construction
    pub(crate) fn arena_sections(&self) -> Vec<(u32, Vec<u8>)> {
        let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(REQUIRED.len());
        let mut meta = Vec::with_capacity(META_LEN);
        bytes::put_u32(&mut meta, self.dim as u32);
        bytes::put_u32(&mut meta, self.map_count() as u32);
        bytes::put_u32(&mut meta, self.total_units() as u32);
        bytes::put_u32(&mut meta, 0); // reserved
        bytes::put_f64(&mut meta, self.mqe0);
        sections.push((SEC_META, meta));
        let f64s = |vs: &[f64]| {
            let mut b = Vec::with_capacity(vs.len() * 8);
            bytes::put_f64s(&mut b, vs);
            b
        };
        let u32s = |vs: &[u32]| {
            let mut b = Vec::with_capacity(vs.len() * 4);
            bytes::put_u32s(&mut b, vs);
            b
        };
        let u64s = |vs: &[u64]| {
            let mut b = Vec::with_capacity(vs.len() * 8);
            bytes::put_u64s(&mut b, vs);
            b
        };
        sections.push((SEC_MEAN, f64s(&self.mean)));
        sections.push((SEC_ROWS, u32s(&self.rows)));
        sections.push((SEC_COLS, u32s(&self.cols)));
        sections.push((SEC_DEPTH, u32s(&self.depth)));
        sections.push((SEC_PARENT_NODE, u32s(&self.parent_node)));
        sections.push((SEC_PARENT_UNIT, u32s(&self.parent_unit)));
        sections.push((SEC_UNIT_OFF, u64s(&self.unit_off)));
        sections.push((SEC_WT_OFF, u64s(&self.wt_off)));
        sections.push((SEC_CHILDREN, u32s(&self.children)));
        sections.push((SEC_UNIT_HITS, u64s(&self.unit_hits)));
        sections.push((SEC_UNIT_MQE, f64s(&self.unit_mqe)));
        sections.push((SEC_WN_HALF, f64s(&self.wn_half)));
        sections.push((SEC_WT, f64s(&self.wt)));
        sections.push((SEC_PERM, u32s(&self.perm)));
        sections
    }

    /// Serializes the arena into the version-[`VERSION`] model-only
    /// snapshot format.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(VERSION, &self.arena_sections())
    }

    /// Decodes a snapshot into an owned arena. Accepts any buffer
    /// alignment (section payloads are copied); for in-place serving of
    /// mapped files use [`SnapshotView`]. Both model-only snapshots and
    /// engine bundles are accepted — the extra bundle sections are simply
    /// ignored here.
    ///
    /// # Errors
    ///
    /// Typed [`ServeError`]s for bad magic, unknown versions, truncation,
    /// checksum mismatches and structural violations.
    pub fn from_bytes(raw: &[u8]) -> Result<Self, ServeError> {
        let sections = parse_preamble(raw)?;
        Self::decode_arena(raw, &sections)
    }

    /// Decodes the 15 arena sections out of an already-parsed snapshot —
    /// shared by [`CompiledGhsom::from_bytes`] and the bundle decoder in
    /// [`crate::engine`].
    pub(crate) fn decode_arena(raw: &[u8], sections: &Sections) -> Result<Self, ServeError> {
        let meta = Meta::decode(sections.payload(raw, SEC_META)?)?;
        let get_u32s = |id: u32| -> Result<Vec<u32>, ServeError> {
            bytes::get_u32s(sections.payload(raw, id)?)
                .ok_or(ServeError::Malformed("ragged u32 section"))
        };
        let get_u64s = |id: u32| -> Result<Vec<u64>, ServeError> {
            bytes::get_u64s(sections.payload(raw, id)?)
                .ok_or(ServeError::Malformed("ragged u64 section"))
        };
        let get_f64s = |id: u32| -> Result<Vec<f64>, ServeError> {
            bytes::get_f64s(sections.payload(raw, id)?)
                .ok_or(ServeError::Malformed("ragged f64 section"))
        };
        let out = CompiledGhsom {
            dim: meta.dim,
            mqe0: meta.mqe0,
            mean: get_f64s(SEC_MEAN)?,
            rows: get_u32s(SEC_ROWS)?,
            cols: get_u32s(SEC_COLS)?,
            depth: get_u32s(SEC_DEPTH)?,
            parent_node: get_u32s(SEC_PARENT_NODE)?,
            parent_unit: get_u32s(SEC_PARENT_UNIT)?,
            unit_off: get_u64s(SEC_UNIT_OFF)?,
            wt_off: get_u64s(SEC_WT_OFF)?,
            children: get_u32s(SEC_CHILDREN)?,
            unit_hits: get_u64s(SEC_UNIT_HITS)?,
            unit_mqe: get_f64s(SEC_UNIT_MQE)?,
            wn_half: get_f64s(SEC_WN_HALF)?,
            perm: get_u32s(SEC_PERM)?,
            wt: get_f64s(SEC_WT)?,
            row_cache: Default::default(),
        };
        meta.check_against(&out.arena())?;
        out.arena().validate()?;
        Ok(out)
    }

    /// Writes the snapshot to a file.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem failures.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), ServeError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a snapshot file written by [`CompiledGhsom::save`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem failures, decoding errors as in
    /// [`CompiledGhsom::from_bytes`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, ServeError> {
        let raw = std::fs::read(path)?;
        Self::from_bytes(&raw)
    }
}

/// Decoded `META` section.
struct Meta {
    dim: usize,
    nodes: usize,
    total_units: usize,
    mqe0: f64,
}

impl Meta {
    fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        if payload.len() != META_LEN {
            return Err(ServeError::Malformed("META section has the wrong length"));
        }
        let count = |off| {
            bytes::get_u32_usize(payload, off)
                .ok_or(ServeError::Malformed("META section read out of range"))
        };
        Ok(Meta {
            dim: count(0)?,
            nodes: count(4)?,
            total_units: count(8)?,
            mqe0: bytes::get_f64(payload, 16)
                .ok_or(ServeError::Malformed("META section read out of range"))?,
        })
    }

    /// The header counts must agree with the decoded tables (the tables
    /// are the source of truth; the counts exist for cheap inspection).
    fn check_against(&self, arena: &ArenaRef<'_>) -> Result<(), ServeError> {
        if self.nodes != arena.map_count()
            || self.total_units != arena.total_units()
            || self.dim != arena.dim
        {
            return Err(ServeError::Malformed(
                "META counts disagree with the section tables",
            ));
        }
        Ok(())
    }
}

/// Parsed and bounds-checked section table.
#[derive(Debug, Clone)]
pub(crate) struct Sections {
    /// Format version from the header ([`VERSION`] or [`BUNDLE_VERSION`]).
    pub(crate) version: u32,
    /// id → `(offset, len)`, both in bytes, validated in range.
    map: BTreeMap<u32, (usize, usize)>,
}

impl Sections {
    pub(crate) fn payload<'a>(&self, raw: &'a [u8], id: u32) -> Result<&'a [u8], ServeError> {
        self.payload_opt(raw, id)
            .ok_or(ServeError::Malformed("missing required section"))
    }

    /// The payload of an **optional** section — `None` when the section
    /// is absent (not an error; optional sections are how the format
    /// grows without version bumps).
    pub(crate) fn payload_opt<'a>(&self, raw: &'a [u8], id: u32) -> Option<&'a [u8]> {
        self.map
            .get(&id)
            .map(|&(offset, len)| &raw[offset..offset + len])
    }
}

/// Validates magic, version, length, checksum and the section table.
pub(crate) fn parse_preamble(raw: &[u8]) -> Result<Sections, ServeError> {
    if raw.len() < HEADER_LEN {
        return Err(ServeError::Truncated {
            needed: HEADER_LEN,
            got: raw.len(),
        });
    }
    if raw[..8] != MAGIC {
        return Err(ServeError::BadMagic);
    }
    let version =
        bytes::get_u32(raw, 8).ok_or(ServeError::Malformed("header read out of range"))?;
    if version != VERSION && version != BUNDLE_VERSION {
        return Err(ServeError::UnsupportedVersion {
            found: version,
            supported: BUNDLE_VERSION,
        });
    }
    let section_count =
        bytes::get_u32_usize(raw, 12).ok_or(ServeError::Malformed("header read out of range"))?;
    let total =
        bytes::get_u64_usize(raw, 16).ok_or(ServeError::Malformed("absurd total length"))?;
    if raw.len() < total {
        return Err(ServeError::Truncated {
            needed: total,
            got: raw.len(),
        });
    }
    // Trailing bytes beyond the declared length are tolerated (a mapped
    // file is padded to page size); everything below uses `raw[..total]`.
    let raw = &raw[..total];
    let expected =
        bytes::get_u64(raw, 24).ok_or(ServeError::Malformed("header read out of range"))?;
    let found = bytes::fnv1a64(&raw[HEADER_LEN..]);
    if expected != found {
        return Err(ServeError::ChecksumMismatch { expected, found });
    }
    let table_end = HEADER_LEN
        .checked_add(
            section_count
                .checked_mul(SECTION_ENTRY_LEN)
                .ok_or(ServeError::Malformed("absurd section count"))?,
        )
        .ok_or(ServeError::Malformed("absurd section count"))?;
    if table_end > total {
        return Err(ServeError::Truncated {
            needed: table_end,
            got: total,
        });
    }
    let mut map = BTreeMap::new();
    for i in 0..section_count {
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let id = bytes::get_u32(raw, at).ok_or(ServeError::Malformed("table read out of range"))?;
        let offset = bytes::get_u64_usize(raw, at + 8)
            .ok_or(ServeError::Malformed("section offset overflow"))?;
        let len = bytes::get_u64_usize(raw, at + 16)
            .ok_or(ServeError::Malformed("section length overflow"))?;
        let end = offset
            .checked_add(len)
            .ok_or(ServeError::Malformed("section range overflow"))?;
        if offset < table_end || end > total {
            return Err(ServeError::Malformed("section range out of bounds"));
        }
        if offset % 8 != 0 {
            return Err(ServeError::Malformed(
                "section payload is not 8-byte aligned",
            ));
        }
        if map.insert(id, (offset, len)).is_some() {
            return Err(ServeError::Malformed("duplicate section id"));
        }
    }
    for id in REQUIRED {
        if !map.contains_key(&id) {
            return Err(ServeError::Malformed("missing required section"));
        }
    }
    if version >= BUNDLE_VERSION {
        // A bundle without its pipeline/detector sections is malformed —
        // the version gate is exactly the promise that they are present.
        for id in [SEC_PIPELINE, SEC_DETECTOR] {
            if !map.contains_key(&id) {
                return Err(ServeError::Malformed("bundle is missing a bundle section"));
            }
        }
    }
    Ok(Sections { version, map })
}

// --- zero-copy view ---------------------------------------------------------

/// Safe zero-copy reinterpretation of aligned little-endian section
/// payloads.
///
/// One of the two unsafe islands in the workspace (the other is
/// [`crate::mmap`]); it is confined to [`slice_cast`], whose
/// preconditions (element types with no invalid bit patterns, checked
/// length multiple, checked alignment) make the `from_raw_parts` call
/// sound.
#[allow(unsafe_code)]
mod cast {
    use crate::ServeError;

    /// Marker for element types any bit pattern is valid for. Sealed to
    /// this module so [`slice_cast`] cannot be instantiated with padding-
    /// or niche-carrying types.
    pub trait Pod: Copy + private::Sealed {}
    impl Pod for u32 {}
    impl Pod for u64 {}
    impl Pod for f64 {}
    mod private {
        pub trait Sealed {}
        impl Sealed for u32 {}
        impl Sealed for u64 {}
        impl Sealed for f64 {}
    }

    /// Reinterprets `bytes` as a slice of `T` without copying.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] when the length is not a whole number of
    /// elements; [`ServeError::Misaligned`] when the payload is not
    /// aligned for `T` (decode with `CompiledGhsom::from_bytes` instead).
    pub fn slice_cast<T: Pod>(bytes: &[u8]) -> Result<&[T], ServeError> {
        let size = std::mem::size_of::<T>();
        if !bytes.len().is_multiple_of(size) {
            return Err(ServeError::Malformed(
                "section length is not a whole number of elements",
            ));
        }
        if bytes.as_ptr().align_offset(std::mem::align_of::<T>()) != 0 {
            return Err(ServeError::Misaligned);
        }
        // SAFETY: `T` is a sealed Pod type (u32/u64/f64) — every bit
        // pattern is a valid value, there is no padding and no drop glue.
        // The pointer is non-null (derived from a live slice), the length
        // is exactly `bytes.len() / size_of::<T>()` elements, and the
        // alignment was checked above. The returned slice borrows `bytes`,
        // so the memory outlives it.
        Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / size) })
    }
}

/// A zero-copy snapshot view: serves projections straight out of a byte
/// buffer (typically an `mmap`-ed model file) without materializing the
/// arena.
///
/// Construction runs the full header, checksum and structural validation
/// once; after that, [`SnapshotView::project_batch`] and
/// [`SnapshotView::score_all`] are exactly the [`CompiledGhsom`] walks on
/// borrowed tables. Requires an 8-byte-aligned buffer on a little-endian
/// target; [`CompiledGhsom::from_bytes`] is the portable (copying)
/// fallback.
///
/// The view holds no caches: `Scorer::map_weights`/`unit_prototype`
/// gather from the tiled arena on every call. Detectors that consult
/// prototypes per record (e.g. the nearest-labelled dead-unit fallback)
/// should [`SnapshotView::to_owned`] the view once and serve from the
/// resulting [`CompiledGhsom`], which caches the row-major gather.
///
/// # Validation happens exactly once
///
/// [`SnapshotView::parse`] runs the header parse, the FNV-1a checksum
/// over the whole payload, the section-table bounds checks and the
/// structural arena validation **once**, then retains the validated
/// section table alongside the borrowed bytes. Every later access —
/// projections, [`SnapshotView::to_owned`], and the bundle decode
/// through [`crate::Engine::from_view`] — reuses that work and performs
/// **no** re-validation. A hot-reload daemon that validates an artifact
/// and then builds an engine from it therefore hashes the file once,
/// not once per consumer. (The invariant this rests on: the view
/// borrows the buffer immutably for its whole lifetime, so the bytes
/// the checksum covered cannot change underneath it.)
#[derive(Debug, Clone)]
pub struct SnapshotView<'a> {
    raw: &'a [u8],
    sections: Sections,
    arena: ArenaRef<'a>,
}

impl<'a> SnapshotView<'a> {
    /// Parses and validates a snapshot without copying its payloads.
    ///
    /// # Errors
    ///
    /// Every decoding error of [`CompiledGhsom::from_bytes`], plus
    /// [`ServeError::Misaligned`] when `raw` is not 8-byte aligned and
    /// [`ServeError::Malformed`] on big-endian targets (the wire format is
    /// little-endian; zero-copy would misread there).
    pub fn parse(raw: &'a [u8]) -> Result<Self, ServeError> {
        if cfg!(target_endian = "big") {
            return Err(ServeError::Malformed(
                "zero-copy views require a little-endian target",
            ));
        }
        if raw.as_ptr().align_offset(8) != 0 {
            return Err(ServeError::Misaligned);
        }
        let sections = parse_preamble(raw)?;
        let meta = Meta::decode(sections.payload(raw, SEC_META)?)?;
        let arena = ArenaRef {
            dim: meta.dim,
            mqe0: meta.mqe0,
            mean: cast::slice_cast(sections.payload(raw, SEC_MEAN)?)?,
            rows: cast::slice_cast(sections.payload(raw, SEC_ROWS)?)?,
            cols: cast::slice_cast(sections.payload(raw, SEC_COLS)?)?,
            depth: cast::slice_cast(sections.payload(raw, SEC_DEPTH)?)?,
            parent_node: cast::slice_cast(sections.payload(raw, SEC_PARENT_NODE)?)?,
            parent_unit: cast::slice_cast(sections.payload(raw, SEC_PARENT_UNIT)?)?,
            unit_off: cast::slice_cast(sections.payload(raw, SEC_UNIT_OFF)?)?,
            wt_off: cast::slice_cast(sections.payload(raw, SEC_WT_OFF)?)?,
            children: cast::slice_cast(sections.payload(raw, SEC_CHILDREN)?)?,
            unit_hits: cast::slice_cast(sections.payload(raw, SEC_UNIT_HITS)?)?,
            unit_mqe: cast::slice_cast(sections.payload(raw, SEC_UNIT_MQE)?)?,
            wn_half: cast::slice_cast(sections.payload(raw, SEC_WN_HALF)?)?,
            perm: cast::slice_cast(sections.payload(raw, SEC_PERM)?)?,
            wt: cast::slice_cast(sections.payload(raw, SEC_WT)?)?,
        };
        meta.check_against(&arena)?;
        arena.validate()?;
        Ok(SnapshotView {
            raw,
            sections,
            arena,
        })
    }

    /// Format version from the header ([`VERSION`] model-only or
    /// [`BUNDLE_VERSION`] engine bundle).
    pub fn version(&self) -> u32 {
        self.sections.version
    }

    /// Whether the snapshot is an engine bundle (carries the fitted
    /// pipeline and detector sections, so [`crate::Engine::from_view`]
    /// can decode it).
    pub fn is_bundle(&self) -> bool {
        self.sections.version >= BUNDLE_VERSION
    }

    /// The already-validated section table and the raw bytes it indexes —
    /// how the bundle decoder ([`crate::Engine::from_view`]) reuses this
    /// view's one-time validation instead of re-hashing the buffer.
    pub(crate) fn parts(&self) -> (&'a [u8], &Sections) {
        (self.raw, &self.sections)
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.arena.dim
    }

    /// Number of maps in the hierarchy.
    pub fn map_count(&self) -> usize {
        self.arena.map_count()
    }

    /// Total units across all maps.
    pub fn total_units(&self) -> usize {
        self.arena.total_units()
    }

    /// The layer-0 mean quantization error mqe₀.
    pub fn mqe0(&self) -> f64 {
        self.arena.mqe0
    }

    /// Projects one sample root→leaf.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on a sample of the wrong width.
    pub fn project(&self, x: &[f64]) -> Result<Projection, ServeError> {
        self.arena.project_one(x)
    }

    /// Projects every row of a matrix root→leaf.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on samples of the wrong width.
    pub fn project_batch(&self, data: &Matrix) -> Result<Vec<Projection>, ServeError> {
        self.arena.project_batch(data.view())
    }

    /// [`SnapshotView::project_batch`] over a borrowed matrix view — the
    /// fully zero-copy serving pipe: mapped snapshot bytes on one side, a
    /// reused feature buffer on the other.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on samples of the wrong width.
    pub fn project_batch_view(&self, data: MatrixView<'_>) -> Result<Vec<Projection>, ServeError> {
        self.arena.project_batch(data)
    }

    /// Leaf quantization error of every row.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on samples of the wrong width.
    pub fn score_all(&self, data: &Matrix) -> Result<Vec<f64>, ServeError> {
        self.arena.score_all(data.view())
    }

    /// [`SnapshotView::score_all`] over a borrowed matrix view.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on samples of the wrong width.
    pub fn score_all_view(&self, data: MatrixView<'_>) -> Result<Vec<f64>, ServeError> {
        self.arena.score_all(data)
    }

    /// Materializes the view into an owned [`CompiledGhsom`].
    pub fn to_owned(&self) -> CompiledGhsom {
        CompiledGhsom {
            dim: self.arena.dim,
            mqe0: self.arena.mqe0,
            mean: self.arena.mean.to_vec(),
            rows: self.arena.rows.to_vec(),
            cols: self.arena.cols.to_vec(),
            depth: self.arena.depth.to_vec(),
            parent_node: self.arena.parent_node.to_vec(),
            parent_unit: self.arena.parent_unit.to_vec(),
            unit_off: self.arena.unit_off.to_vec(),
            wt_off: self.arena.wt_off.to_vec(),
            children: self.arena.children.to_vec(),
            unit_hits: self.arena.unit_hits.to_vec(),
            unit_mqe: self.arena.unit_mqe.to_vec(),
            wn_half: self.arena.wn_half.to_vec(),
            perm: self.arena.perm.to_vec(),
            wt: self.arena.wt.to_vec(),
            row_cache: Default::default(),
        }
    }
}

impl Scorer for SnapshotView<'_> {
    fn dim(&self) -> usize {
        self.arena.dim
    }

    fn map_count(&self) -> usize {
        self.arena.map_count()
    }

    fn map_units(&self, node: usize) -> usize {
        self.arena.units(node)
    }

    fn child_of(&self, node: usize, unit: usize) -> Option<usize> {
        self.arena.child_of(node, unit)
    }

    fn unit_prototype(&self, node: usize, unit: usize) -> std::borrow::Cow<'_, [f64]> {
        std::borrow::Cow::Owned(self.arena.prototype(node, unit))
    }

    fn map_weights(&self, node: usize) -> std::borrow::Cow<'_, [f64]> {
        std::borrow::Cow::Owned(self.arena.map_weights(node))
    }

    fn project(&self, x: &[f64]) -> Result<Projection, GhsomError> {
        Ok(self.arena.project_one(x)?)
    }

    fn project_batch(&self, data: &Matrix) -> Result<Vec<Projection>, GhsomError> {
        Ok(self.arena.project_batch(data.view())?)
    }

    fn project_batch_view(
        &self,
        data: mathkit::MatrixView<'_>,
    ) -> Result<Vec<Projection>, GhsomError> {
        Ok(self.arena.project_batch(data)?)
    }

    fn score_matrix(&self, data: &Matrix) -> Result<Vec<f64>, GhsomError> {
        Ok(self.arena.score_all(data.view())?)
    }

    fn score_matrix_view(&self, data: mathkit::MatrixView<'_>) -> Result<Vec<f64>, GhsomError> {
        Ok(self.arena.score_all(data)?)
    }
}

/// Shared fixtures for this crate's test modules.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::compiled::Compile;
    use ghsom_core::{GhsomConfig, GhsomModel};

    pub(crate) fn model_fixture() -> GhsomModel {
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let c = (i % 3) as f64 * 5.0;
                vec![c + (i % 11) as f64 * 0.02, c + (i % 7) as f64 * 0.03]
            })
            .collect();
        GhsomModel::train(
            &GhsomConfig::default()
                .with_tau1(0.4)
                .with_tau2(0.08)
                .with_seed(17),
            &Matrix::from_rows(rows).unwrap(),
        )
        .unwrap()
    }

    pub(crate) fn compiled_fixture() -> CompiledGhsom {
        model_fixture().compile().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled() -> CompiledGhsom {
        tests_support::compiled_fixture()
    }

    /// Copies the snapshot to an 8-byte-aligned position inside a padded
    /// buffer, so view tests don't depend on allocator luck. Returns the
    /// buffer and the aligned start offset.
    fn aligned_copy(raw: &[u8]) -> (Vec<u8>, usize) {
        let mut buf = vec![0u8; raw.len() + 8];
        let off = buf.as_ptr().align_offset(8);
        buf[off..off + raw.len()].copy_from_slice(raw);
        (buf, off)
    }

    #[test]
    fn roundtrip_is_exact() {
        let c = compiled();
        let raw = c.to_bytes();
        let back = CompiledGhsom::from_bytes(&raw).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn roundtrip_through_the_filesystem() {
        let c = compiled();
        let path = std::env::temp_dir().join("ghsom_serve_snapshot_test.ghsom");
        c.save(&path).unwrap();
        let back = CompiledGhsom::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, c);
        // And the reloaded arena scores identically.
        let x = vec![0.5; c.dim()];
        assert_eq!(
            c.project(&x).unwrap().leaf_qe().to_bits(),
            back.project(&x).unwrap().leaf_qe().to_bits()
        );
    }

    #[test]
    fn zero_copy_view_serves_identically() {
        let c = compiled();
        let (buf, off) = aligned_copy(&c.to_bytes());
        let raw = &buf[off..off + c.to_bytes().len()];
        let view = SnapshotView::parse(raw).unwrap();
        assert_eq!(view.dim(), c.dim());
        assert_eq!(view.map_count(), c.map_count());
        assert_eq!(view.total_units(), c.total_units());
        assert_eq!(view.mqe0(), c.mqe0());
        let data =
            Matrix::from_rows(vec![vec![0.1, 0.2], vec![5.0, 5.1], vec![10.0, 9.9]]).unwrap();
        let a = c.score_all(&data).unwrap();
        let b = view.score_all(&data).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(view.to_owned(), c);
    }

    #[test]
    fn misaligned_view_is_a_typed_error() {
        let c = compiled();
        let snapshot = c.to_bytes();
        // Place the same content one byte past an aligned boundary.
        let (mut buf, off) = aligned_copy(&snapshot);
        buf.push(0);
        buf.copy_within(off..off + snapshot.len(), off + 1);
        let shifted = &buf[off + 1..off + 1 + snapshot.len()];
        if cfg!(target_endian = "little") {
            assert_eq!(
                SnapshotView::parse(shifted).unwrap_err(),
                ServeError::Misaligned
            );
        }
        // The copying decoder does not care about alignment.
        assert!(CompiledGhsom::from_bytes(shifted).is_ok());
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let raw = compiled().to_bytes();
        // Exhaustively truncate the header, then sample the payload.
        for cut in (0..HEADER_LEN).chain((HEADER_LEN..raw.len()).step_by(97)) {
            let err = CompiledGhsom::from_bytes(&raw[..cut]).unwrap_err();
            assert!(
                matches!(err, ServeError::Truncated { .. }),
                "cut {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let raw = compiled().to_bytes();
        // Flip one payload byte: checksum catches it.
        let mut bad = raw.clone();
        let at = raw.len() - 9;
        bad[at] ^= 0x40;
        assert!(matches!(
            CompiledGhsom::from_bytes(&bad).unwrap_err(),
            ServeError::ChecksumMismatch { .. }
        ));
        // Bad magic.
        let mut bad = raw.clone();
        bad[0] = b'X';
        assert_eq!(
            CompiledGhsom::from_bytes(&bad).unwrap_err(),
            ServeError::BadMagic
        );
        // Unknown version.
        let mut bad = raw.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            CompiledGhsom::from_bytes(&bad).unwrap_err(),
            ServeError::UnsupportedVersion {
                found: 99,
                supported: BUNDLE_VERSION
            }
        );
    }

    #[test]
    fn structural_corruption_cannot_reach_the_walker() {
        let c = compiled();
        // Introduce a back-edge (cycle) in the children table and re-seal
        // the snapshot with a fresh checksum: the structural validator must
        // reject it even though the checksum passes.
        let mut evil = c.clone();
        if evil.map_count() > 1 {
            // Point a child of the *last* map back at the root.
            let last = evil.map_count() - 1;
            let at = evil.unit_off[last] as usize;
            evil.children[at] = 0;
            let raw = evil.to_bytes();
            assert!(matches!(
                CompiledGhsom::from_bytes(&raw).unwrap_err(),
                ServeError::Malformed(_)
            ));
        }
        // Shape lie: rows×cols no longer matches the unit count.
        let mut evil = c.clone();
        evil.rows[0] += 1;
        let raw = evil.to_bytes();
        assert!(matches!(
            CompiledGhsom::from_bytes(&raw).unwrap_err(),
            ServeError::Malformed(_)
        ));
    }

    #[test]
    fn version_policy_is_documented_in_the_header() {
        let raw = compiled().to_bytes();
        assert_eq!(&raw[..8], &MAGIC);
        assert_eq!(bytes::get_u32(&raw, 8), Some(VERSION));
        // Declared length matches the buffer exactly.
        assert_eq!(bytes::get_u64(&raw, 16), Some(raw.len() as u64));
    }
}
