//! # rmsa-store — the versioned binary snapshot container
//!
//! A dependency-free container format for persisting the expensive state of
//! the RMSA stack — CSR graphs, propagation-model parameters, RR-set arenas
//! and their coverage indexes — so that a process restart costs a file read
//! instead of minutes of regeneration.
//!
//! This crate knows nothing about those payloads. It provides the *file
//! format* — magic, version, a sequence of typed sections with per-section
//! checksums — plus the typed little-endian [`SectionBuf`]/[`Cursor`]
//! primitives the payload crates (`rmsa-graph`, `rmsa-diffusion`,
//! `rmsa-service`) build their codecs on. Keeping the container at the
//! bottom of the dependency graph is what lets `RrCache::save_to` /
//! `RrCache::load_from` live on the cache type itself.
//!
//! ## Layout (v2, written by this build)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "RMSASNAP"
//! 8       4     container version (u32 LE, currently 2)
//! 12      4     section count (u32 LE)
//! 16      ...   sections, back to back:
//!                 id        u32 LE   (see [`section`])
//!                 reserved  u32 LE   zero (keeps the 24-byte header 8-aligned)
//!                 len       u64 LE   payload length in bytes
//!                 checksum  u64 LE   FNV-1a 64 over the payload (padding excluded)
//!                 payload   [len]
//!                 padding   [(8 - len % 8) % 8] zero bytes
//! ```
//!
//! Because the file header is 16 bytes, the section header 24, and every
//! payload zero-padded to the next 8-byte boundary, **every payload starts
//! on an 8-byte file offset**. Inside a payload, the slice writers
//! ([`SectionBuf::put_u32_slice`] and friends) likewise pad to an 8-byte
//! boundary before their length prefix, so packed column data always sits
//! 8-aligned relative to the file. That alignment is what makes the
//! zero-copy path possible: on 64-bit little-endian targets a
//! [`MappedSnapshot`] hands out [`Column`]s that *borrow* the `mmap`'d
//! file pages instead of decoding them (see [`mapping`]).
//!
//! The legacy v1 layout (20-byte section headers — no reserved word — and
//! no padding) is still parsed by every reader; v1 files simply always
//! decode into owned columns. Writers always emit v2.
//!
//! All integers are little-endian. Readers *skip* sections whose id they do
//! not recognise, which is what makes the format forward-compatible: a
//! newer writer may append sections an older reader ignores. Every
//! structural defect is a typed [`StoreError`] — the loader never panics on
//! untrusted bytes.

pub mod mapping;

pub use mapping::{Column, MappedSnapshot, SnapshotMapping, VerifyMode, ZERO_COPY_TARGET};

use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// File magic, first 8 bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"RMSASNAP";

/// Container version written by this build (8-byte-aligned sections).
pub const CONTAINER_VERSION: u32 = 2;

/// Oldest container version this build still reads (unaligned sections,
/// owned decode only).
pub const MIN_CONTAINER_VERSION: u32 = 1;

/// Zero bytes required after a `len`-byte payload (or before a slice's
/// length prefix) to reach the next 8-byte boundary.
pub(crate) fn pad8(len: usize) -> usize {
    (8 - len % 8) % 8
}

/// Registry of known section ids.
///
/// The registry exists so independent payload crates never collide and so
/// `rmsa snapshot inspect` can name what it finds. Unknown ids are valid —
/// they render as `unknown(<id>)` and are skipped by readers.
pub mod section {
    /// Snapshot-level metadata (kind, dataset, context fingerprint).
    pub const META: u32 = 1;
    /// CSR graph columns (`rmsa-graph`).
    pub const GRAPH: u32 = 2;
    /// Propagation-model parameters (`rmsa-diffusion`).
    pub const MODEL: u32 = 3;
    /// Advertiser budgets and CPEs.
    pub const ADVERTISERS: u32 = 4;
    /// Per-ad singleton-spread vectors.
    pub const SPREADS: u32 = 5;
    /// RR-cache configuration and fingerprint (`rmsa-diffusion`).
    pub const CACHE_META: u32 = 16;
    /// First RR-stream section; stream `k` is stored at `CACHE_STREAM_BASE + k`.
    pub const CACHE_STREAM_BASE: u32 = 17;
    /// Exclusive upper bound of the RR-stream id range.
    pub const CACHE_STREAM_END: u32 = CACHE_STREAM_BASE + 512;

    /// Human-readable name of a section id.
    pub fn name(id: u32) -> String {
        match id {
            META => "meta".to_string(),
            GRAPH => "graph".to_string(),
            MODEL => "model".to_string(),
            ADVERTISERS => "advertisers".to_string(),
            SPREADS => "spreads".to_string(),
            CACHE_META => "cache-meta".to_string(),
            // Exclusive upper bound, matching every stream reader.
            id if (CACHE_STREAM_BASE..CACHE_STREAM_END).contains(&id) => {
                format!("rr-stream-{}", id - CACHE_STREAM_BASE)
            }
            other => format!("unknown({other})"),
        }
    }
}

/// Everything that can go wrong reading a snapshot. The loader returns
/// these — it never panics on malformed or truncated bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The first 8 bytes are not [`MAGIC`] — this is not a snapshot file.
    BadMagic,
    /// The container version is newer (or older) than this build speaks.
    UnsupportedVersion(u32),
    /// The byte stream ended before `what` could be read in full.
    Truncated {
        /// What was being read when the bytes ran out.
        what: String,
    },
    /// A section's payload does not hash to its recorded checksum.
    ChecksumMismatch {
        /// Id of the corrupted section.
        section: u32,
    },
    /// A required section is absent from the file.
    MissingSection {
        /// Id of the missing section.
        section: u32,
    },
    /// The bytes parsed but describe an impossible payload (bad enum tag,
    /// inconsistent lengths, out-of-range ids, …).
    Corrupt(String),
    /// The snapshot is well-formed but does not match what the caller
    /// expected (stale fingerprint, different dataset, wrong seed, …).
    Mismatch(String),
    /// Underlying filesystem error.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot container version {v} (this build speaks {MIN_CONTAINER_VERSION}..={CONTAINER_VERSION})"
                )
            }
            StoreError::Truncated { what } => write!(f, "snapshot truncated while reading {what}"),
            StoreError::ChecksumMismatch { section } => {
                write!(
                    f,
                    "checksum mismatch in section {} ({})",
                    section,
                    section::name(*section)
                )
            }
            StoreError::MissingSection { section } => {
                write!(
                    f,
                    "snapshot is missing section {} ({})",
                    section,
                    section::name(*section)
                )
            }
            StoreError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            StoreError::Mismatch(why) => write!(f, "snapshot does not match: {why}"),
            StoreError::Io(why) => write!(f, "snapshot io error: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// 64-bit integrity checksum over 8-byte words (FNV-1a-style mix with a
/// rotate so byte *position* matters within a word). Word-at-a-time keeps
/// validation at memory speed — a multi-hundred-MiB arena section must not
/// spend longer checksumming than reading — while still catching the torn
/// writes and bit rot the per-section checksums guard against (this is an
/// integrity check, not a cryptographic one).
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        #[allow(clippy::expect_used)]
        // lint: allow(R1, reason = "chunks_exact(8) guarantees the slice is 8 bytes")
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = (hash ^ word).wrapping_mul(PRIME).rotate_left(23);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    hash = (hash ^ tail).wrapping_mul(PRIME);
    hash ^ (hash >> 29)
}

/// One section's payload under construction: a growing byte buffer with
/// typed little-endian `put_*` writers mirrored by [`Cursor`]'s `get_*`.
#[derive(Debug, Default)]
pub struct SectionBuf {
    bytes: Vec<u8>,
}

impl SectionBuf {
    /// An empty payload buffer.
    pub fn new() -> Self {
        SectionBuf::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Append a `u32` (LE).
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (LE).
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` (LE bit pattern — round-trips exactly).
    pub fn put_f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Pad with zeros to the next 8-byte boundary. Every slice writer
    /// calls this before its length prefix so that — combined with the
    /// v2 container's 8-aligned payload offsets — packed column data is
    /// always 8-aligned in the file (the zero-copy invariant).
    fn align8(&mut self) {
        let pad = pad8(self.bytes.len());
        self.bytes.resize(self.bytes.len() + pad, 0);
    }

    /// Append a length-prefixed `u32` column.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.align8();
        self.put_u64(vs.len() as u64);
        self.bytes.reserve(vs.len() * 4);
        for &v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a length-prefixed `u64` column.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.align8();
        self.put_u64(vs.len() as u64);
        self.bytes.reserve(vs.len() * 8);
        for &v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a length-prefixed `usize` column (stored as `u64`).
    pub fn put_usize_slice(&mut self, vs: &[usize]) {
        self.align8();
        self.put_u64(vs.len() as u64);
        self.bytes.reserve(vs.len() * 8);
        for &v in vs {
            self.bytes.extend_from_slice(&(v as u64).to_le_bytes());
        }
    }

    /// Append a length-prefixed `f32` column (LE bit patterns).
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.align8();
        self.put_u64(vs.len() as u64);
        self.bytes.reserve(vs.len() * 4);
        for &v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a length-prefixed `f64` column (LE bit patterns).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.align8();
        self.put_u64(vs.len() as u64);
        self.bytes.reserve(vs.len() * 8);
        for &v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Writer assembling a snapshot: open sections with
/// [`SnapshotWriter::section`], then [`SnapshotWriter::finish`] into the
/// container bytes (checksums are computed at finish time).
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(u32, SectionBuf)>,
}

impl SnapshotWriter {
    /// An empty snapshot.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Open (append) a section with the given id and return its payload
    /// buffer. Sections are written in call order.
    pub fn section(&mut self, id: u32) -> &mut SectionBuf {
        self.sections.push((id, SectionBuf::new()));
        let last = self.sections.len() - 1;
        &mut self.sections[last].1
    }

    /// Assemble the container bytes (v2 layout: 24-byte section headers,
    /// every payload zero-padded to the next 8-byte boundary).
    pub fn finish(self) -> Vec<u8> {
        let payload: usize = self
            .sections
            .iter()
            .map(|(_, s)| s.bytes.len() + pad8(s.bytes.len()) + 24)
            .sum();
        let mut out = Vec::with_capacity(16 + payload);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        // lint: allow(R4, reason = "in-memory writer state: a process cannot hold 2^32 open sections")
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (id, buf) in self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // reserved: keeps the header 8-aligned
            out.extend_from_slice(&(buf.bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&checksum(&buf.bytes).to_le_bytes());
            out.extend_from_slice(&buf.bytes);
            out.resize(out.len() + pad8(buf.bytes.len()), 0);
        }
        out
    }

    /// Assemble and write the container to `path` atomically (temp file +
    /// rename), so a crash mid-write never leaves a half-snapshot behind.
    pub fn write_to(self, path: &Path) -> Result<(), StoreError> {
        write_file(path, &self.finish())
    }
}

/// Atomically write snapshot bytes: write `<path>.tmp`, fsync, then rename
/// over `path`. Readers only ever see complete files, and a crash right
/// after the rename cannot leave a not-yet-flushed (hence torn) snapshot
/// behind the new name. The temp name embeds a process-wide counter so
/// concurrent writers to the same path never interleave inside one temp
/// file — last rename wins with a complete image either way.
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    use std::io::Write as _;
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| StoreError::Io(format!("create {}: {e}", parent.display())))?;
        }
    }
    let tmp = path.with_extension(format!(
        "tmp{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let io_err = |what: &str, e: std::io::Error| StoreError::Io(format!("{what}: {e}"));
    let result = rmsa_obs::Histogram::StoreWriteSecs.time(|| {
        let mut file =
            std::fs::File::create(&tmp).map_err(|e| io_err("create temp snapshot", e))?;
        file.write_all(bytes)
            .map_err(|e| io_err("write temp snapshot", e))?;
        file.sync_all().map_err(|e| io_err("sync snapshot", e))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            io_err(
                &format!("rename {} -> {}", tmp.display(), path.display()),
                e,
            )
        })
    });
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Read a snapshot file into memory.
pub fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    rmsa_obs::Histogram::StoreReadSecs.time(|| {
        std::fs::read(path).map_err(|e| StoreError::Io(format!("read {}: {e}", path.display())))
    })
}

/// Summary of one parsed section (for `rmsa snapshot inspect`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id.
    pub id: u32,
    /// Registry name ([`section::name`]).
    pub name: String,
    /// Payload length in bytes.
    pub len: usize,
    /// File offset of the payload's first byte.
    pub offset: usize,
    /// Zero bytes after the payload (v2 containers; always 0 in v1).
    pub padding: usize,
}

impl SectionInfo {
    /// True when the payload starts on an 8-byte file offset — the
    /// precondition for mapping its columns zero-copy.
    pub fn aligned(&self) -> bool {
        self.offset.is_multiple_of(8)
    }
}

/// One entry of the walked section table: where a payload lives in the
/// file and what it should hash to. Shared by the eager
/// [`SnapshotReader`] and the lazy [`MappedSnapshot`].
#[derive(Clone, Debug)]
pub(crate) struct RawSection {
    pub(crate) id: u32,
    pub(crate) offset: usize,
    pub(crate) len: usize,
    pub(crate) checksum: u64,
}

impl RawSection {
    pub(crate) fn info(&self, version: u32) -> SectionInfo {
        SectionInfo {
            id: self.id,
            name: section::name(self.id),
            len: self.len,
            offset: self.offset,
            padding: if version >= CONTAINER_VERSION {
                pad8(self.len)
            } else {
                0
            },
        }
    }
}

/// Walk a container's header and section table without touching payload
/// checksums. Accepts both layouts: v1 (20-byte section headers, no
/// padding) and v2 (24-byte headers, payloads padded to 8 bytes).
pub(crate) fn parse_container(bytes: &[u8]) -> Result<(u32, Vec<RawSection>), StoreError> {
    if bytes.len() < 8 || bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut cur = Cursor {
        data: bytes,
        pos: 8,
        align: false,
        source: None,
    };
    let version = cur.get_u32("container version")?;
    if !(MIN_CONTAINER_VERSION..=CONTAINER_VERSION).contains(&version) {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let count = to_usize(u64::from(cur.get_u32("section count")?), "section count")?;
    let header_bytes = if version >= CONTAINER_VERSION { 24 } else { 20 };
    // The header carries no checksum, so `count` is untrusted: cap the
    // preallocation by what the remaining bytes could possibly hold —
    // a corrupt count then fails as Truncated instead of aborting on an
    // absurd allocation.
    let mut sections = Vec::with_capacity(count.min(cur.remaining() / header_bytes));
    for i in 0..count {
        let id = cur.get_u32("section id")?;
        if version >= CONTAINER_VERSION {
            cur.get_u32("section reserved word")?;
        }
        let len = to_usize(cur.get_u64("section length")?, "section length")?;
        let checksum = cur.get_u64("section checksum")?;
        let offset = cur.pos;
        cur.get_bytes(len, &format!("section {i} payload"))?;
        if version >= CONTAINER_VERSION {
            cur.get_bytes(pad8(len), &format!("section {i} padding"))?;
        }
        sections.push(RawSection {
            id,
            offset,
            len,
            checksum,
        });
    }
    Ok((version, sections))
}

/// Read access to a parsed container's sections, independent of whether
/// the bytes are an in-memory slice ([`SnapshotReader`]) or a file
/// mapping ([`MappedSnapshot`]). Payload codecs genericize over this so
/// the owned and zero-copy load paths share one implementation.
pub trait SectionSource {
    /// Cursor over the first section with `id`, if present.
    fn section(&self, id: u32) -> Option<Cursor<'_>>;

    /// All sections whose id lies in `[lo, hi)`, in file order, as
    /// `(id, cursor)` pairs — how readers enumerate the RR-stream range.
    fn sections_in_range(&self, lo: u32, hi: u32) -> Vec<(u32, Cursor<'_>)>;

    /// Cursor over a section that must exist.
    fn require(&self, id: u32) -> Result<Cursor<'_>, StoreError> {
        self.section(id)
            .ok_or(StoreError::MissingSection { section: id })
    }
}

/// Parsed snapshot: magic and version verified, every section's checksum
/// validated eagerly, unknown sections retained (and skippable).
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    version: u32,
    sections: Vec<RawSection>,
    bytes: &'a [u8],
}

impl<'a> SnapshotReader<'a> {
    /// Parse and validate a snapshot. Checksums of *all* sections are
    /// verified here, so any later read works on known-good bytes.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StoreError> {
        let (version, sections) = parse_container(bytes)?;
        for s in &sections {
            if checksum(&bytes[s.offset..s.offset + s.len]) != s.checksum {
                return Err(StoreError::ChecksumMismatch { section: s.id });
            }
        }
        Ok(SnapshotReader {
            version,
            sections,
            bytes,
        })
    }

    /// The container version of the parsed bytes (1 or 2).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Parsed sections in file order.
    pub fn sections(&self) -> Vec<SectionInfo> {
        self.sections.iter().map(|s| s.info(self.version)).collect()
    }

    fn cursor_for(&self, s: &RawSection) -> Cursor<'a> {
        Cursor {
            data: &self.bytes[s.offset..s.offset + s.len],
            pos: 0,
            align: self.version >= CONTAINER_VERSION,
            source: None,
        }
    }

    /// Cursor over the first section with `id`, if present.
    pub fn section(&self, id: u32) -> Option<Cursor<'a>> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| self.cursor_for(s))
    }

    /// Cursor over a section that must exist.
    pub fn require(&self, id: u32) -> Result<Cursor<'a>, StoreError> {
        self.section(id)
            .ok_or(StoreError::MissingSection { section: id })
    }

    /// All sections whose id lies in `[lo, hi)`, in file order, as
    /// `(id, cursor)` pairs — how readers enumerate the RR-stream range.
    pub fn sections_in_range(&self, lo: u32, hi: u32) -> Vec<(u32, Cursor<'a>)> {
        self.sections
            .iter()
            .filter(|s| (lo..hi).contains(&s.id))
            .map(|s| (s.id, self.cursor_for(s)))
            .collect()
    }
}

impl SectionSource for SnapshotReader<'_> {
    fn section(&self, id: u32) -> Option<Cursor<'_>> {
        SnapshotReader::section(self, id)
    }

    fn sections_in_range(&self, lo: u32, hi: u32) -> Vec<(u32, Cursor<'_>)> {
        SnapshotReader::sections_in_range(self, lo, hi)
    }
}

/// Bounds-checked little-endian reader over one section's payload. Every
/// `get_*` that runs off the end returns [`StoreError::Truncated`] naming
/// what was being read.
///
/// Cursors over v2 payloads run in *aligned* mode: the slice readers
/// skip to the next 8-byte boundary before their length prefix,
/// mirroring [`SectionBuf::align8`]. Cursors handed out by a
/// [`MappedSnapshot`] additionally carry a reference to the file
/// mapping, which lets the `get_*_col` readers return borrowed
/// [`Column`]s instead of decoding.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    /// Skip to 8-byte boundaries before slice length prefixes (v2).
    align: bool,
    /// Mapping backing `data`, plus the file offset of `data[0]`.
    source: Option<(Arc<SnapshotMapping>, usize)>,
}

impl<'a> Cursor<'a> {
    /// Wrap raw payload bytes in aligned (v2) mode — the layout
    /// [`SectionBuf`] writes.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor {
            data,
            pos: 0,
            align: true,
            source: None,
        }
    }

    /// Wrap a section payload, optionally backed by its file mapping
    /// (used by [`MappedSnapshot`] to enable zero-copy column reads).
    pub(crate) fn with_source(
        data: &'a [u8],
        align: bool,
        source: Option<(Arc<SnapshotMapping>, usize)>,
    ) -> Self {
        Cursor {
            data,
            pos: 0,
            align,
            source,
        }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn get_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                what: what.to_string(),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.get_bytes(1, what)?[0])
    }

    /// Read a `u32` (LE).
    pub fn get_u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let b = self.get_bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64` (LE).
    pub fn get_u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let b = self.get_bytes(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self, what: &str) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &str) -> Result<String, StoreError> {
        let len = self.get_len(what)?;
        let bytes = self.get_bytes(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("{what} is not valid UTF-8")))
    }

    /// Read a column length, guarding against lengths that cannot fit in
    /// the remaining bytes (so a corrupt length errors instead of
    /// attempting a absurd allocation).
    fn get_len(&mut self, what: &str) -> Result<usize, StoreError> {
        let len = self.get_u64(what)?;
        if len > self.remaining() as u64 {
            return Err(StoreError::Truncated {
                what: what.to_string(),
            });
        }
        to_usize(len, what)
    }

    /// Read a `u64` that the payload uses as a count/size, checked into
    /// `usize` (a value that does not fit the address space is corruption).
    pub fn get_usize(&mut self, what: &str) -> Result<usize, StoreError> {
        to_usize(self.get_u64(what)?, what)
    }

    /// In aligned (v2) mode, consume the zero bytes up to the next
    /// 8-byte boundary — the mirror of [`SectionBuf::align8`]. Running
    /// off the end is a typed truncation, like any other read.
    fn skip_align(&mut self, what: &str) -> Result<(), StoreError> {
        if self.align {
            let pad = pad8(self.pos);
            if pad > 0 {
                self.get_bytes(pad, what)?;
            }
        }
        Ok(())
    }

    /// Read a slice column's raw bytes: alignment skip, length prefix,
    /// then `len * elem_bytes` packed bytes. Returns the element count,
    /// the bytes, and the payload-relative offset of the first element.
    fn get_slice_raw(
        &mut self,
        elem_bytes: usize,
        what: &str,
    ) -> Result<(usize, &'a [u8], usize), StoreError> {
        self.skip_align(what)?;
        let len = self.get_len(what)?;
        let data_pos = self.pos;
        let bytes = self.get_bytes(
            len.checked_mul(elem_bytes).ok_or_else(overflow(what))?,
            what,
        )?;
        Ok((len, bytes, data_pos))
    }

    /// Read a length-prefixed `u32` column.
    pub fn get_u32_vec(&mut self, what: &str) -> Result<Vec<u32>, StoreError> {
        let (_, bytes, _) = self.get_slice_raw(4, what)?;
        Ok(decode_u32s(bytes))
    }

    /// Read a length-prefixed `u64` column.
    pub fn get_u64_vec(&mut self, what: &str) -> Result<Vec<u64>, StoreError> {
        let (_, bytes, _) = self.get_slice_raw(8, what)?;
        Ok(decode_u64s(bytes))
    }

    /// Read a length-prefixed `usize` column (stored as `u64`).
    pub fn get_usize_vec(&mut self, what: &str) -> Result<Vec<usize>, StoreError> {
        self.get_u64_vec(what)?
            .into_iter()
            .map(|v| to_usize(v, what))
            .collect()
    }

    /// Read a length-prefixed `f32` column.
    pub fn get_f32_vec(&mut self, what: &str) -> Result<Vec<f32>, StoreError> {
        let (_, bytes, _) = self.get_slice_raw(4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Read a length-prefixed `f64` column.
    pub fn get_f64_vec(&mut self, what: &str) -> Result<Vec<f64>, StoreError> {
        Ok(self
            .get_u64_vec(what)?
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }

    /// Read a length-prefixed `u32` column as a [`Column`]: borrowed
    /// from the file mapping when this cursor has one and the window is
    /// aligned, decoded into an owned `Vec` otherwise.
    pub fn get_u32_col(&mut self, what: &str) -> Result<Column<u32>, StoreError> {
        let (len, bytes, data_pos) = self.get_slice_raw(4, what)?;
        if let Some((map, base)) = &self.source {
            if let Some(col) = Column::try_mapped(map, base + data_pos, len) {
                return Ok(col);
            }
        }
        Ok(Column::from(decode_u32s(bytes)))
    }

    /// Read a length-prefixed `u64` column as a [`Column`].
    pub fn get_u64_col(&mut self, what: &str) -> Result<Column<u64>, StoreError> {
        let (len, bytes, data_pos) = self.get_slice_raw(8, what)?;
        if let Some((map, base)) = &self.source {
            if let Some(col) = Column::try_mapped(map, base + data_pos, len) {
                return Ok(col);
            }
        }
        Ok(Column::from(decode_u64s(bytes)))
    }

    /// Read a length-prefixed `usize` column (stored as `u64`) as a
    /// [`Column`]. Mapped only on 64-bit little-endian targets, where
    /// the wire `u64` and the in-memory `usize` coincide; otherwise
    /// every value is range-checked into an owned `Vec`.
    pub fn get_usize_col(&mut self, what: &str) -> Result<Column<usize>, StoreError> {
        let (len, bytes, data_pos) = self.get_slice_raw(8, what)?;
        if let Some((map, base)) = &self.source {
            if let Some(col) = Column::try_mapped(map, base + data_pos, len) {
                return Ok(col);
            }
        }
        decode_u64s(bytes)
            .into_iter()
            .map(|v| to_usize(v, what))
            .collect::<Result<Vec<_>, _>>()
            .map(Column::from)
    }
}

fn decode_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

fn decode_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
        .collect()
}

fn overflow(what: &str) -> impl FnOnce() -> StoreError + '_ {
    move || StoreError::Corrupt(format!("{what} length overflows"))
}

/// Checked `u64` → `usize` for untrusted on-disk values: a count that does
/// not fit the address space is [`StoreError::Corrupt`], never a silent
/// truncating cast (R4 checked-casts).
pub fn to_usize(v: u64, what: &str) -> Result<usize, StoreError> {
    usize::try_from(v).map_err(|_| StoreError::Corrupt(format!("{what} {v} does not fit in usize")))
}

/// Checked `usize` → `u32` for values a codec must narrow before writing
/// or comparing (node ids, segment extents). Out-of-range is
/// [`StoreError::Corrupt`].
pub fn to_u32(v: usize, what: &str) -> Result<u32, StoreError> {
    u32::try_from(v).map_err(|_| StoreError::Corrupt(format!("{what} {v} does not fit in u32")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of this test's own: tests run in parallel, and one
    /// test's scan for temp files must not see another's in-flight write.
    fn test_dir(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rmsa_store_test-{}-{test}", std::process::id()))
    }

    fn sample_snapshot() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let meta = w.section(section::META);
        meta.put_str("unit-test");
        meta.put_u64(42);
        let graph = w.section(section::GRAPH);
        graph.put_u32_slice(&[1, 2, 3]);
        graph.put_f64_slice(&[0.5, -1.25]);
        w.finish()
    }

    #[test]
    fn roundtrip_preserves_every_column_type() {
        let mut w = SnapshotWriter::new();
        let s = w.section(7);
        s.put_u8(9);
        s.put_u32(0xDEAD_BEEF);
        s.put_u64(u64::MAX - 1);
        s.put_f64(-0.0);
        s.put_str("héllo");
        s.put_u32_slice(&[0, u32::MAX]);
        s.put_u64_slice(&[1, 2, 3]);
        s.put_usize_slice(&[4, 5]);
        s.put_f32_slice(&[1.5, f32::MIN_POSITIVE]);
        s.put_f64_slice(&[f64::NAN]);
        let bytes = w.finish();

        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut c = r.require(7).unwrap();
        assert_eq!(c.get_u8("a").unwrap(), 9);
        assert_eq!(c.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.get_u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(c.get_f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.get_str("e").unwrap(), "héllo");
        assert_eq!(c.get_u32_vec("f").unwrap(), vec![0, u32::MAX]);
        assert_eq!(c.get_u64_vec("g").unwrap(), vec![1, 2, 3]);
        assert_eq!(c.get_usize_vec("h").unwrap(), vec![4, 5]);
        assert_eq!(c.get_f32_vec("i").unwrap(), vec![1.5, f32::MIN_POSITIVE]);
        assert!(c.get_f64_vec("j").unwrap()[0].is_nan());
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let mut bytes = sample_snapshot();
        bytes[0] = b'X';
        assert_eq!(
            SnapshotReader::parse(&bytes).unwrap_err(),
            StoreError::BadMagic
        );
        // A file shorter than the magic is also BadMagic, not a panic.
        assert_eq!(
            SnapshotReader::parse(&bytes[..5]).unwrap_err(),
            StoreError::BadMagic
        );
    }

    #[test]
    fn unsupported_version_is_a_typed_error() {
        let mut bytes = sample_snapshot();
        bytes[8] = 99; // container version LE low byte
        assert_eq!(
            SnapshotReader::parse(&bytes).unwrap_err(),
            StoreError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_cut() {
        let bytes = sample_snapshot();
        // Cut the file at every length short of complete: each must yield
        // a typed error (Truncated or, for cuts inside the magic,
        // BadMagic) — never a panic, never Ok.
        for cut in 0..bytes.len() {
            let err = SnapshotReader::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. } | StoreError::BadMagic),
                "cut at {cut} gave {err:?}"
            );
        }
        assert!(SnapshotReader::parse(&bytes).is_ok());
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let bytes = sample_snapshot();
        // Flip one bit in every payload byte position; parse must fail
        // with ChecksumMismatch naming the right section.
        let r = SnapshotReader::parse(&bytes).unwrap();
        let infos = r.sections();
        assert_eq!(infos.len(), 2);
        drop(r);
        // The first payload byte lives after: 16-byte header + 24-byte
        // v2 section header.
        let mut corrupted = bytes.clone();
        corrupted[16 + 24] ^= 0x01;
        assert_eq!(
            SnapshotReader::parse(&corrupted).unwrap_err(),
            StoreError::ChecksumMismatch {
                section: section::META
            }
        );
        // Corrupting the *last* payload byte of the file hits the second
        // section.
        let mut corrupted = bytes.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x80;
        assert_eq!(
            SnapshotReader::parse(&corrupted).unwrap_err(),
            StoreError::ChecksumMismatch {
                section: section::GRAPH
            }
        );
    }

    #[test]
    fn truncated_column_inside_a_section_is_typed() {
        // A section whose recorded payload is internally inconsistent: a
        // column length promising more bytes than the payload holds.
        let mut w = SnapshotWriter::new();
        let s = w.section(3);
        s.put_u64(1_000_000); // length prefix with no data behind it
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut c = r.require(3).unwrap();
        assert!(matches!(
            c.get_u32_vec("column").unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn absurd_section_count_is_truncated_not_an_allocation_abort() {
        // The header has no checksum, so a corrupt/crafted count must be
        // rejected by the Truncated path — never pre-allocated.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotReader::parse(&bytes).unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    /// Hand-assemble a v1 (unaligned, 20-byte section headers) container
    /// holding one section with a `u32` column and a trailing `u64`.
    fn v1_snapshot() -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u64.to_le_bytes()); // column length
        for v in [7u32, 8, 9] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload.extend_from_slice(&42u64.to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // container version 1
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one section
        bytes.extend_from_slice(&section::GRAPH.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes
    }

    #[test]
    fn v1_containers_still_load_via_the_owned_path() {
        let bytes = v1_snapshot();
        let r = SnapshotReader::parse(&bytes).expect("v1 parses");
        assert_eq!(r.version(), 1);
        let mut c = r.require(section::GRAPH).expect("graph section");
        // v1 cursors are unaligned: no padding skip before the column.
        assert_eq!(c.get_u32_vec("col").expect("column"), vec![7, 8, 9]);
        assert_eq!(c.get_u64("tail").expect("tail"), 42);
        assert_eq!(c.remaining(), 0);
        // The mapped loader reads v1 too — it just never borrows.
        let m = MappedSnapshot::from_mapping(SnapshotMapping::from_bytes(bytes), VerifyMode::Eager)
            .expect("v1 maps");
        assert_eq!(m.version(), 1);
        assert!(!m.zero_copy_eligible());
        let mut c = SectionSource::require(&m, section::GRAPH).expect("graph section");
        let col = c.get_u32_col("col").expect("column");
        assert!(!col.is_mapped());
        assert_eq!(&col[..], &[7, 8, 9]);
    }

    #[test]
    fn v2_payloads_and_columns_start_on_8_byte_offsets() {
        let bytes = sample_snapshot();
        let r = SnapshotReader::parse(&bytes).expect("parse");
        assert_eq!(r.version(), CONTAINER_VERSION);
        for info in r.sections() {
            assert!(info.aligned(), "section {} at {}", info.name, info.offset);
            assert_eq!((info.len + info.padding) % 8, 0);
        }
        // Total size accounts for headers + padded payloads exactly.
        let expect: usize = 16
            + r.sections()
                .iter()
                .map(|s| 24 + s.len + s.padding)
                .sum::<usize>();
        assert_eq!(bytes.len(), expect);
    }

    #[test]
    fn mapped_and_owned_reads_agree_and_mapped_columns_borrow() {
        let dir = test_dir("mapped");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("mapped-{}.rmsnap", std::process::id()));
        let mut w = SnapshotWriter::new();
        let s = w.section(section::GRAPH);
        s.put_u8(1); // deliberately misalign the write position first
        s.put_u32_slice(&[10, 20, 30, 40, 50]);
        s.put_usize_slice(&[6, 7]);
        s.put_u64_slice(&[u64::MAX, 0]);
        w.write_to(&path).expect("write");

        let m = MappedSnapshot::open(&path, VerifyMode::Lazy).expect("open");
        assert_eq!(m.version(), CONTAINER_VERSION);
        m.verify_all().expect("checksums");
        let mut c = SectionSource::require(&m, section::GRAPH).expect("section");
        assert_eq!(c.get_u8("pad").expect("u8"), 1);
        let a = c.get_u32_col("a").expect("a");
        let b = c.get_usize_col("b").expect("b");
        let d = c.get_u64_col("d").expect("d");
        assert_eq!(&a[..], &[10, 20, 30, 40, 50]);
        assert_eq!(&b[..], &[6, 7]);
        assert_eq!(&d[..], &[u64::MAX, 0]);
        if m.is_mapped() && ZERO_COPY_TARGET {
            assert!(a.is_mapped() && b.is_mapped() && d.is_mapped());
            assert_eq!(a.resident_bytes(), 0);
            assert_eq!(a.mapped_bytes(), 20);
        }

        // The owned path reads the identical values.
        let bytes = read_file(&path).expect("read");
        let r = SnapshotReader::parse(&bytes).expect("parse");
        let mut c = r.require(section::GRAPH).expect("section");
        assert_eq!(c.get_u8("pad").expect("u8"), 1);
        assert_eq!(c.get_u32_vec("a").expect("a"), &a[..]);
        assert_eq!(c.get_usize_vec("b").expect("b"), &b[..]);
        assert_eq!(c.get_u64_vec("d").expect("d"), &d[..]);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn lazy_mapped_parse_defers_checksums_until_verify() {
        let mut bytes = sample_snapshot();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80; // corrupt the GRAPH payload
                             // Eager readers reject immediately…
        assert_eq!(
            SnapshotReader::parse(&bytes).unwrap_err(),
            StoreError::ChecksumMismatch {
                section: section::GRAPH
            }
        );
        // …the lazy mapped parse only walks the table…
        let m = MappedSnapshot::from_mapping(
            SnapshotMapping::from_bytes(bytes.clone()),
            VerifyMode::Lazy,
        )
        .expect("lazy parse succeeds");
        assert_eq!(m.sections().len(), 2);
        m.verify_section(section::META).expect("meta is intact");
        // …and verification surfaces the damage on demand.
        assert_eq!(
            m.verify_all().unwrap_err(),
            StoreError::ChecksumMismatch {
                section: section::GRAPH
            }
        );
        assert_eq!(
            MappedSnapshot::from_mapping(SnapshotMapping::from_bytes(bytes), VerifyMode::Eager)
                .unwrap_err(),
            StoreError::ChecksumMismatch {
                section: section::GRAPH
            }
        );
    }

    #[test]
    fn bad_padding_bytes_truncate_instead_of_shifting_sections() {
        // Strip the padding from the first section of a two-section v2
        // file: every later offset shifts, so the walk must end in a
        // typed error (truncation or checksum), never a mis-read.
        let bytes = sample_snapshot();
        let r = SnapshotReader::parse(&bytes).expect("parse");
        let first = &r.sections()[0];
        assert!(first.padding > 0, "fixture needs a padded first section");
        let cut_at = first.offset + first.len;
        let mut stripped = bytes[..cut_at].to_vec();
        stripped.extend_from_slice(&bytes[cut_at + first.padding..]);
        drop(r);
        assert!(SnapshotReader::parse(&stripped).is_err());
    }

    #[test]
    fn stream_name_range_is_exclusive_like_the_readers() {
        // Ids at/past CACHE_STREAM_END are skipped by every stream reader;
        // the registry must not label them as streams.
        assert_eq!(
            section::name(section::CACHE_STREAM_END - 1),
            format!(
                "rr-stream-{}",
                section::CACHE_STREAM_END - 1 - section::CACHE_STREAM_BASE
            )
        );
        assert_eq!(
            section::name(section::CACHE_STREAM_END),
            format!("unknown({})", section::CACHE_STREAM_END)
        );
    }

    #[test]
    fn unknown_sections_are_skipped_not_fatal() {
        // Forward compatibility: a reader must tolerate ids it has never
        // heard of and still find the sections it wants.
        let mut w = SnapshotWriter::new();
        w.section(0xDEAD).put_u64(1);
        w.section(section::META).put_str("kept");
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.sections().len(), 2);
        assert_eq!(r.sections()[0].name, "unknown(57005)");
        let mut meta = r.require(section::META).unwrap();
        assert_eq!(meta.get_str("kind").unwrap(), "kept");
        assert!(r.section(0xBEEF).is_none());
        assert_eq!(
            r.require(0xBEEF).unwrap_err(),
            StoreError::MissingSection { section: 0xBEEF }
        );
    }

    #[test]
    fn file_roundtrip_is_atomic_and_lossless() {
        let dir = test_dir("roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.rmsnap");
        let bytes = sample_snapshot();
        write_file(&path, &bytes).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files renamed away: {leftovers:?}"
        );
        assert_eq!(read_file(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
        assert!(matches!(read_file(&path).unwrap_err(), StoreError::Io(_)));
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn section_ranges_enumerate_streams_in_order() {
        let mut w = SnapshotWriter::new();
        w.section(section::CACHE_STREAM_BASE + 2).put_u64(2);
        w.section(section::CACHE_STREAM_BASE).put_u64(0);
        w.section(section::META).put_u64(9);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let streams = r.sections_in_range(section::CACHE_STREAM_BASE, section::CACHE_STREAM_END);
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].0, section::CACHE_STREAM_BASE + 2);
        assert_eq!(streams[1].0, section::CACHE_STREAM_BASE);
        assert_eq!(section::name(section::CACHE_STREAM_BASE + 2), "rr-stream-2");
    }
}
