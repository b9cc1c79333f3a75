//! `PFGUESS v1` — sorted, prefix-compressed, mergeable guess archives.
//!
//! A guess archive is the on-disk form of an attack run's dedup set: every
//! distinct guess the engine emitted, sorted in byte order, with the number
//! of times it was produced. Where `PFDIGEST v1` keys records by fixed-width
//! truncated SHA-1 digests, `PFGUESS v1` keys them by the raw guess bytes —
//! variable-length, prefix-compressed within blocks, with a trailing index
//! for seek-free range extraction (the `twobit.rs` idiom: jump to the block
//! that could hold a prefix, decode forward, stop at the successor key).
//!
//! The format shares the `PFDIGEST` discipline exactly:
//!
//! * records are **strictly ascending**; building is a bounded-memory
//!   external merge sort ([`GuessArchiveBuilder`]);
//! * the artifact is a **pure function of the record multiset and config**,
//!   so [`merge_archives`] over any merge tree — pairwise, 4-way, reversed —
//!   produces a file byte-identical to a single-pass build over the union
//!   (asserted with `fs::read` equality in `tests/store.rs`);
//! * writes land via a `.tmp` sibling and an atomic rename; a crashed build
//!   leaves nothing behind.
//!
//! The block codec is also exposed as a headerless stream
//! ([`GuessStreamWriter`] / [`GuessStreamReader`]): spill runs use it, and
//! `passflow-core` embeds the same stream inside `PFATTACK v1` checkpoints
//! to persist the engine's dedup-set state compactly.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::builder::DEFAULT_MEMORY_RECORDS;
use crate::format::{fnv1a, format_err, read_varint, write_varint, FNV_SEED};
use crate::format::{Result, StoreError, VerifyReport};
use crate::io::{read_exact_at, FaultyWrite, FileIo, RetryPolicy, ScratchFile, StoreIo};
use crate::merge::{merge_keyed, KeyedSource};

/// Artifact magic: `PFGUESS` + NUL.
const MAGIC: &[u8; 8] = b"PFGUESS\0";
/// Format version the code reads and writes.
const VERSION: u32 = 1;
/// Fixed header size; blocks start right after it.
const HEADER_LEN: u64 = 64;
/// Corruption guard: no sane guess is longer than this.
pub const MAX_GUESS_LEN: usize = 1 << 16;

/// Tuning knobs baked into a guess archive's header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuessConfig {
    /// Whether per-guess emission counts are stored. Without counts every
    /// lookup reports a count of 1 (pure membership).
    pub counts: bool,
    /// Records per compressed block — the random-access granularity.
    pub records_per_block: usize,
}

impl Default for GuessConfig {
    fn default() -> Self {
        GuessConfig {
            counts: true,
            records_per_block: 1024,
        }
    }
}

impl GuessConfig {
    /// Checks the invariants enforced on both write and load.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] when `records_per_block` is zero or does not
    /// fit in a `u32`.
    pub fn validate(&self) -> Result<()> {
        if self.records_per_block == 0 || self.records_per_block > u32::MAX as usize {
            return format_err("records_per_block must be positive and fit in u32");
        }
        Ok(())
    }
}

/// Summary of a finished guess archive.
#[derive(Clone, Copy, Debug)]
pub struct GuessStats {
    /// Unique guesses written.
    pub record_count: u64,
    /// Blocks written.
    pub block_count: u64,
    /// Total artifact size in bytes.
    pub bytes: u64,
}

/// Folds one served record into the running checksum. The length is hashed
/// first so `("ab", "c")` and `("a", "bc")` cannot collide; the count
/// hashed is the count a reader will *see* (1 when counts are disabled).
fn checksum_guess(hash: u64, guess: &[u8], count: u64) -> u64 {
    let h = fnv1a(hash, &(guess.len() as u64).to_le_bytes());
    fnv1a(fnv1a(h, guess), &count.to_le_bytes())
}

/// Shared prefix length of two byte strings.
fn shared_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

// ---------------------------------------------------------------------------
// Headerless record stream (spill runs, PFATTACK embedding)
// ---------------------------------------------------------------------------

/// Writes the `PFGUESS` record codec as a headerless continuous stream:
/// every record is `varint(shared) · varint(suffix_len) · suffix`
/// (`· varint(count)` when counts are on), prefix-compressed against its
/// predecessor. Spill runs and the dedup-set section of `PFATTACK v1`
/// checkpoints are exactly this stream.
pub struct GuessStreamWriter<W: Write> {
    out: W,
    counts: bool,
    prev: Vec<u8>,
    started: bool,
    records: u64,
    checksum: u64,
    scratch: Vec<u8>,
}

impl<W: Write> GuessStreamWriter<W> {
    /// Starts a stream over `out`.
    pub fn new(out: W, counts: bool) -> GuessStreamWriter<W> {
        GuessStreamWriter {
            out,
            counts,
            prev: Vec::new(),
            started: false,
            records: 0,
            checksum: FNV_SEED,
            scratch: Vec::new(),
        }
    }

    /// Appends one record. A zero `count` is stored as 1.
    ///
    /// # Errors
    ///
    /// Rejects records not strictly greater than their predecessor,
    /// over-long guesses, and I/O failures.
    pub fn push(&mut self, guess: &[u8], count: u64) -> Result<()> {
        if guess.len() > MAX_GUESS_LEN {
            return format_err(format!(
                "guess is {} bytes, limit is {MAX_GUESS_LEN}",
                guess.len()
            ));
        }
        if self.started && guess <= self.prev.as_slice() {
            return format_err(format!(
                "records must be strictly ascending ({guess:?} after {:?})",
                self.prev
            ));
        }
        let shared = if self.started {
            shared_prefix(guess, &self.prev)
        } else {
            0
        };
        let served = if self.counts { count.max(1) } else { 1 };
        self.scratch.clear();
        write_varint(&mut self.scratch, shared as u64);
        write_varint(&mut self.scratch, (guess.len() - shared) as u64);
        self.scratch.extend_from_slice(&guess[shared..]);
        if self.counts {
            write_varint(&mut self.scratch, served);
        }
        self.out.write_all(&self.scratch)?;
        self.checksum = checksum_guess(self.checksum, guess, served);
        self.prev.clear();
        self.prev.extend_from_slice(guess);
        self.started = true;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Running FNV-1a checksum of the served records.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn flush(&mut self) -> Result<()> {
        self.out.flush()?;
        Ok(())
    }
}

/// Reads back a [`GuessStreamWriter`] stream. A clean EOF at a record
/// boundary ends the stream; EOF mid-record is a format error. Embedded
/// users (checkpoint payloads) instead read exactly the record count they
/// persisted and never rely on EOF.
pub struct GuessStreamReader<R: BufRead> {
    input: R,
    counts: bool,
    prev: Vec<u8>,
    records: u64,
    checksum: u64,
}

impl<R: BufRead> GuessStreamReader<R> {
    /// Starts reading a stream from `input`.
    pub fn new(input: R, counts: bool) -> GuessStreamReader<R> {
        GuessStreamReader {
            input,
            counts,
            prev: Vec::new(),
            records: 0,
            checksum: FNV_SEED,
        }
    }

    /// One byte, absorbing EINTR; `None` at EOF.
    fn read_byte(&mut self) -> Result<Option<u8>> {
        let mut byte = [0u8; 1];
        loop {
            match self.input.read(&mut byte) {
                Ok(0) => return Ok(None),
                Ok(_) => return Ok(Some(byte[0])),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// A varint whose *first* byte may hit EOF (record boundary).
    fn read_varint_opt(&mut self) -> Result<Option<u64>> {
        let Some(first) = self.read_byte()? else {
            return Ok(None);
        };
        let mut v = u64::from(first & 0x7f);
        if first & 0x80 == 0 {
            return Ok(Some(v));
        }
        for shift in (7..64).step_by(7) {
            let Some(byte) = self.read_byte()? else {
                return format_err("truncated varint in guess stream");
            };
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(Some(v));
            }
        }
        format_err("varint longer than 64 bits in guess stream")
    }

    /// A varint that must be present.
    fn read_varint(&mut self) -> Result<u64> {
        match self.read_varint_opt()? {
            Some(v) => Ok(v),
            None => format_err("unexpected EOF inside a guess record"),
        }
    }

    /// The next record, or `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// I/O failures and structural corruption (truncated records, shared
    /// prefixes longer than the predecessor, over-long guesses).
    pub fn next_guess(&mut self) -> Result<Option<(Vec<u8>, u64)>> {
        let Some(shared) = self.read_varint_opt()? else {
            return Ok(None);
        };
        let shared = shared as usize;
        let suffix_len = self.read_varint()? as usize;
        if shared > self.prev.len() {
            return format_err("shared prefix longer than the previous guess");
        }
        if shared + suffix_len > MAX_GUESS_LEN {
            return format_err(format!(
                "guess longer than the {MAX_GUESS_LEN}-byte limit (corrupted stream?)"
            ));
        }
        self.prev.truncate(shared);
        self.prev.resize(shared + suffix_len, 0);
        let mut done = 0usize;
        while done < suffix_len {
            match self.input.read(&mut self.prev[shared + done..]) {
                Ok(0) => return format_err("unexpected EOF inside a guess record"),
                Ok(n) => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let count = if self.counts { self.read_varint()? } else { 1 };
        self.records += 1;
        self.checksum = checksum_guess(self.checksum, &self.prev, count);
        Ok(Some((self.prev.clone(), count)))
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Running FNV-1a checksum of the decoded records.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

// ---------------------------------------------------------------------------
// Header + index
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Header {
    config: GuessConfig,
    record_count: u64,
    block_count: u64,
    index_offset: u64,
    checksum: u64,
}

impl Header {
    fn encode(&self) -> [u8; HEADER_LEN as usize] {
        let mut out = [0u8; HEADER_LEN as usize];
        out[..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12] = u8::from(self.config.counts);
        out[16..20].copy_from_slice(&(self.config.records_per_block as u32).to_le_bytes());
        out[24..32].copy_from_slice(&self.record_count.to_le_bytes());
        out[32..40].copy_from_slice(&self.block_count.to_le_bytes());
        out[40..48].copy_from_slice(&self.index_offset.to_le_bytes());
        out[48..56].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    fn decode(raw: &[u8]) -> Result<Header> {
        if raw.len() < HEADER_LEN as usize {
            return format_err("file shorter than the PFGUESS header");
        }
        if &raw[..8] != MAGIC {
            return format_err("bad magic (not a PFGUESS archive)");
        }
        let version = u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return format_err(format!("unsupported PFGUESS version {version}"));
        }
        let config = GuessConfig {
            counts: match raw[12] {
                0 => false,
                1 => true,
                other => return format_err(format!("bad counts flag {other}")),
            },
            records_per_block: u32::from_le_bytes(raw[16..20].try_into().expect("4 bytes"))
                as usize,
        };
        config.validate()?;
        Ok(Header {
            config,
            record_count: u64::from_le_bytes(raw[24..32].try_into().expect("8 bytes")),
            block_count: u64::from_le_bytes(raw[32..40].try_into().expect("8 bytes")),
            index_offset: u64::from_le_bytes(raw[40..48].try_into().expect("8 bytes")),
            checksum: u64::from_le_bytes(raw[48..56].try_into().expect("8 bytes")),
        })
    }
}

/// One block's entry in the in-memory index. Unlike `PFDIGEST` entries the
/// first key is variable-length, so entries are decoded sequentially.
#[derive(Clone, Debug)]
struct IndexEntry {
    /// First guess in the block.
    first: Vec<u8>,
    /// Absolute file offset of the encoded block.
    offset: u64,
    /// Encoded byte length of the block.
    len: u32,
    /// Records in the block.
    records: u32,
}

impl IndexEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.first.len() as u64);
        out.extend_from_slice(&self.first);
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
    }

    fn decode(raw: &[u8], pos: &mut usize) -> Result<IndexEntry> {
        let first_len = read_varint(raw, pos)? as usize;
        if first_len > MAX_GUESS_LEN {
            return format_err("index first-key longer than the guess limit");
        }
        let Some(first) = raw.get(*pos..*pos + first_len) else {
            return format_err("truncated index first-key");
        };
        let first = first.to_vec();
        *pos += first_len;
        let Some(fixed) = raw.get(*pos..*pos + 16) else {
            return format_err("truncated index entry");
        };
        let entry = IndexEntry {
            first,
            offset: u64::from_le_bytes(fixed[..8].try_into().expect("8 bytes")),
            len: u32::from_le_bytes(fixed[8..12].try_into().expect("4 bytes")),
            records: u32::from_le_bytes(fixed[12..16].try_into().expect("4 bytes")),
        };
        *pos += 16;
        Ok(entry)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streams a **strictly ascending** guess sequence into an archive.
///
/// Mirrors [`crate::format::ArtifactWriter`]: blocks are encoded as records
/// arrive, the index accumulates in memory, and [`finish`](Self::finish)
/// appends the index, patches the header and atomically renames a `.tmp`
/// sibling over the target path.
pub struct GuessArchiveWriter {
    file: BufWriter<File>,
    config: GuessConfig,
    block: Vec<u8>,
    block_first: Vec<u8>,
    block_records: u32,
    prev: Vec<u8>,
    started: bool,
    index: Vec<IndexEntry>,
    offset: u64,
    record_count: u64,
    checksum: u64,
    tmp_path: PathBuf,
    final_path: PathBuf,
    finished: bool,
}

impl GuessArchiveWriter {
    /// Opens a writer targeting `path` (written via a `.tmp` sibling).
    ///
    /// # Errors
    ///
    /// Invalid config or file-creation failures.
    pub fn create(path: impl AsRef<Path>, config: GuessConfig) -> Result<GuessArchiveWriter> {
        config.validate()?;
        let final_path = path.as_ref().to_path_buf();
        let tmp_path = crate::durable::tmp_sibling(&final_path);
        let mut file = BufWriter::new(File::create(&tmp_path)?);
        // Placeholder header; patched in finish() once totals are known.
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(GuessArchiveWriter {
            file,
            config,
            block: Vec::new(),
            block_first: Vec::new(),
            block_records: 0,
            prev: Vec::new(),
            started: false,
            index: Vec::new(),
            offset: HEADER_LEN,
            record_count: 0,
            checksum: FNV_SEED,
            tmp_path,
            final_path,
            finished: false,
        })
    }

    /// Appends one guess. A zero `count` is stored as 1.
    ///
    /// # Errors
    ///
    /// Rejects guesses that are not strictly greater (in byte order) than
    /// their predecessor, over-long guesses, and I/O failures.
    pub fn push(&mut self, guess: &str, count: u64) -> Result<()> {
        self.push_bytes(guess.as_bytes(), count)
    }

    /// Appends one record keyed by raw bytes (the merge-path entry point).
    ///
    /// # Errors
    ///
    /// As [`push`](Self::push).
    pub fn push_bytes(&mut self, guess: &[u8], count: u64) -> Result<()> {
        if guess.len() > MAX_GUESS_LEN {
            return format_err(format!(
                "guess is {} bytes, limit is {MAX_GUESS_LEN}",
                guess.len()
            ));
        }
        if self.started && guess <= self.prev.as_slice() {
            return format_err(format!(
                "records must be strictly ascending ({guess:?} after {:?})",
                self.prev
            ));
        }
        let served = if self.config.counts { count.max(1) } else { 1 };

        if self.block_records == 0 {
            self.block_first.clear();
            self.block_first.extend_from_slice(guess);
            write_varint(&mut self.block, guess.len() as u64);
            self.block.extend_from_slice(guess);
        } else {
            let shared = shared_prefix(guess, &self.prev);
            write_varint(&mut self.block, shared as u64);
            write_varint(&mut self.block, (guess.len() - shared) as u64);
            self.block.extend_from_slice(&guess[shared..]);
        }
        if self.config.counts {
            write_varint(&mut self.block, served);
        }
        self.checksum = checksum_guess(self.checksum, guess, served);
        self.prev.clear();
        self.prev.extend_from_slice(guess);
        self.started = true;
        self.block_records += 1;
        self.record_count += 1;
        if self.block_records as usize == self.config.records_per_block {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.block_records == 0 {
            return Ok(());
        }
        self.index.push(IndexEntry {
            first: self.block_first.clone(),
            offset: self.offset,
            len: self.block.len() as u32,
            records: self.block_records,
        });
        self.file.write_all(&self.block)?;
        self.offset += self.block.len() as u64;
        self.block.clear();
        self.block_records = 0;
        Ok(())
    }

    /// Flushes the final block, writes the index, patches the header and
    /// renames the archive into place.
    ///
    /// # Errors
    ///
    /// I/O failures; the `.tmp` file is removed on drop if this fails.
    pub fn finish(mut self) -> Result<GuessStats> {
        self.flush_block()?;
        let index_offset = self.offset;
        let mut encoded = Vec::new();
        for entry in &self.index {
            entry.encode(&mut encoded);
        }
        self.file.write_all(&encoded)?;

        let header = Header {
            config: self.config,
            record_count: self.record_count,
            block_count: self.index.len() as u64,
            index_offset,
            checksum: self.checksum,
        };
        self.file.flush()?;
        let file = self.file.get_mut();
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
        file.sync_all()?;
        std::fs::rename(&self.tmp_path, &self.final_path)?;
        self.finished = true;
        crate::durable::sync_parent_dir(&self.final_path)?;
        Ok(GuessStats {
            record_count: header.record_count,
            block_count: header.block_count,
            bytes: index_offset + encoded.len() as u64,
        })
    }
}

impl Drop for GuessArchiveWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// An open, random-access `PFGUESS v1` archive.
///
/// The block index lives in memory; record data is read positionally per
/// query through the same pluggable [`StoreIo`] / bounded-retry discipline
/// as [`crate::DigestStore`].
pub struct GuessArchive {
    io: Box<dyn StoreIo>,
    retry: RetryPolicy,
    config: GuessConfig,
    record_count: u64,
    checksum: u64,
    index: Vec<IndexEntry>,
    file_len: u64,
    path: PathBuf,
}

impl std::fmt::Debug for GuessArchive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuessArchive")
            .field("path", &self.path)
            .field("records", &self.record_count)
            .field("blocks", &self.index.len())
            .field("config", &self.config)
            .finish()
    }
}

impl GuessArchive {
    /// Opens an archive, validating the header and loading the index.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`StoreError::Format`] for anything structurally
    /// wrong: bad magic/version/config, truncated file, index out of
    /// bounds or out of order, record counts that do not add up.
    pub fn open(path: impl AsRef<Path>) -> Result<GuessArchive> {
        let io = FileIo::open(path.as_ref())?;
        GuessArchive::open_with_io(path, Box::new(io))
    }

    /// Opens an archive through a caller-supplied [`StoreIo`] — the chaos
    /// seam, exactly as [`crate::DigestStore::open_with_io`].
    ///
    /// # Errors
    ///
    /// As [`GuessArchive::open`], plus [`StoreError::Unavailable`] when the
    /// supplied io cannot complete the header/index reads.
    pub fn open_with_io(path: impl AsRef<Path>, io: Box<dyn StoreIo>) -> Result<GuessArchive> {
        let path = path.as_ref().to_path_buf();
        let retry = RetryPolicy::default();
        let file_len = io.byte_len().map_err(|error| StoreError::Unavailable {
            context: "reading archive length".to_string(),
            error,
        })?;
        if file_len < HEADER_LEN {
            return format_err("file shorter than the PFGUESS header");
        }
        let mut raw_header = [0u8; HEADER_LEN as usize];
        read_exact_at(io.as_ref(), &mut raw_header, 0, &retry).map_err(|error| {
            StoreError::Unavailable {
                context: "reading the PFGUESS header".to_string(),
                error,
            }
        })?;
        let header = Header::decode(&raw_header)?;

        if header.index_offset < HEADER_LEN || header.index_offset > file_len {
            return format_err("index offset outside the file (truncated?)");
        }
        let index_len = file_len - header.index_offset;
        let mut raw_index = vec![0u8; index_len as usize];
        read_exact_at(io.as_ref(), &mut raw_index, header.index_offset, &retry).map_err(
            |error| StoreError::Unavailable {
                context: "reading the block index".to_string(),
                error,
            },
        )?;

        let mut index = Vec::with_capacity(header.block_count as usize);
        let mut total_records = 0u64;
        let mut end_of_prev = HEADER_LEN;
        let mut pos = 0usize;
        for _ in 0..header.block_count {
            let entry = IndexEntry::decode(&raw_index, &mut pos)?;
            if entry.offset != end_of_prev {
                return format_err("block offsets are not contiguous");
            }
            end_of_prev = entry.offset + u64::from(entry.len);
            if end_of_prev > header.index_offset {
                return format_err("block extends past the index");
            }
            if entry.records == 0 || entry.records as usize > header.config.records_per_block {
                return format_err("block record count out of range");
            }
            if let Some(last) = index.last() {
                let last: &IndexEntry = last;
                if entry.first <= last.first {
                    return format_err("index first-guesses are not ascending");
                }
            }
            total_records += u64::from(entry.records);
            index.push(entry);
        }
        if pos != raw_index.len() {
            return format_err("trailing bytes after the last index entry");
        }
        if end_of_prev != header.index_offset {
            return format_err("gap between the last block and the index");
        }
        if total_records != header.record_count {
            return format_err("index record counts disagree with the header");
        }

        Ok(GuessArchive {
            io,
            retry,
            config: header.config,
            record_count: header.record_count,
            checksum: header.checksum,
            index,
            file_len,
            path,
        })
    }

    /// The archive's configuration.
    pub fn config(&self) -> GuessConfig {
        self.config
    }

    /// Unique guesses stored.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Number of compressed blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Total archive size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The path the archive was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Positioned read with bounded retry; failures surface as
    /// [`StoreError::Unavailable`].
    fn read_at(&self, buf: &mut [u8], offset: u64, context: &str) -> Result<()> {
        read_exact_at(self.io.as_ref(), buf, offset, &self.retry).map_err(|error| {
            StoreError::Unavailable {
                context: context.to_string(),
                error,
            }
        })
    }

    /// Reads and decodes block `i` into `out` (cleared first).
    fn decode_block_into(&self, i: usize, out: &mut Vec<(Vec<u8>, u64)>) -> Result<()> {
        let entry = &self.index[i];
        let mut raw = vec![0u8; entry.len as usize];
        self.read_at(&mut raw, entry.offset, "reading a guess block")?;
        out.clear();
        let mut prev: Vec<u8> = Vec::new();
        let mut pos = 0usize;
        for r in 0..entry.records {
            if r == 0 {
                let len = read_varint(&raw, &mut pos)? as usize;
                if len > MAX_GUESS_LEN {
                    return format_err("first record longer than the guess limit");
                }
                let Some(bytes) = raw.get(pos..pos + len) else {
                    return format_err("block too short for its first record");
                };
                prev = bytes.to_vec();
                pos += len;
            } else {
                let shared = read_varint(&raw, &mut pos)? as usize;
                let suffix_len = read_varint(&raw, &mut pos)? as usize;
                if shared > prev.len() {
                    return format_err("shared prefix longer than the previous guess");
                }
                if shared + suffix_len > MAX_GUESS_LEN {
                    return format_err("record longer than the guess limit");
                }
                let Some(suffix) = raw.get(pos..pos + suffix_len) else {
                    return format_err("truncated record suffix in block");
                };
                prev.truncate(shared);
                prev.extend_from_slice(suffix);
                pos += suffix_len;
            }
            let count = if self.config.counts {
                read_varint(&raw, &mut pos)?
            } else {
                1
            };
            out.push((prev.clone(), count));
        }
        if pos != raw.len() {
            return format_err("trailing bytes after the last record in a block");
        }
        if out.first().map(|(g, _)| g.as_slice()) != Some(entry.first.as_slice()) {
            return format_err("block's first record disagrees with the index");
        }
        Ok(())
    }

    /// Index of the block that could contain `key`, if any.
    fn block_for(&self, key: &[u8]) -> Option<usize> {
        let n = self.index.partition_point(|e| e.first.as_slice() <= key);
        n.checked_sub(1)
    }

    /// Looks up one guess; returns its emission count, or `None` if absent.
    /// Counts are 1 for membership-only archives.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures.
    pub fn contains(&self, guess: &str) -> Result<Option<u64>> {
        let key = guess.as_bytes();
        let Some(block) = self.block_for(key) else {
            return Ok(None);
        };
        let mut records = Vec::with_capacity(self.config.records_per_block);
        self.decode_block_into(block, &mut records)?;
        Ok(records
            .binary_search_by(|(g, _)| g.as_slice().cmp(key))
            .ok()
            .map(|i| records[i].1))
    }

    /// Range extraction: every stored guess starting with `prefix`, in
    /// ascending byte order, as `(guess, count)` pairs. Jumps straight to
    /// the first candidate block via the index and stops at the prefix's
    /// byte successor, so cost is proportional to the range, not the
    /// archive.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures, or non-UTF-8 record bytes
    /// (corruption: the writer only accepts strings).
    pub fn extract_prefix(&self, prefix: &str) -> Result<Vec<(String, u64)>> {
        let lo = prefix.as_bytes();
        let hi = prefix_successor(lo);
        let mut out = Vec::new();
        let start = self.block_for(lo).unwrap_or(0);
        let mut records = Vec::with_capacity(self.config.records_per_block);
        for i in start..self.index.len() {
            if let Some(hi) = &hi {
                if self.index[i].first.as_slice() >= hi.as_slice() {
                    break;
                }
            }
            self.decode_block_into(i, &mut records)?;
            for (guess, count) in &records {
                if guess.as_slice() < lo {
                    continue;
                }
                if !guess.starts_with(lo) {
                    break;
                }
                let guess = String::from_utf8(guess.clone())
                    .map_err(|_| StoreError::Format("non-UTF-8 guess record".to_string()))?;
                out.push((guess, *count));
            }
        }
        Ok(out)
    }

    /// A streaming cursor over every record in ascending order.
    pub fn records(&self) -> GuessCursor<'_> {
        GuessCursor {
            archive: self,
            block: 0,
            pos: 0,
            records: Vec::new(),
        }
    }

    /// Fully decodes the archive, checking sort order, per-block structure
    /// and the header checksum — the deep integrity pass behind
    /// `guess_archive verify`.
    ///
    /// # Errors
    ///
    /// The first structural violation found.
    pub fn verify(&self) -> Result<VerifyReport> {
        let mut cursor = self.records();
        let mut checksum = FNV_SEED;
        let mut count = 0u64;
        let mut prev: Option<Vec<u8>> = None;
        while let Some((guess, record_count)) = cursor.next_record()? {
            if let Some(p) = &prev {
                if guess.as_slice() <= p.as_slice() {
                    return format_err("records are not strictly ascending across blocks");
                }
            }
            checksum = checksum_guess(checksum, &guess, record_count);
            prev = Some(guess);
            count += 1;
        }
        if count != self.record_count {
            return format_err(format!(
                "decoded {count} records, header claims {}",
                self.record_count
            ));
        }
        if checksum != self.checksum {
            return format_err("record checksum mismatch (archive corrupted)");
        }
        Ok(VerifyReport {
            record_count: count,
            block_count: self.index.len() as u64,
            checksum,
        })
    }
}

/// The smallest byte string greater than every string with prefix `p`
/// (`None` when no upper bound exists — all-0xFF or empty prefixes).
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut s = prefix.to_vec();
    while let Some(&last) = s.last() {
        if last == 0xff {
            s.pop();
        } else {
            *s.last_mut().expect("non-empty") = last + 1;
            return Some(s);
        }
    }
    None
}

/// Streaming, block-at-a-time record iteration (used by merge and verify).
pub struct GuessCursor<'a> {
    archive: &'a GuessArchive,
    block: usize,
    pos: usize,
    records: Vec<(Vec<u8>, u64)>,
}

impl GuessCursor<'_> {
    /// The next record in ascending byte order, or `None` at the end.
    ///
    /// # Errors
    ///
    /// I/O or block-decoding failures.
    pub fn next_record(&mut self) -> Result<Option<(Vec<u8>, u64)>> {
        loop {
            if self.pos < self.records.len() {
                let record = self.records[self.pos].clone();
                self.pos += 1;
                return Ok(Some(record));
            }
            if self.block >= self.archive.block_count() {
                return Ok(None);
            }
            self.archive
                .decode_block_into(self.block, &mut self.records)?;
            self.block += 1;
            self.pos = 0;
        }
    }
}

impl KeyedSource<Vec<u8>> for GuessCursor<'_> {
    fn next_record(&mut self) -> Result<Option<(Vec<u8>, u64)>> {
        GuessCursor::next_record(self)
    }
}

// ---------------------------------------------------------------------------
// Builder (external merge sort, shared skeleton with DigestStoreBuilder)
// ---------------------------------------------------------------------------

/// Bounded-memory streaming construction of `PFGUESS v1` archives: the
/// [`crate::DigestStoreBuilder`] external-merge-sort skeleton over
/// variable-length guess keys. Spill runs are [`GuessStreamWriter`] streams
/// behind `ScratchFile` drop-guards, so scratch state never outlives the
/// builder — even when a spill or the final k-way merge fails.
pub struct GuessArchiveBuilder {
    config: GuessConfig,
    memory_records: usize,
    scratch_dir: PathBuf,
    buffer: Vec<(Vec<u8>, u64)>,
    runs: Vec<ScratchFile>,
    ingested: u64,
    /// Chaos seam: `(nth_spill, byte_budget)`, as
    /// [`crate::DigestStoreBuilder::with_injected_spill_fault`].
    spill_fault: Option<(u64, u64)>,
    spills: u64,
}

impl GuessArchiveBuilder {
    /// Creates a builder; scratch runs default to [`std::env::temp_dir`].
    pub fn new(config: GuessConfig) -> GuessArchiveBuilder {
        GuessArchiveBuilder {
            config,
            memory_records: DEFAULT_MEMORY_RECORDS,
            scratch_dir: std::env::temp_dir(),
            buffer: Vec::new(),
            runs: Vec::new(),
            ingested: 0,
            spill_fault: None,
            spills: 0,
        }
    }

    /// Caps in-memory buffered records before a sorted run is spilled.
    #[must_use]
    pub fn with_memory_records(mut self, n: usize) -> GuessArchiveBuilder {
        self.memory_records = n.max(1);
        self
    }

    /// Directory for spilled sorted runs (must exist and be writable).
    #[must_use]
    pub fn with_scratch_dir(mut self, dir: impl Into<PathBuf>) -> GuessArchiveBuilder {
        self.scratch_dir = dir.into();
        self
    }

    /// Chaos seam: make the `nth` spill (0-based) fail after `byte_budget`
    /// bytes.
    #[must_use]
    pub fn with_injected_spill_fault(mut self, nth: u64, byte_budget: u64) -> GuessArchiveBuilder {
        self.spill_fault = Some((nth, byte_budget));
        self
    }

    /// Records ingested so far (pre-dedup).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Ingests one guess with an emission count; duplicates accumulate.
    ///
    /// # Errors
    ///
    /// Spill I/O failures, or an over-long guess.
    pub fn add_guess(&mut self, guess: &str, count: u64) -> Result<()> {
        if guess.len() > MAX_GUESS_LEN {
            return format_err(format!(
                "guess is {} bytes, limit is {MAX_GUESS_LEN}",
                guess.len()
            ));
        }
        self.buffer.push((guess.as_bytes().to_vec(), count.max(1)));
        self.ingested += 1;
        if self.buffer.len() >= self.memory_records {
            self.spill()?;
        }
        Ok(())
    }

    /// Ingests every non-empty line of a wordlist reader (count 1 each).
    ///
    /// # Errors
    ///
    /// Read or spill failures.
    pub fn add_wordlist(&mut self, reader: impl BufRead) -> Result<u64> {
        let mut added = 0u64;
        for line in reader.lines() {
            let line = line?;
            if !line.is_empty() {
                self.add_guess(&line, 1)?;
                added += 1;
            }
        }
        Ok(added)
    }

    /// Sorts and dedups `buffer` in place (counts summed, saturating).
    fn compact(buffer: &mut Vec<(Vec<u8>, u64)>) {
        buffer.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        buffer.dedup_by(|next, kept| {
            if next.0 == kept.0 {
                kept.1 = kept.1.saturating_add(next.1);
                true
            } else {
                false
            }
        });
    }

    /// Spills the compacted buffer as one sorted run file (a counted
    /// [`GuessStreamWriter`] stream, regardless of the archive's counts
    /// flag — the final writer decides what is served).
    fn spill(&mut self) -> Result<()> {
        Self::compact(&mut self.buffer);
        if self.buffer.is_empty() {
            return Ok(());
        }
        let seq = crate::builder::next_run_seq();
        let path = self
            .scratch_dir
            .join(format!("pfguess-run-{}-{seq}.tmp", std::process::id()));
        // Guard before create: a write failure below unlinks the partial run.
        let guard = ScratchFile::new(path);
        let file = File::create(guard.path())?;
        let fault = self.spill_fault.filter(|&(nth, _)| nth == self.spills);
        self.spills += 1;
        let buffer = &self.buffer;
        let write_records = |out: &mut dyn Write| -> Result<()> {
            let mut stream = GuessStreamWriter::new(out, true);
            for (guess, count) in buffer {
                stream.push(guess, *count)?;
            }
            stream.flush()
        };
        match fault {
            Some((_, budget)) => {
                write_records(&mut BufWriter::new(FaultyWrite::new(file, budget)))?;
            }
            None => write_records(&mut BufWriter::new(file))?,
        }
        self.buffer.clear();
        self.runs.push(guard);
        Ok(())
    }

    /// Merges all spilled runs plus the live buffer into the archive at
    /// `path`, returning its stats. Consumes the builder; scratch runs are
    /// deleted afterwards (drop-guards).
    ///
    /// # Errors
    ///
    /// I/O failures at any stage; the target path is written atomically.
    pub fn finish(mut self, path: impl AsRef<Path>) -> Result<GuessStats> {
        Self::compact(&mut self.buffer);
        let buffer = std::mem::take(&mut self.buffer);

        let mut sources: Vec<Box<dyn KeyedSource<Vec<u8>>>> =
            Vec::with_capacity(self.runs.len() + 1);
        for run in &self.runs {
            sources.push(Box::new(RunGuessReader {
                stream: GuessStreamReader::new(BufReader::new(File::open(run.path())?), true),
            }));
        }
        sources.push(Box::new(VecGuessSource {
            iter: buffer.into_iter(),
        }));

        let mut writer = GuessArchiveWriter::create(path, self.config)?;
        merge_keyed(sources, |guess, count| writer.push_bytes(&guess, count))?;
        writer.finish()
        // `self` drops here; the ScratchFile guards remove the run files.
    }
}

/// A spilled sorted run: a counted guess stream, EOF-terminated.
struct RunGuessReader {
    stream: GuessStreamReader<BufReader<File>>,
}

impl KeyedSource<Vec<u8>> for RunGuessReader {
    fn next_record(&mut self) -> Result<Option<(Vec<u8>, u64)>> {
        self.stream.next_guess()
    }
}

/// The final in-memory buffer as a merge source.
struct VecGuessSource {
    iter: std::vec::IntoIter<(Vec<u8>, u64)>,
}

impl KeyedSource<Vec<u8>> for VecGuessSource {
    fn next_record(&mut self) -> Result<Option<(Vec<u8>, u64)>> {
        Ok(self.iter.next())
    }
}

// ---------------------------------------------------------------------------
// N-way archive merge
// ---------------------------------------------------------------------------

/// Unions N shard archives into one at `out`: guesses deduplicated, counts
/// summed (saturating). All inputs must share the same [`GuessConfig`] —
/// that is what guarantees the merged archive is byte-identical to a
/// one-pass build over the union, for **any** merge tree or input order.
///
/// # Errors
///
/// No inputs, mismatched configs, unreadable inputs, or write failures.
pub fn merge_archives<P: AsRef<Path>>(inputs: &[P], out: impl AsRef<Path>) -> Result<GuessStats> {
    if inputs.is_empty() {
        return format_err("merge needs at least one input archive");
    }
    let archives: Vec<GuessArchive> = inputs
        .iter()
        .map(GuessArchive::open)
        .collect::<Result<_>>()?;
    let config = archives[0].config();
    for archive in &archives[1..] {
        if archive.config() != config {
            return format_err(format!(
                "mismatched shard configs: {:?} vs {:?} ({})",
                config,
                archive.config(),
                archive.path().display()
            ));
        }
    }
    let sources: Vec<Box<dyn KeyedSource<Vec<u8>> + '_>> = archives
        .iter()
        .map(|a| Box::new(a.records()) as Box<dyn KeyedSource<Vec<u8>> + '_>)
        .collect();
    let mut writer = GuessArchiveWriter::create(out, config)?;
    merge_keyed(sources, |guess, count| writer.push_bytes(&guess, count))?;
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pfguess-unit-{}-{tag}.pfg", std::process::id()))
    }

    #[test]
    fn stream_round_trips_with_checksum() {
        let mut encoded = Vec::new();
        let records: Vec<(&str, u64)> = vec![
            ("alpha", 3),
            ("alphabet", 1),
            ("beta", 7),
            ("betamax", 2),
            ("gamma", 1),
        ];
        let mut writer = GuessStreamWriter::new(&mut encoded, true);
        for (guess, count) in &records {
            writer.push(guess.as_bytes(), *count).unwrap();
        }
        let (written, checksum) = (writer.records(), writer.checksum());
        assert_eq!(written, 5);

        let mut reader = GuessStreamReader::new(encoded.as_slice(), true);
        for (guess, count) in &records {
            let (g, c) = reader.next_guess().unwrap().unwrap();
            assert_eq!((g.as_slice(), c), (guess.as_bytes(), *count));
        }
        assert!(reader.next_guess().unwrap().is_none(), "clean EOF");
        assert_eq!(reader.checksum(), checksum, "reader recomputes the sum");
    }

    #[test]
    fn stream_rejects_unsorted_and_truncated_input() {
        let mut encoded = Vec::new();
        let mut writer = GuessStreamWriter::new(&mut encoded, true);
        writer.push(b"mango", 1).unwrap();
        assert!(writer.push(b"mango", 1).is_err(), "duplicates rejected");
        assert!(writer.push(b"apple", 1).is_err(), "descending rejected");
        drop(writer);

        encoded.truncate(encoded.len() - 1);
        let mut reader = GuessStreamReader::new(encoded.as_slice(), true);
        assert!(reader.next_guess().is_err(), "truncated record is an error");
    }

    #[test]
    fn archive_round_trips_and_serves_lookups() {
        let path = temp_path("roundtrip");
        let config = GuessConfig {
            counts: true,
            records_per_block: 3,
        };
        let mut writer = GuessArchiveWriter::create(&path, config).unwrap();
        let guesses: Vec<String> = (0..25).map(|i| format!("pw{i:03}")).collect();
        for (i, guess) in guesses.iter().enumerate() {
            writer.push(guess, i as u64 + 1).unwrap();
        }
        let stats = writer.finish().unwrap();
        assert_eq!(stats.record_count, 25);
        assert_eq!(stats.block_count, 9, "25 records over 3-record blocks");

        let archive = GuessArchive::open(&path).unwrap();
        assert_eq!(archive.record_count(), 25);
        assert_eq!(archive.contains("pw007").unwrap(), Some(8));
        assert_eq!(archive.contains("pw777").unwrap(), None);
        let range = archive.extract_prefix("pw01").unwrap();
        assert_eq!(range.len(), 10, "pw010..=pw019");
        assert_eq!(range[0], ("pw010".to_string(), 11));
        assert_eq!(archive.extract_prefix("zz").unwrap(), Vec::new());
        let all = archive.extract_prefix("").unwrap();
        assert_eq!(all.len(), 25, "empty prefix extracts everything");
        archive.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_archives_are_valid() {
        let path = temp_path("empty");
        let writer = GuessArchiveWriter::create(&path, GuessConfig::default()).unwrap();
        let stats = writer.finish().unwrap();
        assert_eq!(stats.record_count, 0);
        let archive = GuessArchive::open(&path).unwrap();
        assert_eq!(archive.record_count(), 0);
        assert_eq!(archive.contains("anything").unwrap(), None);
        archive.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prefix_successor_handles_ff_tails() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(b"ab\xff"), Some(b"ac".to_vec()));
        assert_eq!(prefix_successor(b"\xff\xff"), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn corrupted_archives_fail_verify() {
        let path = temp_path("corrupt");
        let mut writer = GuessArchiveWriter::create(&path, GuessConfig::default()).unwrap();
        for i in 0..100 {
            writer.push(&format!("guess{i:04}"), 1).unwrap();
        }
        writer.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + 10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let archive = GuessArchive::open(&path).unwrap();
        assert!(archive.verify().is_err(), "bit flip must fail verify");
        std::fs::remove_file(&path).unwrap();
    }
}
