//! Versioned binary trace capture & replay — the recorded-trace backend.
//!
//! The generator in this crate synthesises traces *live*; this module is
//! the other half of the paper's SimPoint methodology: record a
//! workload's per-thread memory-access streams **once** into a compact,
//! versioned container, then replay the file through the simulator as
//! many times as needed — bit-identical to the live run it captured, and
//! cheap to share between machines, sweeps and figure binaries.
//!
//! ## Container layout
//!
//! ```text
//! magic "PLTC" | version u32 | meta_len u32 | meta JSON ([`TraceMeta`]) |
//! thread_count u32 | per-thread record count u64 × thread_count |
//! chunk*
//!
//! v1 chunk = thread u32 | records u32 | payload_len u32 | payload
//! v2 chunk = thread u32 | records u32 | codec u8 | raw_len u32 |
//!            payload_len u32 | payload
//! ```
//!
//! Each chunk holds up to [`CHUNK_RECORDS`] records of **one** thread,
//! encoded as two varints per record: `(gap << 1) | is_write` and the
//! zigzag of the address delta against the previous record in the chunk
//! (the first record deltas against 0). Chunks of different threads may
//! interleave arbitrarily — a capture run emits them in simulated-time
//! order — and the per-thread record counts in the header are patched in
//! by [`TraceWriter::finish`], so both writing and reading stream chunk
//! by chunk without ever materialising a full trace in memory.
//!
//! **Version 2** adds per-chunk block compression behind the format
//! version: `codec` is [`CODEC_RAW`] (payload is the varint stream,
//! `raw_len == payload_len`) or [`CODEC_DICT`] (payload is the
//! [`crate::dict`] FSST-style compression of a `raw_len`-byte varint
//! stream). The writer compresses each chunk independently and falls
//! back to `CODEC_RAW` per chunk whenever compression does not shrink
//! it, so a v2 file is never larger than framing overhead vs v1.
//! [`TraceWriter::create`] keeps writing byte-identical v1;
//! [`TraceWriter::create_with`] + [`Compression::Dict`] opts into v2.
//! Readers accept both versions transparently.
//!
//! ## Reading and replaying
//!
//! [`read_info`] / [`load_info`] decode only the header; [`validate_path`]
//! streams the whole file, decodes and cross-checks every chunk against
//! the header counts and rejects any gap above [`MAX_GAP`] (the cheap
//! pre-flight the `trace`/`sweep` binaries run so a corrupt file is a
//! readable error, not a mid-simulation panic); [`scan_stats`] is the same
//! walk, which also tallies per-codec chunk counts and the compression
//! ratio for `trace info`.
//!
//! [`TraceInfo::admit`] is the one admission rule of a replay: the
//! machine's core count, an instruction target within the capture's and
//! benchmark names that still resolve.
//!
//! [`TraceReader`] is the one reader of a thread's records: it walks the
//! chunks in file order, seeks over other threads' payloads and stops at
//! the thread's record count. [`RecordedThread`] wraps one on its own file
//! handle as the [`TraceSource`] the simulator plugs in where a live
//! [`TraceGenerator`] would go; a recorded stream that runs dry stops the
//! replay (see its docs).
//!
//! Because chunks are length-prefixed and self-contained, decoding can
//! run ahead of consumption: [`open_sources_with`] a non-zero
//! [`DecodeOptions::workers`] spawns one pool of decode workers shared by
//! every [`RecordedThread`], and each reader keeps `workers + 2` of its
//! chunks in flight on it while the simulator drains records. Results
//! come back in submission order, so replay is bit-identical to inline
//! decoding at any worker count.
//!
//! Every length field a reader trusts is capped first: metadata at
//! [`MAX_META_BYTES`] (mirroring the service protocol's frame cap) and
//! chunk payloads at [`MAX_CHUNK_PAYLOAD`], so a corrupt or hostile
//! header fails with a one-line error instead of a multi-GiB allocation.

use crate::dict;
use crate::record::{MemRecord, MAX_GAP};
use crate::{BenchmarkProfile, TraceGenerator};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Container magic.
pub const TRACE_MAGIC: &[u8; 4] = b"PLTC";
/// Original container format version: uncompressed chunk payloads.
pub const TRACE_VERSION: u32 = 1;
/// Version 2: per-chunk codec framing (`codec u8 | raw_len u32` between
/// the record count and the payload length).
pub const TRACE_VERSION_V2: u32 = 2;
/// Records per chunk: small enough that a pending chunk is a few KB of
/// buffer, large enough that chunk headers are noise.
pub const CHUNK_RECORDS: usize = 4096;
/// Upper bound on a single chunk's payload or decompressed size. A
/// full chunk of worst-case varints is well under 128 KiB, so 1 MiB is
/// generous headroom while keeping a corrupt length field from
/// allocating unbounded memory.
pub const MAX_CHUNK_PAYLOAD: u32 = 1 << 20;
/// Upper bound on the header's metadata blob. This is the workspace's
/// single "no untrusted u32 length may allocate more than this" line:
/// the sweep service's `MAX_FRAME_BYTES` (`src/service/protocol.rs`) is
/// defined from this constant, and repolint's drift rule keeps the
/// pairing honest.
pub const MAX_META_BYTES: u32 = 64 * 1024 * 1024;
/// Upper bound on a trace's thread count. The paper's CPA experiments
/// top out at 256 cores; 64 Ki leaves two orders of magnitude headroom
/// while keeping a hostile header from sizing per-thread tables
/// unboundedly.
pub const MAX_TRACE_THREADS: usize = 1 << 16;
/// Upper bound on [`DecodeOptions::workers`]: the decode pool spawns one
/// thread per worker, and one or two already keep a replay fed.
pub const MAX_DECODE_WORKERS: usize = 64;
/// v2 chunk codec: payload is the varint stream, stored as-is.
pub const CODEC_RAW: u8 = 0;
/// v2 chunk codec: payload is [`crate::dict`]-compressed.
pub const CODEC_DICT: u8 = 1;

/// Per-chunk payload compression a [`TraceWriter`] applies, deciding the
/// container version it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// No compression: byte-identical v1 output.
    #[default]
    None,
    /// FSST-style symbol-table compression per chunk ([`crate::dict`]),
    /// with per-chunk raw fallback: v2 output.
    Dict,
}

impl Compression {
    /// The container format version this choice writes.
    pub fn version(self) -> u32 {
        match self {
            Compression::None => TRACE_VERSION,
            Compression::Dict => TRACE_VERSION_V2,
        }
    }
}

/// Why a trace file could not be written, read or replayed.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a valid trace container (bad magic, unsupported
    /// version, corrupt chunk, count mismatch, ...).
    Format(String),
}

impl TraceError {
    pub(crate) fn format(msg: impl Into<String>) -> Self {
        TraceError::Format(msg.into())
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "{e}"),
            TraceError::Format(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// One thread's worth of memory-access records, as the simulator consumes
/// them.
///
/// Implemented by the live [`TraceGenerator`] and by the recorded-file
/// [`RecordedThread`], so every simulation can run from either; the
/// simulator treats sources as infinite streams (the paper keeps finished
/// threads running so contention stays realistic). A recorded source is
/// finite: [`TraceInfo::admit`] refuses a replay above the capture's
/// target, and a stream that still runs dry panics (there is no error
/// channel here) rather than silently break its bit-fidelity claim.
pub trait TraceSource: Send + fmt::Debug {
    /// Produce the next memory-access record.
    fn next_record(&mut self) -> MemRecord;
}

impl TraceSource for TraceGenerator {
    fn next_record(&mut self) -> MemRecord {
        // Resolves to the inherent method (inherent wins over the trait).
        self.next_record()
    }
}

/// Workload metadata carried in the container header: what was recorded
/// and under which knobs, so a trace file is self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Workload display name (`"2T_06"`, `"gzip+eon"`).
    pub workload: String,
    /// Benchmark names, one per thread — replay resolves these to
    /// [`BenchmarkProfile`]s for the timing model (base CPI, code
    /// footprint); only the memory-access stream comes from the file.
    pub benchmarks: Vec<String>,
    /// Base RNG seed of the capture run.
    pub seed: u64,
    /// Seed salt of the capture run.
    pub seed_salt: u64,
    /// Committed-instruction target the capture simulation ran to.
    /// [`TraceInfo::admit`] admits replays to targets from 1 up to it, so
    /// a 0 admits none. Only replays under the capture's own
    /// [`TraceMeta::scheme`] are guaranteed not to exhaust the recorded
    /// streams at a target up to it: other schemes consume differently
    /// per thread and can run a stream dry, which stops the replay (see
    /// [`RecordedThread`]).
    pub insts: u64,
    /// Scheme acronym of the capture run (`"L"`, `"M-0.75N"`, ...), if
    /// the writer recorded one.
    pub scheme: Option<String>,
}

impl TraceMeta {
    /// Thread (= core) count of the recorded workload.
    pub fn threads(&self) -> usize {
        self.benchmarks.len()
    }
}

/// Decoded container header: format version, metadata and per-thread
/// record counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceInfo {
    /// Container format version the file was written with.
    pub version: u32,
    /// Workload metadata.
    pub meta: TraceMeta,
    /// Records recorded per thread, in thread order.
    pub records: Vec<u64>,
}

impl TraceInfo {
    /// Total records across all threads.
    pub fn total_records(&self) -> u64 {
        self.records.iter().sum()
    }

    /// Admit a replay of this container on `cores` cores to `insts`
    /// committed instructions per thread, returning the benchmark
    /// profiles of its threads for the timing model.
    ///
    /// Refuses a thread count other than `cores`, a target of 0 or above
    /// the capture's [`TraceMeta::insts`] (so a header with `insts` 0
    /// admits no replay), and a benchmark name that no longer resolves.
    /// This checks the header only; [`validate_path`] checks the chunks.
    pub fn admit(&self, cores: usize, insts: u64) -> Result<Vec<BenchmarkProfile>, TraceError> {
        let meta = &self.meta;
        if meta.threads() != cores {
            return Err(TraceError::format(format!(
                "the trace records {} threads, but the machine has {cores} cores",
                meta.threads()
            )));
        }
        if insts == 0 || insts > meta.insts {
            return Err(TraceError::format(format!(
                "captured to {} instructions per thread, but the replay targets {insts}; \
                 a target must be positive and at most the capture's",
                meta.insts
            )));
        }
        meta.benchmarks
            .iter()
            .map(|b| {
                crate::benchmark(b).ok_or_else(|| {
                    TraceError::format(format!("the trace names unknown benchmark `{b}`"))
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Varints.
// ---------------------------------------------------------------------

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflow",
            ));
        }
        v |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ChunkBuf {
    payload: Vec<u8>,
    records: u32,
    prev_addr: u64,
}

/// Streaming trace writer: records are buffered per thread into chunks of
/// [`CHUNK_RECORDS`] and flushed as they fill, so memory stays bounded by
/// one pending chunk per thread no matter how long the trace runs.
///
/// The per-thread record counts live at a fixed header offset and are
/// written as zeros by [`TraceWriter::create`]; [`TraceWriter::finish`]
/// flushes every pending chunk and seeks back to patch them — forgetting
/// to call it leaves a file whose header claims zero records.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    w: W,
    counts: Vec<u64>,
    counts_pos: u64,
    bufs: Vec<ChunkBuf>,
    compression: Compression,
    /// Scratch for the compressed form of the chunk being flushed.
    comp: Vec<u8>,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Write the container header for `meta` and return a writer ready to
    /// accept records for `meta.threads()` threads. Writes version 1,
    /// byte-identical to every pre-v2 build — see [`TraceWriter::create_with`]
    /// for compressed output.
    pub fn create(w: W, meta: &TraceMeta) -> Result<Self, TraceError> {
        Self::create_with(w, meta, Compression::None)
    }

    /// [`TraceWriter::create`] with an explicit [`Compression`] choice;
    /// [`Compression::Dict`] writes a version-2 container whose chunks
    /// are individually compressed (with per-chunk raw fallback).
    pub fn create_with(
        mut w: W,
        meta: &TraceMeta,
        compression: Compression,
    ) -> Result<Self, TraceError> {
        let threads = meta.threads();
        if threads == 0 {
            return Err(TraceError::format(
                "trace metadata names no benchmarks (zero threads)",
            ));
        }
        let meta_json = serde_json::to_string(meta)
            .map_err(|e| TraceError::format(format!("metadata does not serialize: {e}")))?;
        w.write_all(TRACE_MAGIC)?;
        w.write_all(&compression.version().to_le_bytes())?;
        w.write_all(&(meta_json.len() as u32).to_le_bytes())?;
        w.write_all(meta_json.as_bytes())?;
        w.write_all(&(threads as u32).to_le_bytes())?;
        let counts_pos = w.stream_position()?;
        for _ in 0..threads {
            w.write_all(&0u64.to_le_bytes())?;
        }
        Ok(TraceWriter {
            w,
            // repolint: allow(cap-alloc) — writer-side: the thread count comes from the caller's own meta, not a decoded file
            counts: vec![0; threads],
            counts_pos,
            bufs: (0..threads).map(|_| ChunkBuf::default()).collect(),
            compression,
            comp: Vec::new(),
        })
    }

    /// Threads this writer records.
    pub fn threads(&self) -> usize {
        self.counts.len()
    }

    /// Records accepted so far, per thread.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Append one record to `thread`'s stream.
    pub fn push(&mut self, thread: usize, rec: MemRecord) -> Result<(), TraceError> {
        let buf = self
            .bufs
            .get_mut(thread)
            .ok_or_else(|| TraceError::format(format!("thread {thread} out of range")))?;
        write_varint(
            &mut buf.payload,
            (u64::from(rec.gap) << 1) | u64::from(rec.is_write),
        )?;
        write_varint(
            &mut buf.payload,
            zigzag(rec.addr.wrapping_sub(buf.prev_addr) as i64),
        )?;
        buf.prev_addr = rec.addr;
        buf.records += 1;
        // repolint: allow(panic) — the bufs.get_mut above bounds-checked thread; counts has the same length
        self.counts[thread] += 1;
        if buf.records as usize >= CHUNK_RECORDS {
            self.flush_chunk(thread)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self, thread: usize) -> Result<(), TraceError> {
        // repolint: allow(panic) — internal: every caller has already bounds-checked thread against bufs
        let buf = &mut self.bufs[thread];
        if buf.records == 0 {
            return Ok(());
        }
        self.w.write_all(&(thread as u32).to_le_bytes())?;
        self.w.write_all(&buf.records.to_le_bytes())?;
        match self.compression {
            Compression::None => {
                self.w
                    .write_all(&(buf.payload.len() as u32).to_le_bytes())?;
                self.w.write_all(&buf.payload)?;
            }
            Compression::Dict => {
                let raw_len = buf.payload.len() as u32;
                dict::compress(&buf.payload, &mut self.comp);
                let (codec, bytes) = if self.comp.len() < buf.payload.len() {
                    (CODEC_DICT, self.comp.as_slice())
                } else {
                    (CODEC_RAW, buf.payload.as_slice())
                };
                self.w.write_all(&[codec])?;
                self.w.write_all(&raw_len.to_le_bytes())?;
                self.w.write_all(&(bytes.len() as u32).to_le_bytes())?;
                self.w.write_all(bytes)?;
            }
        }
        buf.payload.clear();
        buf.records = 0;
        buf.prev_addr = 0;
        Ok(())
    }

    /// Flush every pending chunk, patch the per-thread record counts into
    /// the header, and hand the underlying writer back.
    pub fn finish(mut self) -> Result<W, TraceError> {
        for t in 0..self.bufs.len() {
            self.flush_chunk(t)?;
        }
        self.w.seek(SeekFrom::Start(self.counts_pos))?;
        for &c in &self.counts {
            self.w.write_all(&c.to_le_bytes())?;
        }
        self.w.seek(SeekFrom::End(0))?;
        self.w.flush()?;
        Ok(self.w)
    }
}

// ---------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Decode the container header (magic through the record-count table),
/// leaving `r` positioned at the first chunk.
pub fn read_info<R: Read>(r: &mut R) -> Result<TraceInfo, TraceError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|_| TraceError::format("not a trace file (too short for the magic)"))?;
    if &magic != TRACE_MAGIC {
        return Err(TraceError::format(format!(
            "not a trace file (magic {magic:02x?}, expected {TRACE_MAGIC:02x?} = \"PLTC\")"
        )));
    }
    let version = read_u32(r)?;
    if version != TRACE_VERSION && version != TRACE_VERSION_V2 {
        return Err(TraceError::format(format!(
            "unsupported trace format version {version} \
             (this build reads versions {TRACE_VERSION} and {TRACE_VERSION_V2})"
        )));
    }
    let meta_len = read_u32(r)?;
    if meta_len > MAX_META_BYTES {
        return Err(TraceError::format(format!(
            "implausible metadata length {meta_len} (cap {MAX_META_BYTES})"
        )));
    }
    // `take` + `read_to_end` so a lying length allocates no more than the
    // bytes actually present.
    let mut meta_bytes = Vec::new();
    r.by_ref()
        .take(u64::from(meta_len))
        .read_to_end(&mut meta_bytes)?;
    if meta_bytes.len() != meta_len as usize {
        return Err(TraceError::format("trace metadata truncated"));
    }
    let meta_json = std::str::from_utf8(&meta_bytes)
        .map_err(|_| TraceError::format("metadata is not UTF-8"))?;
    let meta: TraceMeta = serde_json::from_str(meta_json)
        .map_err(|e| TraceError::format(format!("bad trace metadata: {e}")))?;
    let threads = read_u32(r)? as usize;
    if threads != meta.threads() {
        return Err(TraceError::format(format!(
            "header thread count {threads} disagrees with the {} metadata benchmarks",
            meta.threads()
        )));
    }
    if threads > MAX_TRACE_THREADS {
        return Err(TraceError::format(format!(
            "implausible thread count {threads} (cap {MAX_TRACE_THREADS})"
        )));
    }
    let mut records = Vec::with_capacity(threads);
    for _ in 0..threads {
        records.push(read_u64(r)?);
    }
    Ok(TraceInfo {
        version,
        meta,
        records,
    })
}

/// [`read_info`] on a file path.
pub fn load_info(path: impl AsRef<Path>) -> Result<TraceInfo, TraceError> {
    let path = path.as_ref();
    let mut r = BufReader::new(File::open(path)?);
    read_info(&mut r)
}

/// One chunk's decoded header — version differences are normalised away
/// (a v1 chunk is `CODEC_RAW` with `raw_len == payload_len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkHeader {
    thread: usize,
    records: u32,
    codec: u8,
    raw_len: u32,
    payload_len: u32,
}

/// One chunk's header, or `None` at a clean end of stream. Every length
/// field is capped before any caller allocates from it.
fn read_chunk_header<R: Read>(
    r: &mut R,
    version: u32,
    threads: usize,
) -> Result<Option<ChunkHeader>, TraceError> {
    let mut first = [0u8; 1];
    if r.read(&mut first)? == 0 {
        return Ok(None);
    }
    let mut rest = [0u8; 16];
    let rest_len = if version >= TRACE_VERSION_V2 { 16 } else { 11 };
    // repolint: allow(panic) — rest_len is 11 or 16 by construction; rest is 16 bytes
    r.read_exact(&mut rest[..rest_len])
        .map_err(|_| TraceError::format("truncated chunk header"))?;
    let mut b4 = [0u8; 4];
    b4[0] = first[0];
    b4[1..4].copy_from_slice(&rest[0..3]);
    let thread = u32::from_le_bytes(b4) as usize;
    // Literal indexes into the fixed 16-byte header — infallible, unlike
    // the slice-and-try_into spelling this replaces.
    let records = u32::from_le_bytes([rest[3], rest[4], rest[5], rest[6]]);
    let (codec, raw_len, payload_len) = if version >= TRACE_VERSION_V2 {
        (
            rest[7],
            u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]),
            u32::from_le_bytes([rest[12], rest[13], rest[14], rest[15]]),
        )
    } else {
        let payload_len = u32::from_le_bytes([rest[7], rest[8], rest[9], rest[10]]);
        (CODEC_RAW, payload_len, payload_len)
    };
    if thread >= threads {
        return Err(TraceError::format(format!(
            "chunk names thread {thread}, but the trace has {threads} threads"
        )));
    }
    if records == 0 {
        return Err(TraceError::format("empty chunk"));
    }
    if records as usize > CHUNK_RECORDS {
        return Err(TraceError::format(format!(
            "chunk claims {records} records (cap {CHUNK_RECORDS})"
        )));
    }
    if payload_len > MAX_CHUNK_PAYLOAD || raw_len > MAX_CHUNK_PAYLOAD {
        return Err(TraceError::format(format!(
            "implausible chunk payload length {payload_len} (raw {raw_len}, cap {MAX_CHUNK_PAYLOAD})"
        )));
    }
    match codec {
        CODEC_RAW if raw_len != payload_len => {
            return Err(TraceError::format(format!(
                "stored chunk's raw length {raw_len} disagrees with its payload length {payload_len}"
            )));
        }
        CODEC_RAW | CODEC_DICT => {}
        other => {
            return Err(TraceError::format(format!("unknown chunk codec {other}")));
        }
    }
    Ok(Some(ChunkHeader {
        thread,
        records,
        codec,
        raw_len,
        payload_len,
    }))
}

/// Decode a chunk `payload` into records, decompressing first when the
/// header says so; `raw` is decompression scratch.
fn decode_payload(
    h: &ChunkHeader,
    payload: &[u8],
    raw: &mut Vec<u8>,
    out: &mut Vec<MemRecord>,
) -> Result<(), TraceError> {
    let bytes: &[u8] = if h.codec == CODEC_DICT {
        dict::decompress(payload, h.raw_len as usize, raw).map_err(TraceError::format)?;
        raw
    } else {
        payload
    };
    decode_chunk(bytes, h.records, out)
}

/// The high bits of bytes 1–7 of a little-endian record word: a clear
/// one ends the delta varint within the word.
const DELTA_STOP_BITS: u64 = 0x8080_8080_8080_8000;

/// Decode one record from a single 8-byte little-endian load: its
/// `(gap << 1) | is_write` byte, its zigzagged delta and the bytes after
/// it. `None` unless 8 bytes remain, the gap varint is byte 0 and the
/// delta varint ends within bytes 1–7.
#[inline]
fn one_load(cur: &[u8]) -> Option<(u64, u64, &[u8])> {
    let word = u64::from_le_bytes(*cur.first_chunk::<8>()?);
    let stops = !word & DELTA_STOP_BITS;
    if word & 0x80 != 0 || stops == 0 {
        return None;
    }
    // Bytes 1 through the first stop, less their continuation bits, then
    // their 7-bit groups packed pairwise: bytes, 14-bit halves, 28-bit
    // halves.
    let d = ((word & (stops ^ (stops - 1))) >> 8) & 0x007f_7f7f_7f7f_7f7f;
    let d = (d & 0x007f_007f_007f_007f) | ((d & 0x7f00_7f00_7f00_7f00) >> 1);
    let d = (d & 0x0000_3fff_0000_3fff) | ((d & 0x3fff_0000_3fff_0000) >> 2);
    let d = (d & 0x0000_0000_0fff_ffff) | ((d & 0x0fff_ffff_0000_0000) >> 4);
    let len = (stops.trailing_zeros() as usize + 1) / 8;
    Some((word & 0x7f, d, cur.get(len..)?))
}

/// Decode `records` records out of a chunk `payload`, appending to `out`.
///
/// A record whose gap varint is one byte and whose delta varint ends
/// within the next seven bytes (nearly all of them) comes from one load
/// ([`one_load`]). Every other record takes the varint-at-a-time path,
/// and every error comes from that path or from the trailing-bytes check.
fn decode_chunk(payload: &[u8], records: u32, out: &mut Vec<MemRecord>) -> Result<(), TraceError> {
    let mut cur = payload;
    let mut prev_addr = 0u64;
    for _ in 0..records {
        let (gap, is_write, zz) = match one_load(cur) {
            Some((v, zz, rest)) => {
                cur = rest;
                // A one-byte varint: the gap is below 64.
                ((v >> 1) as u32, v & 1 == 1, zz)
            }
            None => {
                let v =
                    read_varint(&mut cur).map_err(|_| TraceError::format("truncated record"))?;
                let gap =
                    u32::try_from(v >> 1).map_err(|_| TraceError::format("gap overflows u32"))?;
                let zz =
                    read_varint(&mut cur).map_err(|_| TraceError::format("truncated record"))?;
                (gap, v & 1 == 1, zz)
            }
        };
        let addr = prev_addr.wrapping_add(unzigzag(zz) as u64);
        out.push(MemRecord {
            gap,
            addr,
            is_write,
        });
        prev_addr = addr;
    }
    if !cur.is_empty() {
        return Err(TraceError::format(format!(
            "chunk payload has {} trailing bytes",
            cur.len()
        )));
    }
    Ok(())
}

/// Streaming reader of **one thread's** records out of a container — the
/// only reader of a thread's chunks, inline or on a pool of decode workers.
///
/// One walk reads this thread's chunks in file order, skips other
/// threads' payloads with a relative seek and stops at the header's
/// record count, so the end of the stream is a clean `Ok(None)` even
/// though chunks of other threads may follow. Decoding state is bounded
/// by one chunk inline, and by `workers + 2` chunks in flight on a pool;
/// results come back in submission order, so the record stream is the
/// same either way.
#[derive(Debug)]
pub struct TraceReader<R> {
    r: R,
    thread: usize,
    info: TraceInfo,
    /// The thread's record count, from the header.
    total: u64,
    delivered: u64,
    /// Records in the chunks read off `r` so far.
    fetched: u64,
    chunk: Vec<MemRecord>,
    chunk_pos: usize,
    payload: Vec<u8>,
    raw: Vec<u8>,
    pool: Option<Arc<DecodePool>>,
    /// Replies of the chunks on the pool, oldest first.
    in_flight: VecDeque<mpsc::Receiver<Result<Vec<MemRecord>, TraceError>>>,
}

impl<R: Read + Seek> TraceReader<R> {
    /// Decode the header of `r` and position a reader on `thread`'s
    /// stream, decoding chunks inline.
    pub fn new(r: R, thread: usize) -> Result<Self, TraceError> {
        Self::with_pool(r, thread, None)
    }

    /// [`TraceReader::new`], decoding on `pool` when one is given.
    fn with_pool(
        mut r: R,
        thread: usize,
        pool: Option<Arc<DecodePool>>,
    ) -> Result<Self, TraceError> {
        let info = read_info(&mut r)?;
        let Some(&total) = info.records.get(thread) else {
            return Err(TraceError::format(format!(
                "thread {thread} out of range (trace has {})",
                info.meta.threads()
            )));
        };
        Ok(TraceReader {
            r,
            thread,
            info,
            total,
            delivered: 0,
            fetched: 0,
            chunk: Vec::new(),
            chunk_pos: 0,
            payload: Vec::new(),
            raw: Vec::new(),
            pool,
            in_flight: VecDeque::new(),
        })
    }

    /// The decoded header.
    pub fn info(&self) -> &TraceInfo {
        &self.info
    }

    /// Records already delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Next record of this thread's stream; `Ok(None)` once the header's
    /// record count has been delivered.
    pub fn try_next(&mut self) -> Result<Option<MemRecord>, TraceError> {
        if self.delivered >= self.total {
            return Ok(None);
        }
        loop {
            if let Some(&rec) = self.chunk.get(self.chunk_pos) {
                self.chunk_pos += 1;
                self.delivered += 1;
                return Ok(Some(rec));
            }
            self.next_chunk()?;
        }
    }

    /// Make this thread's next decoded chunk current.
    fn next_chunk(&mut self) -> Result<(), TraceError> {
        self.chunk_pos = 0;
        let Some(pool) = self.pool.clone() else {
            let h = self.read_chunk()?;
            self.chunk.clear();
            return decode_payload(&h, &self.payload, &mut self.raw, &mut self.chunk);
        };
        // Refill the window right after taking its oldest chunk, so the
        // workers decode ahead while that chunk's records drain.
        self.submit_ahead(&pool)?;
        let oldest = self.in_flight.pop_front();
        self.submit_ahead(&pool)?;
        self.chunk = oldest
            .ok_or_else(|| self.ends_early())?
            .recv()
            .map_err(|_| TraceError::format("trace decode worker disconnected"))??;
        Ok(())
    }

    /// Put this thread's next chunks on `pool` until `workers + 2` are in
    /// flight or the chunks read cover the record count.
    fn submit_ahead(&mut self, pool: &DecodePool) -> Result<(), TraceError> {
        while self.in_flight.len() < pool.workers.len() + 2 && self.fetched < self.total {
            let header = self.read_chunk()?;
            let (reply, decoded) = mpsc::channel();
            // A failed send drops `reply`, which the receive reports.
            let _ = pool.tasks.send(DecodeTask {
                header,
                payload: std::mem::take(&mut self.payload),
                reply,
            });
            self.in_flight.push_back(decoded);
        }
        Ok(())
    }

    /// The walk: read this thread's next chunk header and its payload
    /// into `payload`, seeking over other threads' payloads.
    fn read_chunk(&mut self) -> Result<ChunkHeader, TraceError> {
        loop {
            let h = read_chunk_header(&mut self.r, self.info.version, self.info.meta.threads())?
                .ok_or_else(|| self.ends_early())?;
            if h.thread != self.thread {
                self.r.seek_relative(i64::from(h.payload_len))?;
                continue;
            }
            self.payload.resize(h.payload_len as usize, 0);
            self.r
                .read_exact(&mut self.payload)
                .map_err(|_| TraceError::format("truncated chunk payload"))?;
            self.fetched += u64::from(h.records);
            return Ok(h);
        }
    }

    fn ends_early(&self) -> TraceError {
        TraceError::format(format!(
            "trace ends early: thread {} has {} of {} records",
            self.thread, self.fetched, self.total
        ))
    }
}

/// Stream the whole container once, cross-checking every chunk and the
/// header's per-thread record counts, and rejecting any record whose gap
/// exceeds [`MAX_GAP`]; returns the header on success.
///
/// This is the pre-flight the `trace` and `sweep` binaries (and scenario
/// expansion) run so a malformed file surfaces as a readable error before
/// any simulation starts. The codec itself round-trips any `u32` gap; only
/// a trace meant for simulation has to stay within the generator's cap.
/// It is [`scan_stats`] without the tallies.
pub fn validate_path(path: impl AsRef<Path>) -> Result<TraceInfo, TraceError> {
    scan_stats(path).map(|(info, _)| info)
}

/// Aggregate codec statistics of a container's chunks, as tallied by
/// [`scan_stats`] — the numbers behind `trace info`'s codec/ratio lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total chunks in the file.
    pub chunks: u64,
    /// Chunks stored with [`CODEC_DICT`] (always 0 for v1 files).
    pub dict_chunks: u64,
    /// On-disk payload bytes across all chunks (excluding framing).
    pub payload_bytes: u64,
    /// Decompressed payload bytes across all chunks.
    pub raw_bytes: u64,
}

impl TraceStats {
    /// Compression ratio `raw / stored` (1.0 for an uncompressed file).
    pub fn ratio(&self) -> f64 {
        if self.payload_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.payload_bytes as f64
        }
    }
}

/// [`validate_path`]'s one walk over the container, which also tallies
/// per-codec chunk counts and sizes alongside the header info: every
/// chunk is decoded and checked, so `trace info` rejects exactly what a
/// replay's pre-flight rejects.
pub fn scan_stats(path: impl AsRef<Path>) -> Result<(TraceInfo, TraceStats), TraceError> {
    let mut r = BufReader::new(File::open(path.as_ref())?);
    let info = read_info(&mut r)?;
    if let Some(t) = info.records.iter().position(|&c| c == 0) {
        return Err(TraceError::format(format!(
            "thread {t} has no records (an empty per-thread stream cannot replay)"
        )));
    }
    // repolint: allow(cap-alloc) — read_info already rejected threads > MAX_TRACE_THREADS
    let mut seen = vec![0u64; info.meta.threads()];
    let mut stats = TraceStats::default();
    let mut scratch = Vec::new();
    let mut raw = Vec::new();
    let mut decoded = Vec::new();
    while let Some(h) = read_chunk_header(&mut r, info.version, info.meta.threads())? {
        scratch.resize(h.payload_len as usize, 0);
        r.read_exact(&mut scratch)
            .map_err(|_| TraceError::format("truncated chunk payload"))?;
        decoded.clear();
        decode_payload(&h, &scratch, &mut raw, &mut decoded)?;
        // repolint: allow(panic) — read_chunk_header rejects h.thread >= threads
        let seen_t = &mut seen[h.thread];
        if let Some((i, r)) = decoded.iter().enumerate().find(|(_, r)| r.gap > MAX_GAP) {
            return Err(TraceError::format(format!(
                "thread {} record {} has a gap of {} instructions, above the cap of {MAX_GAP}",
                h.thread,
                *seen_t + i as u64,
                r.gap
            )));
        }
        *seen_t += u64::from(h.records);
        stats.chunks += 1;
        stats.dict_chunks += u64::from(h.codec == CODEC_DICT);
        stats.payload_bytes += u64::from(h.payload_len);
        stats.raw_bytes += u64::from(h.raw_len);
    }
    if seen != info.records {
        return Err(TraceError::format(format!(
            "per-thread record counts {seen:?} disagree with the header {:?}",
            info.records
        )));
    }
    Ok((info, stats))
}

// ---------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------

/// How recorded-trace chunks are decoded during replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeOptions {
    /// Decode worker threads shared by all threads of one container;
    /// 0 decodes inline on the consuming thread.
    pub workers: usize,
}

impl DecodeOptions {
    /// Decode with `n` shared worker threads (0 = inline).
    pub fn workers(n: usize) -> Self {
        DecodeOptions { workers: n }
    }
}

/// One chunk on its way to a decode worker, with the channel its records
/// go back on.
#[derive(Debug)]
struct DecodeTask {
    header: ChunkHeader,
    payload: Vec<u8>,
    reply: mpsc::Sender<Result<Vec<MemRecord>, TraceError>>,
}

/// Chunk-decode workers shared by every [`RecordedThread`] of one
/// container: one channel of [`DecodeTask`]s, drained by the workers.
///
/// Dropping the pool (when the last reader holding its `Arc` goes away)
/// hangs the channel up, so each worker returns once the channel is
/// empty, and joins them.
#[derive(Debug)]
pub(crate) struct DecodePool {
    tasks: mpsc::Sender<DecodeTask>,
    workers: Vec<JoinHandle<()>>,
}

impl DecodePool {
    /// Spawn `workers.max(1)` decode threads; a count above
    /// [`MAX_DECODE_WORKERS`] is an error before any thread starts.
    pub(crate) fn new(workers: usize) -> io::Result<Self> {
        if workers > MAX_DECODE_WORKERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{workers} decode workers requested (cap {MAX_DECODE_WORKERS})"),
            ));
        }
        let (tasks, queue) = mpsc::channel();
        let queue = Arc::new(Mutex::new(queue));
        let mut pool = DecodePool {
            tasks,
            workers: Vec::new(),
        };
        for i in 0..workers.max(1) {
            let queue = Arc::clone(&queue);
            pool.workers.push(
                std::thread::Builder::new()
                    .name(format!("pltc-decode-{i}"))
                    .spawn(move || decode_worker(&queue))?,
            );
        }
        Ok(pool)
    }
}

impl Drop for DecodePool {
    fn drop(&mut self) {
        // Swapping in a dead sender drops the live one: the channel hangs up.
        drop(std::mem::replace(&mut self.tasks, mpsc::channel().0));
        for worker in self.workers.drain(..) {
            // A worker that panicked dropped its reply, which its reader
            // has already reported.
            let _ = worker.join();
        }
    }
}

fn decode_worker(queue: &Mutex<mpsc::Receiver<DecodeTask>>) {
    let mut raw = Vec::new();
    // The guard drops inside the closure: a worker holds the lock only
    // while it waits for a task, never while it decodes one.
    while let Some(task) = queue.lock().ok().and_then(|tasks| tasks.recv().ok()) {
        let mut records = Vec::with_capacity((task.header.records as usize).min(CHUNK_RECORDS));
        let decoded = decode_payload(&task.header, &task.payload, &mut raw, &mut records);
        // A hung-up reply means the reader went away first.
        let _ = task.reply.send(decoded.map(|()| records));
    }
}

/// A file-backed [`TraceSource`] replaying one recorded thread.
///
/// Owns a [`TraceReader`] on its own handle of the container (threads
/// replay concurrently without sharing reader state).
///
/// A stream that runs dry stops the replay: the source panics with a
/// message naming the file, the thread and the records it delivered.
/// [`TraceInfo::admit`] refuses targets above the capture's up front, so
/// on a container that a capture run wrote this happens only under a
/// scheme other than the capture's, whose threads consume more records
/// by that target. The `trace` and `sweep` binaries report it as one
/// line.
///
/// Corruption found mid-replay panics too, with a message naming the
/// file and thread; that includes a record whose gap exceeds
/// [`MAX_GAP`], which [`validate_path`] rejects up front. Run
/// [`validate_path`] first to turn any of these into a readable error.
#[derive(Debug)]
pub struct RecordedThread {
    reader: TraceReader<BufReader<File>>,
    path: PathBuf,
}

impl RecordedThread {
    /// Open `thread`'s stream of the container at `path`, decoding
    /// chunks inline as records are pulled.
    ///
    /// Errors if the thread has zero records: its replay would have
    /// nothing to deliver.
    pub fn open(path: impl AsRef<Path>, thread: usize) -> Result<Self, TraceError> {
        Self::open_with(path, thread, None)
    }

    /// [`RecordedThread::open`], decoding on `pool` when one is given
    /// (the record stream is identical either way).
    pub(crate) fn open_with(
        path: impl AsRef<Path>,
        thread: usize,
        pool: Option<Arc<DecodePool>>,
    ) -> Result<Self, TraceError> {
        let path = path.as_ref().to_path_buf();
        let reader = TraceReader::with_pool(BufReader::new(File::open(&path)?), thread, pool)?;
        if reader.total == 0 {
            return Err(TraceError::format(format!(
                "thread {thread} of the recorded trace has no records"
            )));
        }
        Ok(RecordedThread { reader, path })
    }

    /// The container header.
    pub fn info(&self) -> &TraceInfo {
        self.reader.info()
    }

    /// [`TraceSource::next_record`] for every step but an in-cap record:
    /// a panic naming the file (`next_record` has no error channel).
    #[cold]
    fn next_record_slow(&self, step: Result<Option<MemRecord>, TraceError>) -> ! {
        let thread = self.reader.thread;
        match step {
            // repolint: allow(panic) — corruption found mid-replay; no Result channel in TraceSource
            Ok(Some(rec)) => panic!(
                "recorded trace {} thread {thread} record {} has a gap of {} instructions, \
                 above the cap of {MAX_GAP}",
                self.path.display(),
                self.reader.delivered - 1,
                rec.gap
            ),
            // repolint: allow(panic) — a stream run dry stops the replay; no Result channel in TraceSource
            Ok(None) => panic!(
                "recorded trace {} exhausted for thread {thread} after {} records; \
                 re-record with a larger --insts than the replay needs",
                self.path.display(),
                self.reader.delivered
            ),
            // repolint: allow(panic) — corruption found mid-replay; no Result channel in TraceSource
            Err(e) => panic!(
                "recorded trace {} failed for thread {thread}: {e}",
                self.path.display()
            ),
        }
    }
}

impl TraceSource for RecordedThread {
    fn next_record(&mut self) -> MemRecord {
        match self.reader.try_next() {
            Ok(Some(rec)) if rec.gap <= MAX_GAP => rec,
            step => self.next_record_slow(step),
        }
    }
}

/// Open one [`RecordedThread`] per recorded thread, plus the shared
/// header — the bundle [`System::from_trace_scheme`](../../cmpsim/struct.System.html)
/// plugs into the simulator. Decodes inline; see [`open_sources_with`]
/// for decode workers.
pub fn open_sources(
    path: impl AsRef<Path>,
) -> Result<(TraceInfo, Vec<Box<dyn TraceSource>>), TraceError> {
    open_sources_with(path, &DecodeOptions::default())
}

/// [`open_sources`] with explicit [`DecodeOptions`]: a non-zero worker
/// count spawns one pool of decode workers shared by all the returned
/// sources (dropping the last source stops and joins the workers). A
/// count above [`MAX_DECODE_WORKERS`] is an error, before any thread
/// starts.
pub fn open_sources_with(
    path: impl AsRef<Path>,
    opts: &DecodeOptions,
) -> Result<(TraceInfo, Vec<Box<dyn TraceSource>>), TraceError> {
    let path = path.as_ref();
    let info = load_info(path)?;
    let pool = (opts.workers > 0)
        .then(|| DecodePool::new(opts.workers).map(Arc::new))
        .transpose()?;
    // repolint: allow(cap-alloc) — read_info already rejected threads > MAX_TRACE_THREADS
    let mut sources: Vec<Box<dyn TraceSource>> = Vec::with_capacity(info.meta.threads());
    for t in 0..info.meta.threads() {
        sources.push(Box::new(RecordedThread::open_with(path, t, pool.clone())?));
    }
    Ok((info, sources))
}

/// A [`TraceSource`] that tees every record a live generator produces
/// into a shared [`TraceWriter`] — how a capture run records exactly the
/// streams the simulation consumed, with no margin guesswork.
///
/// The simulator pulls records from one thread at a time, so the mutex is
/// uncontended; it exists so capture sources stay `Send` and the writer
/// can be recovered after the run.
pub struct CapturingSource<W: Write + Seek + Send> {
    inner: TraceGenerator,
    thread: usize,
    writer: Arc<Mutex<TraceWriter<W>>>,
}

impl<W: Write + Seek + Send> CapturingSource<W> {
    /// Wrap `inner` so its records for `thread` are tee'd into `writer`.
    pub fn new(inner: TraceGenerator, thread: usize, writer: Arc<Mutex<TraceWriter<W>>>) -> Self {
        CapturingSource {
            inner,
            thread,
            writer,
        }
    }
}

impl<W: Write + Seek + Send> fmt::Debug for CapturingSource<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CapturingSource")
            .field("thread", &self.thread)
            .field("benchmark", &self.inner.profile().name)
            .finish()
    }
}

impl<W: Write + Seek + Send> TraceSource for CapturingSource<W> {
    fn next_record(&mut self) -> MemRecord {
        let rec = self.inner.next_record();
        self.writer
            .lock()
            // repolint: allow(panic) — poisoning means a sibling capture thread already panicked
            .expect("capture writer poisoned")
            .push(self.thread, rec)
            // repolint: allow(panic) — capture writes fail on local disk errors, not untrusted input; no Result channel in TraceSource
            .unwrap_or_else(|e| panic!("trace capture write failed: {e}"));
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn meta(benchmarks: &[&str]) -> TraceMeta {
        TraceMeta {
            workload: benchmarks.join("+"),
            benchmarks: benchmarks.iter().map(|s| s.to_string()).collect(),
            seed: 7,
            seed_salt: 0,
            insts: 1000,
            scheme: Some("L".into()),
        }
    }

    fn sample(seed: u64, n: usize) -> Vec<MemRecord> {
        let mut g = TraceGenerator::new(crate::benchmark("twolf").unwrap(), seed);
        (0..n).map(|_| g.next_record()).collect()
    }

    fn write_two_threads(a: &[MemRecord], b: &[MemRecord]) -> Vec<u8> {
        let mut w =
            TraceWriter::create(Cursor::new(Vec::new()), &meta(&["twolf", "gzip"])).unwrap();
        // Interleave pushes to exercise chunk interleaving.
        let mut ia = a.iter();
        let mut ib = b.iter();
        loop {
            match (ia.next(), ib.next()) {
                (None, None) => break,
                (ra, rb) => {
                    if let Some(r) = ra {
                        w.push(0, *r).unwrap();
                    }
                    if let Some(r) = rb {
                        w.push(1, *r).unwrap();
                    }
                }
            }
        }
        w.finish().unwrap().into_inner()
    }

    fn read_thread(bytes: &[u8], thread: usize) -> Vec<MemRecord> {
        let mut r = TraceReader::new(Cursor::new(bytes), thread).unwrap();
        let mut out = Vec::new();
        while let Some(rec) = r.try_next().unwrap() {
            out.push(rec);
        }
        out
    }

    #[test]
    fn round_trip_preserves_both_threads() {
        let a = sample(3, 9000);
        let b = sample(4, 5000);
        let bytes = write_two_threads(&a, &b);
        assert_eq!(read_thread(&bytes, 0), a);
        assert_eq!(read_thread(&bytes, 1), b);
    }

    #[test]
    fn header_counts_match_pushes() {
        let a = sample(1, 100);
        let b = sample(2, 57);
        let bytes = write_two_threads(&a, &b);
        let info = read_info(&mut &bytes[..]).unwrap();
        assert_eq!(info.version, TRACE_VERSION);
        assert_eq!(info.records, vec![100, 57]);
        assert_eq!(info.total_records(), 157);
        assert_eq!(info.meta.benchmarks, vec!["twolf", "gzip"]);
    }

    #[test]
    fn reader_ends_cleanly_at_count() {
        let bytes = write_two_threads(&sample(1, 10), &sample(2, 3));
        let mut r = TraceReader::new(Cursor::new(&bytes), 1).unwrap();
        for _ in 0..3 {
            assert!(r.try_next().unwrap().is_some());
        }
        assert!(r.try_next().unwrap().is_none());
        assert!(r.try_next().unwrap().is_none(), "None is sticky");
        assert_eq!(r.delivered(), 3);
    }

    #[test]
    fn admission_checks_cores_target_and_benchmarks() {
        let info = |insts, bench: &str| TraceInfo {
            version: TRACE_VERSION,
            meta: TraceMeta {
                insts,
                ..meta(&["twolf", bench])
            },
            records: vec![1, 1],
        };
        let profiles = info(1000, "gzip").admit(2, 1000).unwrap();
        let names: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["twolf", "gzip"]);
        for (info, cores, insts, expect) in [
            (info(1000, "gzip"), 4, 1000, "machine has 4 cores"),
            (info(1000, "gzip"), 2, 1001, "captured to 1000"),
            (info(1000, "gzip"), 2, 0, "targets 0"),
            (info(0, "gzip"), 2, 1, "captured to 0"),
            (info(1000, "nosuch"), 2, 1000, "unknown benchmark `nosuch`"),
        ] {
            let err = info.admit(cores, insts).unwrap_err().to_string();
            assert!(err.contains(expect) && err.lines().count() == 1, "{err}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_info(&mut &b"XXXXxxxxxxxx"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = write_two_threads(&sample(1, 5), &sample(2, 5));
        bytes[4] = 99;
        let err = read_info(&mut &bytes[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn chunk_boundaries_are_invisible() {
        // More than one chunk, not a multiple of the chunk size.
        let a = sample(9, CHUNK_RECORDS * 2 + 123);
        let bytes = write_two_threads(&a, &sample(2, 1));
        assert_eq!(read_thread(&bytes, 0), a);
    }

    #[test]
    fn zero_thread_meta_is_rejected() {
        let m = TraceMeta {
            workload: "x".into(),
            benchmarks: vec![],
            seed: 0,
            seed_salt: 0,
            insts: 0,
            scheme: None,
        };
        assert!(TraceWriter::create(Cursor::new(Vec::new()), &m).is_err());
    }

    #[test]
    fn meta_round_trips_through_json() {
        let m = meta(&["mcf"]);
        let s = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<TraceMeta>(&s).unwrap(), m);
    }

    #[test]
    fn validate_accepts_good_and_rejects_corrupt_files() {
        let bytes = write_two_threads(&sample(5, 5000), &sample(6, 2000));
        let dir = std::env::temp_dir();
        let good = dir.join("plru_trace_validate_good.pltc");
        std::fs::write(&good, &bytes).unwrap();
        let info = validate_path(&good).unwrap();
        assert_eq!(info.records, vec![5000, 2000]);

        let bad = dir.join("plru_trace_validate_bad.pltc");
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt.truncate(n - 7);
        std::fs::write(&bad, &corrupt).unwrap();
        assert!(validate_path(&bad).is_err());
        let _ = std::fs::remove_file(&good);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn generator_implements_trace_source() {
        fn pull(s: &mut dyn TraceSource) -> MemRecord {
            s.next_record()
        }
        let mut g = TraceGenerator::new(crate::benchmark("gzip").unwrap(), 11);
        let mut h = TraceGenerator::new(crate::benchmark("gzip").unwrap(), 11);
        assert_eq!(pull(&mut g), h.next_record());
    }

    fn write_two_threads_with(
        a: &[MemRecord],
        b: &[MemRecord],
        compression: Compression,
    ) -> Vec<u8> {
        let mut w = TraceWriter::create_with(
            Cursor::new(Vec::new()),
            &meta(&["twolf", "gzip"]),
            compression,
        )
        .unwrap();
        let mut ia = a.iter();
        let mut ib = b.iter();
        loop {
            match (ia.next(), ib.next()) {
                (None, None) => break,
                (ra, rb) => {
                    if let Some(r) = ra {
                        w.push(0, *r).unwrap();
                    }
                    if let Some(r) = rb {
                        w.push(1, *r).unwrap();
                    }
                }
            }
        }
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn v2_round_trip_preserves_both_threads() {
        let a = sample(3, 9000);
        let b = sample(4, 5000);
        let bytes = write_two_threads_with(&a, &b, Compression::Dict);
        let info = read_info(&mut &bytes[..]).unwrap();
        assert_eq!(info.version, TRACE_VERSION_V2);
        assert_eq!(read_thread(&bytes, 0), a);
        assert_eq!(read_thread(&bytes, 1), b);
    }

    #[test]
    fn v2_compresses_generator_streams() {
        let a = sample(3, 20_000);
        let b = sample(4, 20_000);
        let v1 = write_two_threads_with(&a, &b, Compression::None);
        let v2 = write_two_threads_with(&a, &b, Compression::Dict);
        assert!(
            v2.len() < v1.len(),
            "dict compression must shrink generator streams: v1 {} vs v2 {}",
            v1.len(),
            v2.len()
        );
    }

    #[test]
    fn uncompressed_create_still_writes_v1_bytes() {
        // `create` and `create_with(None)` are the same byte stream —
        // the shipped-fixture pin depends on this.
        let a = sample(5, 300);
        let b = sample(6, 200);
        assert_eq!(
            write_two_threads(&a, &b),
            write_two_threads_with(&a, &b, Compression::None)
        );
    }

    #[test]
    fn scan_stats_reports_codec_and_ratio() {
        let a = sample(3, 20_000);
        let b = sample(4, 12_000);
        let dir = std::env::temp_dir();
        let p1 = dir.join("plru_trace_stats_v1.pltc");
        let p2 = dir.join("plru_trace_stats_v2.pltc");
        std::fs::write(&p1, write_two_threads_with(&a, &b, Compression::None)).unwrap();
        std::fs::write(&p2, write_two_threads_with(&a, &b, Compression::Dict)).unwrap();
        let (i1, s1) = scan_stats(&p1).unwrap();
        let (i2, s2) = scan_stats(&p2).unwrap();
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
        assert_eq!(i1.version, TRACE_VERSION);
        assert_eq!(s1.dict_chunks, 0);
        assert_eq!(s1.payload_bytes, s1.raw_bytes);
        assert_eq!(s1.ratio(), 1.0);
        assert_eq!(i2.version, TRACE_VERSION_V2);
        assert!(s2.dict_chunks > 0, "generator streams must compress");
        assert_eq!(s2.raw_bytes, s1.raw_bytes, "raw payloads are identical");
        assert!(s2.ratio() > 1.0, "ratio {}", s2.ratio());
    }

    #[test]
    fn scan_stats_fails_where_validate_path_does() {
        let bytes = write_two_threads_with(&sample(1, 6000), &sample(2, 6000), Compression::Dict);
        let path = std::env::temp_dir().join("plru_trace_stats_bad.pltc");
        let errors = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let stats = scan_stats(&path).unwrap_err().to_string();
            (stats, validate_path(&path).unwrap_err().to_string())
        };
        // Cut inside the last payload, and one byte short of the end.
        for cut in [20, 1] {
            let (stats, validate) = errors(&bytes[..bytes.len() - cut]);
            assert_eq!(stats, "truncated chunk payload");
            assert_eq!(stats, validate);
        }
        // Thread 0's header count one above its chunks' sum.
        let mut cur = Cursor::new(&bytes);
        read_info(&mut cur).unwrap();
        let mut lying = bytes.clone();
        lying[cur.position() as usize - 16] += 1;
        let (stats, validate) = errors(&lying);
        let _ = std::fs::remove_file(&path);
        assert!(stats.contains("disagree with the header"), "{stats}");
        assert_eq!(stats, validate);
    }

    #[test]
    fn a_trace_with_an_empty_thread_is_rejected_at_open() {
        // A replay of an empty thread would panic on its first record.
        let mut w =
            TraceWriter::create(Cursor::new(Vec::new()), &meta(&["twolf", "gzip"])).unwrap();
        for r in sample(3, 10) {
            w.push(0, r).unwrap(); // thread 1 stays empty
        }
        let bytes = w.finish().unwrap().into_inner();
        let path = std::env::temp_dir().join("plru_trace_strict_empty_test.pltc");
        std::fs::write(&path, &bytes).unwrap();
        let err = RecordedThread::open(&path, 1).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.to_string().contains("no records"), "{err}");
    }

    /// The decode placements every replay test runs at: inline, and on
    /// pools of one and several workers.
    const PLACEMENTS: [usize; 3] = [0, 1, 4];

    fn pool(workers: usize) -> Option<Arc<DecodePool>> {
        (workers > 0).then(|| Arc::new(DecodePool::new(workers).unwrap()))
    }

    #[test]
    fn replay_matches_the_recorded_streams_at_any_placement() {
        let a = sample(7, CHUNK_RECORDS * 3 + 100);
        let b = sample(8, CHUNK_RECORDS + 50);
        for compression in [Compression::None, Compression::Dict] {
            let bytes = write_two_threads_with(&a, &b, compression);
            let path = std::env::temp_dir().join(format!("plru_trace_replay_{compression:?}.pltc"));
            std::fs::write(&path, &bytes).unwrap();
            for workers in PLACEMENTS {
                let pool = pool(workers);
                for (t, expect) in [(0, &a), (1, &b)] {
                    let mut src = RecordedThread::open_with(&path, t, pool.clone()).unwrap();
                    let got: Vec<MemRecord> =
                        (0..expect.len()).map(|_| src.next_record()).collect();
                    assert_eq!(
                        &got, expect,
                        "{compression:?} thread {t} with {workers} workers"
                    );
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn truncation_is_detected_at_any_placement() {
        let bytes = write_two_threads_with(&sample(1, 6000), &sample(2, 6000), Compression::Dict);
        let cut = &bytes[..bytes.len() - 20];
        for workers in PLACEMENTS {
            let mut r = TraceReader::with_pool(Cursor::new(cut), 1, pool(workers)).unwrap();
            let res =
                std::iter::from_fn(|| r.try_next().transpose()).collect::<Result<Vec<_>, _>>();
            assert!(
                res.is_err(),
                "truncated stream must error at {workers} workers"
            );
        }
    }

    /// The varint-at-a-time decoder, one `read_exact` per byte: the
    /// reference `decode_chunk` is diffed against.
    fn decode_chunk_reference(
        payload: &[u8],
        records: u32,
        out: &mut Vec<MemRecord>,
    ) -> Result<(), TraceError> {
        let mut cur = payload;
        let mut prev_addr = 0u64;
        for _ in 0..records {
            let v = read_varint(&mut cur).map_err(|_| TraceError::format("truncated record"))?;
            let gap = u32::try_from(v >> 1).map_err(|_| TraceError::format("gap overflows u32"))?;
            let delta = unzigzag(
                read_varint(&mut cur).map_err(|_| TraceError::format("truncated record"))?,
            );
            let addr = prev_addr.wrapping_add(delta as u64);
            out.push(MemRecord {
                gap,
                addr,
                is_write: v & 1 == 1,
            });
            prev_addr = addr;
        }
        if !cur.is_empty() {
            return Err(TraceError::format(format!(
                "chunk payload has {} trailing bytes",
                cur.len()
            )));
        }
        Ok(())
    }

    /// `decode_chunk` and the reference give the same records or the
    /// same error on `payload`.
    fn assert_same_records(payload: &[u8], records: u32) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let got = decode_chunk(payload, records, &mut got)
            .map(|()| got)
            .map_err(|e| e.to_string());
        let want = decode_chunk_reference(payload, records, &mut want)
            .map(|()| want)
            .map_err(|e| e.to_string());
        assert_eq!(
            got,
            want,
            "{} payload bytes, {records} records",
            payload.len()
        );
    }

    /// A chunk payload of raw `(gap << 1 | is_write, zigzag delta)`
    /// varint pairs.
    fn varint_pairs(pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut p = Vec::new();
        for &(v, zz) in pairs {
            write_varint(&mut p, v).unwrap();
            write_varint(&mut p, zz).unwrap();
        }
        p
    }

    /// The payload [`TraceWriter::push`] encodes for `records`.
    fn payload_of(records: &[MemRecord]) -> Vec<u8> {
        let mut prev = 0u64;
        let pairs: Vec<(u64, u64)> = records
            .iter()
            .map(|r| {
                let zz = zigzag(r.addr.wrapping_sub(prev) as i64);
                prev = r.addr;
                ((u64::from(r.gap) << 1) | u64::from(r.is_write), zz)
            })
            .collect();
        varint_pairs(&pairs)
    }

    /// Diff both decoders on a valid payload of `records` records, on the
    /// record count off by one either way, cut short by 1–9 bytes, with
    /// one byte appended and with single bytes flipped.
    fn assert_same_records_under_corruption(mut payload: Vec<u8>, records: u32) {
        assert_same_records(&payload, records);
        assert_same_records(&payload, records + 1);
        assert_same_records(&payload, records.saturating_sub(1));
        for cut in 1..=9.min(payload.len()) {
            assert_same_records(&payload[..payload.len() - cut], records);
        }
        for extra in [0x00, 0x01, 0x7f, 0x80, 0xff] {
            payload.push(extra);
            assert_same_records(&payload, records);
            payload.pop();
        }
        // Every position of a small payload; ~64 spread over a large one.
        let step = (payload.len() / 64).max(1);
        for i in (0..payload.len()).step_by(step) {
            for mask in [0x01, 0x80, 0xff] {
                payload[i] ^= mask;
                assert_same_records(&payload, records);
                payload[i] ^= mask;
            }
        }
    }

    #[test]
    fn decode_chunk_matches_the_reference_on_generator_payloads() {
        for (bench, seed) in [("mcf", 1), ("twolf", 2), ("gzip", 3), ("art", 4)] {
            let mut g = TraceGenerator::new(crate::benchmark(bench).unwrap(), seed);
            let recs: Vec<MemRecord> = (0..CHUNK_RECORDS).map(|_| g.next_record()).collect();
            assert_same_records_under_corruption(payload_of(&recs), recs.len() as u32);
            for n in [1, 2, 3, 50] {
                assert_same_records_under_corruption(payload_of(&recs[..n]), n as u32);
            }
        }
    }

    #[test]
    fn decode_chunk_matches_the_reference_on_random_payloads() {
        // Gaps and deltas of every varint length, 1 to 10 bytes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..8 {
            let pairs: Vec<(u64, u64)> = (0..100)
                .map(|_| {
                    let (a, b, c) = (next(), next(), next());
                    let gap = (a >> 32) >> (a % 33);
                    let zz = b >> (c % 64);
                    ((gap << 1) | (c >> 63), zz)
                })
                .collect();
            assert_same_records_under_corruption(varint_pairs(&pairs), pairs.len() as u32);
        }
    }

    #[test]
    fn decode_chunk_matches_the_reference_on_hand_picked_payloads() {
        /// The 7-bit-group varint bytes of `v`, `len` bytes long (padded
        /// with continuation groups of zero, as a non-minimal writer would).
        fn padded(v: u64, len: usize) -> Vec<u8> {
            let mut p = Vec::new();
            write_varint(&mut p, v).unwrap();
            while p.len() < len {
                *p.last_mut().unwrap() |= 0x80;
                p.push(0);
            }
            p
        }
        let seven = padded(1 << 42, 7);
        let eight = padded(1 << 49, 8);
        let mut cases: Vec<(Vec<u8>, u32)> = vec![
            // A varint that ends exactly at the payload end, with eight
            // bytes left and with fewer.
            ([&[0x06][..], &seven].concat(), 1),
            ([&[0x06, 0x02, 0x04][..], &padded(300, 2)].concat(), 2),
            // The delta ends on the last byte of the 8-byte window, and
            // one byte past it.
            ([&[0x06][..], &seven, &[0x02, 0x04]].concat(), 2),
            ([&[0x06][..], &eight, &[0x02, 0x04]].concat(), 2),
            ([&[0x06][..], &eight].concat(), 1),
            // 2- and 3-byte gap varints.
            (varint_pairs(&[(200, 3), (7, 1), (70_000, 9), (3, 5)]), 4),
            (varint_pairs(&[(200, 1 << 40), (3, 5), (3, 5), (3, 5)]), 4),
            // 8-, 9- and 10-byte deltas.
            (
                varint_pairs(&[(4, 1 << 49), (4, 1 << 56), (4, 1 << 63), (4, 1)]),
                4,
            ),
            (
                varint_pairs(&[(4, u64::MAX), (5, 0), (4, u64::MAX - 1), (4, 1)]),
                4,
            ),
            // A 10-byte varint whose last group overflows 64 bits.
            (
                [&[0x04][..], &[0xff; 9], &[0x7f], &[0x02, 0x04]].concat(),
                2,
            ),
            // An 11-byte varint, as the delta and as the gap.
            (
                [&[0x04][..], &[0x80; 10], &[0x01], &[0x02, 0x04]].concat(),
                2,
            ),
            ([&[0x80; 10][..], &[0x01], &[0x02, 0x04]].concat(), 1),
            // A gap that overflows u32, and the largest one that fits.
            (varint_pairs(&[(2, 2), (1 << 33, 2), (2, 2), (2, 2)]), 4),
            (
                varint_pairs(&[(2, 2), ((1 << 33) - 1, 2), (2, 2), (2, 2)]),
                4,
            ),
            // Padded, non-minimal varints.
            (
                [padded(6, 3), padded(8, 2), vec![2, 4, 2, 4, 2, 4]].concat(),
                4,
            ),
            // Empty payloads and records.
            (vec![], 0),
            (vec![], 1),
            (vec![0x02], 1),
        ];
        // Every record shape as the first and as a later record, in
        // windows of every alignment.
        let mixed = varint_pairs(&[(1, 1 << 20), (200, 1), (3, 1 << 48), (2, 0), (9, 300)]);
        for lead in 0..9u32 {
            let head = varint_pairs(&vec![(2, 2); lead as usize]);
            cases.push(([head, mixed.clone()].concat(), lead + 5));
        }
        for (payload, records) in cases {
            assert_same_records(&payload, records);
            assert_same_records(&payload, records + 1);
            assert_same_records(&payload, records.saturating_sub(1));
            for cut in 1..=9.min(payload.len()) {
                assert_same_records(&payload[..payload.len() - cut], records);
            }
        }
    }

    #[test]
    fn capturing_source_is_transparent_and_records() {
        let m = meta(&["gzip"]);
        let w = Arc::new(Mutex::new(
            TraceWriter::create(Cursor::new(Vec::new()), &m).unwrap(),
        ));
        let gen = TraceGenerator::new(crate::benchmark("gzip").unwrap(), 21);
        let mut cap = CapturingSource::new(gen.clone(), 0, w.clone());
        let mut plain = gen;
        let pulled: Vec<MemRecord> = (0..500)
            .map(|_| TraceSource::next_record(&mut cap))
            .collect();
        let expect: Vec<MemRecord> = (0..500).map(|_| plain.next_record()).collect();
        assert_eq!(pulled, expect, "capture must not perturb the stream");
        drop(cap);
        let bytes = Arc::try_unwrap(w)
            .expect("sole owner")
            .into_inner()
            .unwrap()
            .finish()
            .unwrap()
            .into_inner();
        assert_eq!(read_thread(&bytes, 0), expect);
    }
}
