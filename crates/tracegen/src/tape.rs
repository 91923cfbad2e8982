//! Stream tapes: one generator's records stored once, replayed by many
//! readers.
//!
//! A sweep runs the same per-core record stream — one benchmark at one
//! trace seed — under every scheme and L2 size, and again in the
//! isolation runs. A [`Tape`] runs that stream's [`TraceGenerator`] once,
//! on demand, and keeps the records in a compact lossless byte code;
//! any number of [`TapeReader`]s replay it as ordinary
//! [`TraceSource`]s, each copying one encoded chunk at a time out of the
//! tape and decoding it locally. A reader sees exactly the generator's
//! stream, so a simulation cannot tell the two apart.
//!
//! ## The code
//!
//! Every record starts with one header byte:
//!
//! | bits | field |
//! |---|---|
//! | 7 | the write bit |
//! | 4–6 | the gap, `0..=6`, or 7 for an escape: a varint gap follows |
//! | 0–3 | the address class |
//!
//! The address class mirrors the generator's address layout (a region
//! slot per mixture part, plus a streaming frontier):
//!
//! | class | address | payload |
//! |---|---|---|
//! | 0 | the streaming frontier: the line after the last frontier line | none |
//! | 1–7 | a line in component slot 1–7 | varint of its offset in the slot |
//! | 8–14 | the line after the last one in slot 1–7 (a sequential step) | none |
//! | 15 | anything else: unaligned, or outside every slot (the raw escape) | varint of the byte address |
//!
//! so any [`MemRecord`] round-trips. Varints are LEB128. On the Figure 8
//! benchmarks' streams the code averages about 2.25 bytes per record,
//! against 16 for a `MemRecord`.

use crate::benchmark::BenchmarkProfile;
use crate::generator::{TraceGenerator, COMPONENT_SLOT_LINES, FRESH_BASE_LINE, LINE_BYTES};
use crate::record::MemRecord;
use crate::trace::TraceSource;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Records per chunk: the unit a tape grows by and a reader copies.
const CHUNK: usize = 1024;
/// Bytes per storage block. Blocks never move, so a tape grows without
/// copying itself, and they are large: a block's pages become resident
/// only as records are written into them, and a freed tape returns its
/// blocks whole instead of leaving holes between the simulations'
/// allocations. Most tapes of a 100k-instruction sweep fit in one.
const BLOCK: usize = 256 * 1024;

/// Header bit of a store.
const WRITE: u8 = 0x80;
/// Gap field value announcing a varint gap.
const GAP_ESCAPE: u8 = 7;
/// Address class of the streaming frontier.
const FRONTIER: u8 = 0;
/// Address class of a raw byte address.
const RAW: u8 = 15;
/// Component slots with their own address classes: `1..=SLOTS` carry
/// the offset, `SLOTS + 1..=2 * SLOTS` step to the slot's next line.
const SLOTS: u64 = 7;

/// Encoder and decoder state.
#[derive(Debug, Clone)]
struct Code {
    /// The next streaming-frontier line.
    frontier: u64,
    /// The last offset in each component slot (index 0 unused); before
    /// the first, `u64::MAX`, so that a first offset of 0 is a step.
    last: [u64; SLOTS as usize + 1],
}

impl Code {
    fn new() -> Self {
        Code {
            frontier: FRESH_BASE_LINE,
            last: [u64::MAX; SLOTS as usize + 1],
        }
    }

    /// Append `r`'s encoding to `out`.
    fn encode(&mut self, r: MemRecord, out: &mut Vec<u8>) {
        let line = r.addr / LINE_BYTES;
        let slot = line / COMPONENT_SLOT_LINES;
        let off = line % COMPONENT_SLOT_LINES;
        let class = if !r.addr.is_multiple_of(LINE_BYTES) {
            RAW
        } else if line == self.frontier {
            FRONTIER
        } else if (1..=SLOTS).contains(&slot) {
            let last = &mut self.last[slot as usize];
            let step = off == last.wrapping_add(1);
            *last = off;
            if step {
                (slot + SLOTS) as u8
            } else {
                slot as u8
            }
        } else {
            RAW
        };
        let gap = if r.gap < u32::from(GAP_ESCAPE) {
            r.gap as u8
        } else {
            GAP_ESCAPE
        };
        let write = if r.is_write { WRITE } else { 0 };
        out.push(write | gap << 4 | class);
        if gap == GAP_ESCAPE {
            put_varint(out, u64::from(r.gap));
        }
        match class {
            FRONTIER => self.frontier += 1,
            RAW => put_varint(out, r.addr),
            slot if u64::from(slot) <= SLOTS => put_varint(out, off),
            _ => {} // A sequential step carries no payload.
        }
    }

    /// Decode the record at `bytes[*pos..]`, advancing `pos` past it.
    fn decode(&mut self, bytes: &[u8], pos: &mut usize) -> MemRecord {
        let header = bytes[*pos];
        *pos += 1;
        let gap = match header >> 4 & 7 {
            GAP_ESCAPE => get_varint(bytes, pos) as u32,
            g => u32::from(g),
        };
        let addr = match header & 15 {
            FRONTIER => {
                self.frontier += 1;
                (self.frontier - 1) * LINE_BYTES
            }
            RAW => get_varint(bytes, pos),
            class => {
                let slot = u64::from(class - 1) % SLOTS + 1;
                let last = &mut self.last[slot as usize];
                *last = if u64::from(class) > SLOTS {
                    last.wrapping_add(1)
                } else {
                    get_varint(bytes, pos)
                };
                (slot * COMPONENT_SLOT_LINES + *last) * LINE_BYTES
            }
        };
        MemRecord {
            gap,
            addr,
            is_write: header & WRITE != 0,
        }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Counters shared by every tape of one memo: what the tapes generated,
/// what their readers consumed, and the bytes they hold.
#[derive(Debug, Default)]
pub struct TapeCounters {
    generated: AtomicU64,
    served: AtomicU64,
    resident: AtomicU64,
    peak: AtomicU64,
}

impl TapeCounters {
    /// Records the tapes' generators produced.
    pub fn generated(&self) -> u64 {
        self.generated.load(Ordering::Relaxed)
    }

    /// Records the tapes' readers consumed (counted when a reader drops).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Encoded bytes the live tapes hold.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// The largest [`resident_bytes`](TapeCounters::resident_bytes) seen.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// One record stream, generated on demand and stored encoded.
pub struct Tape {
    state: Mutex<TapeState>,
    counters: Arc<TapeCounters>,
}

struct TapeState {
    gen: TraceGenerator,
    code: Code,
    /// Encoded records in blocks of [`BLOCK`] bytes, the last one
    /// filling.
    blocks: Vec<Vec<u8>>,
    /// End offset of each chunk: chunk `i` is `ends[i - 1]..ends[i]`.
    ends: Vec<usize>,
    /// One chunk's encoding on its way into the blocks.
    pending: Vec<u8>,
}

impl Tape {
    /// An empty tape over `profile`'s stream at trace seed `seed`,
    /// counting into `counters`. Nothing is generated until a reader
    /// asks.
    pub fn new(profile: BenchmarkProfile, seed: u64, counters: Arc<TapeCounters>) -> Self {
        Tape {
            state: Mutex::new(TapeState {
                gen: TraceGenerator::new(profile, seed),
                code: Code::new(),
                blocks: Vec::new(),
                ends: Vec::new(),
                pending: Vec::new(),
            }),
            counters,
        }
    }

    /// Is this `profile`'s stream? (A profile that merely shares a name
    /// is another stream.)
    pub fn has_profile(&self, profile: &BenchmarkProfile) -> bool {
        self.state().gen.profile() == profile
    }

    /// A reader from the stream's first record.
    pub fn reader(self: &Arc<Self>) -> TapeReader {
        TapeReader {
            tape: self.clone(),
            chunk: 0,
            buf: Vec::new(),
            pos: 0,
            code: Code::new(),
            served: 0,
        }
    }

    /// The tape's state. A generator that panicked mid-chunk has moved
    /// past records the tape never stored, so a poisoned tape is not
    /// read again.
    fn state(&self) -> MutexGuard<'_, TapeState> {
        self.state
            .lock()
            .expect("a tape's generator panicked while it grew")
    }

    /// Replace `out` with chunk `index`'s bytes, generating up to it.
    fn copy_chunk(&self, index: usize, out: &mut Vec<u8>) {
        let mut s = self.state();
        while s.ends.len() <= index {
            s.grow(&self.counters);
        }
        let start = index.checked_sub(1).map_or(0, |i| s.ends[i]);
        let end = s.ends[index];
        out.clear();
        let mut at = start;
        while at < end {
            let block = &s.blocks[at / BLOCK];
            let from = at % BLOCK;
            let to = (from + end - at).min(BLOCK);
            out.extend_from_slice(&block[from..to]);
            at += to - from;
        }
    }
}

impl TapeState {
    /// Encoded bytes held.
    fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Generate and append one more chunk.
    fn grow(&mut self, counters: &TapeCounters) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        for _ in 0..CHUNK {
            let r = self.gen.next_record();
            self.code.encode(r, &mut pending);
        }
        let mut rest = &pending[..];
        while !rest.is_empty() {
            if self.blocks.last().is_none_or(|b| b.len() == BLOCK) {
                self.blocks.push(Vec::with_capacity(BLOCK));
            }
            let block = self.blocks.last_mut().expect("a block has room");
            let n = rest.len().min(BLOCK - block.len());
            block.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
        }
        self.ends.push(self.len() + pending.len());
        let added = pending.len() as u64;
        let now = counters.resident.fetch_add(added, Ordering::Relaxed) + added;
        counters.peak.fetch_max(now, Ordering::Relaxed);
        self.pending = pending;
        counters
            .generated
            .fetch_add(CHUNK as u64, Ordering::Relaxed);
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        let held = state.len() as u64;
        self.counters.resident.fetch_sub(held, Ordering::Relaxed);
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Tape")
            .field("benchmark", &s.gen.profile().name)
            .field("chunks", &s.ends.len())
            .field("bytes", &s.len())
            .finish()
    }
}

/// A [`TraceSource`] replaying a [`Tape`] from its first record.
#[derive(Debug)]
pub struct TapeReader {
    tape: Arc<Tape>,
    /// The next chunk to copy.
    chunk: usize,
    /// The current chunk's bytes, decoded up to `pos`.
    buf: Vec<u8>,
    pos: usize,
    code: Code,
    served: u64,
}

impl TraceSource for TapeReader {
    fn next_record(&mut self) -> MemRecord {
        if self.pos == self.buf.len() {
            self.tape.copy_chunk(self.chunk, &mut self.buf);
            self.chunk += 1;
            self.pos = 0;
        }
        self.served += 1;
        self.code.decode(&self.buf, &mut self.pos)
    }
}

impl Drop for TapeReader {
    fn drop(&mut self) {
        self.tape
            .counters
            .served
            .fetch_add(self.served, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::benchmark;
    use proptest::prelude::*;

    fn round_trip(records: &[MemRecord]) -> Vec<MemRecord> {
        let mut enc = Code::new();
        let mut bytes = Vec::new();
        for &r in records {
            enc.encode(r, &mut bytes);
        }
        let mut dec = Code::new();
        let mut pos = 0;
        let back = records
            .iter()
            .map(|_| dec.decode(&bytes, &mut pos))
            .collect();
        assert_eq!(pos, bytes.len(), "decoder consumed every byte");
        back
    }

    #[test]
    fn readers_replay_the_generator_and_share_one_tape() {
        let profile = benchmark("swim").unwrap();
        let counters = Arc::new(TapeCounters::default());
        let tape = Arc::new(Tape::new(profile.clone(), 5, counters.clone()));
        let want: Vec<MemRecord> = TraceGenerator::new(profile, 5)
            .take(3 * CHUNK + 7)
            .collect();
        let mut a = tape.reader();
        let mut b = tape.reader();
        for (i, w) in want.iter().enumerate() {
            assert_eq!(a.next_record(), *w, "reader a, record {i}");
        }
        for (i, w) in want.iter().take(CHUNK + 1).enumerate() {
            assert_eq!(b.next_record(), *w, "reader b, record {i}");
        }
        drop((a, b));
        assert_eq!(counters.generated(), 4 * CHUNK as u64, "generated once");
        assert_eq!(counters.served(), (4 * CHUNK + 8) as u64);
        assert!(counters.resident_bytes() > 0);
        drop(tape);
        assert_eq!(
            counters.resident_bytes(),
            0,
            "a dropped tape gives its bytes back"
        );
        assert!(counters.peak_bytes() > 0);
    }

    #[test]
    fn chunks_straddle_blocks() {
        // Read on until the tape spans three blocks: two chunks at least
        // straddle a block boundary.
        let profile = benchmark("mcf").unwrap();
        let tape = Arc::new(Tape::new(profile.clone(), 9, Arc::default()));
        let mut r = tape.reader();
        let mut gen = TraceGenerator::new(profile, 9);
        let mut i = 0;
        while tape.state().blocks.len() < 3 {
            for _ in 0..CHUNK {
                assert_eq!(r.next_record(), gen.next_record(), "record {i}");
                i += 1;
            }
        }
    }

    #[test]
    fn figure_8_streams_cost_under_two_and_a_half_bytes_a_record() {
        let names = [
            "apsi", "bzip2", "mcf", "parser", "twolf", "vortex", "vpr", "art",
        ];
        let n = 50_000;
        let mut total = 0;
        for name in names {
            let mut code = Code::new();
            let mut bytes = Vec::new();
            for r in TraceGenerator::new(benchmark(name).unwrap(), 1).take(n) {
                code.encode(r, &mut bytes);
            }
            let per = bytes.len() as f64 / n as f64;
            assert!(per < 2.5, "{name}: {per:.3} B/record");
            total += bytes.len();
        }
        let mean = total as f64 / (names.len() * n) as f64;
        assert!(mean < 2.3, "{mean:.3} B/record");
    }

    /// An address: any `u64` (mostly unaligned), a line in or beside a
    /// component slot (slot 0 and slots 8-16 have no class of their own),
    /// or a line at or just past the frontier.
    fn addr() -> impl Strategy<Value = u64> {
        (
            0u8..3,
            any::<u64>(),
            0u64..=16,
            0u64..COMPONENT_SLOT_LINES,
            0u64..4,
        )
            .prop_map(|(kind, raw, slot, off, k)| match kind {
                0 => raw,
                1 => (slot * COMPONENT_SLOT_LINES + off) * LINE_BYTES,
                _ => (FRESH_BASE_LINE + k) * LINE_BYTES,
            })
    }

    /// A gap: small, arbitrary, or the largest.
    fn gap() -> impl Strategy<Value = u32> {
        (0u8..3, 0u32..10, any::<u32>()).prop_map(|(kind, small, raw)| match kind {
            0 => small,
            1 => raw,
            _ => u32::MAX,
        })
    }

    fn record() -> impl Strategy<Value = MemRecord> {
        (gap(), addr(), any::<bool>()).prop_map(|(gap, addr, is_write)| MemRecord {
            gap,
            addr,
            is_write,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_records_round_trip(records in prop::collection::vec(record(), 1..200)) {
            prop_assert_eq!(round_trip(&records), records);
        }
    }
}
