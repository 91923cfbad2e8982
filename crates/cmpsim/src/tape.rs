//! Step tapes: one stream's L1-filtered [`Step`]s, made once, replayed
//! by many readers.
//!
//! A sweep runs the same per-core stream — one benchmark at one trace
//! seed, behind the same L1 shapes — under every scheme and L2 size, and
//! again in the isolation runs. A `StepTape` runs that stream's live
//! front end once, on demand and core-relative (as core 0), and keeps
//! its steps in a fixed-width byte code; any number of [`StepReader`]s
//! replay them for any core. A reader moves the addresses into its
//! core's space — `core << 52` on data, `core << 40` on fetch lines —
//! which changes no L1 set index and no tag equality, so it yields
//! exactly the steps that core's own live front end would.
//!
//! A replay's front-end workers (`crate::pipe`) send their cores' steps
//! to the back end in the same code and chunks, and a [`StepReader`]
//! decodes those too.
//!
//! ## The code
//!
//! Every step starts with one header byte:
//!
//! | bits | field |
//! |---|---|
//! | 0–3 | the record's gap (instructions − 1), `0..=14`, or 15: a `u32` gap follows |
//! | 4 | L1I misses follow: a varint count, then a varint code line per miss |
//! | 5 | an L1D miss follows as a `u32` [`addr_word`] |
//! | 6 | an L1D miss follows as a raw `u64` address (no word holds it) |
//! | 7 | the L1D miss is a store |
//!
//! Fixed-width fields are little-endian; varints are LEB128. With no L1D
//! miss, bits 5–7 are clear. On the Figure 8 benchmarks about 59% of
//! steps carry an L1D miss and 3 in 100 an L1I miss, for about 3.5
//! bytes per step. The code favours decode speed over size: the back end
//! decodes one step per simulated record.

use crate::config::MachineConfig;
use crate::core_model::{code_addr, code_line, data_offset};
use crate::front::{LiveFront, Step};
use crate::pipe::Pipe;
use cachesim::Access;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tracegen::{addr_word, word_addr, BenchmarkProfile, TraceGenerator, TraceSource};

/// Steps per chunk: the unit a tape grows by, a front-end worker sends
/// and a reader copies.
pub(crate) const CHUNK: usize = 1024;
/// Bytes per storage block. Blocks never move, so a tape grows without
/// copying itself, and they are large: a block's pages become resident
/// only as steps are written into them, and a freed tape returns its
/// blocks whole instead of leaving holes between the simulations'
/// allocations. Most tapes of a 100k-instruction sweep fit in one.
const BLOCK: usize = 256 * 1024;

/// Header field of the gap.
const GAP: u8 = 0x0f;
/// Gap field value announcing a `u32` gap.
const GAP_ESCAPE: u8 = 15;
/// Header bit: L1I misses follow.
const FETCH: u8 = 0x10;
/// Header bit: an L1D miss follows as an address word.
const DATA_WORD: u8 = 0x20;
/// Header bit: an L1D miss follows as a raw address.
const DATA_RAW: u8 = 0x40;
/// Header bit: the L1D miss is a store.
const WRITE: u8 = 0x80;

/// Append core 0's `step` to `out`.
pub(crate) fn encode(step: &Step, out: &mut Vec<u8>) {
    let gap = step.insts - 1;
    let mut header = if gap < u64::from(GAP_ESCAPE) {
        gap as u8
    } else {
        GAP_ESCAPE
    };
    if !step.fetch.is_empty() {
        header |= FETCH;
    }
    let word = step.data.map(|(addr, write)| {
        let word = addr_word(addr);
        header |= if word.is_some() { DATA_WORD } else { DATA_RAW };
        if write {
            header |= WRITE;
        }
        (addr, word)
    });
    out.push(header);
    if header & GAP == GAP_ESCAPE {
        let gap = u32::try_from(gap).expect("a record's gap is a u32");
        out.extend_from_slice(&gap.to_le_bytes());
    }
    if !step.fetch.is_empty() {
        put_varint(out, step.fetch.len() as u64);
        for a in &step.fetch {
            put_varint(out, code_line(a.addr));
        }
    }
    match word {
        Some((_, Some(word))) => out.extend_from_slice(&word.to_le_bytes()),
        Some((addr, None)) => out.extend_from_slice(&addr.to_le_bytes()),
        None => {}
    }
}

/// Decode the step at `bytes[*pos..]` into `step` as core `core`'s,
/// advancing `pos` past it.
#[inline]
fn decode(bytes: &[u8], pos: &mut usize, core: usize, step: &mut Step) {
    let header = bytes[*pos];
    *pos += 1;
    step.insts = 1 + match header & GAP {
        GAP_ESCAPE => u64::from(u32::from_le_bytes(take(bytes, pos))),
        gap => u64::from(gap),
    };
    step.fetch.clear();
    if header & FETCH != 0 {
        for _ in 0..get_varint(bytes, pos) {
            let line = get_varint(bytes, pos);
            step.fetch.push(Access::read(core, code_addr(core, line)));
        }
    }
    let addr = if header & DATA_WORD != 0 {
        word_addr(u32::from_le_bytes(take(bytes, pos)))
    } else if header & DATA_RAW != 0 {
        u64::from_le_bytes(take(bytes, pos))
    } else {
        step.data = None;
        return;
    };
    step.data = Some((addr + data_offset(core), header & WRITE != 0));
}

/// The `N` bytes at `bytes[*pos..]`, advancing `pos` past them.
#[inline]
fn take<const N: usize>(bytes: &[u8], pos: &mut usize) -> [u8; N] {
    let field = bytes[*pos..*pos + N].try_into().expect("N bytes");
    *pos += N;
    field
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

/// Counters shared by every tape of one memo: the steps their fillers
/// made and their readers replayed, and the bytes they hold.
#[derive(Debug, Default)]
pub(crate) struct TapeCounters {
    generated: AtomicU64,
    served: AtomicU64,
    resident: AtomicU64,
    peak: AtomicU64,
}

impl TapeCounters {
    /// Steps the tapes' fillers made: records that reached a private L1.
    pub(crate) fn generated(&self) -> u64 {
        self.generated.load(Ordering::Relaxed)
    }

    /// Steps the tapes' readers replayed (counted when a reader drops).
    pub(crate) fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Encoded bytes the live tapes hold.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// The largest [`resident_bytes`](TapeCounters::resident_bytes) seen.
    pub(crate) fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// One stream's steps, made on demand and stored encoded.
pub(crate) struct StepTape {
    profile: BenchmarkProfile,
    state: Mutex<Filler>,
    counters: Arc<TapeCounters>,
}

/// A tape's growing end: the live front end that makes its steps, and
/// the steps made so far.
struct Filler {
    front: LiveFront,
    step: Step,
    /// Encoded steps in blocks of [`BLOCK`] bytes, the last one filling.
    blocks: Vec<Vec<u8>>,
    /// End offset of each chunk: chunk `i` is `ends[i - 1]..ends[i]`.
    ends: Vec<usize>,
    /// One chunk's encoding on its way into the blocks.
    pending: Vec<u8>,
}

impl StepTape {
    /// An empty tape of `profile`'s stream at trace seed `seed` behind
    /// `cfg`'s L1s and fetch width, counting into `counters`. Nothing is
    /// made until a reader asks.
    pub(crate) fn new(
        cfg: &MachineConfig,
        profile: &BenchmarkProfile,
        seed: u64,
        counters: Arc<TapeCounters>,
    ) -> Self {
        let source = Box::new(TraceGenerator::new(profile.clone(), seed));
        Self::over(cfg, profile, source, counters)
    }

    /// An empty tape of the steps core 0 of `cfg` makes of `source`.
    fn over(
        cfg: &MachineConfig,
        profile: &BenchmarkProfile,
        source: Box<dyn TraceSource>,
        counters: Arc<TapeCounters>,
    ) -> Self {
        StepTape {
            profile: profile.clone(),
            state: Mutex::new(Filler {
                front: LiveFront::new(0, profile, source, cfg),
                step: Step::default(),
                blocks: Vec::new(),
                ends: Vec::new(),
                pending: Vec::new(),
            }),
            counters,
        }
    }

    /// Is this `profile`'s stream? (A profile that merely shares a name
    /// is another stream.)
    pub(crate) fn has_profile(&self, profile: &BenchmarkProfile) -> bool {
        self.profile == *profile
    }

    /// A reader from the stream's first step, for core `core`.
    pub(crate) fn reader(self: &Arc<Self>, core: usize) -> StepReader {
        StepReader::over(
            Feed::Tape {
                tape: self.clone(),
                chunk: 0,
            },
            core,
        )
    }

    /// The tape's filler. A front end that panicked mid-chunk has moved
    /// past steps the tape never stored, so a poisoned tape is not read
    /// again.
    fn filler(&self) -> MutexGuard<'_, Filler> {
        self.state
            .lock()
            .expect("a tape's front end panicked while it grew")
    }

    /// Replace `out` with chunk `index`'s bytes, making steps up to it.
    fn copy_chunk(&self, index: usize, out: &mut Vec<u8>) {
        let mut f = self.filler();
        while f.ends.len() <= index {
            f.grow(&self.counters);
        }
        let start = index.checked_sub(1).map_or(0, |i| f.ends[i]);
        let end = f.ends[index];
        out.clear();
        let mut at = start;
        while at < end {
            let block = &f.blocks[at / BLOCK];
            let from = at % BLOCK;
            let to = (from + end - at).min(BLOCK);
            out.extend_from_slice(&block[from..to]);
            at += to - from;
        }
    }
}

impl Filler {
    /// Encoded bytes held.
    fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Make and append one more chunk.
    fn grow(&mut self, counters: &TapeCounters) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        for _ in 0..CHUNK {
            self.front.next_step(&mut self.step);
            encode(&self.step, &mut pending);
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

impl Drop for StepTape {
    fn drop(&mut self) {
        let filler = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        let held = filler.len() as u64;
        self.counters.resident.fetch_sub(held, Ordering::Relaxed);
    }
}

impl fmt::Debug for StepTape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("StepTape")
            .field("benchmark", &self.profile.name)
            .field("chunks", &s.ends.len())
            .field("bytes", &s.len())
            .finish()
    }
}

/// One core's replay of a stream's steps from its first step: a step
/// tape's, or the ones its front-end worker makes ahead of it.
#[derive(Debug)]
pub struct StepReader {
    feed: Feed,
    core: usize,
    /// The current chunk's bytes, decoded up to `pos`.
    buf: Vec<u8>,
    pos: usize,
    served: u64,
}

/// Where a [`StepReader`]'s chunks come from.
#[derive(Debug)]
enum Feed {
    /// A memo's tape, and the next chunk to copy from it.
    Tape { tape: Arc<StepTape>, chunk: usize },
    /// The core's pipe from its front-end worker.
    Pipe(Pipe),
}

impl StepReader {
    fn over(feed: Feed, core: usize) -> Self {
        StepReader {
            feed,
            core,
            buf: Vec::new(),
            pos: 0,
            served: 0,
        }
    }

    /// Core `core`'s reader of the chunks its front-end worker sends.
    pub(crate) fn piped(pipe: Pipe, core: usize) -> Self {
        Self::over(Feed::Pipe(pipe), core)
    }

    /// The next step, into `step`. Panics where the stream stopped.
    #[inline]
    pub fn next_step(&mut self, step: &mut Step) {
        if let Err(stop) = self.try_next_step(step) {
            panic!("{stop}");
        }
    }

    /// [`StepReader::next_step`], or why a front-end worker's stream
    /// stopped in place of the panic.
    #[inline]
    pub(crate) fn try_next_step(&mut self, step: &mut Step) -> Result<(), String> {
        // A worker's chunk may be empty: its stream stopped on the
        // chunk's first step, and the end follows.
        while self.pos == self.buf.len() {
            self.refill()?;
        }
        self.served += 1;
        decode(&self.buf, &mut self.pos, self.core, step);
        Ok(())
    }

    /// Replace the decoded chunk with the next one.
    #[cold]
    fn refill(&mut self) -> Result<(), String> {
        match &mut self.feed {
            Feed::Tape { tape, chunk } => {
                tape.copy_chunk(*chunk, &mut self.buf);
                *chunk += 1;
            }
            Feed::Pipe(pipe) => pipe.next_chunk(&mut self.buf)?,
        }
        self.pos = 0;
        Ok(())
    }
}

impl Drop for StepReader {
    fn drop(&mut self) {
        if let Feed::Tape { tape, .. } = &self.feed {
            tape.counters
                .served
                .fetch_add(self.served, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::CacheGeometry;
    use tracegen::{benchmark, benchmark_names, MemRecord};

    /// A machine whose tiny L1s miss often: most steps carry an L1D
    /// miss, and fetch groups of several lines miss the L1I together.
    fn thrashing() -> MachineConfig {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.l1i = CacheGeometry::new(2 * 128, 1, 128).unwrap();
        cfg.l1d = CacheGeometry::new(4 * 128, 1, 128).unwrap();
        cfg.insts_per_fetch_line = 1;
        cfg
    }

    /// The first `n` steps of a live front end.
    fn live_steps(mut front: LiveFront, n: usize) -> Vec<Step> {
        let mut step = Step::default();
        (0..n)
            .map(|_| {
                front.next_step(&mut step);
                step.clone()
            })
            .collect()
    }

    /// Read `want.len()` steps from `r` and compare them with `want`.
    fn check_reader(mut r: StepReader, want: &[Step], what: &str) {
        let mut step = Step::default();
        for (i, w) in want.iter().enumerate() {
            r.next_step(&mut step);
            assert_eq!(&step, w, "{what}, step {i}");
        }
    }

    #[test]
    fn a_streams_steps_are_the_same_whichever_core_reads_it() {
        // The premise of sharing a tape: moving a stream to another core
        // moves its addresses and nothing else.
        let cfg = thrashing();
        let profile = benchmark("mcf").unwrap();
        let live = |core| {
            let gen = Box::new(TraceGenerator::new(profile.clone(), 11));
            live_steps(LiveFront::new(core, &profile, gen, &cfg), 5_000)
        };
        let base = live(0);
        let tape = Arc::new(StepTape::new(&cfg, &profile, 11, Arc::default()));
        for core in [0, 1, 3, 63] {
            let steps = live(core);
            for (a, b) in base.iter().zip(&steps) {
                assert_eq!(a.insts, b.insts);
                assert_eq!(a.fetch.len(), b.fetch.len());
                for (x, y) in a.fetch.iter().zip(&b.fetch) {
                    assert_eq!(
                        (y.addr - x.addr, y.core as usize),
                        ((core as u64) << 40, core)
                    );
                }
                assert_eq!(
                    a.data.map(|(addr, w)| (addr + data_offset(core), w)),
                    b.data
                );
            }
            check_reader(tape.reader(core), &steps, &format!("core {core}"));
        }
    }

    #[test]
    fn every_profiles_tape_replays_the_live_front_end_to_every_reader() {
        let cfg = thrashing();
        let (mut long_gaps, mut multi_misses) = (0, 0);
        for name in benchmark_names() {
            let profile = benchmark(name).unwrap();
            let counters = Arc::new(TapeCounters::default());
            let tape = Arc::new(StepTape::new(&cfg, &profile, 5, counters.clone()));
            // Read on until the tape spans two blocks.
            let mut want = Vec::new();
            let mut live = {
                let gen = Box::new(TraceGenerator::new(profile.clone(), 5));
                LiveFront::new(2, &profile, gen, &cfg)
            };
            let mut whole = tape.reader(2);
            let mut step = Step::default();
            while tape.filler().blocks.len() < 2 {
                for _ in 0..CHUNK {
                    live.next_step(&mut step);
                    let mut got = Step::default();
                    whole.next_step(&mut got);
                    assert_eq!(got, step, "{name}, step {}", want.len());
                    want.push(step.clone());
                }
            }
            long_gaps += want.iter().filter(|s| s.insts > 15).count();
            multi_misses += want.iter().filter(|s| s.fetch.len() > 1).count();
            // A reader stopping just past the first chunk, and one that
            // starts once the tape is whole.
            check_reader(tape.reader(2), &want[..CHUNK + 1], name);
            check_reader(tape.reader(2), &want, name);
            drop(whole);
            let made = counters.generated() as usize;
            assert_eq!(made, want.len(), "{name}: steps were made once");
            assert_eq!(counters.served() as usize, 2 * want.len() + CHUNK + 1);
            drop(tape);
            assert_eq!(counters.resident_bytes(), 0, "{name}: bytes returned");
        }
        assert!(long_gaps > 0, "no gap reached the header's escape");
        assert!(multi_misses > 0, "no fetch group missed twice");
    }

    /// Records whose addresses no [`addr_word`] holds (unaligned, or
    /// below every slot) next to ones it does, with gaps up to the
    /// largest.
    #[derive(Debug)]
    struct Odd(u64);

    impl TraceSource for Odd {
        fn next_record(&mut self) -> MemRecord {
            self.0 += 1;
            let i = self.0;
            let addr = match i % 4 {
                0 => i * 0x1_0001,              // unaligned
                1 => (i % 7) * 128,             // slot 0, below the frontier
                2 => (1 << 35) + (i % 5) * 128, // a component slot
                _ => (1 << 47) + (i % 3) * 128, // the streaming frontier
            };
            let gap = if i.is_multiple_of(499) {
                100_000
            } else if i % 5 == 1 {
                15 + (i % 3) as u32
            } else {
                (i % 15) as u32
            };
            MemRecord {
                gap,
                addr,
                is_write: i.is_multiple_of(3),
            }
        }
    }

    #[test]
    fn addresses_outside_the_generator_layout_take_the_raw_escape() {
        let cfg = thrashing();
        let profile = benchmark("gzip").unwrap();
        let tape = Arc::new(StepTape::over(
            &cfg,
            &profile,
            Box::new(Odd(0)),
            Arc::default(),
        ));
        for core in [0, 5] {
            let want = live_steps(
                LiveFront::new(core, &profile, Box::new(Odd(0)), &cfg),
                3_000,
            );
            assert!(want.iter().any(|s| s
                .data
                .is_some_and(|(a, _)| addr_word(a - data_offset(core)).is_none())));
            check_reader(tape.reader(core), &want, &format!("core {core}"));
        }
    }

    #[test]
    fn figure_8_steps_cost_under_four_bytes_at_the_paper_l1s() {
        let cfg = MachineConfig::paper_baseline(1);
        let names = [
            "apsi", "bzip2", "mcf", "parser", "twolf", "vortex", "vpr", "art",
        ];
        let n = 20 * CHUNK;
        let (mut bytes, mut misses) = (0, 0);
        for name in names {
            let profile = benchmark(name).unwrap();
            let tape = StepTape::new(&cfg, &profile, 1, Arc::default());
            let mut f = tape.filler();
            for _ in 0..n / CHUNK {
                f.grow(&tape.counters);
            }
            bytes += f.len();
            drop(f);
            let gen = Box::new(TraceGenerator::new(profile.clone(), 1));
            misses += live_steps(LiveFront::new(0, &profile, gen, &cfg), n)
                .iter()
                .filter(|s| s.data.is_some())
                .count();
        }
        let per = bytes as f64 / (names.len() * n) as f64;
        let share = misses as f64 / (names.len() * n) as f64;
        assert!(per < 4.0, "{per:.3} B/step");
        assert!(share > 0.4, "{share:.3} of steps miss the L1D");
    }
}
