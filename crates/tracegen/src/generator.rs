//! The seeded trace generator.

use crate::benchmark::BenchmarkProfile;
use crate::component::{select_part, Component, Mixture};
use crate::record::{MemRecord, MAX_GAP};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Line size assumed by region layout (the paper's machine: 128 B).
pub const LINE_BYTES: u64 = 128;

/// Address-space slot size per component, in lines. Regions of different
/// components never overlap; components with the same index share a base
/// across phases, so phase changes partially reuse data (as SimPoint phases
/// of a real benchmark do).
const COMPONENT_SLOT_LINES: u64 = 1 << 28;

/// Base line number of the streaming (Fresh) frontier.
const FRESH_BASE_LINE: u64 = 1 << 40;

/// Component slots an [`addr_word`] can name (slot 0 names the frontier).
const WORD_SLOTS: u64 = 16;

/// A generator address packed into 32 bits: the top 4 name its region —
/// 0 the streaming frontier, 1-15 a component slot — and the low 28 its
/// line's offset there. `None` for any address the generator's layout
/// does not place in a word: unaligned, outside every slot, or at least
/// 2^28 lines past the frontier's base. [`word_addr`] inverts it.
pub fn addr_word(addr: u64) -> Option<u32> {
    if !addr.is_multiple_of(LINE_BYTES) {
        return None;
    }
    let line = addr / LINE_BYTES;
    let (slot, off) = match line.checked_sub(FRESH_BASE_LINE) {
        Some(off) => (0, off),
        None => (line / COMPONENT_SLOT_LINES, line % COMPONENT_SLOT_LINES),
    };
    let fits = off < COMPONENT_SLOT_LINES && (slot == 0) == (line >= FRESH_BASE_LINE);
    (fits && slot < WORD_SLOTS).then(|| (slot * COMPONENT_SLOT_LINES + off) as u32)
}

/// The address an [`addr_word`] packed.
#[inline]
pub fn word_addr(word: u32) -> u64 {
    let slot = u64::from(word) / COMPONENT_SLOT_LINES;
    let off = u64::from(word) % COMPONENT_SLOT_LINES;
    let base = if slot == 0 {
        FRESH_BASE_LINE
    } else {
        slot * COMPONENT_SLOT_LINES
    };
    (base + off) * LINE_BYTES
}

/// Lines per tier of a [`TieredStack`].
const TIER: usize = 256;

/// Deterministic, seeded generator of one benchmark's memory-access trace.
///
/// The generator is an infinite stream: traces wrap through their phase
/// schedule for as long as the simulator keeps pulling records (the paper
/// keeps finished threads running so contention stays realistic).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    rng: StdRng,
    /// Committed instructions so far.
    insts: u64,
    /// Current phase index and instructions remaining in it.
    phase: usize,
    phase_insts_left: u64,
    /// Per-component sequential cursors, indexed like the mixture parts of
    /// the current phase.
    seq_cursors: Vec<u64>,
    /// Per-component LRU stacks for `StackGeom` components, lazily built.
    stacks: Vec<Option<TieredStack>>,
    /// Streaming frontier (next fresh line).
    fresh_next: u64,
    /// Precomputed geometric-gap parameter `ln(1 - p)`.
    ln_one_minus_p: f64,
    /// Sampling constants of each phase, indexed like the profile's phases.
    tables: Vec<PhaseTable>,
}

/// The per-record constants of one phase, built once from its mixture.
#[derive(Debug, Clone)]
struct PhaseTable {
    /// [`Mixture::cumulative_weights`].
    cumulative: Vec<f64>,
    /// `ln(1 - 1/mean)` of each `StackGeom` part: the log of its reuse
    /// depth's continuation probability (unused for other parts).
    ln_q: Vec<f64>,
}

impl PhaseTable {
    fn new(mixture: &Mixture) -> Self {
        PhaseTable {
            cumulative: mixture.cumulative_weights(),
            ln_q: mixture
                .parts
                .iter()
                .map(|(_, c)| match c {
                    Component::StackGeom { mean, .. } => (1.0 - 1.0 / mean.max(1.0)).ln(),
                    _ => 0.0,
                })
                .collect(),
        }
    }
}

impl TraceGenerator {
    /// Build a generator for `profile` with a fixed `seed`.
    pub fn new(profile: BenchmarkProfile, seed: u64) -> Self {
        assert!(!profile.phases.is_empty());
        assert!(
            (0.0..=1.0).contains(&profile.write_frac),
            "write_frac={} out of [0,1]",
            profile.write_frac
        );
        let p = profile.mem_ratio;
        let first_len = profile.phases[0].insts;
        let n_parts = profile
            .phases
            .iter()
            .map(|ph| ph.mixture.parts.len())
            .max()
            .unwrap();
        TraceGenerator {
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            insts: 0,
            phase: 0,
            phase_insts_left: first_len,
            seq_cursors: vec![0; n_parts],
            stacks: vec![None; n_parts],
            fresh_next: FRESH_BASE_LINE,
            ln_one_minus_p: (1.0 - p).ln(),
            tables: profile
                .phases
                .iter()
                .map(|ph| PhaseTable::new(&ph.mixture))
                .collect(),
            profile,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Committed instructions accounted for so far.
    pub fn instructions(&self) -> u64 {
        self.insts
    }

    /// Index of the active phase.
    pub fn current_phase(&self) -> usize {
        self.phase
    }

    /// Sample a geometric instruction gap with mean `(1-p)/p`, capped at
    /// [`MAX_GAP`] so a single record never spans more than that many
    /// non-memory instructions.
    fn sample_gap(&mut self) -> u32 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        // Number of Bernoulli(p) failures before the first success.
        let g = ((1.0 - u).ln() / self.ln_one_minus_p).floor();
        g.min(f64::from(MAX_GAP)) as u32
    }

    fn advance_phase(&mut self, insts: u64) {
        self.insts += insts;
        let mut left = insts;
        while left >= self.phase_insts_left {
            left -= self.phase_insts_left;
            self.phase = (self.phase + 1) % self.profile.phases.len();
            self.phase_insts_left = self.profile.phases[self.phase].insts;
        }
        self.phase_insts_left -= left;
    }

    /// Produce the next memory access record.
    pub fn next_record(&mut self) -> MemRecord {
        let gap = self.sample_gap();
        self.advance_phase(u64::from(gap) + 1);

        let table = &self.tables[self.phase];
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let part = select_part(&table.cumulative, u);
        let component = self.profile.phases[self.phase].mixture.parts[part].1;

        let line = match component {
            Component::Sequential { lines } => {
                let cursor = &mut self.seq_cursors[part];
                let l = (part as u64 + 1) * COMPONENT_SLOT_LINES + (*cursor % lines);
                *cursor = cursor.wrapping_add(1);
                l
            }
            Component::RandomIn { lines } => {
                let off = self.rng.gen_range(0..lines);
                (part as u64 + 1) * COMPONENT_SLOT_LINES + off
            }
            Component::StackGeom { lines, .. } => {
                let entry = &mut self.stacks[part];
                let stack = match entry {
                    // Rebuild if a phase switch changed the region size.
                    Some(s) if s.len() == lines as usize => s,
                    _ => entry.insert(TieredStack::new(lines as usize)),
                };
                // Geometric reuse depth with the part's mean, capped at
                // the stack size.
                let u: f64 = self.rng.gen_range(0.0..1.0);
                let d = ((1.0 - u).ln() / table.ln_q[part]) as usize;
                let line = stack.touch(d.min(stack.len() - 1));
                (part as u64 + 1) * COMPONENT_SLOT_LINES + u64::from(line)
            }
            Component::Fresh => {
                let l = self.fresh_next;
                self.fresh_next += 1;
                l
            }
        };
        // `gen_bool` without its per-call range check (done in `new`).
        let is_write = self.rng.gen_range(0.0..1.0) < self.profile.write_frac;
        MemRecord {
            gap,
            addr: line * LINE_BYTES,
            is_write,
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = MemRecord;

    fn next(&mut self) -> Option<MemRecord> {
        Some(self.next_record())
    }
}

/// A true LRU stack over a region's lines, most recent first, stored as a
/// tiered vector (Goodrich & Kloss, "Tiered Vectors", WADS 1999): depths
/// `t * TIER..(t + 1) * TIER` form tier `t`, a ring buffer with its own
/// head. Depth `d` is found by arithmetic, and moving it to the front
/// shifts lines within one tier, then steps one line across each tier
/// above it: O(TIER + d / TIER) instead of a flat `Vec`'s O(d).
#[derive(Debug, Clone)]
struct TieredStack {
    /// Tier `t` is `lines[t * TIER..]`, [`TIER`] slots long (the last
    /// tier may be shorter).
    lines: Vec<u32>,
    /// Slot of each tier's shallowest line, relative to the tier's start.
    heads: Vec<usize>,
}

impl TieredStack {
    /// Lines `0..n` in identity order (line `i` at depth `i`).
    fn new(n: usize) -> Self {
        TieredStack {
            lines: (0..n as u32).collect(),
            heads: vec![0; n.div_ceil(TIER)],
        }
    }

    fn len(&self) -> usize {
        self.lines.len()
    }

    /// The line at depth `d`, moved to depth 0.
    fn touch(&mut self, d: usize) -> u32 {
        let (t, i) = (d / TIER, d % TIER);
        let (above, rest) = self.lines.split_at_mut(t * TIER);
        let len = rest.len().min(TIER);
        let tier = &mut rest[..len];
        let head = self.heads[t];
        let line = tier[wrap(head + i, len)];
        // Each tier above steps its head back one: its deepest slot
        // becomes its top, taking the line handed down from the tier
        // above, and its deepest line is handed on down.
        let mut carry = line;
        for (ring, h) in above.chunks_exact_mut(TIER).zip(&mut self.heads[..t]) {
            *h = (*h + TIER - 1) % TIER;
            carry = std::mem::replace(&mut ring[*h], carry);
        }
        // Close the gap at offset `i`: the `i` shallower lines of tier `t`
        // move one deeper, and its top slot takes the carried line.
        shift_deeper(tier, head, i);
        tier[head] = carry;
        line
    }

    /// Lines in depth order.
    #[cfg(test)]
    fn order(&self) -> Vec<u32> {
        self.lines
            .chunks(TIER)
            .zip(&self.heads)
            .flat_map(|(ring, &h)| ring[h..].iter().chain(&ring[..h]))
            .copied()
            .collect()
    }
}

/// `x` reduced into a ring of `len` slots, for `x < 2 * len`.
fn wrap(x: usize, len: usize) -> usize {
    if x >= len {
        x - len
    } else {
        x
    }
}

/// Move the `count` lines of `ring` from slot `from` on (wrapping) one
/// slot on, overwriting the slot after them. At most two `copy_within`s.
fn shift_deeper(ring: &mut [u32], from: usize, count: usize) {
    let len = ring.len();
    let end = from + count;
    if end < len {
        ring.copy_within(from..end, from + 1);
    } else {
        ring.copy_within(0..end - len, 1);
        ring[0] = ring[len - 1];
        ring.copy_within(from..len - 1, from + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::benchmark;
    use proptest::prelude::*;

    fn gen(name: &str, seed: u64) -> TraceGenerator {
        TraceGenerator::new(benchmark(name).unwrap(), seed)
    }

    #[test]
    fn every_generated_address_packs_into_a_word() {
        for name in crate::benchmark_names() {
            for r in gen(name, 3).take(20_000) {
                let word = addr_word(r.addr).unwrap_or_else(|| panic!("{name}: {:#x}", r.addr));
                assert_eq!(word_addr(word), r.addr, "{name}");
            }
        }
    }

    #[test]
    fn addresses_outside_the_layout_have_no_word() {
        let line = |l: u64| l * LINE_BYTES;
        for addr in [
            1,
            line(5),
            line(WORD_SLOTS * COMPONENT_SLOT_LINES),
            line(FRESH_BASE_LINE - 1),
            line(FRESH_BASE_LINE + COMPONENT_SLOT_LINES),
            u64::MAX,
        ] {
            assert_eq!(addr_word(addr), None, "{addr:#x}");
        }
        for addr in [
            line(COMPONENT_SLOT_LINES),
            line(FRESH_BASE_LINE),
            line(FRESH_BASE_LINE + COMPONENT_SLOT_LINES - 1),
            line(WORD_SLOTS * COMPONENT_SLOT_LINES - 1),
        ] {
            assert_eq!(addr_word(addr).map(word_addr), Some(addr), "{addr:#x}");
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<_> = gen("mcf", 7).take(500).collect();
        let b: Vec<_> = gen("mcf", 7).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = gen("mcf", 7).take(100).collect();
        let b: Vec<_> = gen("mcf", 8).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mem_ratio_is_respected() {
        let mut g = gen("art", 3); // mem_ratio 0.40
        let n = 50_000;
        let mut insts = 0u64;
        for _ in 0..n {
            insts += g.next_record().instructions();
        }
        let ratio = n as f64 / insts as f64;
        assert!(
            (ratio - 0.40).abs() < 0.02,
            "measured mem ratio {ratio}, expected ~0.40"
        );
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut g = gen("swim", 11); // write_frac 0.30
        let n = 50_000;
        let writes = (0..n).filter(|_| g.next_record().is_write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.30).abs() < 0.02, "write frac {frac}");
    }

    #[test]
    fn fresh_lines_never_repeat() {
        let mut g = gen("swim", 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20_000 {
            let r = g.next_record();
            let line = r.addr / LINE_BYTES;
            if line >= FRESH_BASE_LINE {
                assert!(seen.insert(line), "fresh line repeated");
            }
        }
        assert!(!seen.is_empty(), "swim must stream");
    }

    #[test]
    fn sequential_component_sweeps_cyclically() {
        // swim's streaming region (component index 1) is 30000 lines;
        // collect its addresses and check they walk 0,1,2,... modulo the
        // region.
        let mut g = gen("swim", 9);
        let mut seq_lines = Vec::new();
        for _ in 0..60_000 {
            let r = g.next_record();
            let line = r.addr / LINE_BYTES;
            let slot = line / COMPONENT_SLOT_LINES;
            if slot == 2 {
                // component index 1 (the Sequential part of swim)
                seq_lines.push(line % COMPONENT_SLOT_LINES);
            }
        }
        assert!(seq_lines.len() > 100);
        for w in seq_lines.windows(2) {
            let expect = (w[0] + 1) % 30000;
            assert_eq!(w[1], expect, "sequential sweep must be cyclic");
        }
    }

    #[test]
    fn stack_geom_depths_are_recency_skewed() {
        // crafty's mid component is StackGeom: immediately re-referenced
        // lines must dominate. Measure the re-reference gap distribution
        // in the component's slot.
        let mut g = gen("crafty", 4);
        let mut last_seen = std::collections::HashMap::new();
        let mut gaps = Vec::new();
        let mut t = 0u64;
        for _ in 0..120_000 {
            let r = g.next_record();
            let line = r.addr / LINE_BYTES;
            if line / COMPONENT_SLOT_LINES == 2 {
                if let Some(prev) = last_seen.insert(line, t) {
                    gaps.push(t - prev);
                }
                t += 1;
            }
        }
        assert!(gaps.len() > 1000);
        let short = gaps.iter().filter(|&&g| g < 900).count();
        assert!(
            short * 2 > gaps.len(),
            "recency skew missing: {}/{} short gaps",
            short,
            gaps.len()
        );
    }

    #[test]
    fn phases_cycle() {
        let mut g = gen("gzip", 1); // two phases of 350k insts each
        assert_eq!(g.current_phase(), 0);
        while g.instructions() < 360_000 {
            g.next_record();
        }
        assert_eq!(g.current_phase(), 1);
        while g.instructions() < 710_000 {
            g.next_record();
        }
        assert_eq!(g.current_phase(), 0, "phases wrap around");
    }

    #[test]
    fn components_live_in_disjoint_regions() {
        let mut g = gen("mcf", 2);
        let mut slots = std::collections::HashSet::new();
        for _ in 0..30_000 {
            let r = g.next_record();
            slots.insert((r.addr / LINE_BYTES) / COMPONENT_SLOT_LINES);
        }
        // mcf has 4 components: 3 region slots + the fresh frontier.
        assert!(slots.len() >= 4, "found slots {slots:?}");
    }

    #[test]
    fn instruction_count_accumulates() {
        let mut g = gen("eon", 4);
        let mut total = 0;
        for _ in 0..1000 {
            total += g.next_record().instructions();
        }
        assert_eq!(g.instructions(), total);
    }

    /// The flat `Vec` move-to-front the tiered stack replaced: the
    /// reference it must agree with after every touch.
    struct VecStack(Vec<u32>);

    impl VecStack {
        fn touch(&mut self, d: usize) -> u32 {
            let line = self.0[d];
            self.0.copy_within(0..d, 1);
            self.0[0] = line;
            line
        }
    }

    /// A depth to touch, resolved against the stack size.
    #[derive(Debug, Clone, Copy)]
    enum Depth {
        Top,
        Bottom,
        /// The deepest slot of some tier.
        TierLast(usize),
        /// The shallowest slot of some tier.
        TierFirst(usize),
        /// A `StackGeom` draw: uniform `u`, mean depth.
        Geometric(f64, f64),
    }

    impl Depth {
        fn resolve(self, n: usize) -> usize {
            let tiers = n / TIER + 1;
            let d = match self {
                Depth::Top => 0,
                Depth::Bottom => n - 1,
                Depth::TierLast(k) => (k % tiers + 1) * TIER - 1,
                Depth::TierFirst(k) => k % tiers * TIER,
                Depth::Geometric(u, mean) => ((1.0 - u).ln() / (1.0 - 1.0 / mean).ln()) as usize,
            };
            d.min(n - 1)
        }
    }

    fn depth() -> impl Strategy<Value = Depth> {
        let means = prop::sample::select(vec![2.0, 64.0, 900.0, 4500.0]);
        (0usize..5, 0usize..100, 0u64..1 << 53, means).prop_map(
            |(kind, k, bits, mean)| match kind {
                0 => Depth::Top,
                1 => Depth::Bottom,
                2 => Depth::TierLast(k),
                3 => Depth::TierFirst(k),
                _ => Depth::Geometric(bits as f64 / (1u64 << 53) as f64, mean),
            },
        )
    }

    /// Tier-boundary sizes, or (for 0) a random size up to 25,000 lines.
    fn stack_size() -> impl Strategy<Value = usize> {
        let edges = prop::sample::select(vec![1, TIER - 1, TIER, TIER + 1, 3 * TIER + 7, 0]);
        (edges, 1usize..=25_000).prop_map(|(n, random)| if n == 0 { random } else { n })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn tiered_stack_matches_flat_move_to_front(
            n in stack_size(),
            depths in prop::collection::vec(depth(), 1..300),
        ) {
            let mut tiered = TieredStack::new(n);
            let mut flat = VecStack((0..n as u32).collect());
            for (step, spec) in depths.into_iter().enumerate() {
                let d = spec.resolve(n);
                prop_assert_eq!(tiered.touch(d), flat.touch(d), "line at depth {} (step {})", d, step);
                prop_assert!(tiered.order() == flat.0, "order diverged at depth {} (step {})", d, step);
            }
        }
    }
}
