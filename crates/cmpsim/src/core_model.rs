//! Per-core execution state: trace consumption, instruction-fetch
//! synthesis and the simple timing model.
//!
//! Timing charges `base_cpi` cycles per committed instruction (standing in
//! for the 8-wide out-of-order core's ILP) plus blocking miss penalties
//! added by the system when an access leaves the L1s. Fractional cycles
//! accumulate exactly, so long runs do not drift.

use tracegen::{BenchmarkProfile, MemRecord, TraceSource};

/// Byte address base of per-core code regions (far above all data
/// regions generated by `tracegen`).
const CODE_BASE_BYTES: u64 = 1 << 60;
/// Bytes per instruction-fetch line.
const FETCH_LINE_BYTES: u64 = 128;

/// Offset added to core `core`'s data addresses: multiprogrammed
/// workloads have disjoint address spaces.
pub(crate) fn data_offset(core: usize) -> u64 {
    (core as u64) << 52
}

/// Byte address of line `line` of core `core`'s code region.
pub(crate) fn code_addr(core: usize, line: u64) -> u64 {
    CODE_BASE_BYTES + ((core as u64) << 40) + line * FETCH_LINE_BYTES
}

/// The line of a core-0 code address: the inverse of `code_addr(0, _)`.
pub(crate) fn code_line(addr: u64) -> u64 {
    (addr - CODE_BASE_BYTES) / FETCH_LINE_BYTES
}

/// One core's record stream: a [`TraceSource`] — a live
/// [`TraceGenerator`](tracegen::TraceGenerator) or a recorded-trace
/// reader — with the core's address offset applied, and the
/// instruction-fetch lines its instructions issue, synthesized from the
/// benchmark's code footprint.
#[derive(Debug)]
pub struct Records {
    source: Box<dyn TraceSource>,
    code_lines: u64,
    insts_per_fetch_line: u64,
    /// The code line the next fetch reads, in `0..code_lines`.
    fetch_line: u64,
    /// Instructions since the last fetch-line boundary.
    fetch_accum: u64,
    core_id: usize,
}

impl Records {
    /// Core `core_id`'s stream of `source`, fetching one line per
    /// `insts_per_fetch_line` instructions through `profile`'s code
    /// footprint.
    pub fn new(
        core_id: usize,
        profile: &BenchmarkProfile,
        source: Box<dyn TraceSource>,
        insts_per_fetch_line: u64,
    ) -> Self {
        assert!(insts_per_fetch_line >= 1);
        Records {
            source,
            code_lines: profile.code_lines.max(1),
            insts_per_fetch_line,
            fetch_line: 0,
            fetch_accum: 0,
            core_id,
        }
    }

    /// Pull the next trace record, with the per-core address offset
    /// applied.
    #[inline]
    pub fn next_record(&mut self) -> MemRecord {
        let mut r = self.source.next_record();
        r.addr += data_offset(self.core_id);
        r
    }

    /// [`Records::next_record`] through the source's fallible step
    /// ([`TraceSource::try_next_record`]): why the stream stopped, in
    /// place of its panic.
    #[inline]
    pub(crate) fn try_next_record(&mut self) -> Result<MemRecord, String> {
        let mut r = self.source.try_next_record()?;
        r.addr += data_offset(self.core_id);
        Ok(r)
    }

    /// Instruction-fetch line addresses covering `insts` sequentially
    /// executed instructions, appended to a caller-owned buffer (cleared
    /// first): the fetch cursor walks the benchmark's code footprint
    /// cyclically, one L1I line per `insts_per_fetch_line` instructions.
    /// The simulator's hot loop reuses one buffer per core so the
    /// batched fetch path never allocates per record. Most records fetch
    /// no line or one, so the walk subtracts and wraps instead of
    /// dividing.
    #[inline]
    pub fn fetch_addrs_into(&mut self, insts: u64, out: &mut Vec<u64>) {
        out.clear();
        self.fetch_accum += insts;
        while self.fetch_accum >= self.insts_per_fetch_line {
            self.fetch_accum -= self.insts_per_fetch_line;
            out.push(code_addr(self.core_id, self.fetch_line));
            self.fetch_line += 1;
            if self.fetch_line == self.code_lines {
                self.fetch_line = 0;
            }
        }
    }
}

/// One simulated core: a front end `F` that yields its memory stream,
/// and the timing model that clocks it.
///
/// The default front end is a core's [`Records`], whose data accesses
/// and fetch lines the caller runs through a cache hierarchy; a running
/// `System` uses its own front end, which also owns the core's private
/// L1s. Either way, the timing model (base CPI, freeze point) comes from
/// the benchmark's profile.
#[derive(Debug)]
pub struct CoreModel<F = Records> {
    pub(crate) front: F,
    benchmark: String,
    base_cpi: f64,
    /// Local clock in cycles.
    pub cycle: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Cycle at which the instruction target was reached (stats freeze).
    pub finish_cycle: Option<u64>,
    /// Fractional-cycle accumulator for the base-CPI charge.
    frac: f64,
}

impl CoreModel {
    /// Build a core pulling records from a [`TraceSource`]; `profile`
    /// supplies only the timing model and the code footprint.
    pub fn from_source(
        core_id: usize,
        profile: &BenchmarkProfile,
        source: Box<dyn TraceSource>,
        insts_per_fetch_line: u64,
    ) -> Self {
        let records = Records::new(core_id, profile, source, insts_per_fetch_line);
        CoreModel::with_front(profile, records)
    }

    /// Pull the next trace record (see [`Records::next_record`]).
    pub fn next_record(&mut self) -> MemRecord {
        self.front.next_record()
    }

    /// The fetch lines of `insts` instructions (see
    /// [`Records::fetch_addrs_into`]).
    pub fn fetch_addrs_into(&mut self, insts: u64, out: &mut Vec<u64>) {
        self.front.fetch_addrs_into(insts, out)
    }
}

impl<F> CoreModel<F> {
    /// A core at cycle 0 running `profile`'s timing model over `front`.
    pub fn with_front(profile: &BenchmarkProfile, front: F) -> Self {
        debug_assert!(profile.base_cpi >= 0.0, "a negative base CPI");
        CoreModel {
            front,
            benchmark: profile.name.clone(),
            base_cpi: profile.base_cpi,
            cycle: 0,
            insts: 0,
            finish_cycle: None,
            frac: 0.0,
        }
    }

    /// The benchmark name this core runs.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// Charge the base (non-memory) cycles for `insts` instructions,
    /// returning the whole-cycle amount.
    ///
    /// With a non-negative CPI the carried fraction stays in `[0, 1)`, so
    /// the whole part converts through `i64`, to the value `u64` gives:
    /// x86-64 converts `i64` in one instruction each way, `u64` in a
    /// branchy sequence, and this sits on the chain of a core's steps.
    pub fn charge_base(&mut self, insts: u64) -> u64 {
        self.frac += insts as f64 * self.base_cpi;
        let whole = self.frac as i64;
        self.frac -= whole as f64;
        whole as u64
    }

    /// Has this core committed its target?
    pub fn finished(&self) -> bool {
        self.finish_cycle.is_some()
    }

    /// Record completion if `insts` crossed `target` and not yet frozen.
    pub fn maybe_finish(&mut self, target: u64) {
        if self.finish_cycle.is_none() && self.insts >= target {
            self.finish_cycle = Some(self.cycle);
        }
    }

    /// IPC at the freeze point (target instructions / cycles-at-finish).
    pub fn ipc(&self, target: u64) -> f64 {
        match self.finish_cycle {
            Some(c) if c > 0 => target as f64 / c as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::{benchmark, TraceGenerator};

    /// Core `core_id` running gzip's live generator at seed 42.
    fn core_on(core_id: usize) -> CoreModel {
        let gzip = benchmark("gzip").unwrap();
        let source = Box::new(TraceGenerator::new(gzip.clone(), 42));
        CoreModel::from_source(core_id, &gzip, source, 32)
    }

    fn core() -> CoreModel {
        core_on(1)
    }

    /// The fetch lines of `insts` instructions.
    fn fetch(c: &mut CoreModel, insts: u64) -> Vec<u64> {
        let mut out = Vec::new();
        c.fetch_addrs_into(insts, &mut out);
        out
    }

    #[test]
    fn base_charge_accumulates_fractions() {
        let mut c = core(); // gzip base_cpi = 0.50
        let total: u64 = (0..100).map(|_| c.charge_base(1)).sum();
        assert_eq!(total, 50, "100 insts at CPI 0.5 = 50 cycles");
    }

    #[test]
    fn base_charge_converts_as_the_unsigned_charge_did() {
        // The signed conversion must give every charge the unsigned one
        // gave, at every profile's CPI and at gaps up to the largest.
        for name in tracegen::benchmark_names() {
            let mut c = core();
            c.base_cpi = benchmark(name).unwrap().base_cpi;
            let mut frac = 0.0f64;
            let mut x = 1u64;
            for _ in 0..20_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let insts = 1 + (x >> 33) % if x & 1 == 0 { 16 } else { 1 << 20 };
                frac += insts as f64 * c.base_cpi;
                let whole = frac as u64;
                frac -= whole as f64;
                assert_eq!(c.charge_base(insts), whole, "{name}");
                assert_eq!(c.frac.to_bits(), frac.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn addresses_carry_the_core_offset() {
        let mut c = core();
        let r = c.next_record();
        assert_eq!(r.addr >> 52, 1, "core 1's offset present");
    }

    #[test]
    fn different_cores_have_disjoint_spaces() {
        let mut a = core_on(0);
        let mut b = core_on(1);
        let ra = a.next_record();
        let rb = b.next_record();
        assert_ne!(ra.addr, rb.addr);
        assert_eq!(ra.addr, rb.addr - (1u64 << 52), "same trace, shifted");
    }

    #[test]
    fn fetch_lines_walk_the_code_footprint() {
        let mut c = core(); // gzip code_lines = 250
        let addrs = fetch(&mut c, 64); // 64 insts / 32 per line = 2 lines
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[1] - addrs[0], 128, "sequential lines");
        // After 250 lines the cursor wraps.
        let mut last = addrs[1];
        let mut wrapped = false;
        for _ in 0..300 {
            for a in fetch(&mut c, 32) {
                if a < last {
                    wrapped = true;
                }
                last = a;
            }
        }
        assert!(wrapped, "code fetch must wrap its footprint");
    }

    #[test]
    fn fetch_accumulates_partial_groups() {
        let mut c = core();
        assert!(fetch(&mut c, 10).is_empty());
        assert!(fetch(&mut c, 10).is_empty());
        assert_eq!(fetch(&mut c, 12).len(), 1, "32 insts accumulated");
    }

    #[test]
    fn finish_freezes_once() {
        let mut c = core();
        c.insts = 1000;
        c.cycle = 4000;
        c.maybe_finish(1000);
        assert_eq!(c.finish_cycle, Some(4000));
        c.cycle = 9999;
        c.maybe_finish(1000);
        assert_eq!(c.finish_cycle, Some(4000), "freeze is sticky");
        assert!((c.ipc(1000) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ipc_is_zero_before_finish() {
        let c = core();
        assert_eq!(c.ipc(1000), 0.0);
    }

    #[test]
    fn code_addresses_do_not_collide_with_data() {
        let mut c = core();
        let code_line = fetch(&mut c, 32)[0];
        for _ in 0..1000 {
            let r = c.next_record();
            assert_ne!(r.addr, code_line);
            assert!(r.addr < CODE_BASE_BYTES);
        }
    }
}
