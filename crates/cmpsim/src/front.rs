//! A core's front end: everything between its record stream and the
//! shared L2.
//!
//! Each record becomes one [`Step`] on its way through the front end:
//! the record's instruction count, the instruction-fetch lines that
//! missed the private L1I, and the data access if it missed the private
//! L1D. The L1s are non-inclusive and model no writebacks, so a core's
//! steps depend only on its own record stream and L1 shapes — never on
//! the scheme, the L2 or the other cores. A running `System` therefore
//! feeds its back end (the shared L2, the CPA controller and the clocks)
//! from one of two arms per core:
//!
//! * [`Front::Live`]: a [`LiveFront`] pulls one record per step from
//!   the core's source and runs it through the core's own L1s;
//! * [`Front::Taped`]: a [`StepReader`] decodes steps made elsewhere:
//!   those a stream memo's tape stored once for every simulation that
//!   reads the stream, or those a trace replay's decode worker makes
//!   ahead of the back end by running the core's [`LiveFront`] on its
//!   own thread.

use crate::config::MachineConfig;
use crate::core_model::Records;
use crate::tape::StepReader;
use cachesim::hierarchy::L1Pair;
use cachesim::{Access, Addr};
use tracegen::{BenchmarkProfile, MemRecord, TraceSource};

/// One record after the private L1s: what the back end needs of it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    /// Instructions the record accounts for.
    pub insts: u64,
    /// The instruction-fetch lines that missed the L1I, in stream order,
    /// as L2 reads by the core.
    pub fetch: Vec<Access>,
    /// The data access `(address, is_write)`, when it missed the L1D.
    pub data: Option<(Addr, bool)>,
}

/// The live front end of one core: its [`Records`] (source and fetch
/// synthesis) in front of its private L1I and L1D.
#[derive(Debug)]
pub struct LiveFront {
    records: Records,
    l1: L1Pair,
    core: usize,
    /// The current record's fetch group.
    lines: Vec<u64>,
}

impl LiveFront {
    /// Core `core` of `cfg` reading `profile`'s stream from `source`,
    /// through cold L1s of `cfg`'s shapes.
    pub fn new(
        core: usize,
        profile: &BenchmarkProfile,
        source: Box<dyn TraceSource>,
        cfg: &MachineConfig,
    ) -> Self {
        LiveFront {
            records: Records::new(core, profile, source, cfg.insts_per_fetch_line),
            l1: L1Pair::new(cfg.l1i, cfg.l1d),
            core,
            lines: Vec::new(),
        }
    }

    /// Pull exactly one record and run it through the L1s into `step`.
    pub fn next_step(&mut self, step: &mut Step) {
        let r = self.records.next_record();
        self.filter(r, step);
    }

    /// [`LiveFront::next_step`] through the source's fallible step: why
    /// the stream stopped, in place of its panic, with `step` untouched.
    pub(crate) fn try_next_step(&mut self, step: &mut Step) -> Result<(), String> {
        let r = self.records.try_next_record()?;
        self.filter(r, step);
        Ok(())
    }

    /// Run record `r` through fetch synthesis and the L1s into `step`.
    #[inline]
    fn filter(&mut self, r: MemRecord, step: &mut Step) {
        step.insts = r.instructions();
        step.fetch.clear();
        self.records.fetch_addrs_into(step.insts, &mut self.lines);
        self.l1.fetch(self.core, &self.lines, &mut step.fetch);
        step.data = (!self.l1.data(r.addr, r.is_write)).then_some((r.addr, r.is_write));
    }
}

/// Where one core's steps come from.
#[derive(Debug)]
pub enum Front {
    /// The core's own records, through its own L1s.
    Live(Box<LiveFront>),
    /// Steps a stream tape stored, or a front-end worker sends, for this
    /// core.
    Taped(StepReader),
}

impl Front {
    /// A live front end (see [`LiveFront::new`]).
    pub fn live(
        core: usize,
        profile: &BenchmarkProfile,
        source: Box<dyn TraceSource>,
        cfg: &MachineConfig,
    ) -> Self {
        Front::Live(Box::new(LiveFront::new(core, profile, source, cfg)))
    }

    /// The core's next step, into `step`.
    #[inline]
    pub fn next_step(&mut self, step: &mut Step) {
        match self {
            Front::Live(f) => f.next_step(step),
            Front::Taped(r) => r.next_step(step),
        }
    }
}
