//! The composed cache: tags + replacement policy + partition enforcement +
//! statistics.
//!
//! ## Hot-path layout and the access kernel
//!
//! Per-set state is stored as packed structure-of-arrays planes: a flat tag
//! row per set, one valid-bit word per set, flat owner bytes, a packed
//! 8-bit **tag-signature plane** (eight ways per u64 lane word), and the
//! policies' own packed planes (LRU order rows, NRU used-bit words, BT tree
//! words). Invalid-way fills come straight from the valid word's
//! complement — no per-way branching anywhere.
//!
//! A `Cache` is the shared L2: the private L1s are
//! [`PrivateLru`](crate::hierarchy::PrivateLru) recency rows, with a
//! one-core LRU `Cache` as their test reference. Every access runs one
//! per-access kernel (kernel v2), whether it arrives alone through
//! [`Cache::access`] or in a slice through [`Cache::access_batch`]:
//!
//! * **SWAR multi-way probe** — each way's tag is summarized by an 8-bit
//!   multiplicative signature; a set packs them eight-per-u64. One XOR
//!   against the broadcast probe signature plus the zero-byte trick
//!   (`(x - 0x01…) & !x & 0x80…`) turns "which ways might match" into a
//!   bitmask without touching the 8-byte-per-way tag row; only candidate
//!   ways (usually exactly the hit way) are verified against the full tag.
//!   For the paper's 16-way L2 this replaces a 128-byte row scan with two
//!   u64 lane words — an 8× cut in probe traffic.
//! * **Pre-resolved enforcement** — each core's NRU scope, victim
//!   candidate mask and owner quota are pre-resolved into an
//!   `EnforcePlan` when the enforcement is installed, so the kernel reads
//!   plain arrays instead of re-matching the enforcement enum per access.
//!   Every partition arrives as way masks or owner quotas; BT's strict
//!   aligned-subtree partitions are masks too.
//!
//! Both entry points dispatch on the policy enum once per call, so a
//! batch pays one dispatch for its whole slice. In the simulator single
//! accesses dominate: on the Figure 8 sweep at 100k instructions per
//! thread, 94.6% of L2 accesses are L1D misses through `Cache::access`,
//! and almost every L1I-miss batch holds one line.
//!
//! The per-way tag-row scan survives only as the reference the
//! differential property suites compare the kernel against
//! (`Cache::access_reference`, hidden from the docs). It reads the
//! [`Enforcement`] enum directly instead of the plan, and the kernel keeps
//! its tie-breaks exactly (lowest matching valid way, lowest invalid way),
//! so outcomes, statistics and contents are bit-identical to it
//! (property-tested, including signature false positives).

use crate::addr::{Addr, LineAddr};
use crate::enforcement::Enforcement;
use crate::error::CacheError;
use crate::geometry::CacheGeometry;
use crate::mask::WayMask;
use crate::policy::{PolicyKind, PolicyState, ReplKernel};
use crate::stats::CacheStats;

/// Construction parameters for a [`Cache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Shape of the cache.
    pub geometry: CacheGeometry,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Number of cores that may access the cache (1 for private caches).
    pub num_cores: usize,
    /// Seed for the random policy (ignored by the others).
    pub seed: u64,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Did the access hit?
    pub hit: bool,
    /// Set the line maps to.
    pub set: usize,
    /// Way the line was found in / filled into.
    pub way: usize,
    /// On a miss that evicted a valid line: the evicted line's address and
    /// previous owner core.
    pub evicted: Option<(LineAddr, u8)>,
}

/// One element of a batched access stream, 16 bytes packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address.
    pub addr: Addr,
    /// Issuing core.
    pub core: u8,
    /// Is this a write?
    pub write: bool,
}

impl Access {
    /// An access from `core` to `addr`.
    #[inline]
    pub fn new(core: usize, addr: Addr, write: bool) -> Self {
        debug_assert!(core < 256);
        Access {
            addr,
            core: core as u8,
            write,
        }
    }

    /// A read access from `core` to `addr`.
    #[inline]
    pub fn read(core: usize, addr: Addr) -> Self {
        Access::new(core, addr, false)
    }
}

/// Aggregate outcome of one [`Cache::access_batch`] call. The same events
/// are also folded into the cache's per-core [`CacheStats`], exactly as
/// [`Cache::access`] would have recorded them; this struct is the cheap
/// batch-local summary callers use for timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Accesses processed (hits + misses).
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Misses that evicted a valid line.
    pub evictions: u64,
    /// Evictions of a line owned by a different core.
    pub cross_evictions: u64,
}

/// Ways per u64 word of the signature plane (one byte each).
const SIG_LANES: usize = 8;
/// Low bit of every byte lane.
const LANE_LO: u64 = 0x0101_0101_0101_0101;
/// High (marker) bit of every byte lane.
const LANE_HI: u64 = 0x8080_8080_8080_8080;
/// Multiplying a marker-bit word by this gathers the eight per-lane marker
/// bits into the top byte (every partial product lands on a distinct bit,
/// so no carries — the classic movemask-by-multiply).
const LANE_GATHER: u64 = 0x0002_0408_1020_4081;

/// 8-bit signature of a tag: the top byte of a Fibonacci-hash multiply, so
/// that tags differing only in low bits still get distinct signatures.
/// Purely a function of the tag — a signature mismatch proves a tag
/// mismatch; a match still needs one full-tag verify.
#[inline(always)]
fn sig_of(tag: u64) -> u8 {
    (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// Signature-plane words per set.
#[inline(always)]
fn sig_words_per_set(assoc: usize) -> usize {
    assoc.div_ceil(SIG_LANES)
}

/// SWAR zero-byte scan: one bit per byte lane of `x` that *may* be zero.
/// Exact for the lowest zero lane; lanes above it can be flagged spuriously
/// when the subtraction borrows through a zero byte — callers verify every
/// candidate against the full tag, so false positives only cost a compare.
/// Zero lanes are never missed (`0 - 1` always sets the marker bit and
/// `!0` keeps it), which is what correctness rests on.
#[inline(always)]
fn zero_byte_lanes(x: u64) -> u32 {
    let markers = x.wrapping_sub(LANE_LO) & !x & LANE_HI;
    (markers.wrapping_mul(LANE_GATHER) >> 56) as u32
}

/// Store `sig` as the signature byte of `way` in `set`.
#[inline(always)]
fn write_sig(plane: &mut [u64], stride: usize, set: usize, way: usize, sig: u8) {
    let word = &mut plane[set * stride + way / SIG_LANES];
    let shift = (way % SIG_LANES) * 8;
    *word = (*word & !(0xFFu64 << shift)) | (u64::from(sig) << shift);
}

/// Enforcement pre-resolved into per-core lookup tables for the access
/// kernel. Built once when an enforcement is installed (not per access),
/// so the kernel reads plain arrays instead of matching the
/// [`Enforcement`] enum and chasing its `Vec`s for every access.
#[derive(Debug, Clone)]
struct EnforcePlan {
    /// NRU saturation scope per core: the static mask, or the full mask
    /// where no static mask exists.
    scopes: Vec<WayMask>,
    /// Static victim-candidate mask per core (full when unpartitioned;
    /// unused in owner-counter mode).
    cands: Vec<WayMask>,
    /// Per-core way quotas (owner-counter mode only, else empty).
    quotas: Vec<usize>,
    /// Owner-counter mode: candidates depend on per-set owner state.
    counters: bool,
}

impl EnforcePlan {
    fn new(e: &Enforcement, assoc: usize, num_cores: usize) -> Self {
        let full = WayMask::full(assoc);
        let scopes = (0..num_cores)
            .map(|c| e.static_mask(c).unwrap_or(full))
            .collect();
        let (cands, quotas, counters) = match e {
            Enforcement::None => (vec![full; num_cores], vec![], false),
            Enforcement::Masks(masks) => (masks.clone(), vec![], false),
            Enforcement::OwnerCounters { quotas } => (vec![full; num_cores], quotas.clone(), true),
        };
        EnforcePlan {
            scopes,
            cands,
            quotas,
            counters,
        }
    }
}

/// A set-associative cache with pluggable replacement and partition
/// enforcement.
///
/// Tag state lives in flat arrays indexed `set * assoc + way`, valid bits
/// in one packed word per set; owner-core bits and per-set per-core
/// occupancy counters are always maintained (they are only *consulted* in
/// the `C` enforcement mode, but keeping them live makes switching
/// enforcement mid-run — as the dynamic CPA controller does — trivially
/// correct).
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    policy: PolicyState,
    num_cores: usize,
    /// Tag of each line; meaningful only where the set's valid bit is set.
    tags: Vec<u64>,
    /// Packed 8-bit tag signatures, [`sig_words_per_set`] u64 words per
    /// set: byte `w % 8` of word `set * stride + w / 8` is
    /// `sig_of(tags[set * assoc + w])`. Maintained on every fill (by the
    /// kernel and the reference scan alike); consulted only by the
    /// kernel's SWAR probe and — like the tag row — meaningful only where
    /// the valid bit is set.
    sig: Vec<u64>,
    /// One packed valid-bit word per set (bit `w` = way `w`).
    valid: Vec<u32>,
    /// Core that filled each line (the paper's "owner core bits",
    /// log2(N) per line).
    owner: Vec<u8>,
    /// `owner_count[set * num_cores + core]` = lines of `core` in `set`.
    owner_count: Vec<u8>,
    enforcement: Enforcement,
    /// [`Enforcement`] pre-resolved for the access kernel; rebuilt by
    /// [`Cache::try_set_enforcement`].
    plan: EnforcePlan,
    stats: CacheStats,
}

/// Split mutable borrows of everything the access kernel touches besides
/// the replacement policy, so the monomorphized kernels can run against
/// `&mut P` and the rest of the cache at once.
struct Planes<'a> {
    geom: &'a CacheGeometry,
    num_cores: usize,
    tags: &'a mut [u64],
    sig: &'a mut [u64],
    sig_stride: usize,
    valid: &'a mut [u32],
    owner: &'a mut [u8],
    owner_count: &'a mut [u8],
    enforcement: &'a Enforcement,
    plan: &'a EnforcePlan,
    stats: &'a mut CacheStats,
}

/// Shared tail of the kernel's and the reference scan's miss path:
/// ownership bookkeeping, the tag/valid/owner/signature plane writes, the
/// policy touch and the stats record. `evicted` must already carry the
/// victim's *old* line and owner (read before this overwrites the way).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // hot-path tail; every arg is already in registers
fn finish_miss<P: ReplKernel>(
    planes: &mut Planes<'_>,
    policy: &mut P,
    core: usize,
    set: usize,
    tag: u64,
    way: usize,
    evicted: Option<(LineAddr, u8)>,
    scope: WayMask,
    write: bool,
) -> AccessOutcome {
    let base = set * planes.geom.assoc();
    if let Some((_, old_owner)) = evicted {
        let oc = usize::from(old_owner);
        planes.owner_count[set * planes.num_cores + oc] -= 1;
        if oc != core {
            planes.stats.record_cross_eviction(core);
        }
    }
    planes.owner_count[set * planes.num_cores + core] += 1;
    planes.tags[base + way] = tag;
    write_sig(planes.sig, planes.sig_stride, set, way, sig_of(tag));
    planes.valid[set] |= 1 << way;
    planes.owner[base + way] = core as u8;
    policy.touch(set, way, scope);
    planes.stats.record(core, false, write);

    AccessOutcome {
        hit: false,
        set,
        way,
        evicted,
    }
}

/// One access through the kernel: SWAR signature compare over the packed
/// signature plane plus the pre-resolved `EnforcePlan`. Bit-identical to
/// the reference [`scan_access`] by construction — same lowest-way
/// tie-breaks on hits and invalid fills, same victim masks on evictions —
/// and property-tested to stay that way.
#[inline(always)]
fn access_one<P: ReplKernel>(
    planes: &mut Planes<'_>,
    policy: &mut P,
    core: usize,
    addr: Addr,
    write: bool,
) -> AccessOutcome {
    let assoc = planes.geom.assoc();
    let set = planes.geom.set_index(addr);
    let tag = planes.geom.tag(addr);
    // The probe signature, broadcast to every byte lane.
    let bcast = u64::from(sig_of(tag)) * LANE_LO;
    let base = set * assoc;
    let valid = planes.valid[set];
    let full = WayMask::full(assoc);
    let plan = planes.plan;

    // SWAR probe: XOR each signature lane word against the broadcast probe
    // signature; zero lanes mark candidate ways. Usually zero (miss) or
    // one (the hit way) bit survives the valid qualification.
    let sbase = set * planes.sig_stride;
    let mut cand = 0u32;
    for (i, &word) in planes.sig[sbase..sbase + planes.sig_stride]
        .iter()
        .enumerate()
    {
        cand |= zero_byte_lanes(word ^ bcast) << (SIG_LANES * i);
    }
    cand &= valid;

    // Verify candidates in ascending way order against the full tag row —
    // the same lowest-matching-way tie-break as the reference row scan.
    // Signature false positives (spurious zero-lane markers or genuine
    // 8-bit collisions) fall out here at the cost of one extra compare.
    while cand != 0 {
        let way = cand.trailing_zeros() as usize;
        if planes.tags[base + way] == tag {
            policy.touch(set, way, plan.scopes[core]);
            planes.stats.record(core, true, write);
            return AccessOutcome {
                hit: true,
                set,
                way,
                evicted: None,
            };
        }
        cand &= cand - 1;
    }

    // Miss: invalid-way fill first, then a policy victim — reading the
    // candidate masks straight from the plan instead of re-matching the
    // enforcement enum.
    let (way, evicted) = if plan.counters {
        // Owner-counter candidates only ever cover valid lines, so the
        // invalid-fill probe runs over the whole set (the reference's
        // widened-mask path) and the owner scan is skipped entirely when
        // an invalid way exists.
        let invalid = !valid & full.0;
        if invalid != 0 {
            (invalid.trailing_zeros() as usize, None)
        } else {
            let mut own = 0u32;
            for w in WayMask(valid).iter() {
                own |= u32::from(usize::from(planes.owner[base + w]) == core) << w;
            }
            let others = valid & !own;
            let under_quota =
                usize::from(planes.owner_count[set * planes.num_cores + core]) < plan.quotas[core];
            let mask = if under_quota && others != 0 {
                WayMask(others)
            } else if own != 0 {
                WayMask(own)
            } else {
                full
            };
            let way = policy.pick(set, mask);
            let old_owner = planes.owner[base + way];
            let old_line = planes.geom.line_of(set, planes.tags[base + way]);
            (way, Some((old_line, old_owner)))
        }
    } else {
        let candidates = plan.cands[core];
        let invalid = !valid & full.0 & candidates.0;
        if invalid != 0 {
            (invalid.trailing_zeros() as usize, None)
        } else {
            let way = policy.pick(set, candidates);
            let old_owner = planes.owner[base + way];
            let old_line = planes.geom.line_of(set, planes.tags[base + way]);
            (way, Some((old_line, old_owner)))
        }
    };

    finish_miss(
        planes,
        policy,
        core,
        set,
        tag,
        way,
        evicted,
        plan.scopes[core],
        write,
    )
}

/// The monomorphized batch loop: one policy dispatch for the whole
/// slice, then [`access_one`] per access, folded into `batch`.
fn run_batch<P: ReplKernel>(
    planes: &mut Planes<'_>,
    policy: &mut P,
    accesses: &[Access],
    batch: &mut BatchStats,
) {
    for a in accesses {
        let core = usize::from(a.core);
        let out = access_one(planes, policy, core, a.addr, a.write);
        batch.accesses += 1;
        if out.hit {
            batch.hits += 1;
        } else {
            batch.misses += 1;
        }
        if let Some((_, old_owner)) = out.evicted {
            batch.evictions += 1;
            batch.cross_evictions += u64::from(usize::from(old_owner) != core);
        }
    }
}

/// The reference kernel: a plain per-way compare over the set's tag row,
/// with the victim candidates matched straight off the [`Enforcement`]
/// enum. The simulator never runs it; the differential property suites
/// drive it through [`Cache::access_reference`] as the oracle
/// [`access_one`] must match bit for bit.
fn scan_access<P: ReplKernel>(
    planes: &mut Planes<'_>,
    policy: &mut P,
    core: usize,
    addr: Addr,
    write: bool,
) -> AccessOutcome {
    let assoc = planes.geom.assoc();
    let set = planes.geom.set_index(addr);
    let tag = planes.geom.tag(addr);
    let base = set * assoc;
    let valid = planes.valid[set];
    let full = WayMask::full(assoc);

    // Branchless tag match over the set's tag row: build a match bitmask
    // (the compiler vectorizes this compare) and qualify it with the
    // packed valid word.
    let row = &planes.tags[base..base + assoc];
    let mut match_bits = 0u32;
    for (w, &t) in row.iter().enumerate() {
        match_bits |= u32::from(t == tag) << w;
    }
    match_bits &= valid;

    let scope = planes.enforcement.static_mask(core).unwrap_or(full);

    if match_bits != 0 {
        let way = match_bits.trailing_zeros() as usize;
        policy.touch(set, way, scope);
        planes.stats.record(core, true, write);
        return AccessOutcome {
            hit: true,
            set,
            way,
            evicted: None,
        };
    }

    // Miss: pick a fill way — an invalid candidate way first, then a
    // policy victim among the candidates.
    let candidates = match planes.enforcement {
        Enforcement::None => full,
        Enforcement::Masks(masks) => masks[core],
        Enforcement::OwnerCounters { quotas } => {
            // Section II-B.1: under quota -> evict the LRU line among
            // lines of *other* cores; at/over quota -> among own lines.
            let mut own = 0u32;
            for w in WayMask(valid).iter() {
                own |= u32::from(usize::from(planes.owner[base + w]) == core) << w;
            }
            let others = valid & !own;
            let under_quota =
                usize::from(planes.owner_count[set * planes.num_cores + core]) < quotas[core];
            if under_quota && others != 0 {
                WayMask(others)
            } else if own != 0 {
                WayMask(own)
            } else {
                // Degenerate: no valid line fits the rule (e.g. cold
                // set); any way is fair game — invalid-way fill will
                // normally take over before this matters.
                full
            }
        }
    };

    let mut invalid = !valid & full.0 & candidates.0;
    if invalid == 0
        && matches!(
            planes.enforcement,
            Enforcement::OwnerCounters { .. } | Enforcement::None
        )
    {
        // In the `C` scheme the candidate mask only covers valid lines; a
        // cold set must still fill invalid ways.
        invalid = !valid & full.0;
    }

    let (way, evicted) = if invalid != 0 {
        (invalid.trailing_zeros() as usize, None)
    } else {
        let way = policy.pick(set, candidates);
        let old_owner = planes.owner[base + way];
        let old_line = planes.geom.line_of(set, planes.tags[base + way]);
        (way, Some((old_line, old_owner)))
    };

    finish_miss(planes, policy, core, set, tag, way, evicted, scope, write)
}

impl Cache {
    /// Build an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.policy
            .validate_assoc(cfg.geometry.assoc())
            .expect("invalid policy/associativity");
        // Core IDs ride in u8 planes (`Access::core`, the per-line owner
        // plane), so 256 tenants is the hard ceiling.
        assert!(cfg.num_cores >= 1 && cfg.num_cores <= 256);
        let lines = cfg.geometry.num_sets() * cfg.geometry.assoc();
        Cache {
            geom: cfg.geometry,
            policy: PolicyState::new(
                cfg.policy,
                cfg.geometry.num_sets(),
                cfg.geometry.assoc(),
                cfg.seed,
            ),
            num_cores: cfg.num_cores,
            tags: vec![0; lines],
            // sig_of(0) == 0, so the cold plane matches the cold tag rows.
            sig: vec![0; cfg.geometry.num_sets() * sig_words_per_set(cfg.geometry.assoc())],
            valid: vec![0; cfg.geometry.num_sets()],
            owner: vec![0; lines],
            owner_count: vec![0; cfg.geometry.num_sets() * cfg.num_cores],
            enforcement: Enforcement::None,
            plan: EnforcePlan::new(&Enforcement::None, cfg.geometry.assoc(), cfg.num_cores),
            stats: CacheStats::new(cfg.num_cores),
        }
    }

    /// Split the cache into its policy and the remaining packed planes.
    fn split(&mut self) -> (&mut PolicyState, Planes<'_>) {
        let Cache {
            geom,
            policy,
            num_cores,
            tags,
            sig,
            valid,
            owner,
            owner_count,
            enforcement,
            plan,
            stats,
        } = self;
        (
            policy,
            Planes {
                geom,
                num_cores: *num_cores,
                tags,
                sig,
                sig_stride: sig_words_per_set(geom.assoc()),
                valid,
                owner,
                owner_count,
                enforcement,
                plan,
                stats,
            },
        )
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Number of cores sharing this cache.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Install a new enforcement configuration (validated), pre-resolving
    /// it into the access kernel's `EnforcePlan`.
    pub fn try_set_enforcement(&mut self, e: Enforcement) -> Result<(), CacheError> {
        e.validate(self.geom.assoc(), self.num_cores)?;
        self.plan = EnforcePlan::new(&e, self.geom.assoc(), self.num_cores);
        self.enforcement = e;
        Ok(())
    }

    /// Install a new enforcement configuration, panicking on invalid input.
    pub fn set_enforcement(&mut self, e: Enforcement) {
        self.try_set_enforcement(e).expect("invalid enforcement");
    }

    /// The active enforcement.
    pub fn enforcement(&self) -> &Enforcement {
        &self.enforcement
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset all content, replacement state and statistics.
    pub fn reset(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = 0);
        self.owner_count.iter_mut().for_each(|c| *c = 0);
        self.policy.reset();
        self.stats.reset();
    }

    /// Non-mutating lookup: where is `addr` cached, if anywhere?
    pub fn probe(&self, addr: Addr) -> Option<(usize, usize)> {
        let set = self.geom.set_index(addr);
        let tag = self.geom.tag(addr);
        self.find(set, tag).map(|way| (set, way))
    }

    /// Does the cache hold `addr`?
    pub fn contains(&self, addr: Addr) -> bool {
        self.probe(addr).is_some()
    }

    /// Number of valid lines owned by `core` in `set`.
    pub fn owned_in_set(&self, set: usize, core: usize) -> usize {
        self.owner_count[set * self.num_cores + core] as usize
    }

    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.geom.assoc();
        let row = &self.tags[base..base + self.geom.assoc()];
        let mut match_bits = 0u32;
        for (w, &t) in row.iter().enumerate() {
            match_bits |= u32::from(t == tag) << w;
        }
        match_bits &= self.valid[set];
        if match_bits != 0 {
            Some(match_bits.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Access `addr` from `core`. Updates replacement state, ownership and
    /// statistics; on a miss, fills the line (evicting if needed).
    ///
    /// One policy dispatch, then the signature-plane kernel that
    /// [`Cache::access_batch`] runs per access. This is how the simulator
    /// reaches the shared L2 most of the time: every L1D miss comes
    /// through here.
    pub fn access(&mut self, core: usize, addr: Addr, write: bool) -> AccessOutcome {
        let (policy, mut planes) = self.split();
        match policy {
            PolicyState::Lru(p) => access_one(&mut planes, p, core, addr, write),
            PolicyState::Nru(p) => access_one(&mut planes, p, core, addr, write),
            PolicyState::Bt(p) => access_one(&mut planes, p, core, addr, write),
            PolicyState::Random(p) => access_one(&mut planes, p, core, addr, write),
            PolicyState::Fifo(p) => access_one(&mut planes, p, core, addr, write),
        }
    }

    /// [`Cache::access`] through the reference per-way tag-row scan
    /// instead of the signature-plane kernel. The differential property
    /// suites call it as the oracle the kernel must match bit for bit;
    /// nothing in the simulator does.
    #[doc(hidden)]
    pub fn access_reference(&mut self, core: usize, addr: Addr, write: bool) -> AccessOutcome {
        let (policy, mut planes) = self.split();
        match policy {
            PolicyState::Lru(p) => scan_access(&mut planes, p, core, addr, write),
            PolicyState::Nru(p) => scan_access(&mut planes, p, core, addr, write),
            PolicyState::Bt(p) => scan_access(&mut planes, p, core, addr, write),
            PolicyState::Random(p) => scan_access(&mut planes, p, core, addr, write),
            PolicyState::Fifo(p) => scan_access(&mut planes, p, core, addr, write),
        }
    }

    /// Process a whole access slice through the same kernel as
    /// [`Cache::access`], folding a summary into `batch`.
    ///
    /// The policy dispatch happens once per call instead of once per
    /// access; per-core [`CacheStats`] end up bit-identical to calling
    /// [`Cache::access`] in a loop over the same slice. The simulator
    /// hands the shared L2 each record's L1I misses this way, which is
    /// one line almost every time.
    ///
    /// ```
    /// use cachesim::{Access, BatchStats, Cache, CacheConfig, CacheGeometry, PolicyKind};
    ///
    /// let mut l2 = Cache::new(CacheConfig {
    ///     geometry: CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap(),
    ///     policy: PolicyKind::Nru,
    ///     num_cores: 2,
    ///     seed: 42,
    /// });
    /// // One trace chunk: core 0 reads, core 1 writes, disjoint lines.
    /// let chunk: Vec<Access> = (0..256u64)
    ///     .map(|i| Access::new((i % 2) as usize, i * 128, i % 2 == 1))
    ///     .collect();
    /// let mut batch = BatchStats::default();
    /// l2.access_batch(&chunk, &mut batch);
    /// assert_eq!(batch.accesses, 256);
    /// assert_eq!(batch.misses, 256, "cold cache, distinct lines");
    /// assert_eq!(l2.stats().core(0).accesses, 128);
    /// ```
    pub fn access_batch(&mut self, accesses: &[Access], batch: &mut BatchStats) {
        let (policy, mut planes) = self.split();
        match policy {
            PolicyState::Lru(p) => run_batch(&mut planes, p, accesses, batch),
            PolicyState::Nru(p) => run_batch(&mut planes, p, accesses, batch),
            PolicyState::Bt(p) => run_batch(&mut planes, p, accesses, batch),
            PolicyState::Random(p) => run_batch(&mut planes, p, accesses, batch),
            PolicyState::Fifo(p) => run_batch(&mut planes, p, accesses, batch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: PolicyKind, cores: usize) -> Cache {
        // 4 sets x 4 ways x 64 B lines = 1 KiB.
        let geom = CacheGeometry::new(1024, 4, 64).unwrap();
        Cache::new(CacheConfig {
            geometry: geom,
            policy,
            num_cores: cores,
            seed: 1,
        })
    }

    /// Byte address of the n-th distinct line mapping to `set`.
    fn addr_in_set(c: &Cache, set: usize, n: u64) -> Addr {
        let g = c.geometry();
        ((n << g.index_bits()) | set as u64) << g.offset_bits()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(PolicyKind::Lru, 1);
        let a = addr_in_set(&c, 0, 0);
        let first = c.access(0, a, false);
        assert!(!first.hit);
        let second = c.access(0, a, false);
        assert!(second.hit);
        assert_eq!(second.way, first.way);
        assert_eq!(c.stats().core(0).misses, 1);
        assert_eq!(c.stats().core(0).hits, 1);
    }

    #[test]
    fn fills_prefer_invalid_ways() {
        let mut c = small(PolicyKind::Lru, 1);
        for n in 0..4 {
            let out = c.access(0, addr_in_set(&c, 1, n), false);
            assert!(out.evicted.is_none(), "fill {n} must not evict");
        }
        let out = c.access(0, addr_in_set(&c, 1, 4), false);
        assert!(out.evicted.is_some(), "5th line must evict");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small(PolicyKind::Lru, 1);
        for n in 0..4 {
            c.access(0, addr_in_set(&c, 0, n), false);
        }
        // Touch line 0 so line 1 becomes LRU.
        c.access(0, addr_in_set(&c, 0, 0), false);
        let out = c.access(0, addr_in_set(&c, 0, 4), false);
        let (evicted, _) = out.evicted.unwrap();
        assert_eq!(evicted, c.geometry().line_addr(addr_in_set(&c, 0, 1)));
    }

    #[test]
    fn masks_confine_evictions_but_not_hits() {
        let mut c = small(PolicyKind::Lru, 2);
        c.set_enforcement(Enforcement::masks(vec![
            WayMask::contiguous(0, 2),
            WayMask::contiguous(2, 2),
        ]));
        // Core 0 fills its two ways (invalid fills stay in mask).
        for n in 0..2 {
            let out = c.access(0, addr_in_set(&c, 0, n), false);
            assert!(WayMask::contiguous(0, 2).contains(out.way), "fill {n}");
        }
        // A third core-0 miss evicts within the mask, not from ways 2..4.
        let out = c.access(0, addr_in_set(&c, 0, 2), false);
        assert!(WayMask::contiguous(0, 2).contains(out.way));
        assert!(out.evicted.is_some());
        // Core 1 can *hit* in core 0's ways.
        let out = c.access(1, addr_in_set(&c, 0, 2), false);
        assert!(out.hit);
        // But core 1's misses only evict from its own ways.
        let out = c.access(1, addr_in_set(&c, 0, 10), false);
        assert!(WayMask::contiguous(2, 2).contains(out.way));
    }

    #[test]
    fn owner_counters_under_quota_evicts_other_core() {
        let mut c = small(PolicyKind::Lru, 2);
        c.set_enforcement(Enforcement::owner_counters(vec![2, 2]));
        // Core 0 fills the whole set (allowed: enforcement only guides
        // victim choice, cold fills take invalid ways).
        for n in 0..4 {
            c.access(0, addr_in_set(&c, 0, n), false);
        }
        assert_eq!(c.owned_in_set(0, 0), 4);
        // Core 1 (0 owned < quota 2) must evict one of core 0's lines.
        let out = c.access(1, addr_in_set(&c, 0, 10), false);
        let (_, prev_owner) = out.evicted.unwrap();
        assert_eq!(prev_owner, 0);
        assert_eq!(c.owned_in_set(0, 1), 1);
        assert_eq!(c.owned_in_set(0, 0), 3);
        assert_eq!(c.stats().core(1).cross_evictions, 1);
    }

    #[test]
    fn owner_counters_at_quota_evicts_own_lines() {
        let mut c = small(PolicyKind::Lru, 2);
        c.set_enforcement(Enforcement::owner_counters(vec![2, 2]));
        for n in 0..4 {
            c.access(0, addr_in_set(&c, 0, n), false);
        }
        // Core 1 takes two lines (now at quota).
        c.access(1, addr_in_set(&c, 0, 10), false);
        c.access(1, addr_in_set(&c, 0, 11), false);
        assert_eq!(c.owned_in_set(0, 1), 2);
        // Third core-1 miss must evict core 1's own LRU line.
        let out = c.access(1, addr_in_set(&c, 0, 12), false);
        let (_, prev_owner) = out.evicted.unwrap();
        assert_eq!(prev_owner, 1);
        assert_eq!(c.owned_in_set(0, 1), 2, "occupancy stays at quota");
    }

    #[test]
    fn bt_subtree_masks_confine_victims() {
        let mut c = small(PolicyKind::Bt, 2);
        c.set_enforcement(Enforcement::masks(vec![
            WayMask::contiguous(0, 2),
            WayMask::contiguous(2, 2),
        ]));
        for n in 0..8 {
            let out = c.access(0, addr_in_set(&c, 2, n), false);
            assert!(out.way < 2, "core 0 confined to upper subtree");
        }
        for n in 100..108 {
            let out = c.access(1, addr_in_set(&c, 2, n), false);
            assert!(out.way >= 2, "core 1 confined to lower subtree");
        }
    }

    #[test]
    fn owner_counts_stay_consistent() {
        let mut c = small(PolicyKind::Nru, 2);
        c.set_enforcement(Enforcement::masks(vec![
            WayMask::contiguous(0, 3),
            WayMask::contiguous(3, 1),
        ]));
        for i in 0..200u64 {
            let core = (i % 2) as usize;
            c.access(core, addr_in_set(&c, (i % 4) as usize, i % 9), false);
            for set in 0..4 {
                let total: usize = (0..2).map(|k| c.owned_in_set(set, k)).sum();
                assert!(total <= 4);
            }
        }
    }

    #[test]
    fn enforcement_validation_rejects_mismatched_cores() {
        let mut c = small(PolicyKind::Lru, 2);
        let res = c.try_set_enforcement(Enforcement::masks(vec![WayMask::full(4)]));
        assert!(res.is_err());
    }

    #[test]
    fn reset_clears_content_and_stats() {
        let mut c = small(PolicyKind::Lru, 1);
        let a = addr_in_set(&c, 0, 0);
        c.access(0, a, true);
        c.reset();
        assert!(!c.contains(a));
        assert_eq!(c.stats().core(0).accesses, 0);
        assert_eq!(c.owned_in_set(0, 0), 0);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = small(PolicyKind::Lru, 1);
        let a = addr_in_set(&c, 0, 0);
        c.access(0, a, false);
        let stats_before = c.stats().clone();
        assert!(c.probe(a).is_some());
        assert!(c.probe(addr_in_set(&c, 0, 1)).is_none());
        assert_eq!(c.stats(), &stats_before);
    }

    #[test]
    fn fifo_evicts_in_fill_order_ignoring_hits() {
        let mut c = small(PolicyKind::Fifo, 1);
        for n in 0..4 {
            c.access(0, addr_in_set(&c, 0, n), false);
        }
        // Re-touch line 0: FIFO must NOT protect it — the oldest fill
        // (line 0, way 0) is still the next victim.
        assert!(c.access(0, addr_in_set(&c, 0, 0), false).hit);
        let out = c.access(0, addr_in_set(&c, 0, 4), false);
        let (evicted, _) = out.evicted.unwrap();
        assert_eq!(evicted, c.geometry().line_addr(addr_in_set(&c, 0, 0)));
        // And the next eviction takes the second-oldest fill.
        let out = c.access(0, addr_in_set(&c, 0, 5), false);
        let (evicted, _) = out.evicted.unwrap();
        assert_eq!(evicted, c.geometry().line_addr(addr_in_set(&c, 0, 1)));
    }

    #[test]
    fn random_policy_cache_works() {
        let mut c = small(PolicyKind::Random, 1);
        for n in 0..32 {
            c.access(0, addr_in_set(&c, 0, n), false);
        }
        assert_eq!(c.stats().core(0).misses, 32);
    }
}
