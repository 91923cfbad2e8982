//! Profiling-logic area: ATD and SDH sizing (Sections I and III).

use crate::complexity::CacheParams;
use cachesim::PolicyKind;

/// Replacement-metadata bits the ATD stores per line for each policy.
pub fn atd_line_meta_bits(policy: PolicyKind, params: &CacheParams) -> u64 {
    match policy {
        // Stack position: log2(A) bits per line.
        PolicyKind::Lru => u64::from(params.log2_assoc()),
        // One used bit per line.
        PolicyKind::Nru => 1,
        // A-1 tree bits per *set*, amortised here as ~1 bit/line.
        PolicyKind::Bt => 1,
        PolicyKind::Random | PolicyKind::Fifo => 0,
    }
}

/// ATD size in bytes for one core: sampled sets x ways x (tag + valid +
/// replacement metadata).
pub fn atd_bytes(policy: PolicyKind, params: &CacheParams, sample_ratio: usize) -> u64 {
    assert!(sample_ratio >= 1);
    let sampled_sets = (params.num_sets / sample_ratio) as u64;
    let per_line = u64::from(params.tag_bits) + 1 + atd_line_meta_bits(policy, params);
    (sampled_sets * params.assoc as u64 * per_line).div_ceil(8)
}

/// Sketch-fidelity ATD size in bytes for one core: the cuckoo filter's
/// slot array plus the exact per-way fingerprint sidecar of a
/// `plru_core::atd::AtdTags` built at sketch fidelity. Each filter slot and
/// each way-sidecar entry stores `fp_bits` + 1 valid bit; the filter is
/// sized like the runtime's autoscaled steady state — the next
/// power-of-two bucket count that holds the sampled lines at <= 95 %
/// load, 4 slots per bucket.
pub fn sketch_atd_bytes(
    policy: PolicyKind,
    params: &CacheParams,
    sample_ratio: usize,
    fp_bits: u32,
) -> u64 {
    assert!(sample_ratio >= 1);
    let sampled_sets = (params.num_sets / sample_ratio) as u64;
    let lines = sampled_sets * params.assoc as u64;
    let slots_needed = ((lines as f64) / 0.95).ceil() as u64;
    let buckets = slots_needed.div_ceil(4).next_power_of_two();
    let slot_bits = u64::from(fp_bits) + 1;
    let filter_bits = buckets * 4 * slot_bits;
    // The sidecar replaces the full tag row: fp + valid per way, plus the
    // same replacement metadata the exact ATD keeps.
    let sidecar_bits = lines * (slot_bits + atd_line_meta_bits(policy, params));
    (filter_bits + sidecar_bits).div_ceil(8)
}

/// SDH register-file size in bytes: `A + 1` registers of `reg_bits` bits.
pub fn sdh_bytes(params: &CacheParams, reg_bits: u32) -> u64 {
    ((params.assoc as u64 + 1) * u64::from(reg_bits)).div_ceil(8)
}

/// Total profiling-logic bytes for `num_cores` threads.
pub fn profiling_logic_bytes(
    policy: PolicyKind,
    params: &CacheParams,
    sample_ratio: usize,
    reg_bits: u32,
) -> u64 {
    params.num_cores as u64
        * (atd_bytes(policy, params, sample_ratio) + sdh_bytes(params, reg_bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> CacheParams {
        CacheParams::paper_baseline()
    }

    #[test]
    fn sampled_lru_atd_is_about_3_25_kb_per_core() {
        // Section III: 3.25 KB per core at 1-in-32 sampling (47 tag bits).
        let b = atd_bytes(PolicyKind::Lru, &p(), 32);
        // 32 sets x 16 ways x (47+1+4) bits = 3328 B = 3.25 KB.
        assert_eq!(b, 3328);
    }

    #[test]
    fn full_atd_cost_motivates_sampling() {
        // Section I: the *unsampled* ATD is L1-sized — 1024 x 16 x 52 bits
        // = 104 KB per core; 8 cores land near the paper's 53,248 B *per
        // pair* framing. What matters: sampling cuts it 32x.
        let full = atd_bytes(PolicyKind::Lru, &p(), 1);
        let sampled = atd_bytes(PolicyKind::Lru, &p(), 32);
        assert_eq!(full, 32 * sampled);
        assert!(full > 100 * 1024);
    }

    #[test]
    fn nru_and_bt_atds_are_smaller_than_lru() {
        let lru = atd_bytes(PolicyKind::Lru, &p(), 32);
        let nru = atd_bytes(PolicyKind::Nru, &p(), 32);
        let bt = atd_bytes(PolicyKind::Bt, &p(), 32);
        assert!(nru < lru);
        assert!(bt < lru);
    }

    #[test]
    fn sketch_atd_undercuts_the_exact_atd() {
        // 32 sampled sets x 16 ways = 512 lines. Exact: 48+4 bits/line =
        // 3328 B. Sketch8: 512 lines need 256 buckets at <= 95 % load, so
        // filter 256 x 4 x 9 bits = 1152 B + sidecar 512 x (9 + 4) bits =
        // 832 B -> 1984 B, a ~40 % saving.
        let exact = atd_bytes(PolicyKind::Lru, &p(), 32);
        let sk8 = sketch_atd_bytes(PolicyKind::Lru, &p(), 32, 8);
        assert_eq!(exact, 3328);
        assert_eq!(sk8, 1984);
        assert!(sk8 < exact);
        // Wider fingerprints trade area for accuracy, monotonically;
        // sketch16 lands near parity with 47-bit exact tags (the win
        // lives at 8/12 bits — quoted honestly, not clamped).
        let sk12 = sketch_atd_bytes(PolicyKind::Lru, &p(), 32, 12);
        let sk16 = sketch_atd_bytes(PolicyKind::Lru, &p(), 32, 16);
        assert!(sk8 < sk12 && sk12 < sk16);
        assert!(sk12 < exact, "sketch12 still beats exact tags");
        assert_eq!(sk16, 3520, "sketch16 is ~6 % past exact at 47-bit tags");
    }

    #[test]
    fn sdh_is_tens_of_bytes() {
        // 17 registers x 32 bits = 68 bytes.
        assert_eq!(sdh_bytes(&p(), 32), 68);
    }

    #[test]
    fn total_profiling_logic_scales_with_cores() {
        let two = profiling_logic_bytes(PolicyKind::Nru, &p(), 32, 32);
        let mut p8 = p();
        p8.num_cores = 8;
        let eight = profiling_logic_bytes(PolicyKind::Nru, &p8, 32, 32);
        assert_eq!(eight, 4 * two);
    }
}
