//! MinMisses partition selection (Section II-B).
//!
//! Given each thread's predicted miss curve, choose a ways-per-thread
//! allocation that minimises the total number of misses, giving at least
//! one way per thread. Two solvers:
//!
//! * [`min_misses_dp`] — exact dynamic program, `O(N * A^2)`. Exactness
//!   matters here because eSDH curves are *estimates* and need not be
//!   convex, which breaks the classical greedy argument.
//! * [`min_misses_greedy`] — the classical marginal-gain heuristic
//!   (one way at a time to the thread with the largest miss reduction),
//!   kept for the ablation comparing solver quality.

/// Exact MinMisses by dynamic programming.
///
/// `curves[t][w]` = predicted misses of thread `t` when given `w` ways
/// (`w in 0..=assoc`; entry 0 is unused by the solver since every thread
/// receives at least one way). Returns the allocation (one entry per
/// thread, each ≥ 1, summing to exactly `assoc`).
///
/// Panics if there are more threads than ways or malformed curves.
pub fn min_misses_dp(curves: &[Vec<u64>], assoc: usize) -> Vec<usize> {
    // Tie-break toward the equal split: with flat or sparse curves (cold
    // SDHs, streaming threads) many allocations predict identical misses,
    // and collapsing a thread to one way on a tie is gratuitously unfair.
    let fair = assoc as f64 / curves.len() as f64;
    let off_fair = |take: usize| (take as f64 - fair).abs();
    solve(
        curves,
        assoc,
        |misses: u64, curve, take| misses + curve[take],
        |(misses, take), (best, best_take)| {
            misses < best || (misses == best && off_fair(take) < off_fair(best_take))
        },
    )
}

/// The dynamic program both exact selectors share. `best[t][w]` holds
/// the best value of threads `0..t` on exactly `w` ways, each taking at
/// least one, with the ways thread `t - 1` took for it; `None` where no
/// allocation reaches the cell. `add(value, curve, take)` extends a value
/// by the next thread taking `take` ways of its `curve`, and
/// `better(candidate, cell)` decides whether a `(value, take)` candidate
/// replaces a cell's.
fn solve<V: Copy + Default>(
    curves: &[Vec<u64>],
    assoc: usize,
    add: impl Fn(V, &[u64], usize) -> V,
    better: impl Fn((V, usize), (V, usize)) -> bool,
) -> Vec<usize> {
    let n = curves.len();
    assert!(n >= 1, "need at least one thread");
    assert!(n <= assoc, "cannot give every thread a way");
    assert!(
        curves.iter().all(|c| c.len() == assoc + 1),
        "each curve must have assoc+1 entries"
    );
    let mut best: Vec<Vec<Option<(V, usize)>>> = vec![vec![None; assoc + 1]; n + 1];
    best[0][0] = Some((V::default(), 0));
    for (t, curve) in curves.iter().enumerate() {
        // Later threads each still need >= 1 way.
        let remaining = n - 1 - t;
        for used in t..=assoc {
            let Some((value, _)) = best[t][used] else {
                continue;
            };
            for take in 1..=assoc - used - remaining {
                let candidate = (add(value, curve, take), take);
                let cell = &mut best[t + 1][used + take];
                if cell.is_none_or(|held| better(candidate, held)) {
                    *cell = Some(candidate);
                }
            }
        }
    }
    // Reconstruct from the full allocation (both selectors hand out the
    // whole cache: unused ways would be free hits).
    let mut alloc = vec![0usize; n];
    let mut used = assoc;
    for t in (1..=n).rev() {
        let (_, take) = best[t][used].expect("every full allocation is reachable");
        alloc[t - 1] = take;
        used -= take;
    }
    alloc
}

/// Greedy MinMisses: start at one way per thread, then repeatedly give the
/// next way to the thread whose miss count drops the most.
pub fn min_misses_greedy(curves: &[Vec<u64>], assoc: usize) -> Vec<usize> {
    let n = curves.len();
    assert!(n >= 1 && n <= assoc);
    assert!(curves.iter().all(|c| c.len() == assoc + 1));
    let mut alloc = vec![1usize; n];
    for _ in n..assoc {
        let mut best_t = 0usize;
        let mut best_gain = -1i128;
        for (t, curve) in curves.iter().enumerate() {
            let w = alloc[t];
            if w >= assoc {
                continue;
            }
            let gain = curve[w] as i128 - curve[w + 1] as i128;
            if gain > best_gain {
                best_gain = gain;
                best_t = t;
            }
        }
        alloc[best_t] += 1;
    }
    alloc
}

/// Total predicted misses of an allocation under the given curves.
pub fn predicted_misses(curves: &[Vec<u64>], alloc: &[usize]) -> u64 {
    curves
        .iter()
        .zip(alloc)
        .map(|(curve, &w)| curve[w.min(curve.len() - 1)])
        .sum()
}

/// Fairness-oriented partition selection (an extension the paper points
/// to via Kim et al. / FlexDCP): minimise the **maximum relative miss
/// increase** over threads, where thread `t`'s relative increase at `w`
/// ways is `(misses_t(w) + 1) / (misses_t(A) + 1)` — its miss count
/// normalised to what it would suffer owning the whole cache. Ties on the
/// minimax value are broken by total misses, so the fair solution stays
/// as efficient as possible.
///
/// Exact dynamic program, `O(N * A^2)`, same input conventions as
/// [`min_misses_dp`].
pub fn fairness_minimax(curves: &[Vec<u64>], assoc: usize) -> Vec<usize> {
    solve(
        curves,
        assoc,
        |(worst, misses): (f64, u64), curve, take| {
            // The thread's miss count normalised to owning the whole cache.
            let increase = (curve[take] as f64 + 1.0) / (curve[assoc] as f64 + 1.0);
            (worst.max(increase), misses + curve[take])
        },
        |(value, _), (best, _)| value < best,
    )
}

/// Maximum relative miss increase of an allocation (the quantity
/// [`fairness_minimax`] minimises).
pub fn max_relative_increase(curves: &[Vec<u64>], alloc: &[usize]) -> f64 {
    let assoc = curves[0].len() - 1;
    curves
        .iter()
        .zip(alloc)
        .map(|(c, &w)| (c[w.min(assoc)] as f64 + 1.0) / (c[assoc] as f64 + 1.0))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A convex curve with a knee at `knee` ways and floor `floor`.
    fn knee_curve(assoc: usize, knee: usize, height: u64, floor: u64) -> Vec<u64> {
        (0..=assoc)
            .map(|w| {
                if w >= knee {
                    floor
                } else {
                    floor + height * (knee - w) as u64 / knee as u64
                }
            })
            .collect()
    }

    /// Brute-force optimum by enumerating all allocations.
    fn brute_force(curves: &[Vec<u64>], assoc: usize) -> u64 {
        fn rec(curves: &[Vec<u64>], t: usize, left: usize, acc: u64, best: &mut u64) {
            let n = curves.len();
            if t == n {
                if left == 0 {
                    *best = (*best).min(acc);
                }
                return;
            }
            let remaining = n - 1 - t;
            for take in 1..=(left.saturating_sub(remaining)) {
                rec(curves, t + 1, left - take, acc + curves[t][take], best);
            }
        }
        let mut best = u64::MAX;
        rec(curves, 0, assoc, 0, &mut best);
        best
    }

    #[test]
    fn dp_matches_brute_force_on_knee_curves() {
        let assoc = 16;
        let curves = vec![
            knee_curve(assoc, 3, 1000, 50),
            knee_curve(assoc, 8, 3000, 100),
            knee_curve(assoc, 12, 500, 20),
        ];
        let alloc = min_misses_dp(&curves, assoc);
        assert_eq!(alloc.iter().sum::<usize>(), assoc);
        assert!(alloc.iter().all(|&w| w >= 1));
        assert_eq!(
            predicted_misses(&curves, &alloc),
            brute_force(&curves, assoc)
        );
    }

    #[test]
    fn dp_matches_brute_force_on_non_convex_curves() {
        // Staircase curves (non-convex): greedy can fail, DP must not.
        let assoc = 8;
        let stair = |drops: &[(usize, u64)]| -> Vec<u64> {
            let total: u64 = drops.iter().map(|&(_, d)| d).sum();
            (0..=assoc)
                .map(|w| {
                    total
                        - drops
                            .iter()
                            .filter(|&&(at, _)| w >= at)
                            .map(|&(_, d)| d)
                            .sum::<u64>()
                })
                .collect()
        };
        let curves = vec![
            stair(&[(4, 1000)]),          // all-or-nothing at 4 ways
            stair(&[(1, 100), (6, 800)]), // two cliffs
            stair(&[(2, 300)]),
        ];
        let alloc = min_misses_dp(&curves, assoc);
        assert_eq!(
            predicted_misses(&curves, &alloc),
            brute_force(&curves, assoc)
        );
    }

    #[test]
    fn greedy_can_be_suboptimal_but_dp_is_not() {
        // Thread 0 gains nothing until 5 ways then everything; thread 1
        // gains a trickle each way. Greedy chases the trickle.
        let assoc = 6;
        let cliff: Vec<u64> = (0..=assoc).map(|w| if w >= 5 { 0 } else { 1000 }).collect();
        let trickle: Vec<u64> = (0..=assoc).map(|w| 600 - 100 * w.min(6) as u64).collect();
        let curves = vec![cliff, trickle];
        let dp = min_misses_dp(&curves, assoc);
        let greedy = min_misses_greedy(&curves, assoc);
        assert!(predicted_misses(&curves, &dp) <= predicted_misses(&curves, &greedy));
        assert_eq!(dp, vec![5, 1], "DP takes the cliff");
    }

    #[test]
    fn everyone_gets_at_least_one_way() {
        let assoc = 16;
        // A monster thread that wants everything.
        let hog: Vec<u64> = (0..=assoc).map(|w| 1_000_000 - 10_000 * w as u64).collect();
        let tiny: Vec<u64> = vec![5; assoc + 1];
        for alloc in [
            min_misses_dp(&[hog.clone(), tiny.clone()], assoc),
            min_misses_greedy(&[hog, tiny], assoc),
        ] {
            assert!(alloc.iter().all(|&w| w >= 1));
            assert_eq!(alloc.iter().sum::<usize>(), assoc);
        }
    }

    #[test]
    fn single_thread_gets_the_whole_cache() {
        let curves = vec![knee_curve(16, 8, 100, 0)];
        assert_eq!(min_misses_dp(&curves, 16), vec![16]);
        assert_eq!(min_misses_greedy(&curves, 16), vec![16]);
    }

    #[test]
    fn eight_threads_on_sixteen_ways() {
        let assoc = 16;
        let curves: Vec<Vec<u64>> = (0..8)
            .map(|t| knee_curve(assoc, 1 + t * 2 % 8, 100 * (t as u64 + 1), 10))
            .collect();
        let alloc = min_misses_dp(&curves, assoc);
        assert_eq!(alloc.len(), 8);
        assert_eq!(alloc.iter().sum::<usize>(), 16);
        assert!(alloc.iter().all(|&w| w >= 1));
    }

    #[test]
    fn flat_curves_give_any_valid_allocation() {
        let assoc = 4;
        let flat = vec![vec![7u64; assoc + 1]; 2];
        let alloc = min_misses_dp(&flat, assoc);
        assert_eq!(alloc.iter().sum::<usize>(), 4);
        assert_eq!(predicted_misses(&flat, &alloc), 14);
    }

    #[test]
    #[should_panic]
    fn more_threads_than_ways_panics() {
        let curves = vec![vec![0u64; 3]; 4];
        let _ = min_misses_dp(&curves, 2);
    }

    #[test]
    fn fairness_never_starves_a_thread_minmisses_would() {
        // Thread 0: cliff at 6 ways. Thread 1: modest linear gains.
        // MinMisses may starve thread 1; fairness must balance the
        // relative increases.
        let assoc = 8;
        let cliff: Vec<u64> = (0..=assoc)
            .map(|w| if w >= 6 { 10 } else { 100_000 })
            .collect();
        let linear: Vec<u64> = (0..=assoc).map(|w| 4000 - 400 * w as u64).collect();
        let curves = vec![cliff, linear];
        let fair = fairness_minimax(&curves, assoc);
        let mm = min_misses_dp(&curves, assoc);
        assert!(
            max_relative_increase(&curves, &fair) <= max_relative_increase(&curves, &mm) + 1e-12
        );
        assert_eq!(fair.iter().sum::<usize>(), assoc);
        assert!(fair.iter().all(|&w| w >= 1));
    }

    #[test]
    fn fairness_matches_brute_force_minimax() {
        let assoc = 8;
        let curves = vec![
            knee_curve(assoc, 3, 900, 40),
            knee_curve(assoc, 6, 2500, 90),
            knee_curve(assoc, 2, 300, 10),
        ];
        let fair = fairness_minimax(&curves, assoc);
        // Enumerate all allocations; find the minimal max penalty.
        fn rec(curves: &[Vec<u64>], t: usize, left: usize, acc: &mut Vec<usize>, best: &mut f64) {
            if t == curves.len() {
                if left == 0 {
                    *best = best.min(max_relative_increase(curves, acc));
                }
                return;
            }
            let rem = curves.len() - 1 - t;
            for take in 1..=(left.saturating_sub(rem)) {
                acc.push(take);
                rec(curves, t + 1, left - take, acc, best);
                acc.pop();
            }
        }
        let mut best = f64::INFINITY;
        rec(&curves, 0, assoc, &mut Vec::new(), &mut best);
        assert!((max_relative_increase(&curves, &fair) - best).abs() < 1e-12);
    }

    #[test]
    fn fairness_on_identical_threads_is_balanced() {
        let assoc = 8;
        let c = knee_curve(assoc, 4, 1000, 100);
        let fair = fairness_minimax(&[c.clone(), c], assoc);
        assert_eq!(fair, vec![4, 4]);
    }

    /// `count` seeded random curve sets: 2–16 ways, 1 to `assoc` threads,
    /// each curve flat, a copy of the previous thread's, a shallow
    /// staircase or noise over a few values — shapes on which many
    /// allocations tie and the tie-breaks decide.
    fn tied_curve_sets(count: usize) -> Vec<(usize, Vec<Vec<u64>>)> {
        // xorshift64*: a fixed stream, independent of any crate.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |bound: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        };
        (0..count)
            .map(|_| {
                let assoc = 2 + below(15) as usize;
                let n = 1 + below(assoc as u64) as usize;
                let mut curves: Vec<Vec<u64>> = Vec::with_capacity(n);
                for _ in 0..n {
                    let curve = match (below(4), curves.last()) {
                        (0, _) | (1, None) => vec![below(4); assoc + 1],
                        (1, Some(prev)) => prev.clone(),
                        (2, _) => {
                            let mut misses = 20 + below(40);
                            (0..=assoc)
                                .map(|_| {
                                    misses = misses.saturating_sub(below(3));
                                    misses
                                })
                                .collect()
                        }
                        _ => (0..=assoc).map(|_| below(6)).collect(),
                    };
                    curves.push(curve);
                }
                (assoc, curves)
            })
            .collect()
    }

    #[test]
    fn selector_allocations_are_pinned() {
        // FNV-1a over every allocation both exact selectors return. The
        // invariant tests check optimality; this pins which optimum each
        // tie-break picks.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (assoc, curves) in tied_curve_sets(5000) {
            for alloc in [
                min_misses_dp(&curves, assoc),
                fairness_minimax(&curves, assoc),
            ] {
                for ways in alloc {
                    hash = (hash ^ ways as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0xcfad_4a13_ebe3_a673, "selector allocations drifted");
    }

    #[test]
    fn greedy_equals_dp_on_convex_curves() {
        // For convex curves greedy is optimal; the two must agree in cost.
        let assoc = 16;
        let curves: Vec<Vec<u64>> = (1..=4)
            .map(|k| {
                (0..=assoc)
                    .map(|w| 10_000u64 / (w as u64 + k))
                    .collect::<Vec<_>>()
            })
            .collect();
        let dp = min_misses_dp(&curves, assoc);
        let gr = min_misses_greedy(&curves, assoc);
        assert_eq!(
            predicted_misses(&curves, &dp),
            predicted_misses(&curves, &gr)
        );
    }
}
