//! Working-set mixture components.

use serde::{Deserialize, Serialize};

/// One working-set component of a benchmark phase.
///
/// Region sizes are in cache lines (128 B in the paper's machine). The
/// useful reference points for the paper's 1024-set L2: one way of capacity
/// = 1024 lines, the full 16-way 2 MB cache = 16 384 lines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Component {
    /// Cyclic sequential sweep over a region of `lines` lines. Produces a
    /// stack distance of exactly `lines` (so ~`lines/num_sets` per set):
    /// a sharp knee — the component hits iff it is given at least
    /// `ceil(lines/num_sets)` ways.
    Sequential {
        /// Region size in lines.
        lines: u64,
    },
    /// Uniform-random touches within a region of `lines` lines: reuse
    /// distances spread geometrically up to the region size, yielding a
    /// smooth concave miss curve. Uniform access carries no *recency*
    /// signal, so all policies tie on it.
    RandomIn {
        /// Region size in lines.
        lines: u64,
    },
    /// Recency-skewed reuse: the generator keeps a true LRU stack over a
    /// region of `lines` lines and re-references the line at a
    /// geometrically-distributed stack depth with the given `mean`. This
    /// is the component on which *recency predicts reuse* — true LRU
    /// retains exactly the right lines, pseudo-LRU approximations lose a
    /// little, random loses more. Most SPEC L2 traffic looks like this,
    /// which is why the paper's LRU baseline wins overall.
    StackGeom {
        /// Region size in lines (stack capacity).
        lines: u64,
        /// Mean reuse depth in lines (geometric distribution).
        mean: f64,
    },
    /// Streaming: every access touches a never-seen line. Misses at any
    /// allocation (compulsory).
    Fresh,
}

/// A weighted mixture of components — the access-pattern description of one
/// benchmark phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mixture {
    /// `(weight, component)` pairs; weights need not sum to 1 (they are
    /// normalised at sampling time).
    pub parts: Vec<(f64, Component)>,
}

impl Mixture {
    /// Build a mixture, validating weights.
    pub fn new(parts: Vec<(f64, Component)>) -> Self {
        assert!(!parts.is_empty(), "mixture needs at least one component");
        assert!(
            parts.iter().all(|(w, _)| *w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        Mixture { parts }
    }

    /// Total weight (normalisation constant).
    pub fn total_weight(&self) -> f64 {
        self.parts.iter().map(|(w, _)| w).sum()
    }

    /// Selection thresholds: entry `i` is the normalised weight of parts
    /// `0..=i`, summed in part order. [`Mixture::select`] samples over
    /// this table; the generator builds it once per phase.
    pub(crate) fn cumulative_weights(&self) -> Vec<f64> {
        let total = self.total_weight();
        let mut acc = 0.0;
        self.parts
            .iter()
            .map(|(w, _)| {
                acc += w / total;
                acc
            })
            .collect()
    }

    /// Index of the component a uniform draw `u in [0,1)` selects.
    pub fn select(&self, u: f64) -> usize {
        select_part(&self.cumulative_weights(), u)
    }

    /// The expected fraction of accesses that are compulsory (Fresh).
    pub fn fresh_fraction(&self) -> f64 {
        let total = self.total_weight();
        self.parts
            .iter()
            .filter(|(_, c)| matches!(c, Component::Fresh))
            .map(|(w, _)| w / total)
            .sum()
    }

    /// Largest region in the mixture, in lines (0 if purely streaming).
    pub fn max_region_lines(&self) -> u64 {
        self.parts
            .iter()
            .map(|(_, c)| match c {
                Component::Sequential { lines }
                | Component::RandomIn { lines }
                | Component::StackGeom { lines, .. } => *lines,
                Component::Fresh => 0,
            })
            .max()
            .unwrap_or(0)
    }
}

/// Index of the part a uniform draw `u` selects, given a mixture's
/// [`Mixture::cumulative_weights`]: the first part whose threshold exceeds
/// `u`, else the last (rounding can leave the final threshold below 1).
pub(crate) fn select_part(cumulative: &[f64], u: f64) -> usize {
    cumulative
        .iter()
        .position(|&c| u < c)
        .unwrap_or(cumulative.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mixture {
        Mixture::new(vec![
            (0.5, Component::Sequential { lines: 1000 }),
            (0.3, Component::RandomIn { lines: 4000 }),
            (0.2, Component::Fresh),
        ])
    }

    #[test]
    fn select_respects_weights() {
        let m = mix();
        assert_eq!(m.select(0.0), 0);
        assert_eq!(m.select(0.49), 0);
        assert_eq!(m.select(0.51), 1);
        assert_eq!(m.select(0.79), 1);
        assert_eq!(m.select(0.81), 2);
        assert_eq!(m.select(0.999), 2);
    }

    #[test]
    fn select_saturates_at_last_component() {
        let m = mix();
        assert_eq!(m.select(1.0), 2);
    }

    #[test]
    fn fresh_fraction_is_normalised() {
        let m = mix();
        assert!((m.fresh_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn max_region_reported() {
        assert_eq!(mix().max_region_lines(), 4000);
        let streaming = Mixture::new(vec![(1.0, Component::Fresh)]);
        assert_eq!(streaming.max_region_lines(), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_mixture() {
        let _ = Mixture::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_weight() {
        let _ = Mixture::new(vec![(0.0, Component::Fresh)]);
    }

    #[test]
    fn weights_need_not_sum_to_one() {
        let m = Mixture::new(vec![
            (2.0, Component::Fresh),
            (6.0, Component::Sequential { lines: 10 }),
        ]);
        assert!((m.fresh_fraction() - 0.25).abs() < 1e-12);
    }
}
