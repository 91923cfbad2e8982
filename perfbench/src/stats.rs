//! Sample summaries and the work accounting behind `minst_per_s`.

use plru_repro::scenario::ScenarioCase;

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Coefficient of variation: sample standard deviation over mean
    /// (0 with fewer than two samples).
    pub cv: f64,
}

/// Median of `xs`, the mean of the two middle values for an even count.
///
/// # Panics
/// If `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Smallest of `xs`.
///
/// # Panics
/// If `xs` is empty.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `i`-th of the `n - 1` cut points dividing sorted samples into `n`
/// groups, by the same "exclusive" rule as Python's
/// `statistics.quantiles(data, n=n)`. A single sample is every cut point.
fn cut_point(sorted: &[f64], n: usize, i: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    // Signed: clamping j makes this an extrapolation weight at the ends.
    let delta = (i * m) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

impl Summary {
    /// Summarize a non-empty sample set.
    ///
    /// # Panics
    /// If `xs` is empty.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "summary of no samples");
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let mean = s.iter().sum::<f64>() / n as f64;
        let cv = if n < 2 || mean == 0.0 {
            0.0
        } else {
            let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt() / mean.abs()
        };
        Summary {
            n,
            min: s[0],
            q1: cut_point(&s, 4, 1),
            median: median(&s),
            q3: cut_point(&s, 4, 3),
            max: s[n - 1],
            cv,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Host times of a fixed number of repetitions of one run, each cut into
/// the same steps (a sweep case, a scheme's replay).
///
/// Host speed on shared machines switches between a fast and a slow
/// state that can last tens of seconds, so a whole-run median or upper
/// quartile mixes the two states in proportions that change from run to
/// run. Interference only adds time: each step's fastest repetition is
/// its cost in the fast state, and their sum is steady as long as every
/// step meets the fast state once. An order statistic's expected value
/// depends on the sample count, so callers fix the repetition count
/// ([`crate::Ctx::reps`]) rather than repeating until a deadline.
#[derive(Debug, Default)]
pub struct Steps {
    runs: Vec<Vec<f64>>,
}

impl Steps {
    /// Add one repetition's step times.
    pub fn push(&mut self, steps: Vec<f64>) {
        self.runs.push(steps);
    }

    /// Host seconds of the run: the sum over its steps of each step's
    /// fastest repetition. Errs without repetitions, or if they did not
    /// take the same number of steps, as the repetitions of a
    /// deterministic run always do.
    pub fn secs(&self) -> Result<f64, String> {
        let n = self.runs.first().ok_or("no repetitions")?.len();
        if self.runs.iter().any(|r| r.len() != n) {
            return Err("repetitions of one run took different numbers of steps".into());
        }
        let step = |j: usize| fastest(&self.runs.iter().map(|r| r[j]).collect::<Vec<_>>());
        Ok((0..n).map(step).sum())
    }
}

/// Simulated work of a set of cases, in instructions: each case counts
/// its cores times its per-core instruction target. Isolation runs and
/// the instructions cores execute after freezing are overhead, not work.
pub fn cases_work(cases: &[ScenarioCase]) -> u64 {
    cases.iter().map(|c| c.threads() as u64 * c.insts).sum()
}

/// Millions of simulated instructions per host second.
pub fn minst_per_s(work_insts: u64, host_secs: f64) -> f64 {
    work_insts as f64 / 1e6 / host_secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use plru_repro::ScenarioSpec;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (1.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates past the extremes.
        let s = Summary::of(&[5.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.0, 3.0, 6.0));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let s = Summary::of(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((s.q1, s.q3), (15.0, 45.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steps_sum_each_steps_fastest_repetition() {
        let mut steps = Steps::default();
        assert!(steps.secs().is_err());
        for r in [[2.0, 20.0], [1.0, 40.0], [4.0, 10.0], [3.0, 30.0]] {
            steps.push(r.to_vec());
        }
        // Step 1's repetitions 2, 1, 4, 3 -> 1; step 2's 20, 40, 10, 30 -> 10.
        assert_eq!(steps.secs().unwrap(), 11.0);
        assert_eq!(fastest(&[3.0, 0.5, 2.0]), 0.5);
        steps.push(vec![1.0]);
        assert!(steps.secs().is_err());
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = Summary::of(&[4.2]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 4.2, 4.2, 4.2, 4.2, 4.2)
        );
        assert_eq!(s.cv, 0.0);
    }

    #[test]
    fn cv_is_sample_stdev_over_mean() {
        // mean 5, sample variance 32/7 for this classic set.
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.cv - (32.0f64 / 7.0).sqrt() / 5.0).abs() < 1e-12);
    }

    #[test]
    fn work_counts_cores_times_target_per_case() {
        let spec = ScenarioSpec::from_json(
            r#"{"name": "w", "insts": 1000,
                "workloads": ["2T_01", "4T_01"],
                "schemes": ["L", "M-L", "N"],
                "l2_sizes": [524288, 1048576]}"#,
        )
        .unwrap();
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 12);
        // 6 two-core cases and 6 four-core cases at 1000 insts each.
        assert_eq!(cases_work(&cases), (6 * 2 + 6 * 4) * 1000);
        assert!((minst_per_s(36_000_000, 2.0) - 18.0).abs() < 1e-12);
    }
}
