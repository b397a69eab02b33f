//! Lock usage-frequency history.
//!
//! Before attempting optimistic mutual exclusion, a processor estimates
//! whether the lock is probably free from purely local evidence (paper §4):
//! the previous local lock value and an exponentially weighted moving
//! average of past observations,
//!
//! ```text
//! old = 0.95 * old + 0.05 * new
//! ```
//!
//! where `new` is 1.0 when the lock was held by another CPU and 0.0
//! otherwise. When the average exceeds a threshold (the paper suggests
//! 0.30), the processor takes the regular (pessimistic) path — so optimistic
//! synchronization "does not add any network traffic when the lock is
//! heavily contended".

/// EWMA estimator of how busy a lock has recently been.
///
/// ```
/// use sesame_core::UsageHistory;
///
/// let mut h = UsageHistory::default();
/// assert!(h.is_quiet());
/// for _ in 0..12 {
///     h.observe(true); // lock kept showing up held by another CPU
/// }
/// assert!(!h.is_quiet());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UsageHistory {
    value: f64,
    alpha: f64,
    threshold: f64,
    observations: u64,
}

impl UsageHistory {
    /// Creates an estimator with the paper's constants: `alpha = 0.05`,
    /// threshold `0.30`, initial value 0 (assume quiet).
    fn paper_defaults() -> Self {
        Self::new(0.05, 0.30)
    }

    /// Creates an estimator with a custom smoothing factor and threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1` and `0 <= threshold <= 1`.
    pub fn new(alpha: f64, threshold: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1], got {threshold}"
        );
        UsageHistory {
            value: 0.0,
            alpha,
            threshold,
            observations: 0,
        }
    }

    /// Records one observation: `held_by_other = true` contributes 1.0,
    /// otherwise 0.0.
    pub fn observe(&mut self, held_by_other: bool) {
        let new = if held_by_other { 1.0 } else { 0.0 };
        self.value = (1.0 - self.alpha) * self.value + self.alpha * new;
        self.observations += 1;
    }

    /// The current smoothed usage estimate in `[0, 1]`.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of observations recorded.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Whether the history indicates the lock is probably free (estimate at
    /// or below the threshold) — the go/no-go test for the optimistic path.
    pub fn is_quiet(&self) -> bool {
        self.value <= self.threshold
    }
}

impl Default for UsageHistory {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_quiet() {
        let h = UsageHistory::paper_defaults();
        assert_eq!(h.value(), 0.0);
        assert!(h.is_quiet());
        assert_eq!(h.observations(), 0);
    }

    #[test]
    fn paper_formula_step() {
        let mut h = UsageHistory::paper_defaults();
        h.observe(true);
        assert!((h.value() - 0.05).abs() < 1e-12, "0.95*0 + 0.05*1");
        h.observe(true);
        assert!((h.value() - (0.95 * 0.05 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn crosses_threshold_after_sustained_contention() {
        let mut h = UsageHistory::paper_defaults();
        let mut steps = 0;
        while h.is_quiet() {
            h.observe(true);
            steps += 1;
            assert!(steps < 100, "never crossed threshold");
        }
        // 1 - 0.95^n > 0.30 first at n = 7 (0.95^7 = 0.698).
        assert_eq!(steps, 7);
    }

    #[test]
    fn decays_back_to_quiet() {
        let mut h = UsageHistory::paper_defaults();
        for _ in 0..50 {
            h.observe(true);
        }
        assert!(!h.is_quiet());
        let mut steps = 0;
        while !h.is_quiet() {
            h.observe(false);
            steps += 1;
            assert!(steps < 200, "never decayed");
        }
        assert!(steps > 5, "decay should take several quiet observations");
    }

    #[test]
    fn alpha_one_tracks_last_observation() {
        let mut h = UsageHistory::new(1.0, 0.5);
        h.observe(true);
        assert_eq!(h.value(), 1.0);
        h.observe(false);
        assert_eq!(h.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn rejects_zero_alpha() {
        let _ = UsageHistory::new(0.0, 0.3);
    }

    #[test]
    #[should_panic(expected = "threshold must be in [0, 1]")]
    fn rejects_bad_threshold() {
        let _ = UsageHistory::new(0.05, 1.5);
    }
}
