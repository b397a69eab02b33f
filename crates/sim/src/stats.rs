//! Measurement collectors used by the simulator and the experiment harness.
//!
//! * [`Histogram`] — log₂-bucketed latency histogram with quantile queries.
//! * [`TimeWeighted`] — time-weighted average of a piecewise-constant signal
//!   (e.g. queue depth or "busy" state), the basis of processor-efficiency
//!   numbers reported in the paper's figures.
//! * [`Series`] — an (x, y) series for figure reproduction.

use crate::{SimDur, SimTime};

/// A log₂-bucketed histogram of durations with approximate quantiles.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))` nanoseconds (bucket 0 also
/// holds zero). Quantile answers are exact to within a factor of two, which
/// is plenty for latency distribution reporting.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Bucket counts, up to the largest sample's bucket.
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        }
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDur) {
        let ns = d.as_nanos();
        let bucket = Self::bucket_of(ns);
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples, or zero when empty.
    pub fn mean(&self) -> SimDur {
        if self.count == 0 {
            SimDur::ZERO
        } else {
            SimDur::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> SimDur {
        SimDur::from_nanos(self.max_ns)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the lower bound of the bucket
    /// containing the q-th sample.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDur {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return SimDur::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                return SimDur::from_nanos(lo);
            }
        }
        SimDur::from_nanos(self.max_ns)
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Used for processor busy fraction (efficiency) and queue depths: call
/// [`TimeWeighted::set`] whenever the signal changes and
/// [`TimeWeighted::average`] at the end of the run.
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    start: SimTime,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new(SimTime::ZERO, 0.0)
    }
}

impl TimeWeighted {
    /// Creates a collector whose signal is `initial` from `start` onwards.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            last_change: start,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Sets the signal to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        let dt = now.saturating_since(self.last_change).as_nanos() as f64;
        self.weighted_sum += self.value * dt;
        self.value = value;
        self.last_change = now;
    }

    /// Current signal value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Time-weighted average over `[start, now]`. Returns the current value
    /// when no time has elapsed.
    pub fn average(&self, now: SimTime) -> f64 {
        let dt_tail = now.saturating_since(self.last_change).as_nanos() as f64;
        let total = now.saturating_since(self.start).as_nanos() as f64;
        if total == 0.0 {
            return self.value;
        }
        (self.weighted_sum + self.value * dt_tail) / total
    }
}

/// One point of a reproduced figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate (e.g. number of CPUs).
    pub x: f64,
    /// Y coordinate (e.g. speedup or network power).
    pub y: f64,
}

/// A named (x, y) series, one line of a reproduced figure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The points in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series with the given legend label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y });
    }

    /// The y value at the given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }

    /// The maximum y value, or `None` when empty.
    pub fn y_max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.y)
            .fold(None, |acc, y| Some(acc.map_or(y, |a: f64| a.max(y))))
    }

    /// Renders the series as CSV rows `x,y` with a `# label` header line.
    pub fn to_csv(&self) -> String {
        let mut out = format!("# {}\nx,y\n", self.label);
        for p in &self.points {
            out.push_str(&format!("{},{}\n", p.x, p.y));
        }
        out
    }

    /// Renders the series as aligned `x y` rows, one per line.
    pub fn to_table(&self) -> String {
        let mut out = format!("# {}\n", self.label);
        for p in &self.points {
            out.push_str(&format!("{:>10.2} {:>12.4}\n", p.x, p.y));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_max() {
        let mut h = Histogram::new();
        h.record(SimDur::from_nanos(100));
        h.record(SimDur::from_nanos(300));
        assert_eq!(h.mean(), SimDur::from_nanos(200));
        assert_eq!(h.max(), SimDur::from_nanos(300));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDur::from_nanos(i));
        }
        let p50 = h.quantile(0.5).as_nanos();
        // The true median is 500; bucketed answer must be within 2x below.
        assert!((250..=512).contains(&p50), "p50 was {p50}");
        let p100 = h.quantile(1.0).as_nanos();
        assert!((512..=1000).contains(&p100));
    }

    #[test]
    fn time_weighted_average_of_square_wave() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.set(SimTime::from_nanos(10), 0.0); // busy 10ns
        tw.set(SimTime::from_nanos(30), 1.0); // idle 20ns
                                              // busy again until t=40: 10 + 10 busy of 40 total
        let avg = tw.average(SimTime::from_nanos(40));
        assert!((avg - 0.5).abs() < 1e-12, "avg={avg}");
    }

    #[test]
    fn time_weighted_zero_span_returns_current() {
        let tw = TimeWeighted::new(SimTime::ZERO, 0.7);
        assert_eq!(tw.average(SimTime::ZERO), 0.7);
    }

    #[test]
    fn histogram_empty_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), SimDur::ZERO);
        assert_eq!(h.quantile(0.99), SimDur::ZERO);
        assert_eq!(h.mean(), SimDur::ZERO);
        assert_eq!(h.max(), SimDur::ZERO);
    }

    #[test]
    fn histogram_zero_duration_lands_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(SimDur::ZERO);
        h.record(SimDur::from_nanos(1));
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), SimDur::ZERO);
        assert_eq!(h.mean(), SimDur::ZERO); // (0 + 1) / 2 truncates
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn histogram_out_of_range_quantile_panics() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn time_weighted_nonzero_start_excludes_pre_start_time() {
        let mut tw = TimeWeighted::new(SimTime::from_nanos(100), 1.0);
        tw.set(SimTime::from_nanos(150), 0.0);
        let avg = tw.average(SimTime::from_nanos(200));
        assert!((avg - 0.5).abs() < 1e-12, "avg={avg}");
        // Zero elapsed time at a non-zero start still returns the
        // current value rather than dividing by zero.
        let fresh = TimeWeighted::new(SimTime::from_nanos(100), 0.3);
        assert_eq!(fresh.average(SimTime::from_nanos(100)), 0.3);
    }

    #[test]
    fn time_weighted_defaults_track_from_zero() {
        let mut tw = TimeWeighted::default();
        tw.set(SimTime::from_nanos(10), 2.0);
        let avg = tw.average(SimTime::from_nanos(20));
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn series_csv_round_trips_values() {
        let mut s = Series::new("opt");
        s.push(2.0, 1.68);
        s.push(128.0, 1.15);
        let csv = s.to_csv();
        assert!(csv.starts_with("# opt\nx,y\n"));
        assert!(csv.contains("2,1.68\n"));
        assert!(csv.contains("128,1.15\n"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn series_lookup_and_table() {
        let mut s = Series::new("gwc");
        s.push(2.0, 1.53);
        s.push(128.0, 1.03);
        assert_eq!(s.y_at(2.0), Some(1.53));
        assert_eq!(s.y_at(3.0), None);
        assert_eq!(s.y_max(), Some(1.53));
        let table = s.to_table();
        assert!(table.contains("# gwc"));
        assert!(table.contains("1.5300"));
    }
}
