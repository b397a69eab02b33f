//! Hierarchical metric registry.
//!
//! Metrics live under slash-separated keys such as `run/sections` or
//! `gwc/grants`, mapped over the measurement primitives from `sesame-sim`
//! ([`Counter`], [`MeanVar`], [`Histogram`], [`TimeWeighted`]) plus a
//! plain [`Metric::Gauge`] for post-run scalars. The registry holds the
//! metrics named by key — the workload glue's and the post-run machine
//! statistics — in one `BTreeMap`, so iteration, and therefore every
//! export, has a deterministic key order. The per-record metrics the
//! trace observer keeps are typed rows beside it (see `observer.rs`),
//! rendered into the same snapshot. Accessors create the metric on first
//! use; a key always keeps the kind it was created with (mismatched
//! access is a bug in the instrumentation and panics).

use std::collections::BTreeMap;

use sesame_sim::{Counter, Histogram, MeanVar, TimeWeighted};

/// One registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotone event counter.
    Counter(Counter),
    /// Instantaneous scalar set once (e.g. an efficiency ratio).
    Gauge(f64),
    /// Streaming mean/variance of unitless samples.
    MeanVar(MeanVar),
    /// Log₂-bucketed duration histogram.
    Histogram(Histogram),
    /// Time-weighted average of a piecewise-constant signal.
    TimeWeighted(TimeWeighted),
}

impl Metric {
    /// Short kind tag used in exports ("counter", "gauge", …).
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::MeanVar(_) => "meanvar",
            Metric::Histogram(_) => "histogram",
            Metric::TimeWeighted(_) => "timeweighted",
        }
    }
}

/// A deterministic map from hierarchical keys to metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    metrics: BTreeMap<String, Metric>,
}

macro_rules! accessor {
    ($fn_name:ident, $ty:ty, $variant:ident, $fresh:expr) => {
        /// Returns the metric at `key`, creating it on first use.
        ///
        /// # Panics
        ///
        /// Panics if `key` already holds a metric of a different kind.
        pub fn $fn_name(&mut self, key: &str) -> &mut $ty {
            if !self.metrics.contains_key(key) {
                self.metrics
                    .insert(key.to_string(), Metric::$variant($fresh));
            }
            match self.metrics.get_mut(key) {
                Some(Metric::$variant(m)) => m,
                other => panic!(
                    "metric '{key}' is a {}, accessed as {}",
                    other.map_or("", |m| m.kind()),
                    stringify!($fn_name)
                ),
            }
        }
    };
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    accessor!(counter, Counter, Counter, Counter::new());
    accessor!(gauge, f64, Gauge, 0.0);
    accessor!(mean_var, MeanVar, MeanVar, MeanVar::new());
    accessor!(histogram, Histogram, Histogram, Histogram::new());
    accessor!(
        time_weighted,
        TimeWeighted,
        TimeWeighted,
        TimeWeighted::default()
    );

    /// The metric at `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Metric> {
        self.metrics.get(key)
    }

    /// The value of the counter at `key`, or 0 when absent.
    pub fn counter_value(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(Metric::Counter(c)) => c.value(),
            _ => 0,
        }
    }

    /// All metrics in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, m)| (k.as_str(), m))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::{SimDur, SimTime};

    #[test]
    fn accessors_create_then_reuse() {
        let mut r = MetricRegistry::new();
        r.counter("a/b").add(2);
        r.counter("a/b").incr();
        assert_eq!(r.counter_value("a/b"), 3);
        assert_eq!(r.counter_value("missing"), 0);
        r.histogram("h").record(SimDur::from_nanos(5));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn iteration_is_key_sorted() {
        let mut r = MetricRegistry::new();
        r.counter("z");
        r.counter("a");
        *r.gauge("m") = 1.5;
        let keys: Vec<&str> = r.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }

    #[test]
    #[should_panic(expected = "is a counter")]
    fn kind_mismatch_panics() {
        let mut r = MetricRegistry::new();
        r.counter("k");
        r.histogram("k");
    }

    #[test]
    fn time_weighted_defaults_track_from_zero() {
        let mut r = MetricRegistry::new();
        r.time_weighted("q").set(SimTime::from_nanos(10), 2.0);
        let avg = r
            .iter()
            .find_map(|(k, m)| match (k, m) {
                ("q", Metric::TimeWeighted(tw)) => Some(tw.average(SimTime::from_nanos(20))),
                _ => None,
            })
            .unwrap();
        assert!((avg - 1.0).abs() < 1e-12);
    }
}
