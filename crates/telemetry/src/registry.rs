//! Hierarchical metric registry.
//!
//! Metrics live under slash-separated keys such as
//! `node/3/lock/0/wait` or `gwc/grants`, mapped over the measurement
//! primitives from `sesame-sim` ([`Counter`], [`MeanVar`], [`Histogram`],
//! [`TimeWeighted`]) plus a plain [`Metric::Gauge`] for post-run scalars.
//!
//! Metrics sit in a `Vec` in creation order — a metric's slot index never
//! changes, so a hot caller can resolve a key once and go straight to the
//! slot afterwards — and a `BTreeMap` from key to slot gives iteration,
//! and therefore every export, its deterministic key order. Accessors
//! create the metric on first use; a key always keeps the kind it was
//! created with (mismatched access is a bug in the instrumentation and
//! panics).

use std::collections::BTreeMap;

use sesame_sim::{Counter, Histogram, MeanVar, TimeWeighted};

/// One registered metric.
///
/// `Histogram` dominates the size (fixed bucket array), but the footprint
/// is per key anyway and indirection would just cost a pointer chase on
/// the hot record path.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
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

/// A measurement type a [`Metric`] variant wraps.
pub(crate) trait MetricKind: Sized {
    /// The name-based accessor for this kind, as mismatch panics cite it.
    const ACCESSOR: &'static str;
    /// A fresh metric of this kind.
    fn fresh() -> Metric;
    /// The measurement inside `metric`, if it is of this kind.
    fn of(metric: &mut Metric) -> Option<&mut Self>;
}

macro_rules! metric_kind {
    ($ty:ty, $variant:ident, $accessor:literal, $default:expr) => {
        impl MetricKind for $ty {
            const ACCESSOR: &'static str = $accessor;
            fn fresh() -> Metric {
                Metric::$variant($default)
            }
            fn of(metric: &mut Metric) -> Option<&mut Self> {
                match metric {
                    Metric::$variant(m) => Some(m),
                    _ => None,
                }
            }
        }
    };
}

metric_kind!(Counter, Counter, "counter", Counter::new());
metric_kind!(f64, Gauge, "gauge", 0.0);
metric_kind!(MeanVar, MeanVar, "mean_var", MeanVar::new());
metric_kind!(Histogram, Histogram, "histogram", Histogram::new());
metric_kind!(
    TimeWeighted,
    TimeWeighted,
    "time_weighted",
    TimeWeighted::default()
);

/// A deterministic map from hierarchical keys to metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    /// Metrics in creation order; a slot index is never reused or moved.
    slots: Vec<Metric>,
    /// Key → slot index, key-sorted.
    names: BTreeMap<String, usize>,
}

macro_rules! accessor {
    ($fn_name:ident, $ty:ty) => {
        /// Returns the metric at `key`, creating it on first use.
        ///
        /// # Panics
        ///
        /// Panics if `key` already holds a metric of a different kind.
        pub fn $fn_name(&mut self, key: &str) -> &mut $ty {
            let slot = self.slot::<$ty>(key);
            self.at(slot)
        }
    };
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    accessor!(counter, Counter);
    accessor!(gauge, f64);
    accessor!(mean_var, MeanVar);
    accessor!(histogram, Histogram);
    accessor!(time_weighted, TimeWeighted);

    /// The slot of the `T` metric at `key`, creating it on first use —
    /// the one place a key is looked up by name.
    ///
    /// # Panics
    ///
    /// Panics if `key` already holds a metric of a different kind.
    pub(crate) fn slot<T: MetricKind>(&mut self, key: &str) -> usize {
        let slot = match self.names.get(key) {
            Some(&slot) => slot,
            None => {
                let slot = self.slots.len();
                self.slots.push(T::fresh());
                self.names.insert(key.to_string(), slot);
                slot
            }
        };
        if T::of(&mut self.slots[slot]).is_none() {
            panic!(
                "metric '{key}' is a {}, accessed as {}",
                self.slots[slot].kind(),
                T::ACCESSOR
            );
        }
        slot
    }

    /// The `T` metric in `slot`, as [`MetricRegistry::slot`] resolved it.
    pub(crate) fn at<T: MetricKind>(&mut self, slot: usize) -> &mut T {
        T::of(&mut self.slots[slot]).expect("a slot keeps the kind it was resolved with")
    }

    /// The metric at `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Metric> {
        self.names.get(key).map(|&slot| &self.slots[slot])
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
        self.names
            .iter()
            .map(|(k, &slot)| (k.as_str(), &self.slots[slot]))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sums the values of every counter whose key matches
    /// `prefix/.../suffix` — e.g. `sum_counters("node", "lock/0/opt/wins")`
    /// totals that per-node counter across nodes.
    pub fn sum_counters(&self, prefix: &str, suffix: &str) -> u64 {
        self.names
            .range(format!("{prefix}/")..format!("{prefix}0"))
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, &slot)| match &self.slots[slot] {
                Metric::Counter(c) => c.value(),
                _ => 0,
            })
            .sum()
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
    fn sum_counters_totals_per_node_keys() {
        let mut r = MetricRegistry::new();
        r.counter("node/0/lock/0/opt/wins").add(3);
        r.counter("node/10/lock/0/opt/wins").add(4);
        r.counter("node/2/lock/0/opt/rollbacks").add(9);
        r.counter("gwc/grants").add(100);
        assert_eq!(r.sum_counters("node", "opt/wins"), 7);
        assert_eq!(r.sum_counters("node", "opt/rollbacks"), 9);
        assert_eq!(r.sum_counters("node", "missing"), 0);
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
