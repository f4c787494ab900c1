//! The registry: metric families and labeled samples.

use crate::snapshot::{FamilySnapshot, Label, MetricsSnapshot, SampleSnapshot};
use std::collections::BTreeMap;

/// Which clock a metric belongs to (see the [crate docs](crate)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Derived from virtual-clock session outcomes; snapshots are
    /// bit-identical across thread counts, schedules, and reruns.
    Virtual,
    /// Wall-clock / schedule-dependent; excluded from deterministic
    /// artifacts.
    Wall,
}

impl Domain {
    /// The snapshot tag: `"virtual"` or `"wall"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Virtual => "virtual",
            Domain::Wall => "wall",
        }
    }
}

/// The three metric kinds, mirroring Prometheus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone cumulative sum.
    Counter,
    /// A value that can move both ways (depths, in-flight counts).
    Gauge,
    /// A fixed-bucket distribution with sum and count.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` tag.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One histogram sample: cumulative bucket counts (one per declared upper
/// bound; the implicit `+Inf` bucket is [`HistogramValue::count`]), plus
/// the sum and count of observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramValue {
    /// Observations ≤ each declared upper bound, cumulative.
    pub bucket_counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observations (the implicit `+Inf` bucket).
    pub count: u64,
}

/// A sample's value, by kind.
#[derive(Debug, Clone, PartialEq)]
enum SampleValue {
    Counter(f64),
    Gauge(f64),
    Histogram(HistogramValue),
}

/// Canonical label storage: sorted by key, so `[("b","2"),("a","1")]`
/// and `[("a","1"),("b","2")]` address the same sample.
type LabelSet = Vec<(String, String)>;

fn canonical(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet =
        labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
    set.sort();
    set
}

/// One metric family: shared metadata plus its labeled samples, ordered.
#[derive(Debug, Clone)]
struct Family {
    help: String,
    domain: Domain,
    kind: MetricKind,
    /// Histogram upper bounds (empty for counters and gauges).
    buckets: Vec<f64>,
    samples: BTreeMap<LabelSet, SampleValue>,
}

/// The metrics registry: a deterministic, ordered map of metric families.
///
/// All iteration — and therefore every rendered snapshot — is ordered by
/// `(family name, label set)`, never by hash order. Counters accumulate
/// as `f64` so virtual-millisecond totals fit naturally; determinism of
/// the sums is the *caller's* obligation: fold contributions in a fixed
/// order (the serving layer uses session-id order), and the resulting
/// floats are bit-identical across runs.
///
/// Metrics must be registered before use; updating an unregistered name
/// panics (a programmer error worth failing loudly on), and registration
/// is idempotent so emitters may re-register on every touch.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &mut self,
        name: &str,
        help: &str,
        domain: Domain,
        kind: MetricKind,
        buckets: &[f64],
    ) {
        match self.families.get(name) {
            Some(existing) => {
                assert_eq!(
                    existing.kind,
                    kind,
                    "metric `{name}` re-registered as {} but exists as {}",
                    kind.as_str(),
                    existing.kind.as_str()
                );
                assert_eq!(
                    existing.domain, domain,
                    "metric `{name}` re-registered in a different clock domain"
                );
            }
            None => {
                assert!(
                    buckets.windows(2).all(|w| w[0] < w[1]),
                    "histogram `{name}` buckets must be strictly increasing"
                );
                self.families.insert(
                    name.to_owned(),
                    Family {
                        help: help.to_owned(),
                        domain,
                        kind,
                        buckets: buckets.to_vec(),
                        samples: BTreeMap::new(),
                    },
                );
            }
        }
    }

    /// Declares a counter family (idempotent).
    pub fn register_counter(&mut self, name: &str, domain: Domain, help: &str) {
        self.register(name, help, domain, MetricKind::Counter, &[]);
    }

    /// Declares a gauge family (idempotent).
    pub fn register_gauge(&mut self, name: &str, domain: Domain, help: &str) {
        self.register(name, help, domain, MetricKind::Gauge, &[]);
    }

    /// Declares a histogram family with fixed, strictly increasing upper
    /// bounds (idempotent).
    pub fn register_histogram(&mut self, name: &str, domain: Domain, help: &str, buckets: &[f64]) {
        self.register(name, help, domain, MetricKind::Histogram, buckets);
    }

    fn family_mut(&mut self, name: &str, kind: MetricKind) -> &mut Family {
        let family = self
            .families
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` used before registration"));
        assert_eq!(
            family.kind,
            kind,
            "metric `{name}` is a {}, not a {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
    }

    /// Adds `by` to a counter sample.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.inc_f64(name, labels, by as f64);
    }

    /// Adds a fractional amount to a counter sample (virtual-millisecond
    /// totals). Negative increments panic: counters are monotone.
    pub fn inc_f64(&mut self, name: &str, labels: &[(&str, &str)], by: f64) {
        assert!(by >= 0.0, "counter `{name}` incremented by negative {by}");
        let family = self.family_mut(name, MetricKind::Counter);
        match family.samples.entry(canonical(labels)).or_insert(SampleValue::Counter(0.0)) {
            SampleValue::Counter(v) => *v += by,
            _ => unreachable!("kind checked"),
        }
    }

    /// Sets a gauge sample.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let family = self.family_mut(name, MetricKind::Gauge);
        family.samples.insert(canonical(labels), SampleValue::Gauge(value));
    }

    /// Raises a gauge sample to `value` if it is below it (high-water
    /// marks: peak queue depth, peak in-flight).
    pub fn set_gauge_max(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let family = self.family_mut(name, MetricKind::Gauge);
        match family.samples.entry(canonical(labels)).or_insert(SampleValue::Gauge(value)) {
            SampleValue::Gauge(v) => *v = v.max(value),
            _ => unreachable!("kind checked"),
        }
    }

    /// Records one observation into a histogram sample.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.observe_n(name, labels, value, 1);
    }

    /// Records `weight` identical observations at once (the scheduler's
    /// latency samples are per-slice and weighted by steps).
    pub fn observe_n(&mut self, name: &str, labels: &[(&str, &str)], value: f64, weight: u64) {
        if weight == 0 {
            return;
        }
        let family = self
            .families
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` used before registration"));
        assert_eq!(family.kind, MetricKind::Histogram, "metric `{name}` is not a histogram");
        let bounds = family.buckets.clone();
        let slot = family.samples.entry(canonical(labels)).or_insert_with(|| {
            SampleValue::Histogram(HistogramValue {
                bucket_counts: vec![0; bounds.len()],
                sum: 0.0,
                count: 0,
            })
        });
        match slot {
            SampleValue::Histogram(h) => {
                for (i, bound) in bounds.iter().enumerate() {
                    if value <= *bound {
                        h.bucket_counts[i] += weight;
                    }
                }
                h.sum += value * weight as f64;
                h.count += weight;
            }
            _ => unreachable!("kind checked"),
        }
    }

    /// Reads a counter sample (0 when never incremented) — test and
    /// report helper.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.families.get(name).and_then(|f| f.samples.get(&canonical(labels))) {
            Some(SampleValue::Counter(v)) => *v,
            _ => 0.0,
        }
    }

    /// Reads a gauge sample, if set.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.families.get(name).and_then(|f| f.samples.get(&canonical(labels))) {
            Some(SampleValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a histogram sample, if any observation landed in it.
    pub fn histogram_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramValue> {
        match self.families.get(name).and_then(|f| f.samples.get(&canonical(labels))) {
            Some(SampleValue::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Sums a counter family across all label sets.
    pub fn counter_total(&self, name: &str) -> f64 {
        match self.families.get(name) {
            Some(f) => f
                .samples
                .values()
                .map(|v| match v {
                    SampleValue::Counter(c) => *c,
                    _ => 0.0,
                })
                .sum(),
            None => 0.0,
        }
    }

    /// Snapshots every family, optionally restricted to one domain.
    fn snapshot_filtered(&self, domain: Option<Domain>) -> MetricsSnapshot {
        let families = self
            .families
            .iter()
            .filter(|(_, f)| domain.is_none_or(|d| f.domain == d))
            .map(|(name, f)| FamilySnapshot {
                name: name.clone(),
                help: f.help.clone(),
                kind: f.kind.as_str().to_owned(),
                domain: f.domain.as_str().to_owned(),
                buckets: f.buckets.clone(),
                samples: f
                    .samples
                    .iter()
                    .map(|(labels, value)| {
                        let labels = labels
                            .iter()
                            .map(|(k, v)| Label { key: k.clone(), value: v.clone() })
                            .collect();
                        match value {
                            SampleValue::Counter(v) | SampleValue::Gauge(v) => SampleSnapshot {
                                labels,
                                value: *v,
                                bucket_counts: Vec::new(),
                                sum: 0.0,
                                count: 0,
                            },
                            SampleValue::Histogram(h) => SampleSnapshot {
                                labels,
                                value: 0.0,
                                bucket_counts: h.bucket_counts.clone(),
                                sum: h.sum,
                                count: h.count,
                            },
                        }
                    })
                    .collect(),
            })
            .collect();
        MetricsSnapshot { families }
    }

    /// Snapshots both domains (operational dashboards, `--metrics` files).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_filtered(None)
    }

    /// Snapshots only the virtual-time domain — the deterministic
    /// artifact, byte-identical across thread counts and schedules.
    pub fn snapshot_virtual(&self) -> MetricsSnapshot {
        self.snapshot_filtered(Some(Domain::Virtual))
    }

    /// Snapshots only the wall-clock domain.
    pub fn snapshot_wall(&self) -> MetricsSnapshot {
        self.snapshot_filtered(Some(Domain::Wall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut reg = MetricsRegistry::new();
        reg.register_counter("steps_total", Domain::Virtual, "steps");
        reg.inc("steps_total", &[("app", "a"), ("crawler", "mak")], 3);
        reg.inc("steps_total", &[("crawler", "mak"), ("app", "a")], 2); // label order is canonical
        reg.inc("steps_total", &[("app", "b"), ("crawler", "mak")], 7);
        assert_eq!(reg.counter_value("steps_total", &[("app", "a"), ("crawler", "mak")]), 5.0);
        assert_eq!(reg.counter_total("steps_total"), 12.0);
        assert_eq!(reg.counter_value("steps_total", &[("app", "zzz")]), 0.0);
    }

    #[test]
    fn gauges_set_and_high_water() {
        let mut reg = MetricsRegistry::new();
        reg.register_gauge("depth", Domain::Wall, "queue depth");
        reg.set_gauge("depth", &[], 4.0);
        reg.set_gauge_max("depth", &[], 2.0);
        assert_eq!(reg.gauge_value("depth", &[]), Some(4.0));
        reg.set_gauge_max("depth", &[], 9.0);
        assert_eq!(reg.gauge_value("depth", &[]), Some(9.0));
    }

    #[test]
    fn histograms_bucket_cumulatively_and_weight() {
        let mut reg = MetricsRegistry::new();
        reg.register_histogram("lat", Domain::Wall, "latency", &[10.0, 100.0, 1000.0]);
        reg.observe("lat", &[], 5.0);
        reg.observe_n("lat", &[], 50.0, 3);
        reg.observe("lat", &[], 5000.0); // above every bound: only +Inf
        let h = reg.histogram_value("lat", &[]).unwrap();
        assert_eq!(h.bucket_counts, vec![1, 4, 4]);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 5.0 + 150.0 + 5000.0);
        reg.observe_n("lat", &[], 1.0, 0); // weight 0 is a no-op
        assert_eq!(reg.histogram_value("lat", &[]).unwrap().count, 5);
    }

    #[test]
    fn registration_is_idempotent_but_kind_checked() {
        let mut reg = MetricsRegistry::new();
        reg.register_counter("c", Domain::Virtual, "first help wins");
        reg.register_counter("c", Domain::Virtual, "ignored");
        reg.inc("c", &[], 1);
        assert_eq!(reg.counter_value("c", &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "used before registration")]
    fn updating_unregistered_metric_panics() {
        MetricsRegistry::new().inc("nope", &[], 1);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_conflict_panics() {
        let mut reg = MetricsRegistry::new();
        reg.register_counter("c", Domain::Virtual, "");
        reg.register_gauge("c", Domain::Virtual, "");
    }

    #[test]
    fn domain_filter_splits_snapshots() {
        let mut reg = MetricsRegistry::new();
        reg.register_counter("v", Domain::Virtual, "");
        reg.register_counter("w", Domain::Wall, "");
        reg.inc("v", &[], 1);
        reg.inc("w", &[], 1);
        let virt = reg.snapshot_virtual();
        assert_eq!(virt.families.len(), 1);
        assert_eq!(virt.families[0].name, "v");
        let wall = reg.snapshot_wall();
        assert_eq!(wall.families.len(), 1);
        assert_eq!(wall.families[0].name, "w");
        assert_eq!(reg.snapshot().families.len(), 2);
    }
}
