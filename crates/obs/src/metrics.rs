//! Counters, gauges and histograms behind a process-global [`Registry`], rendered in the
//! Prometheus text exposition format (version 0.0.4).
//!
//! # Shape
//!
//! A *family* is one metric name with one kind and one help string; a family holds one
//! series per distinct label set (the unlabeled series is just the empty label set).
//! Registration is **strict**: a name is accepted once, must be snake_case, and its kind
//! is fixed forever — a second registration (even with the same kind) is an error. Call
//! sites therefore register once into a `OnceLock`'d struct of handles and clone the
//! cheap `Arc` handles from there.
//!
//! # Concurrency and cost
//!
//! Handles are lock-free: a [`Counter`] is one `AtomicU64`, a [`Gauge`] one `AtomicI64`,
//! a [`Histogram`] a fixed array of `AtomicU64` buckets. Only registration and label
//! lookup ([`CounterVec::with`]) take a lock, so per-event updates never contend on the
//! registry. All updates use relaxed ordering — metrics are observability, not
//! synchronization.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Histogram bucket upper bounds (seconds) suited to request/job latencies from tens of
/// microseconds to tens of seconds.
pub const DEFAULT_LATENCY_BUCKETS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Why a registration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricError {
    /// The name is not snake_case (`[a-z][a-z0-9_]*`).
    InvalidName(String),
    /// The name is already registered (names are single-owner, kind fixed at first use).
    Duplicate(String),
    /// Histogram bucket bounds must be finite and strictly increasing.
    InvalidBuckets(String),
}

impl std::fmt::Display for MetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricError::InvalidName(name) => {
                write!(
                    f,
                    "metric name `{name}` is not snake_case ([a-z][a-z0-9_]*)"
                )
            }
            MetricError::Duplicate(name) => write!(f, "metric `{name}` is already registered"),
            MetricError::InvalidBuckets(name) => write!(
                f,
                "metric `{name}` bucket bounds must be finite and strictly increasing"
            ),
        }
    }
}

impl std::error::Error for MetricError {}

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed quantity (queue depths, in-flight counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A distribution over fixed bucket upper bounds (the `+Inf` bucket is implicit).
#[derive(Debug)]
pub struct Histogram {
    bounds: Arc<[f64]>,
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: Arc<[f64]>) -> Histogram {
        let mut buckets = Vec::with_capacity(bounds.len() + 1);
        buckets.resize_with(bounds.len() + 1, AtomicU64::default);
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let slot = self.bounds.partition_point(|&b| b < value);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct FamilyInner {
    name: String,
    help: String,
    kind: Kind,
    /// Histogram bucket bounds; empty for counters and gauges.
    bounds: Arc<[f64]>,
    /// Keyed by the rendered label block (`{a="x",b="y"}`, empty for no labels) so
    /// rendering iterates in one deterministic, sorted order.
    series: Mutex<BTreeMap<String, Series>>,
}

impl FamilyInner {
    fn series_for(&self, labels: &[(&str, &str)]) -> Series {
        let key = label_block(labels);
        let mut series = self.series.lock().expect("metric family poisoned");
        let entry = series.entry(key).or_insert_with(|| match self.kind {
            Kind::Counter => Series::Counter(Arc::default()),
            Kind::Gauge => Series::Gauge(Arc::default()),
            Kind::Histogram => Series::Histogram(Arc::new(Histogram::new(self.bounds.clone()))),
        });
        match entry {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }
}

/// A family of [`Counter`]s, one per label set. `with(&[])` is the unlabeled series.
#[derive(Debug, Clone)]
pub struct CounterVec(Arc<FamilyInner>);

impl CounterVec {
    /// The counter for this label set, created on first use. Takes the family lock —
    /// call once per coarse unit of work (a run, a request) and reuse the handle in
    /// loops.
    pub fn with(&self, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.0.series_for(labels) {
            Series::Counter(c) => c,
            _ => unreachable!("counter family holds counters"),
        }
    }
}

/// A family of [`Gauge`]s, one per label set.
#[derive(Debug, Clone)]
pub struct GaugeVec(Arc<FamilyInner>);

impl GaugeVec {
    /// The gauge for this label set, created on first use.
    pub fn with(&self, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.0.series_for(labels) {
            Series::Gauge(g) => g,
            _ => unreachable!("gauge family holds gauges"),
        }
    }
}

/// A family of [`Histogram`]s sharing one set of bucket bounds, one per label set.
#[derive(Debug, Clone)]
pub struct HistogramVec(Arc<FamilyInner>);

impl HistogramVec {
    /// The histogram for this label set, created on first use.
    pub fn with(&self, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.0.series_for(labels) {
            Series::Histogram(h) => h,
            _ => unreachable!("histogram family holds histograms"),
        }
    }
}

/// The metric registry: a set of named families, rendered as one Prometheus text page.
///
/// Library layers register in [`Registry::global`], so one page covers every layer of the
/// process. A component whose counts belong to one instance of it (a daemon, when one
/// process runs several) owns a [`Registry::new`] and renders it after the global page.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Arc<FamilyInner>>>,
}

impl Registry {
    /// An empty registry, for families counted per instance rather than per process.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        bounds: Arc<[f64]>,
    ) -> Result<Arc<FamilyInner>, MetricError> {
        if !valid_name(name) {
            return Err(MetricError::InvalidName(name.to_string()));
        }
        let mut families = self.families.lock().expect("metric registry poisoned");
        if families.contains_key(name) {
            return Err(MetricError::Duplicate(name.to_string()));
        }
        let family = Arc::new(FamilyInner {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            bounds,
            series: Mutex::new(BTreeMap::new()),
        });
        families.insert(name.to_string(), family.clone());
        Ok(family)
    }

    /// Registers an unlabeled counter. Errors on a duplicate or non-snake_case name.
    pub fn counter(&self, name: &str, help: &str) -> Result<Arc<Counter>, MetricError> {
        Ok(self.counter_vec(name, help)?.with(&[]))
    }

    /// Registers a counter family keyed by label sets.
    pub fn counter_vec(&self, name: &str, help: &str) -> Result<CounterVec, MetricError> {
        Ok(CounterVec(self.register(
            name,
            help,
            Kind::Counter,
            Arc::from([]),
        )?))
    }

    /// Registers an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Result<Arc<Gauge>, MetricError> {
        Ok(self.gauge_vec(name, help)?.with(&[]))
    }

    /// Registers a gauge family keyed by label sets.
    pub fn gauge_vec(&self, name: &str, help: &str) -> Result<GaugeVec, MetricError> {
        Ok(GaugeVec(self.register(
            name,
            help,
            Kind::Gauge,
            Arc::from([]),
        )?))
    }

    /// Registers an unlabeled histogram with the given bucket upper bounds (`+Inf` is
    /// implicit; bounds must be finite and strictly increasing).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
    ) -> Result<Arc<Histogram>, MetricError> {
        Ok(self.histogram_vec(name, help, bounds)?.with(&[]))
    }

    /// Registers a histogram family keyed by label sets.
    pub fn histogram_vec(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
    ) -> Result<HistogramVec, MetricError> {
        let increasing = bounds.windows(2).all(|w| w[0] < w[1]);
        if bounds.is_empty() || !increasing || bounds.iter().any(|b| !b.is_finite()) {
            return Err(MetricError::InvalidBuckets(name.to_string()));
        }
        Ok(HistogramVec(self.register(
            name,
            help,
            Kind::Histogram,
            Arc::from(bounds),
        )?))
    }

    /// Renders every family in the Prometheus text exposition format (version 0.0.4),
    /// families and series in sorted (deterministic) order.
    pub fn render_prometheus(&self) -> String {
        let families: Vec<Arc<FamilyInner>> = {
            let families = self.families.lock().expect("metric registry poisoned");
            families.values().cloned().collect()
        };
        let mut out = String::new();
        for family in families {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.label());
            let series = family.series.lock().expect("metric family poisoned");
            for (labels, series) in series.iter() {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", family.name, labels, c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", family.name, labels, g.get());
                    }
                    Series::Histogram(h) => render_histogram(&mut out, &family.name, labels, h),
                }
            }
        }
        out
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, histogram: &Histogram) {
    let mut cumulative = 0u64;
    for (i, bound) in histogram.bounds.iter().enumerate() {
        cumulative += histogram.buckets[i].load(Ordering::Relaxed);
        let le = format!("le=\"{}\"", fmt_f64(*bound));
        let block = merge_labels(labels, &le);
        let _ = writeln!(out, "{name}_bucket{block} {cumulative}");
    }
    let count = histogram.count();
    let block = merge_labels(labels, "le=\"+Inf\"");
    let _ = writeln!(out, "{name}_bucket{block} {count}");
    let _ = writeln!(out, "{name}_sum{labels} {}", fmt_f64(histogram.sum()));
    let _ = writeln!(out, "{name}_count{labels} {count}");
}

/// Appends `extra` (a single `k="v"` pair) to an already rendered label block.
fn merge_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &labels[..labels.len() - 1])
    }
}

fn fmt_f64(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        // Render integral values without an exponent or trailing zeros.
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(first) if first.is_ascii_lowercase() => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_registrations_are_rejected() {
        let registry = Registry::new();
        registry.counter("jobs_total", "jobs").unwrap();
        assert_eq!(
            registry.counter("jobs_total", "jobs again").unwrap_err(),
            MetricError::Duplicate("jobs_total".into())
        );
        // Kind does not matter: the name itself is single-owner.
        assert_eq!(
            registry.gauge("jobs_total", "as a gauge").unwrap_err(),
            MetricError::Duplicate("jobs_total".into())
        );
    }

    #[test]
    fn non_snake_case_names_are_rejected() {
        let registry = Registry::new();
        for bad in [
            "JobsTotal",
            "jobs-total",
            "9lives",
            "_x",
            "",
            "jobs total",
            "jobsé",
        ] {
            assert_eq!(
                registry.counter(bad, "help").unwrap_err(),
                MetricError::InvalidName(bad.into()),
                "expected `{bad}` to be rejected"
            );
        }
        registry.counter("ok_name_2", "help").unwrap();
    }

    #[test]
    fn counters_and_gauges_render() {
        let registry = Registry::new();
        let hits = registry.counter("cache_hits_total", "cache hits").unwrap();
        let depth = registry.gauge("queue_depth", "queued runs").unwrap();
        hits.add(3);
        depth.set(2);
        depth.dec();
        let page = registry.render_prometheus();
        assert!(page.contains("# TYPE cache_hits_total counter"), "{page}");
        assert!(page.contains("cache_hits_total 3"), "{page}");
        assert!(page.contains("# TYPE queue_depth gauge"), "{page}");
        assert!(page.contains("queue_depth 1"), "{page}");
    }

    #[test]
    fn labeled_series_render_sorted_and_escaped() {
        let registry = Registry::new();
        let ticks = registry.counter_vec("ticks_total", "engine ticks").unwrap();
        ticks.with(&[("backend", "md1-queue")]).add(5);
        ticks.with(&[("backend", "detailed-dram")]).inc();
        ticks.with(&[("backend", "odd\"name")]).inc();
        let page = registry.render_prometheus();
        let detailed = page
            .find("ticks_total{backend=\"detailed-dram\"} 1")
            .unwrap();
        let md1 = page.find("ticks_total{backend=\"md1-queue\"} 5").unwrap();
        assert!(
            detailed < md1,
            "series must render in sorted label order:\n{page}"
        );
        assert!(
            page.contains("ticks_total{backend=\"odd\\\"name\"} 1"),
            "{page}"
        );
        // Same label set twice returns the same series.
        assert_eq!(ticks.with(&[("backend", "md1-queue")]).get(), 5);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let registry = Registry::new();
        let latency = registry
            .histogram("request_seconds", "request latency", &[0.01, 0.1, 1.0])
            .unwrap();
        latency.observe(0.005);
        latency.observe(0.05);
        latency.observe(0.05);
        latency.observe(5.0);
        assert_eq!(latency.count(), 4);
        let page = registry.render_prometheus();
        assert!(
            page.contains("request_seconds_bucket{le=\"0.01\"} 1"),
            "{page}"
        );
        assert!(
            page.contains("request_seconds_bucket{le=\"0.1\"} 3"),
            "{page}"
        );
        assert!(
            page.contains("request_seconds_bucket{le=\"1\"} 3"),
            "{page}"
        );
        assert!(
            page.contains("request_seconds_bucket{le=\"+Inf\"} 4"),
            "{page}"
        );
        assert!(page.contains("request_seconds_count 4"), "{page}");
        let sum_line = page
            .lines()
            .find(|l| l.starts_with("request_seconds_sum"))
            .unwrap();
        let sum: f64 = sum_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((sum - 5.105).abs() < 1e-9, "{sum_line}");
    }

    #[test]
    fn bad_histogram_bounds_are_rejected() {
        let registry = Registry::new();
        for bounds in [
            &[][..],
            &[1.0, 1.0][..],
            &[2.0, 1.0][..],
            &[f64::INFINITY][..],
        ] {
            assert_eq!(
                registry.histogram("h", "help", bounds).unwrap_err(),
                MetricError::InvalidBuckets("h".into())
            );
        }
    }

    #[test]
    fn histogram_labels_merge_with_le() {
        let registry = Registry::new();
        let vec = registry
            .histogram_vec("job_seconds", "job run time", &[0.5])
            .unwrap();
        vec.with(&[("pool", "fanout")]).observe(0.1);
        let page = registry.render_prometheus();
        assert!(
            page.contains("job_seconds_bucket{pool=\"fanout\",le=\"0.5\"} 1"),
            "{page}"
        );
        assert!(
            page.contains("job_seconds_count{pool=\"fanout\"} 1"),
            "{page}"
        );
    }
}
