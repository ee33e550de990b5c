//! First-party telemetry: named counters, gauges, log2-bucketed latency
//! histograms, and a cycle-windowed time-series sampler.
//!
//! The paper's evaluation is aggregate (end-of-run message totals,
//! Figs. 2/8), but the interesting behavior in Cohesion is
//! *phase-resolved*: transitions cluster at barriers and the directory
//! fills in bursts. This module is the machine-wide substrate for seeing
//! that — every layer records into one [`Registry`] owned by the machine,
//! and a [`Snapshot`] of the registry rides home on the run report as
//! deterministic, dependency-free JSON (the same hand-rolled emission
//! style as `cohesion_testkit::bench`).
//!
//! Telemetry is strictly opt-in: a [`Registry::disarmed`] registry turns
//! every record call into a single branch on a `bool`, allocates nothing,
//! and snapshots to `None`, so default runs are byte-identical to a build
//! without this module.
//!
//! # Example
//!
//! ```
//! use cohesion_sim::metrics::Registry;
//!
//! let mut m = Registry::armed(1_000);
//! m.inc("transition/case_2a");
//! m.record_latency("latency/load", 17);
//! m.sample_add("messages", 2_500, 1); // lands in window [2000, 3000)
//! let snap = m.snapshot();
//! assert_eq!(snap.counters, vec![("transition/case_2a".to_string(), 1)]);
//! ```

use std::collections::BTreeMap;

use crate::Cycle;

/// Number of histogram buckets: one for the value `0`, plus one per
/// power-of-two magnitude of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (latencies, sizes, …).
///
/// Bucket `0` holds the value `0`; bucket `i` (for `i ≥ 1`) holds values
/// in `[2^(i-1), 2^i - 1]`. Alongside the buckets the histogram tracks
/// exact `count`, `sum`, `min`, and `max`, so means and extrema are exact
/// while percentiles are estimates interpolated within a bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for `v`: `0` for the value zero, else the bit
    /// width of `v` (so `1 → 1`, `2..=3 → 2`, `4..=7 → 3`, …).
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Inclusive value range `[lo, hi]` covered by bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS);
        if i == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (i - 1);
            let hi = lo.wrapping_shl(1).wrapping_sub(1); // i == 64 saturates to u64::MAX
            (lo, if hi < lo { u64::MAX } else { hi })
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `0` if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or `0` if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (index by [`Histogram::bucket_of`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Estimated `p`-quantile (`p` in `[0, 1]`), linearly interpolated
    /// inside the containing bucket and clamped to the exact recorded
    /// `[min, max]` range — so `percentile(1.0) == max()` exactly, and the
    /// estimate is monotone in `p`. Returns `0.0` if empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        // 1-indexed continuous rank in [1, count].
        let target = p * (self.count as f64 - 1.0) + 1.0;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            if (cum as f64) >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let into = target - (cum - n) as f64; // position within bucket, (0, n]
                let frac = into / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64 // unreachable when count > 0, but keep total
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The fixed percentile summary serialized into run reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }
}

/// The serialized shape of one histogram in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Exact minimum (0 if empty).
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// A cycle-windowed time-series sampler.
///
/// Each named series is a dense vector of windows of `window` cycles:
/// index `w` aggregates everything observed at cycles
/// `[w·window, (w+1)·window)`. Two aggregations are offered: additive
/// ([`Sampler::add`], e.g. messages per window) and running-max
/// ([`Sampler::observe_max`], e.g. peak directory occupancy per window).
#[derive(Debug, Clone)]
pub struct Sampler {
    window: Cycle,
    series: BTreeMap<&'static str, Vec<u64>>,
}

impl Sampler {
    /// A sampler with the given window size in cycles (clamped to ≥ 1).
    pub fn new(window: Cycle) -> Self {
        Sampler {
            window: window.max(1),
            series: BTreeMap::new(),
        }
    }

    /// The window size in cycles.
    pub fn window(&self) -> Cycle {
        self.window
    }

    fn slot(&mut self, name: &'static str, now: Cycle) -> &mut u64 {
        let idx = (now / self.window) as usize;
        let v = self.series.entry(name).or_default();
        if v.len() <= idx {
            v.resize(idx + 1, 0);
        }
        &mut v[idx]
    }

    /// Adds `delta` into the window containing cycle `now`.
    pub fn add(&mut self, name: &'static str, now: Cycle, delta: u64) {
        *self.slot(name, now) += delta;
    }

    /// Raises the window containing cycle `now` to at least `value`.
    pub fn observe_max(&mut self, name: &'static str, now: Cycle, value: u64) {
        let s = self.slot(name, now);
        *s = (*s).max(value);
    }

    /// Iterates the recorded series in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &[u64])> {
        self.series.iter().map(|(k, v)| (*k, v.as_slice()))
    }
}

/// The machine-wide telemetry registry: named counters, gauges,
/// histograms, a cycle-windowed [`Sampler`], and event marks.
///
/// A *disarmed* registry ([`Registry::disarmed`], the default) reduces
/// every record call to one branch and never allocates; an *armed* one
/// ([`Registry::armed`]) accumulates everything and can be summarized
/// with [`Registry::snapshot`]. Names are `&'static str` so the hot
/// recording paths never build strings; dynamically-named derived series
/// (per-cluster, per-bank) are pushed into the [`Snapshot`] at
/// summary time instead.
#[derive(Debug, Clone)]
pub struct Registry {
    armed: bool,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    sampler: Sampler,
    marks: BTreeMap<&'static str, Vec<(Cycle, u64)>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::disarmed()
    }
}

impl Registry {
    /// A disarmed registry: every record call is a no-op.
    pub fn disarmed() -> Self {
        Registry {
            armed: false,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            sampler: Sampler::new(1),
            marks: BTreeMap::new(),
        }
    }

    /// An armed registry whose sampler uses `window`-cycle windows.
    pub fn armed(window: Cycle) -> Self {
        Registry {
            armed: true,
            sampler: Sampler::new(window),
            ..Registry::disarmed()
        }
    }

    /// Whether record calls are being accumulated.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Increments counter `name` by one.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        if self.armed {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }

    /// Sets gauge `name` to `value` (last write wins).
    #[inline]
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        if self.armed {
            self.gauges.insert(name, value);
        }
    }

    /// Records `v` into histogram `name`.
    #[inline]
    pub fn record_latency(&mut self, name: &'static str, v: u64) {
        if self.armed {
            self.histograms.entry(name).or_default().record(v);
        }
    }

    /// Adds `delta` into time series `name` at cycle `now`.
    #[inline]
    pub fn sample_add(&mut self, name: &'static str, now: Cycle, delta: u64) {
        if self.armed {
            self.sampler.add(name, now, delta);
        }
    }

    /// Raises time series `name`'s window at cycle `now` to `value`.
    #[inline]
    pub fn sample_max(&mut self, name: &'static str, now: Cycle, value: u64) {
        if self.armed {
            self.sampler.observe_max(name, now, value);
        }
    }

    /// Appends a `(cycle, value)` event to mark series `name` (e.g. the
    /// cumulative message count at each barrier).
    #[inline]
    pub fn mark(&mut self, name: &'static str, now: Cycle, value: u64) {
        if self.armed {
            self.marks.entry(name).or_default().push((now, value));
        }
    }

    /// Folds `other` into this registry: counters add, histograms merge
    /// bucket-wise, sampler series add element-wise (window sizes must
    /// match), gauges are overwritten by `other`'s values (last write
    /// wins, as with [`Registry::set_gauge`]), and marks append in
    /// `other`'s record order.
    ///
    /// Merging is associative, and commutative for everything except
    /// gauge overwrites and mark order — so callers that need
    /// deterministic output (the sharded executor folding per-lane
    /// scratch registries) must merge in a fixed order (lane 0, 1, …).
    ///
    /// Merging into a disarmed registry is a no-op, mirroring every
    /// other record call.
    pub fn merge_from(&mut self, other: &Registry) {
        if !self.armed {
            return;
        }
        for (name, n) in &other.counters {
            *self.counters.entry(name).or_insert(0) += n;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name, *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
        debug_assert_eq!(
            self.sampler.window, other.sampler.window,
            "merging samplers with different windows misaligns every series"
        );
        for (name, src) in &other.sampler.series {
            let dst = self.sampler.series.entry(name).or_default();
            if dst.len() < src.len() {
                dst.resize(src.len(), 0);
            }
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
        for (name, v) in &other.marks {
            self.marks.entry(name).or_default().extend_from_slice(v);
        }
    }

    /// Read access to counter `name` (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read access to histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Summarizes everything recorded so far into a [`Snapshot`] (sorted,
    /// self-contained, serializable). Derived values may be pushed into
    /// the snapshot afterwards; call [`Snapshot::finalize`] before
    /// serializing.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.to_string(), h.summary()))
                .collect(),
            window: self.sampler.window(),
            series: self
                .sampler
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_vec()))
                .collect(),
            marks: self.marks.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        }
    }
}

/// A self-contained, serializable summary of a [`Registry`], plus any
/// derived series pushed in by the machine (per-cluster and per-bank
/// breakdowns, link utilization, …).
///
/// All collections are name-sorted by [`Snapshot::finalize`], and
/// [`Snapshot::to_json`] emits them in that order, so serialization is
/// deterministic: the same run produces the same bytes regardless of how
/// many sweep workers ran beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Monotonic event counts, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time values, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Latency/size distributions, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Sampler window size in cycles.
    pub window: Cycle,
    /// Cycle-windowed time series (one value per window), name-sorted.
    pub series: Vec<(String, Vec<u64>)>,
    /// Event marks: `(cycle, value)` pairs in record order, name-sorted.
    pub marks: Vec<(String, Vec<(Cycle, u64)>)>,
}

impl Snapshot {
    /// Pushes a derived counter (sorted on [`Snapshot::finalize`]).
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Pushes a derived gauge (sorted on [`Snapshot::finalize`]).
    pub fn push_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.push((name.into(), value));
    }

    /// Name-sorts every collection; call after pushing derived values and
    /// before serializing.
    pub fn finalize(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        self.series.sort_by(|a, b| a.0.cmp(&b.0));
        self.marks.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Serializes the snapshot as one deterministic JSON object with keys
    /// `counters`, `gauges`, `histograms`, `series` (`{window, data}`),
    /// and `marks` — the same hand-rolled, dependency-free emission style
    /// as `cohesion_testkit::bench`.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), fmt_f64(*v)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    json_escape(k),
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    fmt_f64(h.mean),
                    fmt_f64(h.p50),
                    fmt_f64(h.p90),
                    fmt_f64(h.p99)
                )
            })
            .collect();
        let series: Vec<String> = self
            .series
            .iter()
            .map(|(k, v)| {
                let vals: Vec<String> = v.iter().map(|x| x.to_string()).collect();
                format!("\"{}\":[{}]", json_escape(k), vals.join(","))
            })
            .collect();
        let marks: Vec<String> = self
            .marks
            .iter()
            .map(|(k, v)| {
                let pairs: Vec<String> = v.iter().map(|(c, x)| format!("[{c},{x}]")).collect();
                format!("\"{}\":[{}]", json_escape(k), pairs.join(","))
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}},\"series\":{{\"window\":{},\"data\":{{{}}}}},\"marks\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(","),
            self.window,
            series.join(","),
            marks.join(",")
        )
    }
}

/// Deterministic JSON number formatting for gauges and percentiles:
/// fixed three-decimal notation (values here are cycle counts and rates,
/// never astronomically large), with `-0.000` normalized to `0.000`.
fn fmt_f64(v: f64) -> String {
    let s = format!("{v:.3}");
    if s == "-0.000" {
        "0.000".to_string()
    } else {
        s
    }
}

/// Escapes `s` for inclusion inside a JSON string literal: quote,
/// backslash, `\n`/`\r`/`\t`, and every other control character below
/// 0x20 as `\u00XX`. The one JSON string escaper of the workspace.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_and_bounds_agree() {
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_of(hi), i, "hi of bucket {i}");
        }
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bounds(64).1, u64::MAX);
    }

    #[test]
    fn histogram_exact_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 111);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 22.2).abs() < 1e-9);
        assert_eq!(h.percentile(1.0), 100.0);
        let p50 = h.percentile(0.5);
        assert!((0.0..=100.0).contains(&p50));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.summary().p99, 0.0);
    }

    #[test]
    fn merge_matches_concatenated_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [3u64, 9, 27] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 81, 243] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.buckets(), both.buckets());
    }

    #[test]
    fn sampler_windows_and_growth() {
        let mut s = Sampler::new(100);
        s.add("m", 0, 1);
        s.add("m", 99, 1);
        s.add("m", 100, 5);
        s.add("m", 550, 2);
        s.observe_max("occ", 120, 7);
        s.observe_max("occ", 130, 3);
        let series: Vec<_> = s.iter().collect();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], ("m", &[2, 5, 0, 0, 0, 2][..]));
        assert_eq!(series[1], ("occ", &[0, 7][..]));
    }

    #[test]
    fn disarmed_registry_records_nothing() {
        let mut m = Registry::disarmed();
        m.inc("a");
        m.record_latency("h", 9);
        m.sample_add("s", 10, 1);
        m.mark("mk", 5, 5);
        m.set_gauge("g", 1.0);
        let snap = m.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.series.is_empty());
        assert!(snap.marks.is_empty());
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let mut m = Registry::armed(10);
        m.inc("z/second");
        m.inc("a/first");
        m.record_latency("lat", 4);
        m.sample_add("traffic", 25, 3);
        m.mark("barrier", 30, 12);
        m.set_gauge("occ", 1.5);
        let mut snap = m.snapshot();
        snap.push_counter("derived/mid", 7);
        snap.finalize();
        let json = snap.to_json();
        assert_eq!(snap.counters[0].0, "a/first");
        assert_eq!(snap.counters[1].0, "derived/mid");
        let a = json.find("a/first").unwrap();
        let d = json.find("derived/mid").unwrap();
        let z = json.find("z/second").unwrap();
        assert!(a < d && d < z);
        assert!(json.contains("\"series\":{\"window\":10,\"data\":{\"traffic\":[0,0,3]}}"));
        assert!(json.contains("\"marks\":{\"barrier\":[[30,12]]}"));
        assert!(json.contains("\"occ\":1.500"));
        // Stable across repeated serialization.
        assert_eq!(json, snap.to_json());
    }

    #[test]
    fn merge_from_matches_single_registry_recording() {
        let mut whole = Registry::armed(10);
        let mut a = Registry::armed(10);
        let mut b = Registry::armed(10);
        for (m, k) in [(&mut whole, 3u64), (&mut a, 3)] {
            m.add("hits", k);
            m.record_latency("lat", 7);
            m.sample_add("traffic", 5, 2);
            m.mark("barrier", 10, 1);
        }
        for (m, k) in [(&mut whole, 4u64), (&mut b, 4)] {
            m.add("hits", k);
            m.add("misses", 1);
            m.record_latency("lat", 70);
            m.sample_add("traffic", 25, 1);
            m.set_gauge("occ", 2.5);
        }
        a.merge_from(&b);
        let mut merged = a.snapshot();
        let mut reference = whole.snapshot();
        merged.finalize();
        reference.finalize();
        assert_eq!(merged.to_json(), reference.to_json());
    }

    #[test]
    fn merge_into_disarmed_is_noop() {
        let mut dst = Registry::disarmed();
        let mut src = Registry::armed(1);
        src.inc("a");
        dst.merge_from(&src);
        assert!(dst.snapshot().counters.is_empty());
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(fmt_f64(-0.0001), "0.000");
    }
}
