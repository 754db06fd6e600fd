//! The metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of
//! `Arc`ed atomics. The registry's lock is touched only when a handle
//! is looked up by name; hot paths hold their handles and update with a
//! single relaxed atomic op. When telemetry is disabled (globally, via
//! [`set_enabled`] or `UUCS_TELEMETRY=0`), every update degrades to one
//! relaxed load and a branch — the nanosecond no-op the
//! `telemetry_overhead` bench pins down.
//!
//! [`snapshot_json`] encodes the whole registry as a single-line JSON
//! object with sorted keys and integer values only, so two snapshots of
//! identical state are byte-identical — the payload the server returns
//! for the `STATS` wire verb.

use crate::json::escape;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

/// Global recording switch. Defaults on; `UUCS_TELEMETRY=0` (checked at
/// first registry touch) or [`set_enabled`] turns it off.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables all telemetry recording process-wide. Handles
/// stay valid either way; updates made while disabled are dropped.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: an instantaneous signed value (queue depth, live
/// connections).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
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

/// Power-of-two bucket count: bucket `i` holds values whose
/// `floor(log2(max(v, 1)))` is `i`, covering the full `u64` range.
const BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn zero(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time digest of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Mean of recorded values (integer division; 0 when empty).
    pub mean: u64,
    /// Median estimate (log-bucket upper bound, capped at `max`).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Exact maximum recorded value.
    pub max: u64,
}

/// A log-bucketed latency/size histogram with p50/p90/p99/max.
///
/// Quantiles are estimated as the upper bound of the power-of-two
/// bucket containing the target rank (capped at the exact observed
/// maximum): at most a 2x overestimate, which is the standard trade for
/// fixed-size lock-free buckets.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        let bucket = 63 - (value | 1).leading_zeros() as usize;
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Starts a timer that records elapsed nanoseconds (per the
    /// telemetry [`clock`](crate::clock)) into this histogram on drop.
    pub fn start_timer(&self) -> Timer {
        if enabled() {
            Timer {
                hist: Some(self.clone()),
                t0_ns: crate::clock::now_ns(),
            }
        } else {
            Timer {
                hist: None,
                t0_ns: 0,
            }
        }
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time digest. Quantiles are computed
    /// from a single pass over the bucket array; concurrent records may
    /// land between loads, skewing ranks by at most the in-flight count.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let max = self.0.max.load(Ordering::Relaxed);
        let sum = self.0.sum.load(Ordering::Relaxed);
        let mean = sum.checked_div(count).unwrap_or(0);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut cum = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                cum += n;
                if cum >= target {
                    let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                    return upper.min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            mean,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            max,
        }
    }
}

/// RAII span timer from [`Histogram::start_timer`] (or
/// [`trace::span`](crate::trace::span)): records the elapsed telemetry
/// time into its histogram when dropped. Inert when telemetry was
/// disabled at creation.
#[derive(Debug)]
pub struct Timer {
    hist: Option<Histogram>,
    t0_ns: u64,
}

impl Timer {
    /// An inert timer that records nothing — the disabled fast path.
    pub(crate) fn inert() -> Timer {
        Timer {
            hist: None,
            t0_ns: 0,
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(hist) = &self.hist {
            hist.record(crate::clock::now_ns().saturating_sub(self.t0_ns));
        }
    }
}

fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A metrics registry. The process-global one (via [`counter`],
/// [`gauge`], [`histogram`], [`snapshot_json`]) is what the fleet
/// instruments; tests needing isolation build their own with
/// [`Registry::new`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = read_lock(&self.counters).get(name) {
            return c.clone();
        }
        write_lock(&self.counters)
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = read_lock(&self.gauges).get(name) {
            return g.clone();
        }
        write_lock(&self.gauges)
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// The histogram registered under `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = read_lock(&self.histograms).get(name) {
            return h.clone();
        }
        write_lock(&self.histograms)
            .entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(HistogramCore::new())))
            .clone()
    }

    /// Zeroes every counter and histogram. Gauges keep their values:
    /// a gauge is a level (configuration, live connections, occupancy),
    /// not an accumulation, and zeroing one would report a wrong level
    /// — or send it negative when the things it counts later go away.
    /// Registrations (and outstanding handles) stay valid — `STATS
    /// RESET` must not invalidate the handles hot paths are holding.
    pub fn reset(&self) {
        for c in read_lock(&self.counters).values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for h in read_lock(&self.histograms).values() {
            h.0.zero();
        }
    }

    /// Encodes the registry as one line of JSON with sorted keys and
    /// integer values: identical state, identical bytes.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, c)) in read_lock(&self.counters).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(name), c.get()));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in read_lock(&self.gauges).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(name), g.get()));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in read_lock(&self.histograms).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = h.snapshot();
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                escape(name),
                s.count,
                s.mean,
                s.p50,
                s.p90,
                s.p99,
                s.max
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The process-global registry. First touch applies `UUCS_TELEMETRY=0`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        if std::env::var("UUCS_TELEMETRY").is_ok_and(|v| v == "0" || v.eq_ignore_ascii_case("off"))
        {
            set_enabled(false);
        }
        Registry::new()
    })
}

/// Global-registry counter lookup (see [`Registry::counter`]).
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Global-registry gauge lookup (see [`Registry::gauge`]).
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Global-registry histogram lookup (see [`Registry::histogram`]).
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Zeroes the global registry (the `STATS RESET` verb).
pub fn reset() {
    global().reset();
}

/// JSON snapshot of the global registry (the `STATS` verb payload).
pub fn snapshot_json() -> String {
    global().snapshot_json()
}

/// Serializes tests that toggle [`set_enabled`] or the global clock
/// against tests asserting recorded values. Process-global state needs
/// process-global test discipline; the lock is public to this crate's
/// test modules only in spirit — other crates' test binaries each get
/// their own process.
#[doc(hidden)]
pub fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_update_and_reset() {
        let guard = test_guard();
        let reg = Registry::new();
        let c = reg.counter("c.hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter("c.hits").get(), 5, "same name, same cell");
        let g = reg.gauge("g.depth");
        g.set(7);
        g.add(-3);
        g.inc();
        g.dec();
        assert_eq!(g.get(), 4);
        reg.reset();
        assert_eq!(c.get(), 0, "reset zeroes through outstanding handles");
        assert_eq!(g.get(), 4, "a gauge is a level: reset leaves it alone");
        drop(guard);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let guard = test_guard();
        let reg = Registry::new();
        let h = reg.histogram("h.lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean, 500);
        // Log-bucket estimates: upper bound of the target's bucket, so
        // within [exact, 2*exact), capped at max.
        assert!(s.p50 >= 500 && s.p50 < 1024, "p50 {}", s.p50);
        assert!(s.p90 >= 900 && s.p90 <= 1000, "p90 {}", s.p90);
        assert!(s.p99 >= 990 && s.p99 <= 1000, "p99 {}", s.p99);
        // Zero and huge values land in the end buckets without panicking.
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        drop(guard);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroes() {
        let reg = Registry::new();
        let s = reg.histogram("h.empty").snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                mean: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                max: 0
            }
        );
    }

    #[test]
    fn snapshot_json_is_stable_and_sorted() {
        let guard = test_guard();
        let reg = Registry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        reg.gauge("z.gauge").set(-3);
        reg.histogram("m.hist").record(5);
        let one = reg.snapshot_json();
        let two = reg.snapshot_json();
        assert_eq!(one, two, "identical state must encode identically");
        assert!(one.find("a.first").unwrap() < one.find("b.second").unwrap());
        assert!(one.contains("\"z.gauge\":-3"));
        assert!(one.contains(
            "\"m.hist\":{\"count\":1,\"mean_ns\":5,\"p50_ns\":5,\"p90_ns\":5,\"p99_ns\":5,\"max_ns\":5}"
        ));
        assert!(!one.contains('\n'), "wire payload must be one line");
        drop(guard);
    }

    #[test]
    fn disabled_telemetry_drops_updates() {
        let guard = test_guard();
        let reg = Registry::new();
        let c = reg.counter("d.count");
        let h = reg.histogram("d.hist");
        set_enabled(false);
        c.inc();
        h.record(9);
        let t = h.start_timer();
        drop(t);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(c.get(), 1, "re-enabling restores recording");
        drop(guard);
    }

    #[test]
    fn timer_records_elapsed_virtual_time() {
        let guard = test_guard();
        let reg = Registry::new();
        let h = reg.histogram("t.span");
        crate::clock::install_virtual(100);
        let t = h.start_timer();
        crate::clock::advance_virtual(250);
        drop(t);
        crate::clock::uninstall_virtual();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 250);
        drop(guard);
    }
}
