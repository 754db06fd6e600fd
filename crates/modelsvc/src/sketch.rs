//! A deterministic, mergeable streaming quantile sketch over a bounded
//! contention domain.
//!
//! The paper's discomfort CDFs (§4) live on known, bounded axes: a
//! contention level between 0 and the resource's calibrated maximum
//! (10 competing threads for CPU, a memory fraction of 1.0, 7 for
//! disk). That boundedness buys a sketch with properties a general
//! GK/KLL summary cannot offer simultaneously:
//!
//! * **Exactly commutative and associative merges.** The state is a
//!   fixed grid of `u64` bin counts plus an exact running maximum;
//!   merging adds counts and takes the max, so any merge order of any
//!   grouping yields bit-identical state. Fleet aggregation can proceed
//!   in whatever order uploads arrive.
//! * **A deterministic, documented error bound.** Every inserted level
//!   is attributed to the bin whose *upper edge* is the least grid
//!   point at or above it, so a quantile answer is always an upper
//!   bound on the true quantile and overshoots it by less than one bin
//!   width ([`QuantileSketch::value_error`]). CDF evaluation at grid
//!   points is exact. There is no randomness anywhere, so two servers
//!   fed the same uploads hold byte-identical models.
//! * **Bounded size.** The sketch never grows past its
//!   [`DEFAULT_BINS`] counters no matter how many samples stream in,
//!   and the sparse text encoding only pays for occupied bins.
//!
//! Censoring follows `uucs-stats::Ecdf`: a run that exhausted without
//! feedback raises only the *total* (its discomfort level is known to
//! lie above everything explored), so low quantiles stay honest and
//! high quantiles refuse to extrapolate ([`QuantileSketch::quantile`]
//! returns `None` when the requested rank falls in censored mass).

use std::fmt;
use uucs_testcase::Resource;

/// Grid resolution used by [`QuantileSketch::for_resource`]: the rank
/// answers of a 256-bin sketch are off by at most `max_contention/256`
/// in level (≈0.04 contention for CPU), far below the ~0.5-level grain
/// of the paper's testcase ramps.
pub const DEFAULT_BINS: usize = 256;

/// Upper bound on the bin count a decoder will accept, so a corrupt
/// header cannot make recovery allocate gigabytes.
pub const MAX_BINS: usize = 1 << 16;

/// Why two sketches could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// Human-readable description of the mismatch.
    pub what: String,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sketch merge mismatch: {}", self.what)
    }
}

impl std::error::Error for MergeError {}

/// A fixed-grid streaming quantile sketch for discomfort levels.
///
/// See the module docs for the design rationale. The documented error
/// bound: for any `p` with an uncensored answer, `quantile(p)` returns
/// a grid point `v` such that the exact p-quantile `q` (in the sense of
/// `uucs-stats::Ecdf::quantile` over the same inserts) satisfies
/// `q <= v < q + value_error()`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    observed: u64,
    censored: u64,
    /// Exact maximum observed (post-clamp) level; `lo` while empty.
    max_seen: f64,
}

impl QuantileSketch {
    /// A sketch over `[lo, hi]` with `nbins` equal-width bins.
    ///
    /// # Panics
    /// If the domain is not finite and non-empty or `nbins` is not in
    /// `1..=MAX_BINS` — sketch configurations are code, not data, so a
    /// bad one is a programming error.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "sketch domain must be a finite non-empty interval"
        );
        assert!(
            (1..=MAX_BINS).contains(&nbins),
            "sketch bin count must be in 1..={MAX_BINS}"
        );
        QuantileSketch {
            lo,
            hi,
            bins: vec![0; nbins],
            observed: 0,
            censored: 0,
            max_seen: lo,
        }
    }

    /// The standard sketch for a resource's contention axis:
    /// `[0, max_contention]` at [`DEFAULT_BINS`] resolution. Every
    /// cohort of the same resource shares this configuration, so their
    /// sketches always merge.
    pub fn for_resource(resource: Resource) -> Self {
        Self::new(0.0, resource.max_contention(), DEFAULT_BINS)
    }

    /// The bin width — also the sketch's documented quantile error
    /// bound in level space ([`QuantileSketch::value_error`]).
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// The documented error bound: `quantile(p)` never undershoots the
    /// exact quantile and overshoots it by less than this.
    pub fn value_error(&self) -> f64 {
        self.width()
    }

    /// The domain `(lo, hi)`.
    pub fn domain(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Number of grid bins.
    pub fn resolution(&self) -> usize {
        self.bins.len()
    }

    /// Count of uncensored (discomfort-level) observations.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Count of right-censored observations (runs exhausted without
    /// feedback).
    pub fn censored(&self) -> u64 {
        self.censored
    }

    /// Total observations, censored included — the quantile denominator.
    pub fn total(&self) -> u64 {
        self.observed + self.censored
    }

    /// True when nothing was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// The exact maximum observed level, if any level was observed.
    pub fn max_observed(&self) -> Option<f64> {
        (self.observed > 0).then_some(self.max_seen)
    }

    /// The bin index a level lands in: the bin whose upper edge is the
    /// least grid point at or above the (clamped) level.
    fn bin_index(&self, level: f64) -> usize {
        let v = level.clamp(self.lo, self.hi);
        let i = ((v - self.lo) / self.width()).ceil() as usize;
        i.saturating_sub(1).min(self.bins.len() - 1)
    }

    /// The upper grid edge of bin `i` — the value quantile queries
    /// answer with.
    fn upper_edge(&self, i: usize) -> f64 {
        if i + 1 == self.bins.len() {
            // Computed edges can land a ULP past `hi`; the last edge is
            // `hi` by definition.
            self.hi
        } else {
            self.lo + (i as f64 + 1.0) * self.width()
        }
    }

    /// Inserts one observed discomfort level (clamped into the domain).
    pub fn insert(&mut self, level: f64) {
        let v = if level.is_finite() {
            level.clamp(self.lo, self.hi)
        } else {
            // A non-finite level carries no usable position; attribute
            // it to the nearest end of the domain deterministically.
            if level > 0.0 {
                self.hi
            } else {
                self.lo
            }
        };
        let i = self.bin_index(v);
        self.bins[i] += 1;
        self.observed += 1;
        self.max_seen = self.max_seen.max(v);
    }

    /// Records one right-censored run: it raises the total without
    /// contributing a level, exactly like `Ecdf`'s censored runs.
    pub fn insert_censored(&mut self) {
        self.censored += 1;
    }

    /// Merges another sketch of the *same configuration* into this one.
    /// Exactly commutative and associative: counts add, the maximum is
    /// the max of maxima.
    pub fn merge(&mut self, other: &QuantileSketch) -> Result<(), MergeError> {
        if self.lo != other.lo || self.hi != other.hi || self.bins.len() != other.bins.len() {
            return Err(MergeError {
                what: format!(
                    "[{}, {}]x{} vs [{}, {}]x{}",
                    self.lo,
                    self.hi,
                    self.bins.len(),
                    other.lo,
                    other.hi,
                    other.bins.len()
                ),
            });
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.observed += other.observed;
        self.censored += other.censored;
        // Both maxima are >= lo (the empty-sketch sentinel), so a plain
        // max is correct whether either side is empty or not.
        self.max_seen = self.max_seen.max(other.max_seen);
        Ok(())
    }

    /// The p-quantile with `Ecdf` semantics: rank `max(ceil(p·total), 1)`
    /// over observed *and* censored mass. `None` when the sketch is
    /// empty or the rank falls into censored mass (the level lies above
    /// everything explored — refusing to extrapolate is the point of
    /// censoring). The answer is a grid point within
    /// [`QuantileSketch::value_error`] above the exact quantile.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 || !p.is_finite() {
            return None;
        }
        let need = ((p * total as f64).ceil() as u64).max(1);
        if need > self.observed {
            return None;
        }
        let mut cum = 0u64;
        for (i, c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= need {
                return Some(self.upper_edge(i));
            }
        }
        None
    }

    /// The borrowing level for a target discomfort probability `p`: the
    /// p-quantile — the bin holding the ⌈p·N⌉-th lowest of the N samples,
    /// censored runs counted in N, so at that level ⌈p·N⌉/N ≥ p of users
    /// are already discomforted (equal only when p·N is an integer;
    /// ROADMAP item 19) — or, when censoring saturates the query, the
    /// maximum explored level: if nobody objected anywhere we looked, the
    /// best supportable answer is the highest level looked at.
    /// `comfort::ThrottleAdvisor::recommend` applies the same rule, bias
    /// included, to an exact ECDF. `None` only when no level was ever
    /// observed.
    pub fn advice_level(&self, p: f64) -> Option<f64> {
        self.quantile(p).or(self.max_observed())
    }

    /// The fraction of total mass at or below `c`, counting whole bins
    /// (exact when `c` is a grid point, conservative otherwise).
    pub fn eval(&self, c: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut cum = 0u64;
        for (i, n) in self.bins.iter().enumerate() {
            if self.upper_edge(i) <= c {
                cum += n;
            } else {
                break;
            }
        }
        cum as f64 / total as f64
    }

    /// Evaluates several quantiles at once — the "quantile table" the
    /// `MODEL` verb's callers print.
    pub fn quantile_table(&self, ps: &[f64]) -> Vec<(f64, Option<f64>)> {
        ps.iter().map(|&p| (p, self.quantile(p))).collect()
    }

    /// Encodes the sketch as one whitespace-free line:
    ///
    /// ```text
    /// q1;<lo>;<hi>;<nbins>;<observed>;<censored>;<max>;<i>:<n>,<i>:<n>,...
    /// ```
    ///
    /// Floats use Rust's shortest round-trip formatting, so
    /// decode∘encode is the identity and encode∘decode is
    /// byte-identical. Empty bins are omitted (the final field may be
    /// empty). The same line is journaled in the WAL snapshot and sent
    /// on the wire.
    pub fn encode(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        write!(
            out,
            "q1;{};{};{};{};{};{};",
            self.lo,
            self.hi,
            self.bins.len(),
            self.observed,
            self.censored,
            self.max_seen
        )
        .unwrap();
        let mut first = true;
        for (i, n) in self.bins.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            write!(out, "{i}:{n}").unwrap();
        }
        out
    }

    /// Decodes [`QuantileSketch::encode`] output, validating every
    /// invariant (finite non-empty domain, bins strictly increasing and
    /// in range, bin counts summing to the observed count, maximum
    /// inside the domain) so a truncated or garbled line never yields a
    /// plausible-looking sketch.
    pub fn decode(text: &str) -> Result<QuantileSketch, String> {
        let fields: Vec<&str> = text.split(';').collect();
        if fields.len() != 8 {
            return Err(format!("sketch line has {} fields, want 8", fields.len()));
        }
        if fields[0] != "q1" {
            return Err(format!("unknown sketch version {:?}", fields[0]));
        }
        let pf = |what: &str, s: &str| -> Result<f64, String> {
            let v: f64 = s.parse().map_err(|_| format!("bad sketch {what} {s:?}"))?;
            if !v.is_finite() {
                return Err(format!("non-finite sketch {what} {s:?}"));
            }
            Ok(v)
        };
        let lo = pf("lo", fields[1])?;
        let hi = pf("hi", fields[2])?;
        if lo >= hi {
            return Err(format!("empty sketch domain [{lo}, {hi}]"));
        }
        let nbins: usize = fields[3]
            .parse()
            .map_err(|_| format!("bad sketch bin count {:?}", fields[3]))?;
        if !(1..=MAX_BINS).contains(&nbins) {
            return Err(format!("sketch bin count {nbins} out of range"));
        }
        let observed: u64 = fields[4]
            .parse()
            .map_err(|_| format!("bad sketch observed count {:?}", fields[4]))?;
        let censored: u64 = fields[5]
            .parse()
            .map_err(|_| format!("bad sketch censored count {:?}", fields[5]))?;
        let max_seen = pf("max", fields[6])?;
        if max_seen < lo || max_seen > hi {
            return Err(format!("sketch max {max_seen} outside [{lo}, {hi}]"));
        }
        if observed == 0 && max_seen != lo {
            return Err("empty sketch must carry max = lo".to_string());
        }
        let mut bins = vec![0u64; nbins];
        let mut sum = 0u64;
        let mut prev: Option<usize> = None;
        if !fields[7].is_empty() {
            for seg in fields[7].split(',') {
                let (i, n) = seg
                    .split_once(':')
                    .ok_or_else(|| format!("bad sketch bin segment {seg:?}"))?;
                let i: usize = i
                    .parse()
                    .map_err(|_| format!("bad sketch bin index {i:?}"))?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("bad sketch bin count {n:?}"))?;
                if i >= nbins {
                    return Err(format!("sketch bin index {i} out of range"));
                }
                if n == 0 {
                    return Err("sketch encodes an empty bin".to_string());
                }
                if prev.is_some_and(|p| i <= p) {
                    return Err("sketch bin indices not strictly increasing".to_string());
                }
                prev = Some(i);
                bins[i] = n;
                sum = sum
                    .checked_add(n)
                    .ok_or_else(|| "sketch bin counts overflow".to_string())?;
            }
        }
        if sum != observed {
            return Err(format!(
                "sketch bins sum to {sum} but observed count is {observed}"
            ));
        }
        Ok(QuantileSketch {
            lo,
            hi,
            bins,
            observed,
            censored,
            max_seen,
        })
    }
}

/// The changed-bin difference between two snapshots of one *growing*
/// sketch — the payload of an epoch-delta `MODELDELTA` download.
///
/// Bin counts only ever increase and the configuration never changes,
/// so the delta from a cached base to the current sketch is the per-bin
/// **growth** of the bins that moved, plus the base and target totals.
/// Growth encoding makes the line self-checking: the changed-bin
/// growths must sum *exactly* to the observed-count growth, so a
/// truncated changed list (even one cut at a comma boundary) can never
/// decode. [`QuantileSketch::apply_delta`] additionally requires the
/// base totals to match the sketch it is applied to, so a delta
/// computed against a *different* base (a renumbered epoch after
/// failover, say) is rejected instead of silently merged.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchDelta {
    lo: f64,
    hi: f64,
    nbins: usize,
    /// The totals of the base this delta was computed against.
    base_observed: u64,
    base_censored: u64,
    /// The target totals and maximum — what the base advances to.
    observed: u64,
    censored: u64,
    max_seen: f64,
    /// `(bin index, count growth)` for every bin that changed,
    /// strictly increasing by index, every growth >= 1.
    changed: Vec<(usize, u64)>,
}

impl SketchDelta {
    /// Number of bins that changed between base and target.
    pub fn changed_bins(&self) -> usize {
        self.changed.len()
    }

    /// The target's observed (uncensored) count.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The target's censored count.
    pub fn censored(&self) -> u64 {
        self.censored
    }

    /// True when base and target were identical (the common polling
    /// case: the model has not advanced since the client's cached
    /// epoch, so the delta carries nothing but the unchanged totals).
    pub fn is_noop(&self) -> bool {
        self.changed.is_empty() && self.censored == self.base_censored
    }

    /// Encodes the delta as one whitespace-free line, mirroring
    /// [`QuantileSketch::encode`] with a `qd1` version tag:
    ///
    /// ```text
    /// qd1;<lo>;<hi>;<nbins>;<base-obs>;<base-cens>;<obs>;<cens>;<max>;<i>:<growth>,...
    /// ```
    pub fn encode(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        write!(
            out,
            "qd1;{};{};{};{};{};{};{};{};",
            self.lo,
            self.hi,
            self.nbins,
            self.base_observed,
            self.base_censored,
            self.observed,
            self.censored,
            self.max_seen
        )
        .unwrap();
        let mut first = true;
        for (i, g) in &self.changed {
            if !first {
                out.push(',');
            }
            first = false;
            write!(out, "{i}:{g}").unwrap();
        }
        out
    }

    /// Decodes [`SketchDelta::encode`] output with the same paranoia as
    /// the sketch decoder: a truncated or garbled line never yields a
    /// plausible-looking delta, because the changed-bin growths must
    /// account exactly for the observed-count growth.
    pub fn decode(text: &str) -> Result<SketchDelta, String> {
        let fields: Vec<&str> = text.split(';').collect();
        if fields.len() != 10 {
            return Err(format!("delta line has {} fields, want 10", fields.len()));
        }
        if fields[0] != "qd1" {
            return Err(format!("unknown delta version {:?}", fields[0]));
        }
        let pf = |what: &str, s: &str| -> Result<f64, String> {
            let v: f64 = s.parse().map_err(|_| format!("bad delta {what} {s:?}"))?;
            if !v.is_finite() {
                return Err(format!("non-finite delta {what} {s:?}"));
            }
            Ok(v)
        };
        let pu = |what: &str, s: &str| -> Result<u64, String> {
            s.parse().map_err(|_| format!("bad delta {what} {s:?}"))
        };
        let lo = pf("lo", fields[1])?;
        let hi = pf("hi", fields[2])?;
        if lo >= hi {
            return Err(format!("empty delta domain [{lo}, {hi}]"));
        }
        let nbins: usize = fields[3]
            .parse()
            .map_err(|_| format!("bad delta bin count {:?}", fields[3]))?;
        if !(1..=MAX_BINS).contains(&nbins) {
            return Err(format!("delta bin count {nbins} out of range"));
        }
        let base_observed = pu("base observed count", fields[4])?;
        let base_censored = pu("base censored count", fields[5])?;
        let observed = pu("observed count", fields[6])?;
        let censored = pu("censored count", fields[7])?;
        if observed < base_observed || censored < base_censored {
            return Err("delta shrinks a total count".to_string());
        }
        let max_seen = pf("max", fields[8])?;
        if max_seen < lo || max_seen > hi {
            return Err(format!("delta max {max_seen} outside [{lo}, {hi}]"));
        }
        let mut changed = Vec::new();
        let mut sum = 0u64;
        let mut prev: Option<usize> = None;
        if !fields[9].is_empty() {
            for seg in fields[9].split(',') {
                let (i, g) = seg
                    .split_once(':')
                    .ok_or_else(|| format!("bad delta bin segment {seg:?}"))?;
                let i: usize = i
                    .parse()
                    .map_err(|_| format!("bad delta bin index {i:?}"))?;
                let g: u64 = g
                    .parse()
                    .map_err(|_| format!("bad delta bin growth {g:?}"))?;
                if i >= nbins {
                    return Err(format!("delta bin index {i} out of range"));
                }
                if g == 0 {
                    return Err("delta encodes a zero-growth bin".to_string());
                }
                if prev.is_some_and(|p| i <= p) {
                    return Err("delta bin indices not strictly increasing".to_string());
                }
                prev = Some(i);
                sum = sum
                    .checked_add(g)
                    .ok_or_else(|| "delta bin growths overflow".to_string())?;
                changed.push((i, g));
            }
        }
        if sum != observed - base_observed {
            return Err(format!(
                "delta changed bins grow by {sum} but the observed count by {}",
                observed - base_observed
            ));
        }
        Ok(SketchDelta {
            lo,
            hi,
            nbins,
            base_observed,
            base_censored,
            observed,
            censored,
            max_seen,
            changed,
        })
    }
}

impl QuantileSketch {
    /// The delta that advances `base` to `self`. Fails when the
    /// configurations differ or `base` is not an ancestor of `self`
    /// (some count shrank) — both mean the two sketches do not belong
    /// to the same growth history and a delta would corrupt the base.
    pub fn delta_since(&self, base: &QuantileSketch) -> Result<SketchDelta, MergeError> {
        if self.lo != base.lo || self.hi != base.hi || self.bins.len() != base.bins.len() {
            return Err(MergeError {
                what: format!(
                    "[{}, {}]x{} vs [{}, {}]x{}",
                    self.lo,
                    self.hi,
                    self.bins.len(),
                    base.lo,
                    base.hi,
                    base.bins.len()
                ),
            });
        }
        if base.observed > self.observed
            || base.censored > self.censored
            || base.max_seen > self.max_seen
        {
            return Err(MergeError {
                what: "delta base is ahead of the target (not an ancestor)".to_string(),
            });
        }
        let mut changed = Vec::new();
        for (i, (&new, &old)) in self.bins.iter().zip(&base.bins).enumerate() {
            if new < old {
                return Err(MergeError {
                    what: format!("bin {i} shrank {old} -> {new} (base is not an ancestor)"),
                });
            }
            if new != old {
                changed.push((i, new - old));
            }
        }
        Ok(SketchDelta {
            lo: self.lo,
            hi: self.hi,
            nbins: self.bins.len(),
            base_observed: base.observed,
            base_censored: base.censored,
            observed: self.observed,
            censored: self.censored,
            max_seen: self.max_seen,
            changed,
        })
    }

    /// Advances this sketch by a delta computed against it. Validates
    /// everything *before* mutating — configuration match, exact
    /// base-total match, grow-only maximum — so a delta computed
    /// against a different base leaves the sketch untouched and the
    /// caller falls back to a full download.
    pub fn apply_delta(&mut self, delta: &SketchDelta) -> Result<(), MergeError> {
        if self.lo != delta.lo || self.hi != delta.hi || self.bins.len() != delta.nbins {
            return Err(MergeError {
                what: format!(
                    "[{}, {}]x{} vs delta [{}, {}]x{}",
                    self.lo,
                    self.hi,
                    self.bins.len(),
                    delta.lo,
                    delta.hi,
                    delta.nbins
                ),
            });
        }
        if self.observed != delta.base_observed || self.censored != delta.base_censored {
            return Err(MergeError {
                what: format!(
                    "delta base is {}+{} records but this sketch is {}+{} — \
                     it was computed against a different base",
                    delta.base_observed, delta.base_censored, self.observed, self.censored
                ),
            });
        }
        if delta.max_seen < self.max_seen {
            return Err(MergeError {
                what: format!(
                    "delta shrinks the maximum {} -> {}",
                    self.max_seen, delta.max_seen
                ),
            });
        }
        if delta.changed.iter().any(|&(i, _)| i >= self.bins.len()) {
            return Err(MergeError {
                what: "delta bin index out of range".to_string(),
            });
        }
        for &(i, g) in &delta.changed {
            self.bins[i] += g;
        }
        self.observed = delta.observed;
        self.censored = delta.censored;
        self.max_seen = delta.max_seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> QuantileSketch {
        QuantileSketch::for_resource(Resource::Cpu)
    }

    #[test]
    fn empty_sketch_answers_nothing() {
        let s = cpu();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.advice_level(0.5), None);
        assert_eq!(s.max_observed(), None);
        assert_eq!(s.eval(10.0), 0.0);
    }

    #[test]
    fn quantile_tracks_exact_within_one_bin() {
        let mut s = cpu();
        let levels = [0.5, 1.25, 2.0, 3.75, 4.0, 4.0, 6.5, 8.0, 9.1, 10.0];
        for l in levels {
            s.insert(l);
        }
        // Exact quantile (Ecdf semantics): rank ceil(p*n).max(1).
        let mut sorted = levels.to_vec();
        sorted.sort_by(f64::total_cmp);
        for p in [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let need = ((p * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[need - 1];
            let got = s.quantile(p).unwrap();
            assert!(
                got >= exact && got < exact + s.value_error() + 1e-12,
                "p={p}: got {got}, exact {exact}, bound {}",
                s.value_error()
            );
        }
    }

    #[test]
    fn censoring_blocks_extrapolation_and_advice_falls_back() {
        let mut s = cpu();
        s.insert(2.0);
        s.insert(3.0);
        for _ in 0..8 {
            s.insert_censored();
        }
        assert_eq!(s.total(), 10);
        // Rank 1..=2 is observed; deeper ranks are censored mass.
        assert!(s.quantile(0.2).is_some());
        assert_eq!(s.quantile(0.5), None);
        // Advice falls back to the maximum explored level.
        assert_eq!(s.advice_level(0.5), Some(3.0));
    }

    #[test]
    fn merge_is_exact_and_rejects_mismatches() {
        let mut a = cpu();
        let mut b = cpu();
        a.insert(1.0);
        a.insert_censored();
        b.insert(9.0);
        b.insert(2.0);
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), 4);
        assert_eq!(ab.max_observed(), Some(9.0));
        let mem = QuantileSketch::for_resource(Resource::Memory);
        assert!(a.merge(&mem).is_err());
    }

    #[test]
    fn merge_into_empty_adopts_the_maximum() {
        let mut empty = cpu();
        let mut b = cpu();
        b.insert(4.5);
        empty.merge(&b).unwrap();
        assert_eq!(empty.max_observed(), Some(4.5));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut s = cpu();
        for l in [0.0, 0.01, 3.3, 9.99, 10.0] {
            s.insert(l);
        }
        s.insert_censored();
        let line = s.encode();
        assert!(!line.contains(char::is_whitespace));
        let back = QuantileSketch::decode(&line).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.encode(), line);
        // Empty sketch too.
        let e = cpu();
        assert_eq!(QuantileSketch::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn decode_rejects_garbage_and_truncations() {
        let mut s = cpu();
        s.insert(5.0);
        s.insert(7.5);
        let line = s.encode();
        for cut in 0..line.len() {
            assert!(
                QuantileSketch::decode(&line[..cut]).is_err(),
                "prefix {:?} decoded",
                &line[..cut]
            );
        }
        for bad in [
            "",
            "q2;0;10;4;0;0;0;",
            "q1;0;10;4;0;0;0",           // 7 fields
            "q1;0;0;4;0;0;0;",           // empty domain
            "q1;0;10;0;0;0;0;",          // zero bins
            "q1;0;10;99999999;0;0;0;",   // absurd bins
            "q1;0;10;4;1;0;0;",          // sum mismatch
            "q1;0;10;4;1;0;11;0:1",      // max outside domain
            "q1;0;10;4;0;0;3;",          // empty sketch with max != lo
            "q1;0;10;4;2;0;9;1:1,1:1",   // non-increasing indices
            "q1;0;10;4;1;0;9;9:1",       // index out of range
            "q1;0;10;4;1;0;9;3:0",       // zero-count bin
            "q1;nan;10;4;0;0;0;",        // non-finite domain
            "q1;0;10;4;0;x;0;",          // garbled count
        ] {
            assert!(QuantileSketch::decode(bad).is_err(), "{bad:?} decoded");
        }
    }

    #[test]
    fn eval_is_exact_at_grid_points() {
        let mut s = QuantileSketch::new(0.0, 10.0, 10);
        for l in [0.5, 1.0, 1.5, 7.0] {
            s.insert(l);
        }
        // Grid point 1.0 covers levels in (0,1]: 0.5 and 1.0.
        assert_eq!(s.eval(1.0), 0.5);
        assert_eq!(s.eval(10.0), 1.0);
        assert_eq!(s.eval(0.0), 0.0);
    }

    #[test]
    fn non_finite_inserts_are_clamped_deterministically() {
        let mut s = cpu();
        s.insert(f64::INFINITY);
        s.insert(f64::NEG_INFINITY);
        assert_eq!(s.observed(), 2);
        assert_eq!(s.max_observed(), Some(10.0));
        let line = s.encode();
        assert_eq!(QuantileSketch::decode(&line).unwrap(), s);
    }

    #[test]
    fn delta_advances_base_to_target_exactly() {
        let mut base = cpu();
        base.insert(1.0);
        base.insert(4.5);
        base.insert_censored();
        let mut target = base.clone();
        target.insert(4.5);
        target.insert(9.0);
        target.insert_censored();
        let delta = target.delta_since(&base).unwrap();
        assert!(!delta.is_noop());
        assert!(delta.changed_bins() >= 1);
        let mut applied = base.clone();
        applied.apply_delta(&delta).unwrap();
        assert_eq!(applied, target);
        assert_eq!(applied.encode(), target.encode());
    }

    #[test]
    fn delta_roundtrips_through_text_including_noop() {
        let mut base = cpu();
        base.insert(2.0);
        let mut target = base.clone();
        target.insert(7.7);
        let delta = target.delta_since(&base).unwrap();
        let line = delta.encode();
        assert!(!line.contains(char::is_whitespace));
        let back = SketchDelta::decode(&line).unwrap();
        assert_eq!(back, delta);
        assert_eq!(back.encode(), line);
        // The no-op delta (polling an unchanged model) roundtrips too.
        let noop = target.delta_since(&target).unwrap();
        assert!(noop.is_noop());
        let back = SketchDelta::decode(&noop.encode()).unwrap();
        let mut applied = target.clone();
        applied.apply_delta(&back).unwrap();
        assert_eq!(applied, target);
    }

    #[test]
    fn delta_rejects_non_ancestor_bases() {
        let mut a = cpu();
        a.insert(1.0);
        let mut b = cpu();
        b.insert(9.0);
        // a is not an ancestor of b: a's bin for 1.0 would shrink.
        assert!(b.delta_since(&a).is_err());
        // Mismatched configuration fails on either side.
        let mem = QuantileSketch::for_resource(Resource::Memory);
        assert!(b.delta_since(&mem).is_err());
        let mut m = mem.clone();
        let d = b.delta_since(&cpu()).unwrap();
        assert!(m.apply_delta(&d).is_err());
    }

    #[test]
    fn apply_rejects_deltas_from_a_different_base_without_mutating() {
        let mut real_base = cpu();
        real_base.insert(3.0);
        real_base.insert(3.0);
        let mut target = real_base.clone();
        target.insert(6.0);
        let delta = target.delta_since(&real_base).unwrap();
        // A client whose cache diverged (same config, different counts)
        // must not silently adopt the delta.
        let mut other = cpu();
        other.insert(3.0);
        let snapshot = other.clone();
        assert!(other.apply_delta(&delta).is_err());
        assert_eq!(other, snapshot, "failed apply must leave the base untouched");
    }

    #[test]
    fn delta_decode_rejects_garbage_and_truncations() {
        let mut base = cpu();
        base.insert(1.0);
        let mut target = base.clone();
        target.insert(2.0);
        target.insert(8.0);
        let line = target.delta_since(&base).unwrap().encode();
        for cut in 0..line.len() {
            assert!(
                SketchDelta::decode(&line[..cut]).is_err(),
                "prefix {:?} decoded",
                &line[..cut]
            );
        }
        for bad in [
            "",
            "q1;0;10;4;0;0;1;0;5;0:1",      // sketch tag, not delta tag
            "qd2;0;10;4;0;0;1;0;5;0:1",     // unknown version
            "qd1;0;10;4;0;0;1;0;5",         // 9 fields
            "qd1;0;0;4;0;0;1;0;0;0:1",      // empty domain
            "qd1;0;10;0;0;0;1;0;5;0:1",     // zero bins
            "qd1;0;10;4;0;0;1;0;11;0:1",    // max outside domain
            "qd1;0;10;4;0;0;1;0;5;9:1",     // index out of range
            "qd1;0;10;4;0;0;1;0;5;0:0",     // zero-growth bin
            "qd1;0;10;4;0;0;2;0;5;1:1,1:1", // non-increasing indices
            "qd1;0;10;4;0;0;1;0;5;0:2",     // growth above observed growth
            "qd1;0;10;4;0;0;2;0;5;0:1",     // growth below observed growth
            "qd1;0;10;4;2;0;1;0;5;",        // shrinking observed total
            "qd1;nan;10;4;0;0;1;0;5;0:1",   // non-finite domain
            "qd1;0;10;4;x;0;1;0;5;0:1",     // garbled count
        ] {
            assert!(SketchDelta::decode(bad).is_err(), "{bad:?} decoded");
        }
    }
}
