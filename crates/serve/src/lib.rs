#![forbid(unsafe_code)]
//! The serving layer: a push-based, never-declining ingest loop over
//! per-title incremental engines behind one shared channel budget.
//!
//! Where `sm-sim` answers "what does this forest cost?" for a workload
//! that already happened, this crate runs the serving side as it would
//! run in production: arrivals are *generated on a separate thread*, flow
//! through the bounded [`sm_core::pipeline`] channel (so workload
//! generation is backpressured by ingest, never the other way around),
//! and hit the server one at a time.
//!
//! # The serving-layer contract
//!
//! ```text
//!  producer thread                        ingest (caller's thread)
//!  ┌──────────────────────────┐           ┌───────────────────────────────┐
//!  │ per-title Poisson batch  │  bounded  │ for each (time, title):       │
//!  │ runs, k-way merged by    │  channel  │   1. join the title's pending │
//!  │ sm_core::merge_runs      ├──────────▶│      group, or                │
//!  │ (time, then title index) │           │   2. plan a service slot      │
//!  └──────────────────────────┘           │      against the shared       │
//!                                         │      budget (delay, never     │
//!                                         │      decline),                │
//!                                         │   3. consult the title's      │
//!                                         │      IncrementalPolicy,       │
//!                                         │   4. push into the title's    │
//!                                         │      IncrementalEngine        │
//!                                         └───────────────────────────────┘
//! ```
//!
//! The paper's §5 server **never declines a request**: under a fixed
//! channel budget it plans a *start-up delay* for each arrival instead.
//! This crate implements exactly that regime — the earlier license-gating
//! loop (admit or decline against a `max_active` gauge) is gone, and
//! overload now shows up as added start-up delay against the guarantee,
//! never as a rejection. Three invariants define the contract:
//!
//! 1. **Zero rejections.** Every generated arrival is served;
//!    [`MultiServeReport::rejected`] is structurally zero and kept in the
//!    report as the observable form of the invariant.
//! 2. **Budget safety.** With [`MultiServeConfig::budget`] set to `b`, at
//!    most `b` full-length streams are live at any instant, across *all*
//!    titles. The planner tracks one min-heap of **license chains** —
//!    disjoint timelines of full streams scheduled back to back. A new
//!    group either finds a free chain slot or pops the chain that frees
//!    earliest and is planned at that chain's end. A root verdict then
//!    extends the popped chain with the group's full stream; a merge
//!    verdict opens no full stream and puts the popped chain back, since
//!    the chain's own stream is still live until its end. Chains never
//!    overlap internally and their count never exceeds `b`, so live full
//!    streams ≤ chains ≤ `b` — audited at every root decision by the
//!    `delay_planning` property test. As under the prior gauge, truncated
//!    merge streams ride the margin: the budget prices full-length
//!    streams, the dominating cost.
//! 3. **Delay before policy.** The service slot is planned *before* the
//!    title's merge policy decides root-or-merge, so an arrival is
//!    delayed exactly when the old loop would have declined it — the
//!    decision boundary is unchanged, only the verdict differs. At an
//!    unbounded budget every delay is zero, and a one-title run is
//!    bit-identical to the license-gating loop with the gauge disabled
//!    (pinned by property test).
//!
//! Arrival times are continuous (Poisson) and are floored onto the
//! integer slot grid the merge model works in. Arrivals no later than a
//! title's pending service slot join that group as zero-length streams
//! under its head — the paper's batching rule: everyone who shows up
//! while a stream is still pending rides it. Delays are measured in
//! slots, and one slot is the guaranteed start-up delay, so
//! [`DelayStats`] reads directly as "multiples of the guarantee".
//!
//! # Single-title quickstart
//!
//! One title is a one-entry catalog:
//!
//! ```
//! use sm_serve::{serve_multi, MultiServeConfig, TitleConfig};
//!
//! let config = MultiServeConfig::new(vec![TitleConfig::new(64, 2.0)], 400.0);
//! let report = serve_multi(&config).unwrap();
//! assert_eq!(report.rejected, 0);
//! assert_eq!(report.served, report.generated);
//! assert_eq!(report.delay.max_slots, 0, "unbounded budget: no delay");
//! ```
//!
//! # Multi-title quickstart
//!
//! Two titles share a four-channel budget; title 1 runs the Delay
//! Guaranteed template instead of the default dyadic merger:
//!
//! ```
//! use sm_serve::{serve_multi, MultiServeConfig, PolicyKind, TitleConfig};
//!
//! let config = MultiServeConfig {
//!     budget: Some(4),
//!     ..MultiServeConfig::new(
//!         vec![
//!             TitleConfig::new(64, 2.0),
//!             TitleConfig {
//!                 policy: PolicyKind::DelayGuaranteed,
//!                 ..TitleConfig::new(32, 3.0)
//!             },
//!         ],
//!         600.0,
//!     )
//! };
//! let report = serve_multi(&config).unwrap();
//! assert_eq!(report.rejected, 0, "delay replaces rejection");
//! assert_eq!(report.served, report.generated);
//! assert_eq!(report.titles.len(), 2);
//! for title in &report.titles {
//!     assert_eq!(title.served, title.generated);
//! }
//! ```

use std::fmt;

use sm_sim::{IngestError, SimError};

mod multi;

pub use multi::{
    serve_multi, serve_multi_with, MultiServeConfig, MultiServeReport, PolicyKind, TitleConfig,
    TitleReport,
};

/// Largest accepted horizon: keeps `t.floor() as i64` exact (every f64
/// below this is integer-representable in i64) and batch counts sane.
const MAX_HORIZON: f64 = 1e15;

/// Wall-clock ingest cost, in nanoseconds.
///
/// The ingest loop reads the clock once per pipeline batch, not per push,
/// and times only one engine push in 64 (push 0 included) into a
/// fixed-size log-bucket histogram. The percentiles therefore describe
/// that 1-in-64 sample, each read as its bucket's upper edge — at most
/// 6.25% above the sampled value — and `max_ns` is the worst *sampled*
/// push. `mean_ns` is not sampled: it is the total batch wall time
/// divided by the arrivals served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Median sampled push latency.
    pub p50_ns: u64,
    /// 90th-percentile sampled push latency.
    pub p90_ns: u64,
    /// 99th-percentile sampled push latency.
    pub p99_ns: u64,
    /// Worst sampled push, exact.
    pub max_ns: u64,
    /// Amortized mean — total batch ingest time over served arrivals.
    pub mean_ns: u64,
}

/// log2 of the sub-buckets per power of two in [`LatencyHistogram`].
const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two: a bucket spans at most 1/16 of its lower
/// edge, so its upper edge overstates any member by at most 6.25%.
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Values below `2 · SUB_BUCKETS` get one exact bucket each, and every
/// power of two from there to `2^63` adds `SUB_BUCKETS` more.
const LATENCY_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// Fixed-size log-linear latency histogram over the whole `u64` range:
/// one 7.8 KiB table whatever the run length, and percentiles with no
/// sample storage and no sort.
#[derive(Debug, Clone)]
pub(crate) struct LatencyHistogram {
    counts: Box<[u64]>,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; LATENCY_BUCKETS].into_boxed_slice(),
            total: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Bucket of `ns`: exact below 32; above, the power of two's group
    /// plus the four bits after the leading one.
    fn bucket(ns: u64) -> usize {
        let shift = (63 - (ns | 1).leading_zeros()).saturating_sub(SUB_BITS);
        shift as usize * SUB_BUCKETS + (ns >> shift) as usize
    }

    /// Largest value that lands in bucket `idx`.
    fn upper_edge(idx: usize) -> u64 {
        let shift = (idx / SUB_BUCKETS).saturating_sub(1);
        let lead = (idx - shift * SUB_BUCKETS) as u64;
        (lead << shift) + ((1u64 << shift) - 1)
    }

    pub(crate) fn record(&mut self, ns: u64) {
        if let Some(count) = self.counts.get_mut(Self::bucket(ns)) {
            *count += 1;
        }
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// The value at quantile `q` under [`DelayHistogram`]'s rank
    /// convention, read as its bucket's upper edge capped at the exact
    /// maximum.
    fn quantile(&self, q: f64) -> u64 {
        let rank = ((self.total.saturating_sub(1)) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                return Self::upper_edge(idx).min(self.max);
            }
        }
        self.max
    }

    /// The sampled percentiles plus the amortized mean `batch_ns /
    /// served`; all zeros when nothing was sampled.
    pub(crate) fn stats(&self, batch_ns: u64, served: usize) -> LatencyStats {
        if self.total == 0 {
            return LatencyStats::default();
        }
        LatencyStats {
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            max_ns: self.max,
            mean_ns: batch_ns / served.max(1) as u64,
        }
    }
}

/// Planned start-up delay distribution, in slots. One slot *is* the
/// guaranteed start-up delay, so every field reads directly as a multiple
/// of the guarantee; an unbounded budget reports all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayStats {
    /// Median planned delay.
    pub p50_slots: u64,
    /// 99th-percentile planned delay.
    pub p99_slots: u64,
    /// Worst planned delay.
    pub max_slots: u64,
    /// Mean planned delay.
    pub mean_slots: f64,
}

/// Exact delay tally: delays are small integers (bounded by how long a
/// license chain can run ahead), so a dense count vector gives exact
/// percentiles with no per-arrival sample storage and no end-of-run sort
/// — the growth is amortized out by the worst delay seen, not by the
/// arrival count.
#[derive(Debug, Clone, Default)]
pub(crate) struct DelayHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl DelayHistogram {
    pub(crate) fn record(&mut self, delay_slots: u64) {
        let idx = delay_slots as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.total += 1;
        self.sum += delay_slots;
    }

    /// Folds `other` into `self` (used for the all-titles aggregate).
    pub(crate) fn absorb(&mut self, other: &Self) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The value at quantile `q`: the sample at index `round((n − 1)·q)`
    /// of the sorted sequence.
    fn quantile(&self, q: f64) -> u64 {
        let rank = ((self.total.saturating_sub(1)) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (value, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                return value as u64;
            }
        }
        self.max()
    }

    fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| i as u64)
            .unwrap_or(0)
    }

    pub(crate) fn stats(&self) -> DelayStats {
        if self.total == 0 {
            return DelayStats::default();
        }
        DelayStats {
            p50_slots: self.quantile(0.50),
            p99_slots: self.quantile(0.99),
            max_slots: self.max(),
            mean_slots: self.sum as f64 / self.total as f64,
        }
    }
}

/// A serving run could not start or had to stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A [`MultiServeConfig`] field is out of range.
    Config {
        /// Which field.
        field: &'static str,
        /// What it must satisfy.
        reason: &'static str,
    },
    /// The merge policy named a parent outside the title's open tree —
    /// a policy contract violation, never reachable with the built-in
    /// policies.
    PolicyDesync {
        /// Title-wide group index of the arrival being placed.
        node: usize,
        /// The out-of-tree parent it named.
        parent: usize,
    },
    /// The engine rejected a push mid-run.
    Ingest(IngestError),
    /// The final drain hit a simulation-model violation.
    Sim(SimError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config { field, reason } => write!(f, "invalid serve config {field}: {reason}"),
            Self::PolicyDesync { node, parent } => {
                write!(f, "policy placed node {node} under unknown parent {parent}")
            }
            Self::Ingest(e) => write!(f, "{e}"),
            Self::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IngestError> for ServeError {
    fn from(e: IngestError) -> Self {
        Self::Ingest(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = ServeError::Config {
            field: "horizon",
            reason: "must be finite, positive, and at most 1e15",
        };
        assert_eq!(
            e.to_string(),
            "invalid serve config horizon: must be finite, positive, and at most 1e15"
        );
        let d = ServeError::PolicyDesync { node: 4, parent: 9 };
        assert_eq!(d.to_string(), "policy placed node 4 under unknown parent 9");
    }

    #[test]
    fn delay_histogram_percentiles_are_exact() {
        let mut h = DelayHistogram::default();
        for d in [0u64, 0, 0, 1, 1, 2, 5, 5, 9, 40] {
            h.record(d);
        }
        let s = h.stats();
        // Sorted sample: ranks follow round((n−1)·q), half away from zero.
        assert_eq!(s.p50_slots, 2);
        assert_eq!(s.p99_slots, 40);
        assert_eq!(s.max_slots, 40);
        assert!((s.mean_slots - 6.3).abs() < 1e-12);

        let mut other = DelayHistogram::default();
        other.record(100);
        h.absorb(&other);
        assert_eq!(h.stats().max_slots, 100);
        assert_eq!(DelayHistogram::default().stats(), DelayStats::default());
    }

    #[test]
    fn latency_buckets_tile_the_u64_range_in_order() {
        // Every bucket's upper edge maps back to it, the next value opens
        // the next bucket, and the last bucket ends at u64::MAX — so the
        // round trip holds across every power of two.
        for idx in 0..LATENCY_BUCKETS {
            let upper = LatencyHistogram::upper_edge(idx);
            assert_eq!(LatencyHistogram::bucket(upper), idx, "upper edge {upper}");
            if idx + 1 < LATENCY_BUCKETS {
                assert_eq!(LatencyHistogram::bucket(upper + 1), idx + 1, "past {upper}");
            }
        }
        assert_eq!(LatencyHistogram::upper_edge(LATENCY_BUCKETS - 1), u64::MAX);
        for v in 0..32 {
            assert_eq!(LatencyHistogram::upper_edge(LatencyHistogram::bucket(v)), v);
        }
    }

    #[test]
    fn latency_bucket_error_is_at_most_one_sixteenth() {
        for e in 0..64u32 {
            let p = 1u64 << e;
            for v in [p - 1, p, p + 1, p + p / 3, p | (p - 1)] {
                let upper = LatencyHistogram::upper_edge(LatencyHistogram::bucket(v));
                assert!(upper >= v, "upper edge {upper} below {v}");
                assert!(
                    u128::from(upper - v) * 16 <= u128::from(v),
                    "{v} read as {upper}: more than 1/16 high"
                );
            }
        }
    }

    #[test]
    fn latency_stats_read_the_sampled_histogram() {
        // An empty run reports all zeros.
        assert_eq!(
            LatencyHistogram::default().stats(0, 0),
            LatencyStats::default()
        );
        // One sample: every percentile is that sample, exactly.
        let mut one = LatencyHistogram::default();
        one.record(1_234);
        assert_eq!(
            one.stats(5_000, 1),
            LatencyStats {
                p50_ns: 1_234,
                p90_ns: 1_234,
                p99_ns: 1_234,
                max_ns: 1_234,
                mean_ns: 5_000,
            }
        );
        // Many samples: each percentile lies within 1/16 above the exact
        // rank's value, the max is exact, and the mean is batch time over
        // served arrivals, not an average of the samples.
        let mut h = LatencyHistogram::default();
        for v in 1..=1000u64 {
            h.record(v * 37);
        }
        let s = h.stats(640_000, 64_000);
        for (got, q) in [(s.p50_ns, 0.50f64), (s.p90_ns, 0.90), (s.p99_ns, 0.99)] {
            let exact = ((999.0 * q).round() as u64 + 1) * 37;
            assert!(
                got >= exact && (got - exact) * 16 <= exact,
                "q = {q}: {got} vs exact {exact}"
            );
        }
        assert_eq!(s.max_ns, 37_000);
        assert_eq!(s.mean_ns, 10);
    }
}
