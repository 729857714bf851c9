//! Cross-epoch planner memo: one shared cache of the Delay Guaranteed
//! steady-state analysis.
//!
//! Every expensive per-title computation in this crate is a deterministic
//! function of the title's **media length** alone: the planner reads the
//! `peak` of [`steady_state_bandwidth`] and the admission layer reads its
//! `periodic` profile. Catalogs overlap heavily in practice — epochs
//! share titles, different titles share durations, and different
//! `(duration, delay)` pairs collide on the same media length — so
//! re-deriving that analysis per epoch (or per run, or per layer) stamps
//! the same schedule over and over.
//!
//! [`PlannerMemo`] is a cheaply cloneable handle (an `Arc` around the
//! cache) that callers thread through
//! [`plan_weighted_with`](crate::planner::plan_weighted_with),
//! [`simulate_dynamic_with`](crate::dynamic::simulate_dynamic_with) / the
//! sequential spine (`crate::dynamic`, via
//! [`DynamicConfig`](crate::dynamic::DynamicConfig)), and
//! [`aggregate_profile_with`](crate::admission::aggregate_profile_with):
//! each distinct media length is analyzed **once per memo lifetime**, and
//! the planner and the admission layer share that one analysis. The
//! [`seed`](PlannerMemo::seed) bulk stage shards the analyses across
//! threads with [`parallel_map`] — and only analyzes lengths the memo has
//! not seen — while point lookups go through [`peak`](PlannerMemo::peak) /
//! [`steady`](PlannerMemo::steady).
//!
//! Because the cached function is pure, a memo-carrying run is
//! **bit-identical** to a memo-free one (pinned by proptest in
//! `crates/server/tests/proptests.rs`); the memo only changes how often the
//! analysis executes, which the [`hits`](PlannerMemo::hits) /
//! [`misses`](PlannerMemo::misses) counters make observable (and
//! `benches/scale.rs` records in `BENCH_scale.json` as `memo_hits`).
//!
//! ```
//! use sm_server::{plan_weighted_with, Catalog, PlannerMemo};
//!
//! let memo = PlannerMemo::new();
//! let catalog = Catalog::zipf(4, 1.0, &[90.0, 120.0]);
//! let first = plan_weighted_with(&catalog, u64::MAX, &[2.0, 5.0], &memo).unwrap();
//! let analyses_after_first = memo.misses();
//! // Re-planning the same catalog is served entirely from the memo…
//! let second = plan_weighted_with(&catalog, u64::MAX, &[2.0, 5.0], &memo).unwrap();
//! assert_eq!(first, second);
//! assert_eq!(memo.misses(), analyses_after_first);
//! assert!(memo.hits() > 0);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sm_core::parallel_map;
use sm_online::capacity::{steady_state_bandwidth, SteadyStateBandwidth};

/// Shared, thread-safe cache of per-media-length steady-state analyses.
///
/// Cloning is cheap and shares the underlying cache, so one handle can be
/// threaded through the planner (on the dynamic pipeline's producer thread),
/// the admission layer, and across whole simulation runs. Every cached
/// value is a pure function of the media length, so sharing never changes
/// any result — only how often the analysis runs.
#[derive(Debug, Clone, Default)]
pub struct PlannerMemo {
    inner: Arc<MemoInner>,
}

#[derive(Debug, Default)]
struct MemoInner {
    /// `media_len → steady_state_bandwidth(media_len)`.
    analyses: Mutex<HashMap<u64, Arc<SteadyStateBandwidth>>>,
    /// Lookups served from the cache.
    hits: AtomicU64,
    /// Fresh analyses executed (bulk seeding counts each newly analyzed
    /// length once).
    misses: AtomicU64,
}

impl PlannerMemo {
    /// An empty memo: every length is analyzed on first demand.
    pub fn new() -> Self {
        Self::default()
    }

    fn analyses(&self) -> MutexGuard<'_, HashMap<u64, Arc<SteadyStateBandwidth>>> {
        self.inner.analyses.lock().expect("planner memo poisoned")
    }

    fn count_misses(&self, n: u64) {
        self.inner.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads `media_len`'s analysis through `read`, analyzing it on first
    /// demand. A hit runs `read` under the lock on the cached entry.
    fn lookup<T>(&self, media_len: u64, read: impl Fn(&Arc<SteadyStateBandwidth>) -> T) -> T {
        if let Some(s) = self.analyses().get(&media_len) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return read(s);
        }
        // Analyze outside the lock: concurrent callers may race to compute
        // the same (pure, deterministic) value, never a different one.
        let s = Arc::new(steady_state_bandwidth(media_len));
        self.count_misses(1);
        read(self.analyses().entry(media_len).or_insert(s))
    }

    /// The steady-state Delay Guaranteed peak for `media_len`, computed on
    /// first demand and cached thereafter. A hit allocates nothing.
    pub fn peak(&self, media_len: u64) -> u32 {
        self.lookup(media_len, |s| s.peak)
    }

    /// The whole steady-state analysis for `media_len` (the admission
    /// layer reads its `periodic` profile), cached behind an `Arc` so
    /// repeated titles share one allocation.
    pub fn steady(&self, media_len: u64) -> Arc<SteadyStateBandwidth> {
        self.lookup(media_len, Arc::clone)
    }

    /// Bulk-seeds the cache: dedups `lens`, drops every length the memo
    /// has already seen, and analyzes the remainder across threads with
    /// [`parallel_map`]. The planner calls this before its greedy
    /// relaxation and the admission layer before it sums profiles, so the
    /// expensive analyses shard while the callers themselves stay
    /// sequential (and bit-identical).
    pub fn seed(&self, mut lens: Vec<u64>) {
        lens.sort_unstable();
        lens.dedup();
        {
            let cache = self.analyses();
            lens.retain(|l| !cache.contains_key(l));
        }
        if lens.is_empty() {
            return;
        }
        let analyses = parallel_map(&lens, |&l| Arc::new(steady_state_bandwidth(l)));
        self.count_misses(lens.len() as u64);
        self.analyses().extend(lens.into_iter().zip(analyses));
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Fresh analyses executed so far.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct media lengths currently cached.
    pub fn distinct_lengths(&self) -> usize {
        self.analyses().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_uncached_analysis_and_counts_hits() {
        let memo = PlannerMemo::new();
        for l in [10u64, 50, 100, 50, 10] {
            assert_eq!(memo.peak(l), steady_state_bandwidth(l).peak);
        }
        assert_eq!(memo.misses(), 3, "three distinct lengths analyzed");
        assert_eq!(memo.hits(), 2, "two repeats served from the cache");
        assert_eq!(memo.distinct_lengths(), 3);
    }

    #[test]
    fn steady_matches_uncached_analysis_and_shares_the_allocation() {
        let memo = PlannerMemo::new();
        let a = memo.steady(40);
        assert_eq!(*a, steady_state_bandwidth(40));
        let b = memo.steady(40);
        assert!(Arc::ptr_eq(&a, &b), "repeat lookups share one allocation");
        assert_eq!(memo.peak(40), a.peak, "peak reads the same entry");
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.misses(), 1);
    }

    #[test]
    fn seeding_skips_lengths_already_seen() {
        let memo = PlannerMemo::new();
        memo.seed(vec![20, 30, 20, 30]);
        assert_eq!(memo.misses(), 2, "duplicates dedup before analysis");
        memo.seed(vec![30, 40]);
        assert_eq!(memo.misses(), 3, "only the unseen length is analyzed");
        assert_eq!(memo.peak(40), steady_state_bandwidth(40).peak);
        assert_eq!(memo.hits(), 1);
        memo.seed(vec![20, 25]);
        memo.seed(vec![25]);
        assert_eq!(memo.misses(), 4, "four distinct lengths, four analyses");
        assert_eq!(memo.distinct_lengths(), 4);
    }

    #[test]
    fn clones_share_the_caches() {
        let memo = PlannerMemo::new();
        let clone = memo.clone();
        clone.peak(60);
        assert_eq!(memo.misses(), 1);
        memo.peak(60);
        assert_eq!(memo.hits(), 1, "the clone's analysis serves the original");
        assert_eq!(clone.hits(), 1);
    }
}
