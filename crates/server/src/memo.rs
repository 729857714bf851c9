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
//! [`plan_weighted_with`](crate::planner::plan_weighted_with) and
//! [`simulate_dynamic_with`](crate::dynamic::simulate_dynamic_with) (via
//! [`DynamicConfig`](crate::dynamic::DynamicConfig)): each distinct media
//! length is analyzed **once per memo lifetime**, on the calling thread,
//! under the memo's lock. The planner reads a whole row of peaks with one
//! [`peaks`](PlannerMemo::peaks) call, so a plan takes the lock once per
//! table rather than once per title; [`seed`](PlannerMemo::seed) analyzes
//! lengths ahead of their reads, and point lookups go through
//! [`peak`](PlannerMemo::peak) / [`steady`](PlannerMemo::steady). The map
//! hashes a length with one multiply instead of SipHash: its keys are
//! small integers the workspace computes itself.
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
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sm_online::capacity::{steady_state_bandwidth, SteadyStateBandwidth};

/// `media_len → steady_state_bandwidth(media_len)`.
type Analyses = HashMap<u64, Arc<SteadyStateBandwidth>, BuildHasherDefault<LengthHasher>>;

/// Hashes a `u64` media length with one widening multiply by an odd
/// constant, folding the product's halves together so that low and high
/// bits both depend on every bit of the key (lengths that are multiples of
/// a large power of two still spread over the buckets).
#[derive(Debug, Default)]
struct LengthHasher(u64);

impl Hasher for LengthHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(n ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    /// Only `u64` keys are hashed; other input folds in byte by byte.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

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
    analyses: Mutex<Analyses>,
    /// Lookups served from the cache.
    hits: AtomicU64,
    /// Fresh analyses executed.
    misses: AtomicU64,
}

impl PlannerMemo {
    /// An empty memo: every length is analyzed on first demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// The locked cache. An analysis runs under this lock, so a panicking
    /// one (say, of media length 0) poisons it; the map is still sound,
    /// because [`entry`](Self::entry) inserts nothing when its analysis
    /// panics, so later readers recover the guard and carry on.
    fn analyses(&self) -> MutexGuard<'_, Analyses> {
        self.inner
            .analyses
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn count_hits(&self, n: usize) {
        self.inner.hits.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `media_len`'s entry in the locked `cache`, analyzed on the calling
    /// thread (and counted as a miss once it completes) if the memo has
    /// not seen it. Holding the lock through the analysis makes a
    /// concurrent reader of the same length wait for it instead of
    /// repeating it.
    fn entry<'a>(&self, cache: &'a mut Analyses, media_len: u64) -> &'a Arc<SteadyStateBandwidth> {
        cache.entry(media_len).or_insert_with(|| {
            let analysis = Arc::new(steady_state_bandwidth(media_len));
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            analysis
        })
    }

    /// Reads `media_len`'s analysis through `read`, analyzing it on first
    /// demand; only a read of a length already cached counts as a hit.
    fn lookup<T>(&self, media_len: u64, read: impl Fn(&Arc<SteadyStateBandwidth>) -> T) -> T {
        let mut cache = self.analyses();
        if let Some(s) = cache.get(&media_len) {
            self.count_hits(1);
            return read(s);
        }
        read(self.entry(&mut cache, media_len))
    }

    /// The steady-state Delay Guaranteed peak for `media_len`, computed on
    /// first demand and cached thereafter. A hit allocates nothing.
    pub fn peak(&self, media_len: u64) -> u32 {
        self.lookup(media_len, |s| s.peak)
    }

    /// The steady-state peaks of `lens`, in order and duplicates included,
    /// read under one lock. It counts as a [`seed`](Self::seed) of `lens`
    /// followed by a [`peak`](Self::peak) of each: `misses` rises by the
    /// number of distinct lengths the memo had not seen, and `hits` by
    /// `lens.len()`.
    pub fn peaks(&self, lens: &[u64]) -> Vec<u32> {
        let mut cache = self.analyses();
        let peaks = lens
            .iter()
            .map(|&l| self.entry(&mut cache, l).peak)
            .collect();
        self.count_hits(lens.len());
        peaks
    }

    /// The whole steady-state analysis for `media_len` (the admission
    /// layer reads its `periodic` profile), cached behind an `Arc` so
    /// repeated titles share one allocation.
    pub fn steady(&self, media_len: u64) -> Arc<SteadyStateBandwidth> {
        self.lookup(media_len, Arc::clone)
    }

    /// Analyzes, on the calling thread, every length of `lens` the memo
    /// has not seen, each once, so that later reads of them are hits.
    pub fn seed(&self, lens: impl IntoIterator<Item = u64>) {
        let mut cache = self.analyses();
        for l in lens {
            self.entry(&mut cache, l);
        }
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
    fn batched_peaks_keep_order_and_duplicates_and_count_like_seed_then_peak() {
        let memo = PlannerMemo::new();
        memo.peak(7);
        let lens = [40, 7, 40, 12, 7, 25, 40];
        let want: Vec<u32> = lens
            .iter()
            .map(|&l| steady_state_bandwidth(l).peak)
            .collect();
        assert_eq!(memo.peaks(&lens), want, "input order, duplicates kept");
        assert_eq!(memo.misses(), 4, "7 was seen; 40, 12 and 25 were not");
        assert_eq!(memo.hits(), 7, "every length read counts, fresh ones too");
        assert_eq!(memo.peaks(&lens), want, "a warm read returns the same row");
        assert_eq!(memo.misses(), 4);
        assert_eq!(memo.hits(), 14);
        assert_eq!(memo.peaks(&[]), Vec::<u32>::new());
        assert_eq!(memo.hits(), 14);
        assert_eq!(memo.distinct_lengths(), 4);
    }

    #[test]
    fn lengths_that_are_multiples_of_large_powers_of_two_keep_their_entries() {
        // Multiples of 2^20 share their low twenty bits, so a hasher that
        // kept only the low bits of its product would send them all to one
        // bucket. Analyzing lengths this large takes seconds in a debug
        // build, so the entries are planted: each peak names its key.
        let memo = PlannerMemo::new();
        let keys: Vec<u64> = (1..=64u64).map(|k| k << 20).collect();
        memo.analyses().extend(keys.iter().map(|&l| {
            let peak = u32::try_from(l >> 20).unwrap();
            let planted = SteadyStateBandwidth {
                peak,
                average: 0.0,
                period: 1,
                periodic: vec![peak],
            };
            (l, Arc::new(planted))
        }));
        let lens: Vec<u64> = keys.iter().rev().chain(&keys[..8]).copied().collect();
        let want: Vec<u32> = lens
            .iter()
            .map(|&l| u32::try_from(l >> 20).unwrap())
            .collect();
        assert_eq!(memo.peaks(&lens), want);
        assert_eq!(memo.misses(), 0);
        assert_eq!(memo.hits(), 72);
        assert_eq!(memo.steady(5 << 20).periodic, vec![5]);
        let build = BuildHasherDefault::<LengthHasher>::default();
        let low_bytes: std::collections::HashSet<u64> = keys
            .iter()
            .map(|&l| std::hash::BuildHasher::hash_one(&build, l) & 0xff)
            .collect();
        assert!(
            low_bytes.len() > 32,
            "{} distinct low bytes",
            low_bytes.len()
        );
    }

    #[test]
    fn a_panicking_analysis_leaves_the_shared_memo_usable() {
        let memo = PlannerMemo::new();
        let clone = memo.clone();
        // Media length 0 has no Delay Guaranteed schedule: its analysis
        // panics under the lock, here on another thread, as it would in a
        // pipeline worker.
        let worker = std::thread::spawn(move || clone.peaks(&[40, 0]));
        assert!(worker.join().is_err(), "length 0 must panic");
        assert_eq!(memo.misses(), 1, "only the completed analysis counts");
        assert_eq!(memo.distinct_lengths(), 1, "the panicked one left no entry");
        assert_eq!(memo.peak(40), steady_state_bandwidth(40).peak);
        assert_eq!(memo.hits(), 1, "40 was kept from the panicked batch");
        assert!(std::panic::catch_unwind(|| memo.peak(0)).is_err());
        assert_eq!(memo.peaks(&[12, 40]).len(), 2);
        assert_eq!(memo.steady(12).peak, steady_state_bandwidth(12).peak);
        memo.seed([25]);
        assert_eq!(memo.misses(), 3);
        assert_eq!(memo.distinct_lengths(), 3);
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
