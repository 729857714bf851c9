//! Deep-chain merge workloads — the adversarial shape for per-client
//! evaluation cost.
//!
//! Balanced (Delay Guaranteed / dyadic) merge trees give every client a
//! *logarithmic* root path, so per-client receiving programs are short. A
//! **chain** is the opposite extreme: client `k` merges through all `k` of
//! its predecessors, its receiving program has `k + 1` segments, and any
//! evaluator that is quadratic in segments blows up. The event engine
//! scores each client in `O(1)` from Lemma 1's closed forms, so this
//! workload checks that its cost does not grow with path length.
//!
//! Chains are not just adversarial, they are *feasible*: with consecutive
//! arrivals, Lemma 1 gives chain node `x` (0-based, chain length `c`) the
//! stream length `2(c − 1 − x) + 1`, and client `k`'s program takes parts
//! `[2(k − j), 2(k − j) + 1]` from ancestor `j ≥ 1` and parts `2k..=L` from
//! the root — every deadline is met exactly (zero slack) as long as
//! `L ≥ 2(c − 1)`. `max_feasible_chain` is that bound; the generator
//! tiles arrivals with chains of exactly that length.

use std::iter;

use sm_core::{consecutive_slots, MergeForest, MergeTree};

/// Longest chain feasible for media length `media_len` under consecutive
/// arrivals: `c = L/2 + 1`, from the root-segment condition `L ≥ 2(c − 1)`.
fn max_feasible_chain(media_len: u64) -> usize {
    (media_len / 2) as usize + 1
}

/// A forest of maximal-depth feasible merge chains over `n` consecutive
/// arrivals: every tree is a chain of `max_feasible_chain(media_len)`
/// arrivals (the last tree takes the remainder), paired with the matching
/// `consecutive_slots` arrival times. The full-length chain is built once
/// and every full tree is a handle to it.
///
/// The result always simulates cleanly, making it a drop-in stress shape
/// for benches and the equivalence suite.
///
/// # Panics
/// Panics if `n == 0`.
pub fn deep_chain_forest(n: usize, media_len: u64) -> (MergeForest, Vec<i64>) {
    assert!(n > 0, "need at least one arrival");
    let chain = max_feasible_chain(media_len);
    let (full, rest) = (n / chain, n % chain);
    let mut trees = Vec::with_capacity(n.div_ceil(chain));
    if full > 0 {
        trees.extend(iter::repeat_n(MergeTree::chain(chain), full));
    }
    if rest > 0 {
        trees.push(MergeTree::chain(rest));
    }
    let forest = MergeForest::from_trees(trees).expect("n > 0 arrivals");
    (forest, consecutive_slots(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_arrivals_into_maximal_chains() {
        let (forest, times) = deep_chain_forest(130, 100);
        // L = 100 → chains of 51: two full chains plus a 28-node remainder.
        assert_eq!(forest.sizes(), vec![51, 51, 28]);
        assert_eq!(times.len(), 130);
        assert_eq!(times, consecutive_slots(130));
    }

    #[test]
    fn shared_chains_equal_per_tree_construction() {
        // The pre-sharing construction: one freshly built chain per tree.
        fn per_tree(n: usize, media_len: u64) -> MergeForest {
            let chain = max_feasible_chain(media_len);
            let mut trees = Vec::new();
            let mut left = n;
            while left > 0 {
                let k = left.min(chain);
                trees.push(MergeTree::chain(k));
                left -= k;
            }
            MergeForest::from_trees(trees).unwrap()
        }
        for media_len in 0..=24u64 {
            for n in 1..=60usize {
                let (forest, _) = deep_chain_forest(n, media_len);
                assert_eq!(forest, per_tree(n, media_len), "n = {n}, L = {media_len}");
            }
        }
    }

    #[test]
    fn max_feasible_chain_bound() {
        assert_eq!(max_feasible_chain(0), 1);
        assert_eq!(max_feasible_chain(1), 1);
        assert_eq!(max_feasible_chain(2), 2);
        assert_eq!(max_feasible_chain(100), 51);
        assert_eq!(max_feasible_chain(101), 51);
    }

    #[test]
    fn deep_chains_simulate_cleanly_with_zero_slack() {
        for media in [2u64, 9, 40, 101] {
            let n = 3 * max_feasible_chain(media) + 1;
            let (forest, times) = deep_chain_forest(n, media);
            let report = sm_sim::simulate(&forest, &times, media)
                .unwrap_or_else(|e| panic!("L = {media}: {e}"));
            assert_eq!(report.clients.len(), n);
            for cr in &report.clients {
                assert!(cr.max_concurrent <= 2);
                // Chain programs are exactly tight: every non-root client's
                // first part from each ancestor arrives just in time.
                assert_eq!(cr.min_slack, 0, "client {} (L = {media})", cr.client);
            }
        }
    }

    #[test]
    fn one_longer_chain_is_infeasible() {
        // The L ≥ 2(c − 1) bound is exact: one more node and the root
        // segment of the last client starts past the media end.
        let media = 40u64;
        let c = max_feasible_chain(media) + 1;
        let forest = MergeForest::single(MergeTree::chain(c));
        let times = consecutive_slots(c);
        assert!(sm_sim::simulate(&forest, &times, media).is_err());
    }
}
