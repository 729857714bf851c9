//! Stream lengths and costs (paper §2, Lemmas 1–2; §3.4, Lemmas 17–18).
//!
//! In the receive-two model a non-root stream `x` with parent `p(x)` and
//! last subtree arrival `z(x)` must run for exactly
//!
//! ```text
//! ℓ(x) = 2·z(x) − x − p(x)          (Lemma 1)
//!       = (z(x) − x) + (z(x) − p(x))
//! ```
//!
//! slots; in the receive-all model only `ω(x) = z(x) − p(x)` (Lemma 17).
//! The *merge cost* of a tree is the sum of non-root lengths, and the *full
//! cost* of a forest with `s` trees adds `s·L` for the roots.

use crate::forest::MergeForest;
use crate::time::TimeScalar;
use crate::tree::MergeTree;

/// Per-node stream lengths in the receive-two model (Lemma 1).
///
/// `times[i]` is the arrival time of local node `i`; entry 0 (the root) is
/// reported as `T::zero()` — the root's length is the media length `L`,
/// which the tree does not know.
///
/// # Panics
/// Panics if `times.len() != tree.len()`.
pub fn lengths<T: TimeScalar>(tree: &MergeTree, times: &[T]) -> Vec<T> {
    assert_eq!(
        times.len(),
        tree.len(),
        "arrival slice must match tree size"
    );
    let mut out = Vec::with_capacity(tree.len());
    out.push(T::zero());
    for x in 1..tree.len() {
        let p = tree.parent(x).expect("non-root has a parent");
        let z = tree.last_descendant(x);
        // ℓ(x) = (z − x) + (z − p): kept in two differences so the formula
        // is exact for i64 and numerically stable for f64.
        out.push((times[z] - times[x]) + (times[z] - times[p]));
    }
    out
}

/// Per-node stream lengths in the receive-all model (Lemma 17):
/// `ω(x) = z(x) − p(x)`.
///
/// # Panics
/// Panics if `times.len() != tree.len()`.
pub fn receive_all_lengths<T: TimeScalar>(tree: &MergeTree, times: &[T]) -> Vec<T> {
    assert_eq!(
        times.len(),
        tree.len(),
        "arrival slice must match tree size"
    );
    let mut out = Vec::with_capacity(tree.len());
    out.push(T::zero());
    for x in 1..tree.len() {
        let p = tree.parent(x).expect("non-root has a parent");
        let z = tree.last_descendant(x);
        out.push(times[z] - times[p]);
    }
    out
}

/// `Mcost(T)`: the sum of non-root stream lengths (receive-two).
pub fn merge_cost<T: TimeScalar>(tree: &MergeTree, times: &[T]) -> T {
    lengths(tree, times)
        .into_iter()
        .skip(1)
        .fold(T::zero(), |acc, l| acc + l)
}

/// `Mcost_ω(T)`: the sum of non-root stream lengths (receive-all).
pub fn receive_all_merge_cost<T: TimeScalar>(tree: &MergeTree, times: &[T]) -> T {
    receive_all_lengths(tree, times)
        .into_iter()
        .skip(1)
        .fold(T::zero(), |acc, l| acc + l)
}

/// `Fcost(F) = s·L + Σ Mcost(Tᵢ)`: total server bandwidth of a forest, in
/// slot-units, for media length `media_len` slots (receive-two).
pub fn full_cost<T: TimeScalar>(forest: &MergeForest, times: &[T], media_len: u64) -> T {
    forest_cost_with(forest, times, media_len, merge_cost)
}

/// Receive-all analogue of [`full_cost`] (`Fcost_ω`, §3.4).
pub fn receive_all_full_cost<T: TimeScalar>(
    forest: &MergeForest,
    times: &[T],
    media_len: u64,
) -> T {
    forest_cost_with(forest, times, media_len, receive_all_merge_cost)
}

fn forest_cost_with<T: TimeScalar>(
    forest: &MergeForest,
    times: &[T],
    media_len: u64,
    tree_cost: impl Fn(&MergeTree, &[T]) -> T,
) -> T {
    assert_eq!(
        times.len(),
        forest.total_arrivals(),
        "arrival slice must match forest size"
    );
    let mut total = T::zero();
    for (range, tree) in forest.iter_with_ranges() {
        total = total + T::from_slots(media_len) + tree_cost(tree, &times[range]);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::consecutive_slots;

    fn fig4() -> MergeTree {
        MergeTree::from_parents(&[
            None,
            Some(0),
            Some(0),
            Some(0),
            Some(3),
            Some(0),
            Some(5),
            Some(5),
        ])
        .unwrap()
    }

    #[test]
    fn fig3_stream_lengths() {
        // Paper, Fig. 3 (L = 15, n = 8): stream F runs 9 slots; H runs 2;
        // the full length table of the concrete diagram.
        let t = fig4();
        let times = consecutive_slots(8);
        let l = lengths(&t, &times);
        assert_eq!(l, vec![0, 1, 2, 5, 1, 9, 1, 2]);
    }

    #[test]
    fn fig4_merge_cost_is_21() {
        let t = fig4();
        let times = consecutive_slots(8);
        assert_eq!(merge_cost(&t, &times), 21);
    }

    #[test]
    fn lemma1_leaf_case() {
        // For a leaf, ℓ(x) = x − p(x).
        let t = MergeTree::star(5);
        let times = consecutive_slots(5);
        assert_eq!(lengths(&t, &times), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lemma2_recursive_decomposition() {
        // Mcost(T) = Mcost(T') + Mcost(T'') + (2z − x − r) where x is the
        // last child of the root. Verify on Fig. 4: T' = first 5 arrivals,
        // T'' = last 3, x = 5, z = 7, r = 0 -> 21 = 9 + 3 + 9.
        let t = fig4();
        let times = consecutive_slots(8);
        let t1 = MergeTree::from_parents(&[None, Some(0), Some(0), Some(0), Some(3)]).unwrap();
        let t2 = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let m1 = merge_cost(&t1, &consecutive_slots(5));
        let m2 = merge_cost(&t2, &consecutive_slots(3));
        assert_eq!(m1, 9);
        assert_eq!(m2, 3);
        assert_eq!(merge_cost(&t, &times), m1 + m2 + (2 * 7 - 5));
    }

    #[test]
    fn costs_respect_general_times() {
        // A chain 0 -> 1 -> 2 over non-uniform times.
        let t = MergeTree::chain(3);
        let times = [0i64, 3, 4];
        // ℓ(1) = 2z(1)−1·t1−t0 with z(1)=2: (4−3)+(4−0) = 5; ℓ(2) = 4−3 = 1.
        assert_eq!(lengths(&t, &times), vec![0, 5, 1]);
        assert_eq!(merge_cost(&t, &times), 6);
    }

    #[test]
    fn continuous_times_match_integer_times() {
        let t = fig4();
        let int_times = consecutive_slots(8);
        let f_times: Vec<f64> = int_times.iter().map(|&x| x as f64).collect();
        let li = merge_cost(&t, &int_times);
        let lf = merge_cost(&t, &f_times);
        assert!((lf - li as f64).abs() < 1e-12);
    }

    #[test]
    fn receive_all_lengths_lemma17() {
        // ω(x) = z(x) − p(x); on Fig. 4: ω(5) = 7 − 0 = 7 (vs ℓ(5) = 9).
        let t = fig4();
        let times = consecutive_slots(8);
        let w = receive_all_lengths(&t, &times);
        assert_eq!(w, vec![0, 1, 2, 4, 1, 7, 1, 2]);
        assert_eq!(receive_all_merge_cost(&t, &times), 18);
    }

    #[test]
    fn receive_all_never_exceeds_receive_two() {
        let trees = [fig4(), MergeTree::chain(8), MergeTree::star(8)];
        let times = consecutive_slots(8);
        for t in &trees {
            let two = lengths(t, &times);
            let all = receive_all_lengths(t, &times);
            for (a, b) in all.iter().zip(two.iter()) {
                assert!(a <= b);
            }
        }
    }

    #[test]
    fn full_cost_fig3_example() {
        // Paper: for L = 15, n = 8 the single-tree forest has
        // Fcost = 1·L + Mcost(T) = 15 + 21 = 36.
        let forest = MergeForest::single(fig4());
        let times = consecutive_slots(8);
        assert_eq!(full_cost(&forest, &times, 15), 36);
    }

    #[test]
    fn full_cost_two_trees() {
        // Paper: L = 15, n = 14 optimal has two trees of 7 arrivals,
        // Fcost = 2·15 + 17 + 17 = 64. Check the arithmetic with explicit
        // optimal 7-trees: (0 (1) (2) (3 (4)) (5 (6))) has cost 17.
        let t7 =
            MergeTree::from_parents(&[None, Some(0), Some(0), Some(0), Some(3), Some(0), Some(5)])
                .unwrap();
        assert_eq!(merge_cost(&t7, &consecutive_slots(7)), 17);
        let forest = MergeForest::from_trees(vec![t7.clone(), t7]).unwrap();
        let times = consecutive_slots(14);
        assert_eq!(full_cost(&forest, &times, 15), 64);
    }

    #[test]
    #[should_panic]
    fn mismatched_times_panic() {
        let t = fig4();
        let _ = lengths(&t, &consecutive_slots(7));
    }
}
