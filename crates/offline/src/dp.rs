//! `O(n²)` dynamic programs for the delay-guaranteed merge cost — the
//! baseline implied by the general solution of \[6\] (Eq. (5) of the paper):
//!
//! ```text
//! M(1) = 0,   M(n) = min_{1 ≤ h ≤ n−1} { M(h) + M(n−h) + 2n − h − 2 }
//! ```
//!
//! where `h` is the arrival that merges *last* into the root. These routines
//! exist to certify the closed forms (`closed_form`, `tree_builder`): the
//! tests check the two against each other, and the `tables` and `fig8`
//! experiments check their printed closed-form values against the DPs.

use sm_core::MergeTree;

/// `M(1..=n)` by the recurrence of Eq. (5). `table[i]` is `M(i)`;
/// `table[0]` is 0 by convention.
pub fn merge_cost_table(n: usize) -> Vec<u64> {
    let mut m = vec![0u64; n + 1];
    for i in 2..=n {
        m[i] = (1..i)
            .map(|h| m[h] + m[i - h] + (2 * i - h - 2) as u64)
            .min()
            .expect("i >= 2 has at least one split");
    }
    m
}

/// `I(n)`: the set of arrivals that can be the last merge into the root of
/// an *optimal* tree (Eq. (8)), computed by brute force from the DP table.
///
/// Returns the set as a sorted `Vec` (the paper proves it is an interval;
/// tests assert contiguity rather than assuming it).
///
/// # Panics
/// Panics if `n < 2` (a single arrival has no last merge).
pub fn last_merge_set(n: usize) -> Vec<usize> {
    assert!(n >= 2, "I(n) is defined for n >= 2");
    let m = merge_cost_table(n);
    let best = m[n];
    (1..n)
        .filter(|&h| m[h] + m[n - h] + (2 * n - h - 2) as u64 == best)
        .collect()
}

/// An optimal merge tree for `n` consecutive arrivals extracted from the DP
/// (always choosing the largest optimal split, mirroring
/// `tree_builder::optimal_merge_tree`'s use of `r(i) = max I(i)`).
///
/// `O(n²)` time — use `tree_builder::optimal_merge_tree` for the paper's
/// `O(n)` construction; this one certifies it.
pub fn optimal_tree_dp(n: usize) -> MergeTree {
    assert!(n >= 1);
    let m = merge_cost_table(n);
    // best_split[i] = max argmin_h for i arrivals.
    let mut best_split = vec![0usize; n + 1];
    for i in 2..=n {
        let mut best = u64::MAX;
        let mut arg = 1;
        for h in 1..i {
            let c = m[h] + m[i - h] + (2 * i - h - 2) as u64;
            if c <= best {
                best = c;
                arg = h;
            }
        }
        best_split[i] = arg;
    }
    let mut parents: Vec<Option<usize>> = vec![None; n];
    fill(&mut parents, 0, n, &best_split);
    MergeTree::from_parents(&parents).expect("DP construction is structurally valid")
}

fn fill(parents: &mut [Option<usize>], start: usize, n: usize, best_split: &[usize]) {
    if n <= 1 {
        return;
    }
    let h = best_split[n];
    fill(parents, start, h, best_split);
    fill(parents, start + h, n - h, best_split);
    parents[start + h] = Some(start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{consecutive_slots, merge_cost};

    #[test]
    fn paper_table_of_mn() {
        // §3.1: n = 1..16 -> 0 1 3 6 9 13 17 21 26 31 36 41 46 52 58 64.
        let expect = [
            0u64, 0, 1, 3, 6, 9, 13, 17, 21, 26, 31, 36, 41, 46, 52, 58, 64,
        ];
        let table = merge_cost_table(16);
        assert_eq!(table, expect);
    }

    #[test]
    fn last_merge_sets_small() {
        // Fig. 8 first rows: I(2)={1}, I(3)={2}, I(4)={2,3}, I(5)={3},
        // I(6)={3,4}, I(7)={4,5}, I(8)={5}.
        assert_eq!(last_merge_set(2), vec![1]);
        assert_eq!(last_merge_set(3), vec![2]);
        assert_eq!(last_merge_set(4), vec![2, 3]);
        assert_eq!(last_merge_set(5), vec![3]);
        assert_eq!(last_merge_set(6), vec![3, 4]);
        assert_eq!(last_merge_set(7), vec![4, 5]);
        assert_eq!(last_merge_set(8), vec![5]);
    }

    #[test]
    fn last_merge_sets_are_intervals() {
        // Theorem 3 asserts I(n) is an interval; the DP should agree.
        for n in 2..=200 {
            let set = last_merge_set(n);
            for w in set.windows(2) {
                assert_eq!(w[1], w[0] + 1, "I({n}) is not contiguous: {set:?}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index parallels the math
    fn dp_tree_cost_matches_table() {
        let table = merge_cost_table(60);
        for n in 1..=60 {
            let tree = optimal_tree_dp(n);
            assert_eq!(tree.len(), n);
            assert!(tree.has_preorder_property(), "n = {n}");
            let times = consecutive_slots(n);
            assert_eq!(merge_cost(&tree, &times) as u64, table[n], "n = {n}");
        }
    }

    #[test]
    fn fibonacci_tree_for_8_matches_fig4() {
        let t = optimal_tree_dp(8);
        assert_eq!(t.to_sexpr(), "(0 (1) (2) (3 (4)) (5 (6) (7)))");
    }

    #[test]
    fn dp_trees_for_fig7_sizes_are_fibonacci_trees() {
        // Fig. 7: merge costs of the unique optimal trees for n = 3,5,8,13
        // are 3, 9, 21, 46.
        let costs = [(3usize, 3u64), (5, 9), (8, 21), (13, 46)];
        let table = merge_cost_table(13);
        for (n, c) in costs {
            assert_eq!(table[n], c, "M({n})");
        }
    }

    #[test]
    #[should_panic]
    fn last_merge_set_rejects_n1() {
        let _ = last_merge_set(1);
    }
}
