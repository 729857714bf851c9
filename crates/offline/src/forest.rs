//! Optimal merge forests: full cost `F(L,n,s)`, the optimal number of full
//! streams, and the `O(L+n)` forest construction (Lemma 9, Theorems 10 and
//! 12), plus the bounded-buffer variant of §3.3 (Theorem 16).
//!
//! Lemma 9: with `s` full streams and `n = p·s + r` (`0 ≤ r < s`),
//!
//! ```text
//! F(L, n, s) = s·L + r·M(p+1) + (s−r)·M(p)
//! ```
//!
//! — an optimal forest balances tree sizes to `p` and `p+1`. Theorem 12: the
//! minimizing `s` is `s₁ = ⌊n/F_h⌋` or `s₁+1`, where `F_{h+1} < L+2 ≤
//! F_{h+2}` (clamped below by `s₀ = ⌈n/L⌉`).

use std::iter;

use crate::closed_form::ClosedForm;
use crate::tree_builder::optimal_merge_tree_with;
use sm_core::{MergeForest, MergeTree};

/// A computed optimal (or constrained-optimal) forest plan.
#[derive(Debug, Clone)]
pub struct OptimalForestPlan {
    /// The forest itself (trees of `p`+1 arrivals first, then `p`). It
    /// holds two tree shapes and `s` handles to them, so its memory is
    /// `O(L + s)`, not `O(n)`.
    pub forest: MergeForest,
    /// Number of full streams `s`.
    pub s: u64,
    /// Full cost `F(L, n, s)` in slot-units.
    pub cost: u64,
}

/// `F(L, n, s)` by Lemma 9. Purely arithmetic — does not check that tree
/// sizes fit the media (`p ≤ L`).
pub fn full_cost_given_s(cf: &ClosedForm, media_len: u64, n: u64, s: u64) -> u64 {
    assert!(s >= 1 && s <= n, "need 1 <= s <= n (got s = {s}, n = {n})");
    let p = n / s;
    let r = n - p * s;
    s * media_len + r * cf.merge_cost(p + 1) + (s - r) * cf.merge_cost(p)
}

/// Whether `s` full streams yield feasible trees: every tree must satisfy
/// `span ≤ L − 1`, i.e. size ≤ `L`.
fn s_is_feasible(media_len: u64, n: u64, s: u64) -> bool {
    if s < 1 || s > n {
        return false;
    }
    let p = n / s;
    let r = n - p * s;
    let max_size = if r > 0 { p + 1 } else { p };
    max_size <= media_len
}

/// `s₀ = ⌈n/L⌉`: the minimum possible number of full streams.
fn min_streams(media_len: u64, n: u64) -> u64 {
    n.div_ceil(media_len)
}

/// Theorem 12: the optimal number of full streams for `n` arrivals and
/// media length `L`.
///
/// # Panics
/// Panics if `n == 0` or `media_len == 0`.
pub fn optimal_s(cf: &ClosedForm, media_len: u64, n: u64) -> u64 {
    assert!(n >= 1 && media_len >= 1);
    let h = cf.fib().theorem12_h(media_len);
    let fh = cf.fib().get(h);
    let s0 = min_streams(media_len, n);
    let s1 = n / fh;
    if s0 > s1 {
        // Theorem 12's proof shows s0 = s1 + 1 in this case.
        debug_assert_eq!(s0, s1 + 1);
        return s0;
    }
    let s1 = s1.max(1);
    if s1 >= n {
        return n;
    }
    let f_a = full_cost_given_s(cf, media_len, n, s1);
    let f_b = full_cost_given_s(cf, media_len, n, s1 + 1);
    // The paper's rule: "if the former value is smaller, then s1 minimizes
    // F(L,n,s), otherwise s1+1 does" — ties go to s1+1 (more, smaller trees).
    if f_a < f_b {
        s1
    } else {
        s1 + 1
    }
}

/// `F(L, n)`: the optimal full cost (Theorem 12 + Lemma 9), `O(1)` after
/// table setup.
pub fn optimal_full_cost_with(cf: &ClosedForm, media_len: u64, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    full_cost_given_s(cf, media_len, n, optimal_s(cf, media_len, n))
}

/// Convenience wrapper around [`optimal_full_cost_with`].
pub fn optimal_full_cost(media_len: u64, n: u64) -> u64 {
    optimal_full_cost_with(&ClosedForm::new(), media_len, n)
}

/// Builds an optimal merge forest for `n` consecutive arrivals (Theorem 10):
/// `r` trees of `p+1` arrivals followed by `s−r` trees of `p` arrivals,
/// each an optimal merge tree.
pub fn optimal_forest(media_len: u64, n: usize) -> OptimalForestPlan {
    let cf = ClosedForm::new();
    let s = optimal_s(&cf, media_len, n as u64);
    forest_with_s(&cf, media_len, n, s)
}

/// Builds the balanced forest for a *given* `s` (the placement step of
/// Theorem 10). Each of the two tree sizes is built once; the forest holds
/// `s` handles to those two shapes.
fn forest_with_s(cf: &ClosedForm, media_len: u64, n: usize, s: u64) -> OptimalForestPlan {
    assert!(s >= 1 && s <= n as u64);
    let forest = balanced_forest(n, s as usize, |size| optimal_merge_tree_with(cf, size));
    let cost = full_cost_given_s(cf, media_len, n as u64, s);
    OptimalForestPlan { forest, s, cost }
}

/// Theorem 10's placement: with `n = p·s + r` (`0 ≤ r < s`), `r` trees of
/// `p + 1` arrivals followed by `s − r` trees of `p`. `build` runs once per
/// distinct size, and every tree of that size is a handle to its shape.
pub(crate) fn balanced_forest(
    n: usize,
    s: usize,
    build: impl Fn(usize) -> MergeTree,
) -> MergeForest {
    let (p, r) = (n / s, n % s);
    let mut trees = Vec::with_capacity(s);
    if r > 0 {
        trees.extend(iter::repeat_n(build(p + 1), r));
    }
    trees.extend(iter::repeat_n(build(p), s - r));
    MergeForest::from_trees(trees).expect("s >= 1 trees")
}

/// Brute-force optimum over all feasible `s` — `O(n)` reference for tests.
pub fn brute_force_optimal_s(cf: &ClosedForm, media_len: u64, n: u64) -> (u64, u64) {
    assert!(n >= 1);
    let mut best = (u64::MAX, 0u64);
    for s in 1..=n {
        if !s_is_feasible(media_len, n, s) {
            continue;
        }
        let f = full_cost_given_s(cf, media_len, n, s);
        if f < best.0 {
            best = (f, s);
        }
    }
    (best.1, best.0)
}

// ---------------------------------------------------------------------------
// Bounded buffers (§3.3, Theorem 16)
// ---------------------------------------------------------------------------

/// The maximum tree size permitted by a client buffer bound `B`.
///
/// Lemma 15: a client at distance `d` from its root needs `min(d, L−d)`
/// parts. With consecutive arrivals every integer distance `0..size` occurs,
/// so a violating distance exists iff the open range `(B, L−B)` contains an
/// integer, i.e. `2B + 2 ≤ L`; in that case every distance must satisfy
/// `d ≤ B` and trees hold at most `B+1` arrivals. Otherwise (`B ≥ ⌈L/2⌉−1`
/// territory) Lemma 15 already caps every requirement at `⌊L/2⌋ ≤ B` and
/// only the span constraint (size ≤ `L`) remains.
pub fn max_tree_size_for_buffer(media_len: u64, buffer: u64) -> u64 {
    if 2 * buffer + 2 > media_len {
        media_len
    } else {
        buffer + 1
    }
}

/// Theorem 16: optimal full cost when clients can buffer at most `buffer`
/// parts. Returns `(s, cost)`.
///
/// The shape argument of Lemma 11 (non-increasing then non-decreasing in
/// `s`) makes the constrained optimum `max(s_unconstrained, ⌈n/size_cap⌉)`.
pub fn optimal_s_bounded_buffer(
    cf: &ClosedForm,
    media_len: u64,
    n: u64,
    buffer: u64,
) -> (u64, u64) {
    assert!(n >= 1);
    let cap = max_tree_size_for_buffer(media_len, buffer);
    let s_min = n.div_ceil(cap);
    let s_unc = optimal_s(cf, media_len, n);
    let s = s_unc.max(s_min);
    (s, full_cost_given_s(cf, media_len, n, s))
}

/// Builds the bounded-buffer optimal forest (Theorem 16).
pub fn optimal_forest_bounded_buffer(media_len: u64, n: usize, buffer: u64) -> OptimalForestPlan {
    let cf = ClosedForm::new();
    let (s, _) = optimal_s_bounded_buffer(&cf, media_len, n as u64, buffer);
    forest_with_s(&cf, media_len, n, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{consecutive_slots, full_cost, validate_forest, ValidationOptions};

    fn cf() -> ClosedForm {
        ClosedForm::new()
    }

    #[test]
    fn paper_example_l15_n8() {
        // §2: Fcost = 36 with s = 1.
        let cf = cf();
        assert_eq!(optimal_s(&cf, 15, 8), 1);
        assert_eq!(optimal_full_cost(15, 8), 36);
    }

    #[test]
    fn paper_example_l15_n14() {
        // §2: s = 2, Fcost = 30 + 17 + 17 = 64.
        let cf = cf();
        assert_eq!(optimal_s(&cf, 15, 14), 2);
        assert_eq!(optimal_full_cost(15, 14), 64);
        let plan = optimal_forest(15, 14);
        assert_eq!(plan.forest.sizes(), vec![7, 7]);
    }

    #[test]
    fn paper_example_l4_n16() {
        // §3.2 end: L = 4 -> h = 4, F_h = 3; n = 16 -> s0 = 4, s1 = 5,
        // F(L,n,4) = 40, F(L,n,5) = F(L,n,6) = 38.
        let cf = cf();
        assert_eq!(full_cost_given_s(&cf, 4, 16, 4), 40);
        assert_eq!(full_cost_given_s(&cf, 4, 16, 5), 38);
        assert_eq!(full_cost_given_s(&cf, 4, 16, 6), 38);
        // Both s1 = 5 and s1+1 = 6 are optimal; the paper's procedure (and
        // ours) settles ties in favour of s1+1.
        assert_eq!(optimal_s(&cf, 4, 16), 6);
        assert_eq!(optimal_full_cost(4, 16), 38);
    }

    #[test]
    fn extreme_cases_from_paper() {
        let cf = cf();
        // L = 1: every slot needs its own full stream; F = n.
        for n in 1..=50u64 {
            assert_eq!(optimal_s(&cf, 1, n), n);
            assert_eq!(optimal_full_cost(1, n), n);
        }
        // L = 2, n odd: s = ceil(n/2) is optimal (paper: s0 = s1+1 = n/2
        // rounded up).
        for n in (1..=49u64).step_by(2) {
            assert_eq!(optimal_s(&cf, 2, n), n.div_ceil(2));
        }
    }

    #[test]
    fn theorem12_matches_brute_force() {
        let cf = cf();
        for media_len in 1..=40u64 {
            for n in 1..=120u64 {
                let fast_s = optimal_s(&cf, media_len, n);
                let fast = full_cost_given_s(&cf, media_len, n, fast_s);
                let (_, slow) = brute_force_optimal_s(&cf, media_len, n);
                assert_eq!(fast, slow, "L = {media_len}, n = {n}");
                assert!(
                    s_is_feasible(media_len, n, fast_s),
                    "L = {media_len}, n = {n}, s = {fast_s}"
                );
            }
        }
    }

    #[test]
    fn forest_cost_matches_model_cost() {
        // The analytic Lemma-9 cost must equal the model-level Fcost of the
        // constructed forest.
        for (media_len, n) in [(15u64, 8usize), (15, 14), (4, 16), (10, 100), (8, 55)] {
            let plan = optimal_forest(media_len, n);
            let times = consecutive_slots(n);
            let model_cost = full_cost(&plan.forest, &times, media_len) as u64;
            assert_eq!(model_cost, plan.cost, "L = {media_len}, n = {n}");
        }
    }

    #[test]
    fn forests_validate_feasibility() {
        for (media_len, n) in [(15u64, 8usize), (15, 14), (4, 16), (10, 100), (100, 1000)] {
            let plan = optimal_forest(media_len, n);
            let times = consecutive_slots(n);
            validate_forest(
                &plan.forest,
                &times,
                media_len,
                ValidationOptions {
                    require_preorder: true,
                    buffer_bound: None,
                },
            )
            .unwrap_or_else(|e| panic!("L = {media_len}, n = {n}: {e}"));
        }
    }

    #[test]
    fn feasibility_sweep() {
        // The paper never states explicitly that the Lemma-9 optimum is
        // feasible (lengths ≤ L); sweep a broad (L, n) grid to confirm the
        // chosen s always yields trees whose streams fit the media.
        for media_len in 1..=40u64 {
            for n in 1..=150usize {
                let plan = optimal_forest(media_len, n);
                let times = consecutive_slots(n);
                validate_forest(
                    &plan.forest,
                    &times,
                    media_len,
                    ValidationOptions::default(),
                )
                .unwrap_or_else(|e| panic!("L = {media_len}, n = {n}: {e}"));
            }
        }
    }

    /// The pre-sharing construction of `plan`'s forest: each of its `s`
    /// trees built on its own by `optimal_merge_tree_with`.
    fn per_tree_forest(plan: &OptimalForestPlan, n: usize) -> MergeForest {
        let cf = cf();
        let s = plan.s as usize;
        let (p, r) = (n / s, n % s);
        let trees = (0..s)
            .map(|i| optimal_merge_tree_with(&cf, if i < r { p + 1 } else { p }))
            .collect();
        MergeForest::from_trees(trees).unwrap()
    }

    #[test]
    fn shared_shapes_equal_per_tree_construction() {
        for media_len in 1..=40u64 {
            for n in 1..=150usize {
                let plan = optimal_forest(media_len, n);
                assert_eq!(
                    plan.forest,
                    per_tree_forest(&plan, n),
                    "L = {media_len}, n = {n}"
                );
            }
        }
        for (n, buffer) in [(40usize, 3u64), (55, 5), (23, 2), (150, 0), (7, 9)] {
            let plan = optimal_forest_bounded_buffer(20, n, buffer);
            assert_eq!(
                plan.forest,
                per_tree_forest(&plan, n),
                "n = {n}, B = {buffer}"
            );
        }
    }

    #[test]
    fn balanced_sizes_differ_by_at_most_one() {
        for (media_len, n) in [(15u64, 37usize), (7, 100), (30, 64)] {
            let plan = optimal_forest(media_len, n);
            let sizes = plan.forest.sizes();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "L = {media_len}, n = {n}: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn bounded_buffer_never_cheaper_than_unbounded() {
        let cf = cf();
        for n in 1..=80u64 {
            let unb = optimal_full_cost(20, n);
            for buffer in 1..=10u64 {
                let (_, cost) = optimal_s_bounded_buffer(&cf, 20, n, buffer);
                assert!(cost >= unb, "n = {n}, B = {buffer}");
            }
        }
    }

    #[test]
    fn bounded_buffer_matches_brute_force() {
        let cf = cf();
        for n in 1..=60u64 {
            for buffer in 1..=9u64 {
                let media_len = 20u64;
                let cap = max_tree_size_for_buffer(media_len, buffer);
                // Brute force over s with the size cap.
                let mut best = u64::MAX;
                for s in 1..=n {
                    let p = n / s;
                    let r = n - p * s;
                    let max_size = if r > 0 { p + 1 } else { p };
                    if max_size <= cap {
                        best = best.min(full_cost_given_s(&cf, media_len, n, s));
                    }
                }
                let (_, cost) = optimal_s_bounded_buffer(&cf, media_len, n, buffer);
                assert_eq!(cost, best, "n = {n}, B = {buffer}");
            }
        }
    }

    #[test]
    fn bounded_forest_respects_buffer_bound() {
        for (n, buffer) in [(40usize, 3u64), (55, 5), (23, 2)] {
            let plan = optimal_forest_bounded_buffer(20, n, buffer);
            let times = consecutive_slots(n);
            validate_forest(
                &plan.forest,
                &times,
                20,
                ValidationOptions {
                    require_preorder: false,
                    buffer_bound: Some(buffer),
                },
            )
            .unwrap_or_else(|e| panic!("n = {n}, B = {buffer}: {e}"));
        }
    }

    #[test]
    fn theorem13_envelope() {
        // F(L,n) = n·log_φ(L) + Θ(n): sanity-check the growth for fixed L
        // across decades of n.
        let l = 100u64;
        for &n in &[10_000u64, 100_000, 1_000_000] {
            let f = optimal_full_cost(l, n) as f64;
            let predicted = n as f64 * sm_fib::log_phi(l as f64);
            let ratio = f / predicted;
            assert!(
                (0.5..2.0).contains(&ratio),
                "n = {n}: F = {f}, predicted {predicted}"
            );
        }
    }

    #[test]
    fn single_arrival() {
        let plan = optimal_forest(10, 1);
        assert_eq!(plan.s, 1);
        assert_eq!(plan.cost, 10);
        assert_eq!(optimal_full_cost(10, 0), 0);
    }
}
