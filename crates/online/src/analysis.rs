//! Competitive analysis of the on-line algorithm (Theorems 21 and 22).
//!
//! Theorem 21: `A(L,n) = F(L,n,F_h) ≤ n·log_φ L + O(n + L·log_φ L)`.
//! Theorem 22: for `L ≥ 7` and `n > L² + 2`,
//! `A(L,n) / F(L,n) ≤ 1 + 2L/n` — so the on-line algorithm is
//! asymptotically optimal as the horizon grows.

/// Theorem 22's bound `1 + 2L/n`.
pub fn theorem22_bound(media_len: u64, n: u64) -> f64 {
    1.0 + 2.0 * media_len as f64 / n as f64
}

/// Whether the pair `(L, n)` lies in Theorem 22's hypothesis region.
pub fn theorem22_applies(media_len: u64, n: u64) -> bool {
    media_len >= 7 && n > media_len * media_len + 2
}

/// Theorem 21's explicit upper bound `(s₁+1)·(L + M(F_h))`.
pub fn theorem21_upper(media_len: u64, n: u64) -> u64 {
    let cf = sm_offline::closed_form::ClosedForm::new();
    let h = cf.fib().theorem12_h(media_len);
    let fh = cf.fib().get(h).max(1);
    (n / fh + 1) * (media_len + cf.merge_cost(fh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay_guaranteed::online_full_cost;
    use sm_offline::forest::optimal_full_cost;

    /// The measured competitive ratio `A(L,n) / F(L,n)`.
    fn competitive_ratio(media_len: u64, n: u64) -> f64 {
        online_full_cost(media_len, n) as f64 / optimal_full_cost(media_len, n) as f64
    }

    #[test]
    fn theorem22_holds_in_its_region() {
        for media_len in [7u64, 10, 15, 20] {
            let n0 = media_len * media_len + 3;
            for n in [n0, 2 * n0, 5 * n0 + 7] {
                assert!(theorem22_applies(media_len, n));
                let ratio = competitive_ratio(media_len, n);
                let bound = theorem22_bound(media_len, n);
                assert!(
                    ratio <= bound + 1e-12,
                    "L = {media_len}, n = {n}: {ratio} > {bound}"
                );
            }
        }
    }

    #[test]
    fn ratio_tends_to_one() {
        let media_len = 15u64;
        let mut prev = f64::INFINITY;
        for n in [300u64, 3_000, 30_000, 300_000] {
            let r = competitive_ratio(media_len, n);
            assert!(r >= 1.0 - 1e-12);
            assert!(
                r <= prev + 1e-9,
                "ratio must (weakly) improve: {r} > {prev}"
            );
            prev = r;
        }
        assert!(prev < 1.001, "ratio at n = 3·10⁵ should be ~1, got {prev}");
    }

    #[test]
    fn theorem21_upper_holds_broadly() {
        for media_len in [3u64, 7, 15, 100] {
            for n in [1u64, 10, 100, 1000, 12345] {
                assert!(
                    online_full_cost(media_len, n) <= theorem21_upper(media_len, n),
                    "L = {media_len}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn region_check() {
        assert!(!theorem22_applies(6, 1_000_000));
        assert!(!theorem22_applies(10, 102));
        assert!(theorem22_applies(10, 103));
    }
}
