//! Asymptotic envelopes from the paper (Theorems 8, 13, 14, 19, 20),
//! exposed as plain functions so tests and experiment annotations can
//! compare measured costs against the predicted growth.

use crate::closed_form::ClosedForm;
use crate::receive_all;
use sm_fib::log_phi;

/// Theorem 8 upper envelope: `M(n) ≤ n·log_φ n` (Eq. (9), for n ≥ 1).
pub fn theorem8_upper(n: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    n as f64 * log_phi(n as f64)
}

/// Theorem 8 lower envelope: `M(n) ≥ n·log_φ n − c·n` with `c = φ² + 1`
/// (Eq. (10)).
pub fn theorem8_lower(n: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let c = sm_fib::PHI * sm_fib::PHI + 1.0;
    n as f64 * log_phi(n as f64) - c * n as f64
}

/// Theorem 13 principal term: `F(L,n) = n·log_φ L + Θ(n)`.
pub fn theorem13_principal(media_len: u64, n: u64) -> f64 {
    if media_len <= 1 {
        return n as f64;
    }
    n as f64 * log_phi(media_len as f64)
}

/// Theorem 14: the advantage of stream merging over plain batching is
/// `Θ(L / log L)`; this returns the measured ratio `n·L / F(L,n)`.
pub fn batching_gain(cf: &ClosedForm, media_len: u64, n: u64) -> f64 {
    let batching = (n as u128 * media_len as u128) as f64;
    let merging = crate::forest::optimal_full_cost_with(cf, media_len, n) as f64;
    batching / merging
}

/// Theorem 14 predicted order of growth: `L / log_φ L`.
pub fn batching_gain_predicted(media_len: u64) -> f64 {
    if media_len <= 2 {
        return 1.0;
    }
    media_len as f64 / log_phi(media_len as f64)
}

/// Theorems 19/20 measured merge-cost ratio `M(n)/Mω(n)`.
pub fn receive_model_ratio(cf: &ClosedForm, n: u64) -> f64 {
    receive_all::merge_cost_ratio(cf, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem8_envelopes_hold() {
        let cf = ClosedForm::new();
        for exp in 1..=12u32 {
            let n = 7u64.pow(exp).min(10_000_000_000);
            let m = cf.merge_cost(n) as f64;
            assert!(m <= theorem8_upper(n) + 1e-6, "n = {n}");
            assert!(m >= theorem8_lower(n) - 1e-6, "n = {n}");
        }
    }

    #[test]
    fn theorem13_principal_tracks_measured() {
        let cf = ClosedForm::new();
        for media_len in [50u64, 200, 1000] {
            let n = media_len * 1000;
            let f = crate::forest::optimal_full_cost_with(&cf, media_len, n) as f64;
            let p = theorem13_principal(media_len, n);
            assert!((f / p - 1.0).abs() < 0.5, "L = {media_len}: {} vs {}", f, p);
        }
    }

    #[test]
    fn batching_gain_grows_like_l_over_log_l() {
        let cf = ClosedForm::new();
        let mut prev_ratio = 0.0;
        for media_len in [10u64, 100, 1000, 10_000] {
            let n = media_len * 100;
            let gain = batching_gain(&cf, media_len, n);
            let predicted = batching_gain_predicted(media_len);
            let ratio = gain / predicted;
            // The constant is implementation-defined but must stabilise.
            assert!((0.3..3.0).contains(&ratio), "L = {media_len}: {ratio}");
            assert!(gain > prev_ratio, "gain must grow with L");
            prev_ratio = gain;
        }
    }

    #[test]
    fn batching_never_beats_merging() {
        let cf = ClosedForm::new();
        for media_len in [2u64, 5, 20, 100] {
            for n in [1u64, 10, 100, 1000] {
                assert!(batching_gain(&cf, media_len, n) >= 1.0 - 1e-12);
            }
        }
    }
}
