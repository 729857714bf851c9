//! Ratio tables behind Theorems 14, 19, 20 and 22 — the paper's analytic
//! comparisons rendered as data, each beside the bounds the paper proves
//! on its costs (Theorems 8, 13 and 21).

use sm_core::parallel_map;
use sm_offline::bounds;
use sm_offline::closed_form::ClosedForm;
use sm_offline::receive_all;
use sm_online::analysis;
use sm_online::delay_guaranteed::online_full_cost;

/// Theorem 19: `M(n)/Mω(n)` vs `n`, with the `log_φ 2` limit, and
/// Theorem 8's envelopes around `M(n)`.
#[derive(Debug, Clone, Copy)]
pub struct ModelRatioRow {
    /// Number of arrivals.
    pub n: u64,
    /// Theorem 8's lower envelope on `M(n)`: `n·log_φ n − (φ² + 1)·n`.
    pub m_two_lower: f64,
    /// Receive-two optimal merge cost.
    pub m_two: u64,
    /// Theorem 8's upper envelope on `M(n)`: `n·log_φ n`.
    pub m_two_upper: f64,
    /// Receive-all optimal merge cost.
    pub m_all: u64,
    /// The ratio.
    pub ratio: f64,
}

/// Computes Theorem 19 rows over a geometric `n` grid.
pub fn theorem19_rows() -> Vec<ModelRatioRow> {
    let cf = ClosedForm::new();
    let mut n = 16u64;
    let mut rows = Vec::new();
    while n <= 1u64 << 34 {
        let m_two = cf.merge_cost(n);
        let m_all = receive_all::merge_cost(n);
        rows.push(ModelRatioRow {
            n,
            m_two_lower: bounds::theorem8_lower(n),
            m_two,
            m_two_upper: bounds::theorem8_upper(n),
            m_all,
            ratio: m_two as f64 / m_all as f64,
        });
        n *= 16;
    }
    rows
}

/// Theorem 20: `F(L,n)/Fω(L,n)` at one `L` (with `n = 300·L`), beside
/// Theorem 13's principal term of `F(L,n)`.
#[derive(Debug, Clone, Copy)]
pub struct FullCostRatioRow {
    /// Media length `L`.
    pub media_len: u64,
    /// Receive-two optimal full cost `F(L,n)`.
    pub f_two: u64,
    /// Theorem 13's principal term of `F(L,n)`: `n·log_φ L`.
    pub principal: f64,
    /// Receive-all optimal full cost `Fω(L,n)`.
    pub f_all: u64,
    /// The ratio.
    pub ratio: f64,
}

/// Theorem 20 rows for growing `L`.
pub fn theorem20_rows() -> Vec<FullCostRatioRow> {
    let ls = [10u64, 100, 1_000, 10_000, 100_000];
    parallel_map(&ls, |&media_len| {
        let cf = ClosedForm::new();
        let n = media_len * 300;
        let f_two = sm_offline::forest::optimal_full_cost_with(&cf, media_len, n);
        let f_all = receive_all::optimal_full_cost(media_len, n);
        FullCostRatioRow {
            media_len,
            f_two,
            principal: bounds::theorem13_principal(media_len, n),
            f_all,
            ratio: f_two as f64 / f_all as f64,
        }
    })
}

/// Theorem 14: merging's advantage over plain batching, measured vs the
/// predicted `Θ(L/log L)`.
pub fn theorem14_rows() -> Vec<(u64, f64, f64)> {
    let ls = [10u64, 30, 100, 300, 1_000, 3_000, 10_000];
    parallel_map(&ls, |&media_len| {
        let cf = ClosedForm::new();
        let n = media_len * 100;
        (
            media_len,
            bounds::batching_gain(&cf, media_len, n),
            bounds::batching_gain_predicted(media_len),
        )
    })
}

/// Theorem 22: the competitive ratio at one `n`, against its `1 + 2L/n`
/// bound, beside the on-line cost and Theorem 21's upper bound on it.
#[derive(Debug, Clone, Copy)]
pub struct CompetitiveRow {
    /// Number of slots.
    pub n: u64,
    /// The on-line cost `A(L,n)`.
    pub online: u64,
    /// Theorem 21's upper bound on `A(L,n)`: `(s₁+1)·(L + M(F_h))`.
    pub online_upper: u64,
    /// The competitive ratio `A(L,n)/F(L,n)`.
    pub ratio: f64,
    /// Theorem 22's bound on the ratio, `1 + 2L/n`.
    pub bound: f64,
}

/// Theorem 22 rows for one `L` over a doubling `n` grid.
pub fn theorem22_rows(media_len: u64) -> Vec<CompetitiveRow> {
    let mut ns = Vec::new();
    let mut n = media_len * media_len + 3;
    for _ in 0..8 {
        ns.push(n);
        n *= 2;
    }
    parallel_map(&ns, |&n| {
        let online = online_full_cost(media_len, n);
        CompetitiveRow {
            n,
            online,
            online_upper: analysis::theorem21_upper(media_len, n),
            ratio: online as f64 / sm_offline::forest::optimal_full_cost(media_len, n) as f64,
            bound: analysis::theorem22_bound(media_len, n),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem19_ratio_monotone_toward_limit() {
        let rows = theorem19_rows();
        let limit = sm_fib::golden::receive_two_over_receive_all_limit();
        let last = rows.last().unwrap();
        assert!((last.ratio - limit).abs() < 0.03, "{}", last.ratio);
        // Theorem 8's envelopes, as the table prints them.
        for r in &rows {
            let m = r.m_two as f64;
            assert!(r.m_two_lower <= m && m <= r.m_two_upper, "{r:?}");
        }
    }

    #[test]
    fn theorem20_increasing_in_l() {
        let rows = theorem20_rows();
        for w in rows.windows(2) {
            assert!(w[1].ratio > w[0].ratio, "{:?}", rows);
        }
        // F(L,n) = n·log_φ L + Θ(n): on these rows F stays within 2n of
        // the principal term the table prints.
        for r in &rows {
            let n = 300.0 * r.media_len as f64;
            assert!((r.f_two as f64 - r.principal).abs() <= 2.0 * n, "{r:?}");
        }
    }

    #[test]
    fn theorem14_gain_grows() {
        let rows = theorem14_rows();
        for w in rows.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
        // The measured/predicted quotient stays bounded (constants hidden
        // in Θ).
        for (l, gain, pred) in rows {
            let q = gain / pred;
            assert!((0.2..5.0).contains(&q), "L = {l}: {q}");
        }
    }

    #[test]
    fn theorem22_bound_always_respected() {
        for r in theorem22_rows(15) {
            assert!(r.ratio <= r.bound + 1e-12, "n = {}", r.n);
            assert!(r.online <= r.online_upper, "{r:?}");
        }
    }
}
