//! Aggregate bandwidth and request-level simulation of the multi-title
//! server.
//!
//! The Delay Guaranteed algorithm's bandwidth is *deterministic*: streams
//! start on the slot grid whether or not clients arrived, so a title's
//! steady-state load is a fixed periodic profile (period `F_h` slots): the
//! `periodic` field of the same
//! [`steady_state_bandwidth`](sm_online::capacity::steady_state_bandwidth)
//! analysis whose `peak` the planner budgets. The aggregate load of a
//! catalog is the phase-aligned sum of those profiles on a common minute
//! grid — [`aggregate_profile`] computes it and shows the planned worst
//! case (`Σ` per-title peaks) is honored, usually with slack (titles do not
//! peak simultaneously).
//!
//! [`simulate_requests`] drives Zipf-popular Poisson requests against the
//! plan: every request is served at its title's next slot boundary, so the
//! wait is bounded by the planned per-title delay and **no request is ever
//! declined** — the §5 claim, observable in the report.
//!
//! ```
//! use sm_server::{aggregate_profile, plan_weighted, simulate_requests, Catalog};
//!
//! let catalog = Catalog::zipf(2, 1.0, &[60.0]);
//! let plan = plan_weighted(&catalog, u64::MAX, &[2.0, 5.0]).unwrap();
//! // The measured aggregate peak honors the planned worst case…
//! let agg = aggregate_profile(&catalog, &plan, 300);
//! assert!(agg.peak <= plan.total_peak);
//! // …and five hours of Poisson requests are all admitted.
//! let report = simulate_requests(&catalog, &plan, 300.0, 1.0, 7);
//! assert_eq!(report.declined, 0);
//! assert!(report.max_wait <= 5.0 + 1e-9);
//! ```

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::catalog::Catalog;
use crate::memo::PlannerMemo;
use crate::planner::DelayPlan;

/// Minute-grained aggregate load of a planned catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateReport {
    /// Concurrent streams per minute over the horizon.
    pub per_minute: Vec<u64>,
    /// Maximum aggregate concurrent streams observed.
    pub peak: u64,
    /// Average aggregate concurrent streams.
    pub average: f64,
}

/// Sums the per-title periodic DG profiles over `horizon_minutes`, with all
/// titles phase-aligned at minute 0 (the conservative alignment; servers may
/// stagger phases to do even better).
pub fn aggregate_profile(
    catalog: &Catalog,
    plan: &DelayPlan,
    horizon_minutes: u64,
) -> AggregateReport {
    assert_eq!(plan.delays_minutes.len(), catalog.len());
    assert!(horizon_minutes > 0);
    // A fresh memo analyzes each distinct media length once; titles that
    // share a length share its analysis, and each reads one period of its
    // profile.
    let memo = PlannerMemo::new();
    let analyses: Vec<_> = catalog
        .titles()
        .iter()
        .zip(&plan.delays_minutes)
        .map(|(t, &d)| (d, memo.steady(t.media_len(d))))
        .collect();
    let mut per_minute = vec![0u64; horizon_minutes as usize];
    for (m, slot_count) in per_minute.iter_mut().enumerate() {
        for (delay, steady) in &analyses {
            let profile = &steady.periodic;
            let slot = (m as f64 / delay).floor() as usize;
            *slot_count += profile[slot % profile.len()] as u64;
        }
    }
    let peak = per_minute.iter().copied().max().unwrap_or(0);
    let average = per_minute.iter().map(|&c| c as f64).sum::<f64>() / per_minute.len() as f64;
    AggregateReport {
        per_minute,
        peak,
        average,
    }
}

/// Outcome of a request-level simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestReport {
    /// Requests served.
    pub served: u64,
    /// Requests declined — always 0 under DG (§5), kept explicit.
    pub declined: u64,
    /// Mean wait until playback, in minutes.
    pub mean_wait: f64,
    /// Largest wait observed, in minutes.
    pub max_wait: f64,
    /// The planned popularity-weighted delay bound `Σ p_i · D_i`.
    pub expected_delay_bound: f64,
    /// Requests per title.
    pub per_title: Vec<u64>,
}

/// Simulates Poisson requests (`rate_per_minute` total) with popularity
/// proportional to the catalog weights, served by the planned per-title DG
/// grids. Every request waits for its title's next slot boundary.
pub fn simulate_requests(
    catalog: &Catalog,
    plan: &DelayPlan,
    horizon_minutes: f64,
    rate_per_minute: f64,
    seed: u64,
) -> RequestReport {
    assert!(horizon_minutes > 0.0 && rate_per_minute > 0.0);
    assert_eq!(plan.delays_minutes.len(), catalog.len());
    let probs = catalog.probabilities();
    // Title CDF for sampling.
    let mut cdf = Vec::with_capacity(probs.len());
    let mut acc = 0.0;
    for p in &probs {
        acc += p;
        cdf.push(acc);
    }
    *cdf.last_mut().expect("non-empty catalog") = 1.0;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut served = 0u64;
    let mut wait_sum = 0.0f64;
    let mut max_wait = 0.0f64;
    let mut per_title = vec![0u64; catalog.len()];
    loop {
        let u: f64 = rng.random();
        t += -(1.0_f64 - u).ln() / rate_per_minute;
        if t > horizon_minutes {
            break;
        }
        let v: f64 = rng.random();
        let title = cdf.partition_point(|&c| c < v).min(cdf.len() - 1);
        let d = plan.delays_minutes[title];
        // Next slot boundary of this title's grid.
        let wait = ((t / d).ceil() * d - t).max(0.0);
        debug_assert!(wait <= d + 1e-9);
        served += 1;
        per_title[title] += 1;
        wait_sum += wait;
        if wait > max_wait {
            max_wait = wait;
        }
    }
    RequestReport {
        served,
        declined: 0,
        mean_wait: if served > 0 {
            wait_sum / served as f64
        } else {
            0.0
        },
        max_wait,
        expected_delay_bound: plan.expected_delay,
        per_title,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Title};
    use crate::planner::plan_weighted;

    fn catalog() -> Catalog {
        Catalog::new(vec![
            Title {
                name: "hit".into(),
                duration_minutes: 100.0,
                weight: 4.0,
            },
            Title {
                name: "tail".into(),
                duration_minutes: 80.0,
                weight: 1.0,
            },
        ])
    }

    #[test]
    fn aggregate_peak_within_planned_worst_case() {
        let catalog = catalog();
        let plan = plan_weighted(&catalog, u64::MAX, &[2.0, 5.0]).unwrap();
        let agg = aggregate_profile(&catalog, &plan, 2_000);
        assert!(
            agg.peak <= plan.total_peak,
            "{} > {}",
            agg.peak,
            plan.total_peak
        );
        assert!(agg.average <= agg.peak as f64);
        assert!(agg.peak > 0);
    }

    #[test]
    fn no_request_is_declined_and_waits_are_bounded() {
        let catalog = catalog();
        let plan = plan_weighted(&catalog, u64::MAX, &[1.0, 2.0, 5.0]).unwrap();
        let report = simulate_requests(&catalog, &plan, 1_000.0, 3.0, 11);
        assert_eq!(report.declined, 0);
        assert!(report.served > 2_000);
        let max_delay = plan.delays_minutes.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(report.max_wait <= max_delay + 1e-9);
        assert!(report.mean_wait <= report.max_wait);
    }

    #[test]
    fn popular_title_draws_more_requests() {
        let catalog = catalog();
        let plan = plan_weighted(&catalog, u64::MAX, &[1.0]).unwrap();
        let report = simulate_requests(&catalog, &plan, 5_000.0, 2.0, 3);
        // Weights 4:1 — the hit should see roughly 4x the tail's requests.
        let ratio = report.per_title[0] as f64 / report.per_title[1] as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mean_wait_is_about_half_the_uniform_delay() {
        // Single title, delay D: Poisson arrivals wait U(0, D) on average
        // D/2.
        let one = Catalog::new(vec![Title {
            name: "solo".into(),
            duration_minutes: 60.0,
            weight: 1.0,
        }]);
        let plan = plan_weighted(&one, u64::MAX, &[4.0]).unwrap();
        let report = simulate_requests(&one, &plan, 20_000.0, 1.0, 5);
        assert!(
            (report.mean_wait - 2.0).abs() < 0.1,
            "mean {}",
            report.mean_wait
        );
    }
}
