//! Per-title guaranteed-delay planning under a peak-bandwidth budget.
//!
//! §5 of the paper observes that the Delay Guaranteed algorithm's bandwidth
//! is a deterministic, decreasing function of the delay, so a server with a
//! fixed channel budget can always buy feasibility with delay. With many
//! titles the interesting question is *how to split* the budget: giving
//! every title the same delay (the uniform planner,
//! `sm_experiments::server_exp::plan_uniform`) wastes channels on the long
//! tail. The weighted planner here assigns **per-title** delays minimizing
//! the popularity-weighted expected delay `Σ p_i · D_i` subject to
//! `Σ peak_i(D_i) ≤ budget` — a discrete water-filling: repeatedly push out
//! the delay of whichever title buys the most bandwidth per unit of
//! weighted-delay pain. The tests pin the greedy against an exhaustive
//! search on small instances.
//!
//! The expensive part — one steady-state Delay Guaranteed analysis per
//! distinct `(title, candidate-delay)` media length — goes through a
//! [`PlannerMemo`], which analyzes each length once per memo lifetime on
//! the calling thread. A plan reads its peaks in at most two batched memo
//! reads, one lock each: the first-candidate row, and only when that row
//! is over budget, the titles × candidates table. The greedy keeps a
//! running total and each title's next-move ratio, recomputing only the
//! ratio of the title it moved, so a relaxation step is one comparison
//! scan of the titles, and the plan is assembled from the tables it read.
//! [`plan_weighted`] uses a fresh memo per call;
//! [`plan_weighted_with`] threads a caller-owned memo through, so repeated
//! plans — the dynamic server re-planning overlapping catalogs every epoch
//! — pay for each distinct media length once per memo lifetime. In the
//! dynamic server this whole planner is additionally the *producer* stage
//! of the cross-epoch pipeline (see [`crate::dynamic`]): epochs plan here
//! in batches of 16, up to `plan_ahead` batches ahead of materialization.
//!
//! ```
//! use sm_server::{plan_weighted, Catalog};
//!
//! let catalog = Catalog::zipf(3, 1.0, &[90.0, 120.0]);
//! let cands = [1.0, 5.0, 20.0];
//! // A generous budget gives every title the smallest delay…
//! let generous = plan_weighted(&catalog, u64::MAX, &cands).unwrap();
//! assert!(generous.delays_minutes.iter().all(|&d| d == 1.0));
//! // …and squeezing the budget trades delay for bandwidth, never breaking
//! // the budget and never improving the expected delay.
//! let squeezed = plan_weighted(&catalog, generous.total_peak / 2, &cands).unwrap();
//! assert!(squeezed.total_peak <= generous.total_peak / 2);
//! assert!(squeezed.expected_delay >= generous.expected_delay);
//! ```

use crate::catalog::Catalog;
use crate::memo::PlannerMemo;

/// A per-title delay assignment and its verified bandwidth demand.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayPlan {
    /// Guaranteed delay per title, in minutes (same order as the catalog).
    pub delays_minutes: Vec<f64>,
    /// Steady-state DG peak per title, in concurrent streams.
    pub peaks: Vec<u32>,
    /// Sum of per-title peaks — the worst-case aggregate demand.
    pub total_peak: u64,
    /// The popularity-weighted expected guaranteed delay `Σ p_i · D_i`.
    pub expected_delay: f64,
}

/// Greedy weighted planner: starts every title at the smallest candidate
/// delay and repeatedly relaxes the title with the best
/// bandwidth-saved-per-weighted-delay ratio until the budget fits. Returns
/// `None` if even the largest delays exceed the budget.
///
/// `candidates_minutes` must be sorted ascending and non-empty.
pub fn plan_weighted(
    catalog: &Catalog,
    budget_streams: u64,
    candidates_minutes: &[f64],
) -> Option<DelayPlan> {
    plan_weighted_with(
        catalog,
        budget_streams,
        candidates_minutes,
        &PlannerMemo::new(),
    )
}

/// [`plan_weighted`] with a caller-owned [`PlannerMemo`]: every distinct
/// media length the plan needs is analyzed at most once per memo lifetime,
/// so re-planning overlapping catalogs (the dynamic server's epoch loop)
/// reuses earlier analyses instead of re-deriving them. The chosen plan is
/// **bit-identical** to [`plan_weighted`]'s — the memo caches pure
/// functions of the media length.
pub fn plan_weighted_with(
    catalog: &Catalog,
    budget_streams: u64,
    candidates_minutes: &[f64],
    memo: &PlannerMemo,
) -> Option<DelayPlan> {
    assert!(!candidates_minutes.is_empty());
    assert!(
        candidates_minutes.windows(2).all(|w| w[0] < w[1]),
        "candidate delays must be strictly ascending"
    );
    let titles = catalog.titles();
    let smallest = candidates_minutes[0];
    // Only the first-candidate row is read up front, which keeps the
    // common generous-budget case cheap; the full titles × candidates
    // table is read just before the greedy starts relaxing, when most of
    // it will be queried anyway.
    let lens: Vec<u64> = titles.iter().map(|t| t.media_len(smallest)).collect();
    let mut peaks = memo.peaks(&lens);
    let mut total: u64 = peaks.iter().map(|&p| u64::from(p)).sum();
    let mut delays = vec![smallest; titles.len()];
    let probs = catalog.probabilities();
    if total > budget_streams {
        let lens: Vec<u64> = titles
            .iter()
            .flat_map(|t| candidates_minutes.iter().map(|&d| t.media_len(d)))
            .collect();
        // Title-major: title `i` at candidate `k` is `table[i * c + k]`.
        let table = memo.peaks(&lens);
        let c = candidates_minutes.len();
        // Bandwidth saved per unit of weighted delay added by advancing
        // title `i` from candidate `k` to `k + 1`; `None` at the last one.
        let next_move = |i: usize, k: usize| {
            (k + 1 < c).then(|| {
                let saved = f64::from(table[i * c + k].saturating_sub(table[i * c + k + 1]));
                let pain = probs[i] * (candidates_minutes[k + 1] - candidates_minutes[k]);
                saved / pain
            })
        };
        // Each title's candidate and the ratio of its next move. A step
        // moves one title, so only that title's ratio is recomputed; the
        // scan below still visits every title in order under the same
        // `ratio > best` rule, so ties and NaN ratios resolve as in a scan
        // that recomputes every ratio.
        let mut moves: Vec<(usize, Option<f64>)> =
            (0..titles.len()).map(|i| (0, next_move(i, 0))).collect();
        while total > budget_streams {
            let mut best: Option<(usize, f64)> = None;
            for (i, &(_, ratio)) in moves.iter().enumerate() {
                let Some(ratio) = ratio else { continue };
                if best.map(|(_, r)| ratio > r).unwrap_or(true) {
                    best = Some((i, ratio));
                }
            }
            let (i, _) = best?; // no move left: budget unreachable
            let k = moves[i].0 + 1;
            total = total - u64::from(peaks[i]) + u64::from(table[i * c + k]);
            peaks[i] = table[i * c + k];
            delays[i] = candidates_minutes[k];
            moves[i] = (k, next_move(i, k));
        }
    }
    let expected_delay = probs
        .iter()
        .zip(&delays)
        .fold(0.0, |sum, (p, d)| sum + p * d);
    Some(DelayPlan {
        delays_minutes: delays,
        peaks,
        total_peak: total,
        expected_delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Title};
    use proptest::prelude::*;
    use sm_online::capacity::steady_state_bandwidth;

    /// The plan of `choice` (candidate indices, in title order), each peak
    /// read from `memo` on its own.
    fn build_plan(
        catalog: &Catalog,
        candidates: &[f64],
        choice: &[usize],
        probs: &[f64],
        memo: &PlannerMemo,
    ) -> DelayPlan {
        let mut delays = Vec::with_capacity(choice.len());
        let mut peaks = Vec::with_capacity(choice.len());
        let mut expected_delay = 0.0;
        for (i, (&c, title)) in choice.iter().zip(catalog.titles()).enumerate() {
            let d = candidates[c];
            delays.push(d);
            peaks.push(memo.peak(title.media_len(d)));
            expected_delay += probs[i] * d;
        }
        let total_peak = peaks.iter().map(|&p| p as u64).sum();
        DelayPlan {
            delays_minutes: delays,
            peaks,
            total_peak,
            expected_delay,
        }
    }

    /// Exhaustive optimal planner for small instances (`candidates^titles`
    /// assignments): minimizes expected delay subject to the budget, to
    /// validate the greedy planner. Panics if the search space exceeds one
    /// million assignments.
    fn brute_force_plan(
        catalog: &Catalog,
        budget_streams: u64,
        candidates_minutes: &[f64],
    ) -> Option<DelayPlan> {
        let k = catalog.len();
        let c = candidates_minutes.len();
        let space = (c as u128).checked_pow(k as u32).expect("space overflow");
        assert!(space <= 1_000_000, "brute force space too large: {space}");
        let memo = PlannerMemo::new();
        let probs = catalog.probabilities();
        let mut best: Option<DelayPlan> = None;
        let mut choice = vec![0usize; k];
        loop {
            let plan = build_plan(catalog, candidates_minutes, &choice, &probs, &memo);
            if plan.total_peak <= budget_streams
                && best
                    .as_ref()
                    .map(|b| plan.expected_delay < b.expected_delay)
                    .unwrap_or(true)
            {
                best = Some(plan);
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == k {
                    return best;
                }
                choice[i] += 1;
                if choice[i] < c {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }

    /// The greedy without a peak table: it rebuilds the whole plan,
    /// reading every title's peak from the memo, after each relaxation
    /// step. The table-driven planner is pinned against it.
    fn rebuilding_greedy(
        catalog: &Catalog,
        budget_streams: u64,
        candidates_minutes: &[f64],
        memo: &PlannerMemo,
    ) -> Option<DelayPlan> {
        let probs = catalog.probabilities();
        memo.seed(
            catalog
                .titles()
                .iter()
                .map(|t| t.media_len(candidates_minutes[0])),
        );
        let mut choice = vec![0usize; catalog.len()];
        let mut plan = build_plan(catalog, candidates_minutes, &choice, &probs, memo);
        if plan.total_peak > budget_streams {
            memo.seed(
                catalog
                    .titles()
                    .iter()
                    .flat_map(|t| candidates_minutes.iter().map(|&d| t.media_len(d))),
            );
        }
        while plan.total_peak > budget_streams {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..choice.len() {
                if choice[i] + 1 >= candidates_minutes.len() {
                    continue;
                }
                let title = &catalog.titles()[i];
                let cur_peak = memo.peak(title.media_len(candidates_minutes[choice[i]]));
                let next_peak = memo.peak(title.media_len(candidates_minutes[choice[i] + 1]));
                let saved = cur_peak.saturating_sub(next_peak) as f64;
                let pain =
                    probs[i] * (candidates_minutes[choice[i] + 1] - candidates_minutes[choice[i]]);
                let ratio = saved / pain;
                if best.map(|(_, r)| ratio > r).unwrap_or(true) {
                    best = Some((i, ratio));
                }
            }
            let (i, _) = best?;
            choice[i] += 1;
            plan = build_plan(catalog, candidates_minutes, &choice, &probs, memo);
        }
        Some(plan)
    }

    /// The catalogs of `tests/proptests.rs`: 1–4 titles of 30–180 minutes.
    fn arb_catalog() -> impl Strategy<Value = Catalog> {
        proptest::collection::vec((30.0f64..=180.0, 0.1f64..=10.0), 1..=4).prop_map(|specs| {
            Catalog::new(
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (dur, w))| Title {
                        name: format!("t{i}"),
                        duration_minutes: dur,
                        weight: w,
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The table-driven greedy chooses the rebuilding greedy's plan,
        /// floats included, and analyzes exactly as many media lengths:
        /// for budgets from 1 (infeasible) to `u64::MAX`, each with fresh
        /// memos and with one memo per planner shared across all cases.
        /// Half the cases flatten the weights and round the durations to
        /// half hours, so equal ratios tie and the tie-break is pinned too.
        #[test]
        fn peak_table_greedy_matches_the_rebuilding_greedy(
            catalog in arb_catalog(),
            cut in 0.0f64..=1.0,
            tied in 0u8..2,
        ) {
            static SHARED: std::sync::OnceLock<(PlannerMemo, PlannerMemo)> =
                std::sync::OnceLock::new();
            let (table_memo, rebuild_memo) = SHARED.get_or_init(Default::default);
            let catalog = if tied == 1 {
                Catalog::new(
                    catalog
                        .titles()
                        .iter()
                        .map(|t| Title {
                            name: t.name.clone(),
                            duration_minutes: (t.duration_minutes / 30.0).round() * 30.0,
                            weight: 1.0,
                        })
                        .collect(),
                )
            } else {
                catalog
            };
            let cands = [1.0, 2.0, 4.0, 8.0, 16.0];
            let full = plan_weighted(&catalog, u64::MAX, &cands).unwrap().total_peak;
            let budgets = [
                1,
                full / 4,
                full / 2,
                (full as f64 * cut) as u64,
                full - 1,
                full,
                u64::MAX,
            ];
            for budget in budgets {
                let fresh = (PlannerMemo::new(), PlannerMemo::new());
                for (ours, theirs) in [(&fresh.0, &fresh.1), (table_memo, rebuild_memo)] {
                    let got = plan_weighted_with(&catalog, budget, &cands, ours);
                    let want = rebuilding_greedy(&catalog, budget, &cands, theirs);
                    prop_assert_eq!(got, want, "budget {}", budget);
                    prop_assert_eq!(ours.misses(), theirs.misses(), "budget {}", budget);
                }
            }
        }
    }

    /// Catalogs of 1–64 titles whose weights span 1e-300 to 1e300, so a
    /// light title's probability underflows to 0 beside a heavy one and
    /// its ratios read `saved / 0`: +inf, tied with every other +inf, or
    /// NaN when a move saves nothing. Durations are whole minutes from 1
    /// to 180, so short titles reach media lengths of a few slots, where
    /// the next candidate often keeps the peak (a 20-minute title peaks
    /// at 2 streams at both 8 and 16 minutes).
    fn arb_extreme_catalog() -> impl Strategy<Value = Catalog> {
        proptest::collection::vec((1u8..=180, -300.0f64..=300.0), 1..=64).prop_map(|specs| {
            Catalog::new(
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (minutes, exponent))| Title {
                        name: format!("t{i}"),
                        duration_minutes: f64::from(minutes),
                        weight: 10f64.powf(exponent),
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The cached-ratio greedy chooses the rebuilding greedy's plan,
        /// `expected_delay` bits included, and analyzes as many media
        /// lengths, on catalogs of up to 64 titles with extreme weights:
        /// one and five candidates, budgets from 1 to `u64::MAX`, each with
        /// memos fresh for the case and with one memo per planner shared
        /// across all cases.
        #[test]
        fn cached_ratio_greedy_matches_the_rebuilding_greedy_at_extreme_weights(
            catalog in arb_extreme_catalog(),
            cut in 0.0f64..=1.0,
        ) {
            static SHARED: std::sync::OnceLock<(PlannerMemo, PlannerMemo)> =
                std::sync::OnceLock::new();
            let (table_memo, rebuild_memo) = SHARED.get_or_init(Default::default);
            let fresh = (PlannerMemo::new(), PlannerMemo::new());
            let bits = |plan: &Option<DelayPlan>| plan.as_ref().map(|p| p.expected_delay.to_bits());
            for cands in [&[1.0][..], &[1.0, 2.0, 4.0, 8.0, 16.0]] {
                let full = plan_weighted(&catalog, u64::MAX, cands).unwrap().total_peak;
                let budgets = [
                    1,
                    full / 4,
                    full / 2,
                    (full as f64 * cut) as u64,
                    full - 1,
                    full,
                    u64::MAX,
                ];
                for budget in budgets {
                    for (ours, theirs) in [(&fresh.0, &fresh.1), (table_memo, rebuild_memo)] {
                        let got = plan_weighted_with(&catalog, budget, cands, ours);
                        let want = rebuilding_greedy(&catalog, budget, cands, theirs);
                        prop_assert_eq!(bits(&got), bits(&want), "budget {}", budget);
                        prop_assert_eq!(got, want, "budget {}", budget);
                        prop_assert_eq!(ours.misses(), theirs.misses(), "budget {}", budget);
                    }
                }
            }
        }
    }

    #[test]
    fn infinite_and_nan_ratios_resolve_as_the_rebuilding_scan_does() {
        // Beside a 1e300 title, the 1e-300 ones have probability 0, so
        // every move of theirs has pain 0: a move that saves streams reads
        // +inf, and the 15-minute title's move from 16 to 32 minutes, one
        // slot long either way, reads 0 / 0 = NaN. A NaN ahead of the
        // others in the scan is never displaced, so that move is taken.
        let title = |name: &str, duration_minutes, weight| Title {
            name: name.into(),
            duration_minutes,
            weight,
        };
        let catalog = Catalog::new(vec![
            title("short", 15.0, 1e-300),
            title("heavy", 120.0, 1e300),
            title("long", 150.0, 1e-300),
        ]);
        let cands = [8.0, 16.0, 32.0];
        let probs = catalog.probabilities();
        assert_eq!((probs[0], probs[2]), (0.0, 0.0));
        let short = &catalog.titles()[0];
        let memo = PlannerMemo::new();
        assert_eq!(
            memo.peak(short.media_len(16.0)),
            memo.peak(short.media_len(32.0)),
            "the short title's move saves nothing"
        );
        let full = plan_weighted(&catalog, u64::MAX, &cands)
            .unwrap()
            .total_peak;
        let mut nan_move_taken = false;
        for budget in 1..=full {
            let got = plan_weighted_with(&catalog, budget, &cands, &memo);
            let want = rebuilding_greedy(&catalog, budget, &cands, &PlannerMemo::new());
            assert_eq!(got, want, "budget {budget}");
            nan_move_taken |= got.is_some_and(|p| p.delays_minutes[0] == 32.0);
        }
        assert!(nan_move_taken);
    }

    fn small_catalog() -> Catalog {
        Catalog::new(vec![
            Title {
                name: "blockbuster".into(),
                duration_minutes: 120.0,
                weight: 8.0,
            },
            Title {
                name: "classic".into(),
                duration_minutes: 90.0,
                weight: 2.0,
            },
            Title {
                name: "niche".into(),
                duration_minutes: 100.0,
                weight: 1.0,
            },
        ])
    }

    const CANDS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

    #[test]
    fn generous_budget_gives_everyone_min_delay() {
        let plan = plan_weighted(&small_catalog(), 10_000, &CANDS).unwrap();
        assert_eq!(plan.delays_minutes, vec![1.0, 1.0, 1.0]);
        assert!(plan.total_peak <= 10_000);
    }

    #[test]
    fn impossible_budget_returns_none() {
        assert_eq!(plan_weighted(&small_catalog(), 1, &CANDS), None);
        assert_eq!(brute_force_plan(&small_catalog(), 1, &CANDS), None);
    }

    #[test]
    fn plan_respects_budget_and_popularity() {
        let catalog = small_catalog();
        // Find a budget between all-min and all-max demand.
        let all_min = plan_weighted(&catalog, u64::MAX, &[1.0])
            .unwrap()
            .total_peak;
        let all_max = plan_weighted(&catalog, u64::MAX, &[10.0])
            .unwrap()
            .total_peak;
        let budget = (all_min + all_max) / 2;
        let plan = plan_weighted(&catalog, budget, &CANDS).unwrap();
        assert!(plan.total_peak <= budget);
        // The blockbuster must not end up with a longer delay than the
        // niche title.
        assert!(plan.delays_minutes[0] <= plan.delays_minutes[2]);
    }

    #[test]
    fn greedy_matches_brute_force_objective() {
        let catalog = small_catalog();
        let all_min = plan_weighted(&catalog, u64::MAX, &[1.0])
            .unwrap()
            .total_peak;
        for budget in [all_min / 2, all_min * 2 / 3, all_min * 4 / 5] {
            let greedy = plan_weighted(&catalog, budget, &CANDS);
            let exact = brute_force_plan(&catalog, budget, &CANDS);
            match (greedy, exact) {
                (Some(g), Some(e)) => {
                    assert!(g.total_peak <= budget);
                    // Greedy water-filling is near-optimal on these discrete
                    // menus; allow a small slack.
                    assert!(
                        g.expected_delay <= e.expected_delay * 1.25 + 1e-9,
                        "budget {budget}: greedy {} vs exact {}",
                        g.expected_delay,
                        e.expected_delay
                    );
                }
                (None, None) => {}
                (g, e) => panic!("feasibility disagreement: {g:?} vs {e:?}"),
            }
        }
    }

    #[test]
    fn tighter_budget_never_decreases_expected_delay() {
        let catalog = small_catalog();
        let all_min = plan_weighted(&catalog, u64::MAX, &[1.0])
            .unwrap()
            .total_peak;
        let mut last = 0.0f64;
        for budget in (1..=all_min).rev().step_by(3) {
            if let Some(plan) = plan_weighted(&catalog, budget, &CANDS) {
                assert!(
                    plan.expected_delay + 1e-9 >= last,
                    "budget {budget}: {} < {last}",
                    plan.expected_delay
                );
                last = plan.expected_delay;
            }
        }
    }

    #[test]
    fn shared_memo_plans_are_bit_identical_and_reuse_analyses() {
        let catalog = small_catalog();
        let all_min = plan_weighted(&catalog, u64::MAX, &[1.0])
            .unwrap()
            .total_peak;
        let budget = all_min * 2 / 3;
        let memo = PlannerMemo::new();
        let fresh = plan_weighted(&catalog, budget, &CANDS);
        let memod = plan_weighted_with(&catalog, budget, &CANDS, &memo);
        assert_eq!(fresh, memod, "memo must not change the chosen plan");
        let analyses = memo.misses();
        assert!(analyses > 0);
        let again = plan_weighted_with(&catalog, budget, &CANDS, &memo);
        assert_eq!(fresh, again);
        assert_eq!(
            memo.misses(),
            analyses,
            "re-planning must not re-analyze any length"
        );
        assert!(memo.hits() > 0);
    }

    #[test]
    fn peaks_match_capacity_analysis() {
        let catalog = small_catalog();
        let plan = plan_weighted(&catalog, u64::MAX, &CANDS).unwrap();
        for (i, title) in catalog.titles().iter().enumerate() {
            let l = title.media_len(plan.delays_minutes[i]);
            assert_eq!(plan.peaks[i], steady_state_bandwidth(l).peak);
        }
    }
}
