//! Property-based tests for the multi-object server substrate, and the
//! dynamic server's fixed scenarios pinned against the test-side
//! forest-materializing reference.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sm_core::consecutive_slots;
use sm_online::DelayGuaranteedOnline;
use sm_server::{
    plan_weighted, simulate_dynamic, simulate_dynamic_with, simulate_requests, Catalog,
    DynamicConfig, DynamicError, DynamicReport, Epoch, EpochBreakdown, EpochPlan, PlannerMemo,
    Title, Zipf,
};
use sm_sim::{stream_schedule, SimError};

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

/// Multi-epoch scenarios: 1–4 epochs whose catalogs grow, shrink, and flip
/// popularity freely, spaced 40–400 minutes apart. Each epoch either draws
/// an independent (usually disjoint) catalog or re-uses its predecessor's
/// verbatim — the overlapping case a cross-epoch memo exists for. The
/// budget menu spans "mostly infeasible" through "unconstrained", and the
/// horizon can fall short of the last switch so skipped epochs are
/// exercised too.
fn arb_dynamic_scenario() -> impl Strategy<Value = (Vec<Epoch>, u64, u64)> {
    (
        proptest::collection::vec((arb_catalog(), 40u64..=400, 0u8..3), 1..=4),
        0usize..5,
        10u64..=500,
    )
        .prop_map(|(specs, budget_idx, tail)| {
            let budgets = [6u64, 12, 24, 48, u64::MAX];
            let mut epochs: Vec<Epoch> = Vec::new();
            let mut start = 0u64;
            for (catalog, gap, reuse) in specs {
                // One case in three repeats the previous epoch's catalog.
                let catalog = match epochs.last() {
                    Some(prev) if reuse == 0 => prev.catalog.clone(),
                    _ => catalog,
                };
                epochs.push(Epoch {
                    start_minute: start,
                    catalog,
                });
                start += gap;
            }
            let last_start = epochs.last().expect("at least one epoch").start_minute;
            // Sometimes shorter than the last switch (that epoch is skipped),
            // sometimes well past it.
            let horizon = (last_start / 2 + tail).max(1);
            (epochs, budgets[budget_idx], horizon)
        })
}

/// Field-by-field equality of two dynamic reports, excluding only the
/// wall-clock latency fields — delegates to the one canonical definition
/// on `DynamicReport`.
fn assert_dynamic_reports_identical(a: &DynamicReport, b: &DynamicReport) {
    if let Some(diff) = a.deterministic_diff(b) {
        panic!("spines diverge: {diff}");
    }
}

/// Two outcomes (report or typed error) agree bit-for-bit.
fn assert_outcomes_identical(
    what: &str,
    got: &Result<DynamicReport, DynamicError>,
    baseline: &Result<DynamicReport, DynamicError>,
) {
    match (got, baseline) {
        (Ok(a), Ok(b)) => {
            if let Some(diff) = a.deterministic_diff(b) {
                panic!("{what} diverges from the baseline: {diff}");
            }
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: different error than the baseline"),
        (a, b) => panic!("{what} disagrees with the baseline: {a:?} vs {b:?}"),
    }
}

/// Test-side reference for the dynamic server that shares no schedule or
/// peak code with it: each live epoch plans with `plan_weighted`; each
/// `(title, epoch)` materializes its Delay Guaranteed forest with
/// `forest_after` and walks it with `stream_schedule`; every stream adds one
/// to each minute it covers; and each minute asks every switch whether its
/// transition window covers it.
fn forest_materializing_reference(
    epochs: &[Epoch],
    budget: u64,
    cands: &[f64],
    horizon: u64,
) -> Result<DynamicReport, DynamicError> {
    let mut per_minute = vec![0u64; horizon as usize];
    let mut epoch_plans = Vec::new();
    let mut longest_media = 0u64;
    for (i, epoch) in epochs.iter().enumerate() {
        let t0 = epoch.start_minute;
        let t1 = epochs
            .get(i + 1)
            .map_or(horizon, |e| e.start_minute)
            .min(horizon);
        if t0 >= t1 {
            continue;
        }
        let plan =
            plan_weighted(&epoch.catalog, budget, cands).ok_or(DynamicError::Infeasible {
                epoch: i,
                start_minute: t0,
            })?;
        for (title, &delay) in epoch.catalog.titles().iter().zip(&plan.delays_minutes) {
            longest_media = longest_media.max(title.duration_minutes.ceil() as u64);
            let d = delay as u64;
            let slots = ((t1 - t0) / d) as usize;
            if slots == 0 {
                continue;
            }
            let media_len = title.media_len(delay);
            let forest = DelayGuaranteedOnline::new(media_len).forest_after(slots);
            let times = consecutive_slots(slots);
            for spec in stream_schedule(&forest, &times, media_len).unwrap() {
                let start = t0 + spec.start as u64 * d;
                let end = start + spec.length as u64 * d;
                for m in start..end.min(horizon) {
                    per_minute[m as usize] += 1;
                }
            }
        }
        epoch_plans.push(EpochPlan {
            start_minute: t0,
            end_minute: t1,
            plan,
        });
    }
    let in_transition = |m: u64| {
        epochs[1..]
            .iter()
            .any(|e| m >= e.start_minute && m < e.start_minute + longest_media)
    };
    // (peak, steady, transition) over the minutes `range`.
    let peaks = |range: std::ops::Range<u64>| {
        range.fold((0, 0, 0), |(peak, steady, transition), m| {
            let c = per_minute[m as usize];
            if in_transition(m) {
                (peak.max(c), steady, transition.max(c))
            } else {
                (peak.max(c), steady.max(c), transition)
            }
        })
    };
    let per_epoch = epoch_plans
        .iter()
        .map(|ep| {
            let (peak, steady_peak, transition_peak) = peaks(ep.start_minute..ep.end_minute);
            EpochBreakdown {
                start_minute: ep.start_minute,
                end_minute: ep.end_minute,
                peak,
                steady_peak,
                transition_peak,
                plan_ms: 0.0,
                materialize_ms: 0.0,
            }
        })
        .collect();
    let (peak, steady_peak, transition_peak) = peaks(0..horizon);
    Ok(DynamicReport {
        per_minute,
        peak,
        steady_peak,
        transition_peak,
        epoch_plans,
        per_epoch,
    })
}

/// The baseline the pins in the `proptest!` block below call the
/// sequential spine: the forest-materializing reference.
fn simulate_dynamic_sequential(
    epochs: &[Epoch],
    budget: u64,
    cands: &[f64],
    horizon: u64,
) -> Result<DynamicReport, DynamicError> {
    forest_materializing_reference(epochs, budget, cands, horizon)
}

/// [`simulate_dynamic_sequential`] with a config, which it ignores: the
/// reference plans every epoch without a memo.
fn simulate_dynamic_sequential_with(
    epochs: &[Epoch],
    budget: u64,
    cands: &[f64],
    horizon: u64,
    _config: &DynamicConfig,
) -> Result<DynamicReport, DynamicError> {
    forest_materializing_reference(epochs, budget, cands, horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The stamped server is pinned against the forest-materializing
    /// reference, which shares no schedule or peak code with it: every
    /// deterministic report field and every typed error, at plan-ahead
    /// depths 1 and 2, with and without a memo shared across cases.
    #[test]
    fn stamped_dynamic_matches_forest_materializing_reference(
        (epochs, budget, horizon) in arb_dynamic_scenario(),
    ) {
        static SHARED: std::sync::OnceLock<PlannerMemo> = std::sync::OnceLock::new();
        let cands = [1.0, 2.0, 4.0, 8.0, 16.0];
        let reference = forest_materializing_reference(&epochs, budget, &cands, horizon);
        let shared = SHARED.get_or_init(PlannerMemo::new).clone();
        for plan_ahead in [1usize, 2] {
            for memo in [None, Some(shared.clone())] {
                let label = format!(
                    "pipelined K = {plan_ahead}, memo = {}",
                    if memo.is_some() { "shared" } else { "none" }
                );
                let config = DynamicConfig { plan_ahead, memo };
                let got = simulate_dynamic_with(&epochs, budget, &cands, horizon, &config);
                assert_outcomes_identical(&label, &got, &reference);
            }
        }
    }

    /// The pipelined dynamic spine is bit-identical to the sequential
    /// reference on arbitrary multi-epoch catalogs — growing, shrinking,
    /// popularity-flipping, under budget squeezes — including *which* error
    /// fires when the budget is infeasible.
    #[test]
    fn pipelined_dynamic_matches_sequential_spine(
        (epochs, budget, horizon) in arb_dynamic_scenario(),
    ) {
        let cands = [1.0, 2.0, 4.0, 8.0, 16.0];
        let piped = simulate_dynamic(&epochs, budget, &cands, horizon);
        let seq = simulate_dynamic_sequential(&epochs, budget, &cands, horizon);
        match (piped, seq) {
            (Ok(a), Ok(b)) => {
                assert_dynamic_reports_identical(&a, &b);
                // The per-epoch breakdown tiles the horizon: global peaks
                // are the maxima over the epoch windows.
                if !a.per_epoch.is_empty() {
                    prop_assert_eq!(
                        a.peak,
                        a.per_epoch.iter().map(|e| e.peak).max().unwrap()
                    );
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "spines disagree: {:?} vs {:?}", a, b),
        }
    }

    /// The full knob matrix is pinned against the memo-free sequential
    /// spine: depth-K plan-ahead for K ∈ {1, 2, 4}, each with and without
    /// a shared cross-run memo, plus the sequential spine carrying the
    /// memo itself. Reports and typed errors must be bit-identical in
    /// every cell — the knobs may only change wall-clock behavior. The
    /// shared memo lives in a `static`, so it genuinely survives the whole
    /// matrix *and* every generated case: a stale or mis-keyed cache entry
    /// left by one scenario would surface as divergence in a later one.
    #[test]
    fn depth_k_and_memo_matrix_matches_sequential_spine(
        (epochs, budget, horizon) in arb_dynamic_scenario(),
    ) {
        static SHARED: std::sync::OnceLock<PlannerMemo> = std::sync::OnceLock::new();
        let cands = [1.0, 2.0, 4.0, 8.0, 16.0];
        let baseline = simulate_dynamic_sequential(&epochs, budget, &cands, horizon);
        let shared = SHARED.get_or_init(PlannerMemo::new).clone();
        for plan_ahead in [1usize, 2, 4] {
            for memo in [None, Some(shared.clone())] {
                let label = format!(
                    "pipelined K = {plan_ahead}, memo = {}",
                    if memo.is_some() { "shared" } else { "none" }
                );
                let config = DynamicConfig { plan_ahead, memo };
                let got = simulate_dynamic_with(&epochs, budget, &cands, horizon, &config);
                assert_outcomes_identical(&label, &got, &baseline);
            }
        }
        let config = DynamicConfig::default().with_memo(shared.clone());
        let seq = simulate_dynamic_sequential_with(&epochs, budget, &cands, horizon, &config);
        assert_outcomes_identical("sequential with shared memo", &seq, &baseline);
        // Every case plans at least one epoch's smallest-delay lengths, so
        // the shared memo must have performed real analyses by now.
        prop_assert!(shared.misses() > 0);
    }

    /// The Zipf CDF is a proper distribution and sampling stays in range.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..=64, s in 0.0f64..=2.5, seed in 0u64..1000) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Plans always fit their budget, and a larger budget never yields a
    /// worse expected delay.
    #[test]
    fn plans_fit_budget_and_are_monotone(catalog in arb_catalog()) {
        let cands = [1.0, 2.0, 4.0, 8.0, 16.0];
        let unconstrained = plan_weighted(&catalog, u64::MAX, &cands).unwrap();
        let tightest = plan_weighted(&catalog, 0, &cands);
        prop_assert!(tightest.is_none() || tightest.unwrap().total_peak == 0);

        let full = unconstrained.total_peak;
        // Iterating budgets downwards: expected delay must be non-decreasing.
        let mut last_delay = 0.0f64;
        for budget in [full, full * 3 / 4, full / 2, full / 4] {
            if let Some(plan) = plan_weighted(&catalog, budget, &cands) {
                prop_assert!(plan.total_peak <= budget);
                prop_assert!(plan.expected_delay + 1e-9 >= last_delay);
                last_delay = plan.expected_delay;
                // Per-title delays come from the candidate menu.
                for d in &plan.delays_minutes {
                    prop_assert!(cands.contains(d));
                }
            }
        }
    }

    /// Request simulation never declines, bounds every wait by that title's
    /// planned delay, and conserves the request count.
    #[test]
    fn requests_never_declined_waits_bounded(
        catalog in arb_catalog(),
        seed in 0u64..1000,
    ) {
        let cands = [2.0, 5.0];
        let plan = plan_weighted(&catalog, u64::MAX, &cands).unwrap();
        let report = simulate_requests(&catalog, &plan, 300.0, 1.0, seed);
        prop_assert_eq!(report.declined, 0);
        prop_assert_eq!(report.per_title.iter().sum::<u64>(), report.served);
        let max_planned = plan.delays_minutes.iter().fold(0.0f64, |a, &b| a.max(b));
        prop_assert!(report.max_wait <= max_planned + 1e-9);
    }
}

fn zipf_catalog(n: usize) -> Catalog {
    Catalog::zipf(n, 1.0, &[100.0, 80.0])
}

const CANDS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

#[test]
fn single_epoch_respects_budget_and_matches_the_reference() {
    let epochs = [Epoch {
        start_minute: 0,
        catalog: zipf_catalog(3),
    }];
    let budget = 30;
    let report = simulate_dynamic(&epochs, budget, &CANDS, 800).unwrap();
    assert!(report.peak <= report.epoch_plans[0].plan.total_peak);
    assert!(report.epoch_plans[0].plan.total_peak <= budget);
    assert_eq!(report.transition_peak, 0, "no switch, no transition");
    assert_eq!(report.peak, report.steady_peak);
    // One epoch: the pipeline runs inline and still matches the reference.
    let reference = forest_materializing_reference(&epochs, budget, &CANDS, 800).unwrap();
    assert_dynamic_reports_identical(&report, &reference);
    assert_eq!(report.per_epoch.len(), 1);
    assert_eq!(report.per_epoch[0].peak, report.peak);
}

#[test]
fn pipelined_matches_the_reference_on_multi_epoch_catalogs() {
    let epochs = [
        Epoch {
            start_minute: 0,
            catalog: zipf_catalog(2),
        },
        Epoch {
            start_minute: 300,
            catalog: zipf_catalog(6),
        },
        Epoch {
            start_minute: 700,
            catalog: zipf_catalog(4),
        },
    ];
    for budget in [25u64, 40, 200] {
        let piped = simulate_dynamic(&epochs, budget, &CANDS, 1100);
        let reference = forest_materializing_reference(&epochs, budget, &CANDS, 1100);
        assert_outcomes_identical(&format!("budget {budget}"), &piped, &reference);
    }
}

#[test]
fn epoch_shorter_than_one_delay_slot_contributes_no_streams() {
    // Epoch 1 lives for 3 minutes but every feasible delay is 5 or 10
    // minutes — no slot of its grid starts inside the window, so only
    // epoch 0's (and epoch 2's) streams exist.
    let epochs = [
        Epoch {
            start_minute: 0,
            catalog: zipf_catalog(2),
        },
        Epoch {
            start_minute: 400,
            catalog: zipf_catalog(8),
        },
        Epoch {
            start_minute: 403,
            catalog: zipf_catalog(2),
        },
    ];
    let budget = plan_weighted(&zipf_catalog(8), u64::MAX, &[10.0])
        .unwrap()
        .total_peak;
    let piped = simulate_dynamic(&epochs, budget, &[5.0, 10.0], 800).unwrap();
    let reference = forest_materializing_reference(&epochs, budget, &[5.0, 10.0], 800).unwrap();
    assert_dynamic_reports_identical(&piped, &reference);
    // The sliver epoch still got a plan and a breakdown entry.
    assert_eq!(piped.epoch_plans.len(), 3);
    assert_eq!(piped.epoch_plans[1].start_minute, 400);
    assert_eq!(piped.epoch_plans[1].end_minute, 403);
}

#[test]
fn retired_title_streams_straddle_two_transitions() {
    // Epoch 0 serves a long title that is retired at minute 60; its
    // committed streams (up to 200 minutes long) are still draining when
    // the second switch at minute 120 happens — the old streams straddle
    // both transition windows, and the server must bin them as the
    // reference does.
    let long_title = Catalog::new(vec![
        Title {
            name: "marathon".into(),
            duration_minutes: 200.0,
            weight: 3.0,
        },
        Title {
            name: "short".into(),
            duration_minutes: 40.0,
            weight: 1.0,
        },
    ]);
    let small = Catalog::new(vec![Title {
        name: "short".into(),
        duration_minutes: 40.0,
        weight: 1.0,
    }]);
    let epochs = [
        Epoch {
            start_minute: 0,
            catalog: long_title,
        },
        Epoch {
            start_minute: 60,
            catalog: small.clone(),
        },
        Epoch {
            start_minute: 120,
            catalog: small,
        },
    ];
    let piped = simulate_dynamic(&epochs, 100, &CANDS, 400).unwrap();
    let reference = forest_materializing_reference(&epochs, 100, &CANDS, 400).unwrap();
    assert_dynamic_reports_identical(&piped, &reference);
    // The marathon's root stream runs 200 minutes from minute 0: it is
    // still live after the second switch at 120.
    assert!(
        piped.per_minute[150] > 0,
        "retired title's streams must keep draining"
    );
    // Transition windows last one longest-media length (200 min) after
    // each switch: epoch 1's whole window [60, 120) lies inside the
    // first one, and epoch 2 is in transition until minute 320.
    assert!(piped.transition_peak > 0);
    assert_eq!(piped.per_epoch[1].steady_peak, 0);
    assert!(piped.per_epoch[2].transition_peak > 0);
}

/// The `dynamic` experiment binary's run — 4 → 10 Zipf titles at minute
/// 600 under a 48-stream budget, depth 2 with a memo — against the
/// reference. The binary itself checks that run against depth 1 only.
#[test]
fn dynamic_binary_scenario_matches_the_reference() {
    let epochs = [
        Epoch {
            start_minute: 0,
            catalog: Catalog::zipf(4, 1.0, &[120.0, 90.0]),
        },
        Epoch {
            start_minute: 600,
            catalog: Catalog::zipf(10, 1.0, &[120.0, 90.0, 100.0]),
        },
    ];
    let cands = [1.0, 2.0, 5.0, 10.0, 20.0];
    let config = DynamicConfig::depth(2).with_memo(PlannerMemo::new());
    let got = simulate_dynamic_with(&epochs, 48, &cands, 1440, &config).unwrap();
    let reference = forest_materializing_reference(&epochs, 48, &cands, 1440).unwrap();
    assert_dynamic_reports_identical(&got, &reference);
}

/// The duration menu of [`many_batch_epochs`]. Its longest title, 120
/// minutes, sets the length of every transition window.
const MENU: [f64; 3] = [60.0, 90.0, 120.0];

/// Forty epochs of 120–300 minutes: three batches of the pipeline's
/// channel, so at every depth both stages run on their own threads (a run
/// of one batch runs inline). The catalogs cycle through five Zipf sizes
/// over a three-duration menu, so titles of one epoch share windows. One
/// epoch in four is exactly one transition window long and one in four
/// ends a minute after its window, so a transition split one minute off
/// empties or fills a whole steady part.
fn many_batch_epochs() -> Vec<Epoch> {
    const SIZES: [usize; 5] = [3, 6, 4, 8, 5];
    let mut start = 0;
    (0..40)
        .map(|i| {
            let epoch = Epoch {
                start_minute: start,
                catalog: Catalog::zipf(SIZES[i % SIZES.len()], 1.0, &MENU),
            };
            start += match i % 4 {
                0 => 120,
                1 => 121,
                _ => 122 + (i as u64 * 67) % 179,
            };
            epoch
        })
        .collect()
}

/// Two thirds of the biggest catalog's all-shortest-delay demand: the
/// planner relaxes delays, and every epoch of [`many_batch_epochs`] fits.
fn many_batch_budget(cands: &[f64]) -> u64 {
    let biggest = Catalog::zipf(8, 1.0, &MENU);
    plan_weighted(&biggest, u64::MAX, &cands[..1])
        .unwrap()
        .total_peak
        * 2
        / 3
}

/// Each outcome at plan-ahead 1, 2 and 4, with and without a memo, must
/// match `want`.
fn assert_every_depth_gives(
    epochs: &[Epoch],
    budget: u64,
    cands: &[f64],
    horizon: u64,
    want: &Result<DynamicReport, DynamicError>,
) {
    for plan_ahead in [1usize, 2, 4] {
        for memo in [None, Some(PlannerMemo::new())] {
            let label = format!(
                "K = {plan_ahead}, memo = {}",
                if memo.is_some() { "fresh" } else { "none" }
            );
            let config = DynamicConfig { plan_ahead, memo };
            let got = simulate_dynamic_with(epochs, budget, cands, horizon, &config);
            assert_outcomes_identical(&label, &got, want);
        }
    }
}

#[test]
fn runs_of_several_batches_match_the_reference_at_every_depth() {
    let epochs = many_batch_epochs();
    let cands = [1.0, 2.0, 4.0, 8.0, 16.0];
    let budget = many_batch_budget(&cands);
    // The horizon cuts the last epoch short of the streams' tails.
    let horizon = epochs.last().unwrap().start_minute + 150;
    let reference = forest_materializing_reference(&epochs, budget, &cands, horizon);
    let report = reference.as_ref().unwrap();
    assert_eq!(report.epoch_plans.len(), 40);
    // Some epoch gives two titles of one duration the same delay, so they
    // share a window.
    assert!(report.epoch_plans.iter().any(|ep| {
        let catalog = &epochs
            .iter()
            .find(|e| e.start_minute == ep.start_minute)
            .unwrap()
            .catalog;
        let keys: Vec<(u64, u64)> = catalog
            .titles()
            .iter()
            .zip(&ep.plan.delays_minutes)
            .map(|(t, &d)| (t.duration_minutes as u64, d as u64))
            .collect();
        (1..keys.len()).any(|i| keys[..i].contains(&keys[i]))
    }));
    assert_every_depth_gives(&epochs, budget, &cands, horizon, &reference);
}

#[test]
fn errors_keep_their_order_across_batch_boundaries() {
    let cands = [1.0, 2.0, 4.0, 8.0, 16.0];
    let budget = many_batch_budget(&cands);
    let horizon = 9_000;
    // Epoch 20, in the second batch, cannot fit the budget even with every
    // title at the largest delay.
    let mut epochs = many_batch_epochs();
    epochs[20].catalog = Catalog::zipf(60, 1.0, &MENU);
    let infeasible = forest_materializing_reference(&epochs, budget, &cands, horizon);
    assert_eq!(
        infeasible.as_ref().unwrap_err(),
        &DynamicError::Infeasible {
            epoch: 20,
            start_minute: epochs[20].start_minute
        }
    );
    assert_every_depth_gives(&epochs, budget, &cands, horizon, &infeasible);
    // A title in the third batch whose media length overflows the slot
    // axis comes after that epoch, so the earlier error still wins...
    epochs[35].catalog = Catalog::new(vec![Title {
        name: "endless".into(),
        duration_minutes: f64::INFINITY,
        weight: 1.0,
    }]);
    assert_every_depth_gives(&epochs, budget, &cands, horizon, &infeasible);
    // ...and is the run's error once epoch 20 fits again.
    epochs[20].catalog = Catalog::zipf(3, 1.0, &MENU);
    let overflow = Err(DynamicError::Schedule {
        epoch: 35,
        title: "endless".into(),
        source: SimError::MediaLenOverflow {
            media_len: u64::MAX,
        },
    });
    assert_every_depth_gives(&epochs, budget, &cands, horizon, &overflow);
}
