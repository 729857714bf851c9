//! Delay re-planning acceptance tests.
//!
//! * A one-title run at an unbounded budget is **bit-identical** to the
//!   retired PR-6 license-gating loop with its gauge disabled — the
//!   reference loop is replicated inline here (same per-batch Poisson
//!   seeding, same co-slot batching, same dyadic policy, no planning) and
//!   the property test pins the two summaries against each other.
//! * A mid-run Delay Guaranteed → Delay Guaranteed policy swap at a tree
//!   boundary is a no-op: the run is bit-identical to the unswapped one.
//! * Simultaneous arrivals across titles under a one-channel budget are
//!   all served, with the contention showing up as nonzero delay.
//! * Starving the shared budget grows delay but never creates a
//!   rejection — the zero-rejection invariant under pressure.
//! * Keeping only the open tree's group heads changes nothing: the multi
//!   loop is pinned against a reference that keeps the whole-run
//!   group→head table, over catalogs × budgets × mid-tree policy swaps.
//! * The shared budget holds across titles: at every root decision the
//!   same reference audits that at most `budget` root windows `[s, s+L)`
//!   are live, so the pinned real loop never runs more full-length
//!   streams than the budget allows.
//! * Every served client's report is the dense oracle's: the same
//!   reference records each title's engine pushes, folds them into a
//!   forest, and replays it through the slot-stepped engine, which shares
//!   no code with the incremental one — so the joiners batched under a
//!   group head (co-arrivals, scored by the same closed forms as their
//!   head) are pinned on served traffic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use proptest::prelude::*;
use sm_core::{merge_runs, MergeForest, MergeTree};
use sm_online::{DelayGuaranteedOnline, DyadicConfig, DyadicMerger, IncrementalPolicy};
use sm_serve::{
    serve_multi, serve_multi_with, DelayStats, MultiServeConfig, PolicyKind, PolicySwap,
    TitleConfig,
};
use sm_server::PlannerMemo;
use sm_sim::{
    simulate_with, Attach, ClientReport, IncrementalEngine, IncrementalSummary, SimConfig,
};
use sm_workload::{ArrivalProcess, PoissonProcess};

/// The serve loop's per-(batch, title) seed mixers.
const BATCH_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const TITLE_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The PR-6 ingest loop with `max_active: None`, replicated verbatim:
/// per-batch Poisson seeding, slot flooring, co-slot batching under the
/// slot head, dyadic policy, no delay planner. What a one-title
/// `serve_multi` run must still compute at an unbounded budget.
fn license_gating_reference(config: &MultiServeConfig) -> IncrementalSummary {
    let title = &config.titles[0];
    let n_batches = (config.horizon / config.batch_slots).ceil() as usize;
    let mut arrivals: Vec<f64> = Vec::new();
    for i in 0..n_batches {
        let offset = i as f64 * config.batch_slots;
        let span = (config.horizon - offset).min(config.batch_slots);
        let mut proc = PoissonProcess::new(
            title.mean_interarrival,
            config.seed ^ (i as u64).wrapping_mul(BATCH_SALT),
        );
        arrivals.extend(proc.generate(span).iter().map(|t| offset + t));
    }
    let mut engine = IncrementalEngine::new(title.media_len, SimConfig::events()).unwrap();
    let mut policy = DyadicMerger::new(DyadicConfig::golden_poisson(), title.media_len as f64);
    let mut slot_reps: Vec<usize> = Vec::new();
    let mut cur: Option<(i64, usize)> = None;
    for t in arrivals {
        let slot = t.floor() as i64;
        if let Some((s, head)) = cur {
            if s == slot {
                engine.push(slot, Attach::Under(head), &mut |_| {}).unwrap();
                continue;
            }
        }
        let decision = policy.push(slot as f64);
        let attach = match decision.parent {
            None => Attach::Root,
            Some(p) => Attach::Under(slot_reps[p]),
        };
        let global = engine.arrivals();
        engine.push(slot, attach, &mut |_| {}).unwrap();
        slot_reps.push(global);
        cur = Some((slot, global));
    }
    engine.finish(&mut |_| {}).unwrap()
}

fn build_policy(
    kind: PolicyKind,
    media_len: u64,
    buffer_bound: Option<u64>,
) -> Box<dyn IncrementalPolicy> {
    match kind {
        PolicyKind::DelayGuaranteed => Box::new(match buffer_bound {
            Some(bound) => DelayGuaranteedOnline::with_buffer_bound(media_len, bound),
            None => DelayGuaranteedOnline::new(media_len),
        }),
        PolicyKind::Dyadic => Box::new(DyadicMerger::new(
            DyadicConfig::golden_poisson(),
            media_len as f64,
        )),
    }
}

/// Delay statistics of a raw sample under the serve loop's rank
/// convention: the value at index `round((n − 1)·q)` of the sorted sample.
fn delay_stats(mut delays: Vec<u64>) -> DelayStats {
    if delays.is_empty() {
        return DelayStats::default();
    }
    delays.sort_unstable();
    let at = |q: f64| delays[((delays.len() - 1) as f64 * q).round() as usize];
    DelayStats {
        p50_slots: at(0.50),
        p99_slots: at(0.99),
        max_slots: delays[delays.len() - 1],
        mean_slots: delays.iter().sum::<u64>() as f64 / delays.len() as f64,
    }
}

/// One title of [`whole_run_reference`].
struct RefTitle {
    media_len: u64,
    buffer_bound: Option<u64>,
    engine: IncrementalEngine,
    policy: Box<dyn IncrementalPolicy>,
    dense_grid: bool,
    swap: Option<PolicySwap>,
    policy_base: usize,
    last_engine_time: i64,
    /// Group index → engine-global head, kept for the whole run.
    slot_reps: Vec<usize>,
    /// Pending group: (service slot, engine time, head).
    cur: Option<(i64, i64, usize)>,
    delays: Vec<u64>,
    /// Every engine push, in order.
    pushes: Vec<(i64, Attach)>,
}

/// What the reference computes per title: the engine summary, the group
/// count, every arrival's planned delay, and every engine push.
type RefOutcome = (IncrementalSummary, usize, Vec<u64>, Vec<(i64, Attach)>);

/// The multi-title ingest loop as it was before it dropped closed trees'
/// group heads: the producer's traffic and the license-chain planner
/// replicated, and parents looked up in a group→head table that grows for
/// the whole run. Under a budget it also audits, at every root decision,
/// that no more than `budget` root windows `[s, s+L)` overlap.
fn whole_run_reference(config: &MultiServeConfig) -> Vec<RefOutcome> {
    let n_batches = (config.horizon / config.batch_slots).ceil() as usize;
    let mut arrivals = Vec::new();
    for i in 0..n_batches {
        let offset = i as f64 * config.batch_slots;
        let span = (config.horizon - offset).min(config.batch_slots);
        let runs: Vec<Vec<(f64, u32)>> = config
            .titles
            .iter()
            .enumerate()
            .map(|(k, title)| {
                let seed = config.seed
                    ^ (i as u64).wrapping_mul(BATCH_SALT)
                    ^ (k as u64).wrapping_mul(TITLE_SALT);
                PoissonProcess::new(title.mean_interarrival, seed)
                    .generate(span)
                    .iter()
                    .map(|t| (offset + t, k as u32))
                    .collect()
            })
            .collect();
        arrivals.extend(merge_runs(runs, |a: &(f64, u32), b: &(f64, u32)| a.0 < b.0));
    }

    let mut titles: Vec<RefTitle> = config
        .titles
        .iter()
        .map(|t| RefTitle {
            media_len: t.media_len,
            buffer_bound: t.buffer_bound,
            engine: IncrementalEngine::new(
                t.media_len,
                SimConfig {
                    buffer_bound: t.buffer_bound,
                    ..SimConfig::events()
                },
            )
            .unwrap(),
            policy: build_policy(t.policy, t.media_len, t.buffer_bound),
            dense_grid: t.policy == PolicyKind::DelayGuaranteed,
            swap: t.swap,
            policy_base: 0,
            last_engine_time: -1,
            slot_reps: Vec::new(),
            cur: None,
            delays: Vec::new(),
            pushes: Vec::new(),
        })
        .collect();
    let mut chains: BinaryHeap<Reverse<i64>> = BinaryHeap::new();
    // Root windows `[s, s + L)` across all titles that may still overlap a
    // future one (every later root starts at or after the current slot).
    let mut windows: Vec<(i64, i64)> = Vec::new();
    for (t, k) in arrivals {
        let slot = t.floor() as i64;
        let st = &mut titles[k as usize];
        if let Some((service, time, head)) = st.cur {
            if slot <= service {
                st.delays.push((service - slot) as u64);
                st.engine.push(time, Attach::Under(head), |_| {}).unwrap();
                st.pushes.push((time, Attach::Under(head)));
                continue;
            }
        }
        let mut s = slot;
        let mut popped = None;
        if let Some(budget) = config.budget {
            while chains.peek().is_some_and(|&Reverse(end)| end <= slot) {
                chains.pop();
            }
            if chains.len() >= budget {
                let Reverse(end) = chains.pop().unwrap();
                s = s.max(end);
                popped = Some(end);
            }
        }
        st.delays.push((s - slot) as u64);
        if let Some(swap) = st.swap.filter(|sw| sw.after_groups == st.slot_reps.len()) {
            st.policy = build_policy(swap.to, st.media_len, st.buffer_bound);
            st.dense_grid = swap.to == PolicyKind::DelayGuaranteed;
            st.policy_base = st.slot_reps.len();
            st.swap = None;
        }
        let time = if st.dense_grid {
            st.last_engine_time + 1
        } else {
            s
        };
        let attach = match st.policy.push(s as f64).parent {
            None => {
                if let Some(budget) = config.budget {
                    let end = s + st.media_len as i64;
                    chains.push(Reverse(end));
                    windows.retain(|&(_, e)| e > slot);
                    windows.push((s, end));
                    // The live count only rises at a window start.
                    for &(at, _) in &windows {
                        let live = windows.iter().filter(|&&(a, e)| a <= at && at < e).count();
                        assert!(
                            live <= budget,
                            "{live} full streams live at slot {at} over a budget of {budget}"
                        );
                    }
                }
                Attach::Root
            }
            Some(p) => {
                // No full stream opens: the popped chain is still live.
                chains.extend(popped.map(Reverse));
                Attach::Under(st.slot_reps[st.policy_base + p])
            }
        };
        let global = st.engine.arrivals();
        st.engine.push(time, attach, |_| {}).unwrap();
        st.pushes.push((time, attach));
        st.last_engine_time = time;
        st.slot_reps.push(global);
        st.cur = Some((s, time, global));
    }
    titles
        .into_iter()
        .map(|st| {
            let groups = st.slot_reps.len();
            (
                st.engine.finish(|_| {}).unwrap(),
                groups,
                st.delays,
                st.pushes,
            )
        })
        .collect()
}

/// Replays one title's engine pushes through the dense oracle: each
/// `Root` opens a tree, each `Under` adds a node under a node of the tree
/// last opened.
fn dense_replay(title: &TitleConfig, pushes: &[(i64, Attach)]) -> Vec<ClientReport> {
    let mut trees: Vec<Vec<Option<usize>>> = Vec::new();
    let mut base = 0;
    for (global, &(_, attach)) in pushes.iter().enumerate() {
        match attach {
            Attach::Root => {
                base = global;
                trees.push(vec![None]);
            }
            Attach::Under(parent) => trees.last_mut().unwrap().push(Some(parent - base)),
        }
    }
    if trees.is_empty() {
        return Vec::new();
    }
    let trees = trees
        .iter()
        .map(|parents| MergeTree::from_parents(parents).unwrap())
        .collect();
    let forest = MergeForest::from_trees(trees).unwrap();
    let times: Vec<i64> = pushes.iter().map(|&(time, _)| time).collect();
    let config = SimConfig {
        buffer_bound: title.buffer_bound,
        ..SimConfig::dense()
    };
    simulate_with(&forest, &times, title.media_len, config)
        .unwrap()
        .clients
}

/// A title of media length in `media`, with an arbitrary starting policy
/// and, two times in three, a swap at an arbitrary (usually mid-tree)
/// group count — to the other policy or to a fresh copy of the same one.
fn arb_title(media: Range<u64>) -> impl Strategy<Value = TitleConfig> {
    (media, 0.3f64..4.0, 0u8..2, 0u8..3, 1usize..90).prop_map(
        |(media_len, mean, from, swap, after_groups)| {
            let kind = |x: u8| {
                if x == 0 {
                    PolicyKind::DelayGuaranteed
                } else {
                    PolicyKind::Dyadic
                }
            };
            TitleConfig {
                policy: kind(from),
                swap: match swap {
                    0 => None,
                    1 => Some(PolicySwap {
                        after_groups,
                        to: kind(1 - from),
                    }),
                    _ => Some(PolicySwap {
                        after_groups,
                        to: kind(from),
                    }),
                },
                ..TitleConfig::new(media_len, mean)
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn open_tree_heads_match_the_whole_run_table(
        titles in proptest::collection::vec(arb_title(4..80), 1..=3),
        budget in 0usize..5,
        horizon in 40.0f64..400.0,
        seed in 0u64..1000,
    ) {
        let config = MultiServeConfig {
            seed,
            budget: (budget > 0).then_some(budget),
            ..MultiServeConfig::new(titles, horizon)
        };
        let report = serve_multi(&config).unwrap();
        let reference = whole_run_reference(&config);
        prop_assert_eq!(report.titles.len(), reference.len());
        let mut all = Vec::new();
        for (title, (summary, groups, delays, _)) in report.titles.iter().zip(reference) {
            prop_assert_eq!(&title.summary, &summary);
            prop_assert_eq!(title.groups, groups);
            prop_assert_eq!(title.generated, delays.len());
            prop_assert_eq!(title.delay, delay_stats(delays.clone()));
            all.extend(delays);
        }
        prop_assert_eq!(report.generated, all.len());
        prop_assert_eq!(report.delay, delay_stats(all));
    }

    #[test]
    fn served_reports_match_the_dense_replay_of_the_engine_pushes(
        titles in proptest::collection::vec(arb_title(4..40), 1..=3),
        budget in 0usize..5,
        horizon in 40.0f64..150.0,
        seed in 0u64..1000,
    ) {
        let config = MultiServeConfig {
            seed,
            budget: (budget > 0).then_some(budget),
            ..MultiServeConfig::new(titles, horizon)
        };
        let mut served = vec![Vec::new(); config.titles.len()];
        serve_multi_with(&config, &PlannerMemo::new(), |title, r| served[title].push(r)).unwrap();
        let reference = whole_run_reference(&config);
        for ((title, got), (_, _, _, pushes)) in config.titles.iter().zip(served).zip(reference) {
            prop_assert_eq!(got, dense_replay(title, &pushes));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unbounded_budget_is_bit_identical_to_the_license_gating_loop(
        media_len in 8u64..96,
        horizon in 50.0f64..400.0,
        mean in 0.5f64..4.0,
        seed in 0u64..1000,
    ) {
        let config = MultiServeConfig {
            seed,
            ..MultiServeConfig::new(vec![TitleConfig::new(media_len, mean)], horizon)
        };
        let report = serve_multi(&config).unwrap();
        prop_assert_eq!(report.rejected, 0);
        prop_assert_eq!(report.served, report.generated);
        prop_assert_eq!(report.delay.max_slots, 0);
        prop_assert_eq!(&report.titles[0].summary, &license_gating_reference(&config));
    }

    #[test]
    fn dg_swap_at_a_tree_boundary_is_bit_identical_to_no_swap(
        media_len in 4u64..40,
        trees_before_swap in 1usize..6,
        seed in 0u64..500,
    ) {
        let boundary = DelayGuaranteedOnline::new(media_len).tree_size() as usize;
        let base = MultiServeConfig {
            seed,
            budget: Some(4),
            ..MultiServeConfig::new(
                vec![TitleConfig {
                    policy: PolicyKind::DelayGuaranteed,
                    ..TitleConfig::new(media_len, 1.0)
                }],
                400.0,
            )
        };
        let mut swapped = base.clone();
        swapped.titles[0].swap = Some(PolicySwap {
            after_groups: trees_before_swap * boundary,
            to: PolicyKind::DelayGuaranteed,
        });
        let plain_report = serve_multi(&base).unwrap();
        let swap_report = serve_multi(&swapped).unwrap();
        prop_assert_eq!(&plain_report.titles[0].summary, &swap_report.titles[0].summary);
        prop_assert_eq!(plain_report.titles[0].groups, swap_report.titles[0].groups);
        prop_assert_eq!(plain_report.titles[0].delay, swap_report.titles[0].delay);
        prop_assert_eq!(plain_report.generated, swap_report.generated);
    }
}

#[test]
fn simultaneous_cross_title_arrivals_are_all_served_with_delay() {
    // Two identically-loaded titles competing for one channel: the slot-0
    // collision (and every later one) must be resolved by delay, never by
    // rejection.
    let config = MultiServeConfig {
        budget: Some(1),
        ..MultiServeConfig::new(
            vec![TitleConfig::new(40, 0.5), TitleConfig::new(40, 0.5)],
            120.0,
        )
    };
    let report = serve_multi(&config).unwrap();
    assert_eq!(report.rejected, 0);
    assert_eq!(report.served, report.generated);
    for title in &report.titles {
        assert!(title.generated > 0, "both titles must draw traffic");
        assert_eq!(title.served, title.generated);
    }
    assert!(
        report.delay.max_slots > 0,
        "two titles over one channel must queue"
    );
    // The loser of the first collision waits for the winner's full
    // stream: contention is visible at media-length scale.
    assert!(
        report.delay.max_slots >= 39,
        "cross-title contention should cost about one media length, got {}",
        report.delay.max_slots
    );
}

#[test]
fn starved_budget_grows_delay_but_never_rejects() {
    let titles = || {
        vec![
            TitleConfig::new(60, 0.8),
            TitleConfig::new(60, 0.8),
            TitleConfig::new(60, 0.8),
        ]
    };
    let starved = serve_multi(&MultiServeConfig {
        budget: Some(1),
        ..MultiServeConfig::new(titles(), 900.0)
    })
    .unwrap();
    let generous = serve_multi(&MultiServeConfig {
        budget: Some(12),
        ..MultiServeConfig::new(titles(), 900.0)
    })
    .unwrap();
    // Identical traffic either way; the budget only moves start-up delay.
    assert_eq!(starved.generated, generous.generated);
    assert_eq!(starved.rejected, 0);
    assert_eq!(generous.rejected, 0);
    assert_eq!(starved.served, starved.generated);
    assert_eq!(generous.served, generous.generated);
    assert!(
        starved.delay.p99_slots > generous.delay.p99_slots,
        "starving the budget must grow tail delay: {} vs {}",
        starved.delay.p99_slots,
        generous.delay.p99_slots
    );
    assert!(
        starved.delay.max_slots > 60,
        "three titles on one channel queue past one media length, got {}",
        starved.delay.max_slots
    );
}

#[test]
fn cross_policy_swap_serves_everything() {
    // DG → dyadic and dyadic → DG swaps off the boundary carry no
    // bit-identity claim, but the seam must compose: every arrival is
    // still served and the run stays deterministic.
    for (from, to) in [
        (PolicyKind::DelayGuaranteed, PolicyKind::Dyadic),
        (PolicyKind::Dyadic, PolicyKind::DelayGuaranteed),
    ] {
        let config = MultiServeConfig {
            budget: Some(3),
            ..MultiServeConfig::new(
                vec![TitleConfig {
                    policy: from,
                    swap: Some(PolicySwap {
                        after_groups: 17,
                        to,
                    }),
                    ..TitleConfig::new(24, 1.0)
                }],
                300.0,
            )
        };
        let a = serve_multi(&config).unwrap();
        let b = serve_multi(&config).unwrap();
        assert_eq!(a.rejected, 0);
        assert_eq!(a.served, a.generated);
        assert!(a.titles[0].groups > 17, "the swap point must be reached");
        assert_eq!(a.titles[0].summary, b.titles[0].summary);
    }
}
