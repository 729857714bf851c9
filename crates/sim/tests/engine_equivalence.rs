//! Oracle equivalence: the event-driven engine must reproduce the
//! slot-stepped dense reference (`support/dense.rs`, test support that
//! shares none of the engine's closed forms) *bit for bit* — same totals,
//! same bandwidth change-points, same per-client
//! `max_buffer`/`max_concurrent`/`min_slack`, and the same first error on
//! infeasible inputs — across randomized forests, arrival sequences, media
//! lengths, and buffer bounds. The streaming API
//! (`simulate_streaming_slice`) is pinned against the collected
//! `simulate_with` path on every case, and so is the push-based
//! `IncrementalEngine` (the driver behind both), fed one arrival at a time
//! as the serve loop feeds it: summary, reports, emission order, and first
//! error. An exhaustive grid over every small tree and time vector pins the
//! incremental engine's closed-form reports (with and without buffer
//! bounds) on sorted times, and pins that every unsorted times vector fails
//! at its first decrease. Fixed cases run the paper's Fig. 3/4 tree and
//! the edge shapes on both batch simulators, and pin the push interface
//! against the dense reference on the closed forms' worked examples and on
//! buffer bounds up to `u64::MAX`.

#[path = "support/dense.rs"]
mod dense;

use proptest::prelude::*;
use sm_core::{consecutive_slots, full_cost, required_buffer, MergeForest, MergeTree, ModelError};
use sm_sim::{
    simulate, simulate_streaming_slice, simulate_with, Attach, ClientReport, IncrementalEngine,
    IncrementalSummary, IngestError, SimConfig, SimError, SimReport,
};

fn run_both(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
) -> (
    Result<SimReport, sm_sim::SimError>,
    Result<SimReport, sm_sim::SimError>,
) {
    let config = SimConfig { buffer_bound };
    let dense = dense::simulate(forest, times, media_len, config);
    let events = simulate_with(forest, times, media_len, config);
    (dense, events)
}

/// Runs the streaming API, collecting emitted reports in emission order.
fn run_streaming(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
) -> (
    Result<sm_sim::StreamingSummary, SimError>,
    Vec<ClientReport>,
) {
    let mut emitted = Vec::new();
    let summary =
        simulate_streaming_slice(forest, times, media_len, SimConfig { buffer_bound }, |r| {
            emitted.push(r)
        });
    (summary, emitted)
}

/// The streaming path must agree with the collected event-engine
/// report: same bandwidth change-points, same totals, same per-client
/// measurements, and the same first error — with emissions arriving in
/// part-deadline order.
fn assert_streaming_matches(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
    events: &Result<SimReport, SimError>,
) {
    let (summary, emitted) = run_streaming(forest, times, media_len, buffer_bound);
    match (events, summary) {
        (Ok(report), Ok(summary)) => {
            assert_eq!(summary.bandwidth, report.bandwidth);
            assert_eq!(summary.total_units, report.total_units);
            assert_eq!(summary.clients, report.clients.len());
            // Emission order is part-deadline order (`t_c + L`, ties by
            // arrival index), which is arrival order for accepted times.
            assert_eq!(emitted, report.clients, "emission order = arrival order");
        }
        (Err(report_err), Err(stream_err)) => {
            assert_eq!(*report_err, stream_err);
        }
        (report, summary) => {
            panic!("streaming/collected feasibility disagreement: {report:?} vs {summary:?}")
        }
    }
}

/// Pushes a time-ordered batch through `IncrementalEngine::push` one
/// arrival at a time, as the serve loop does: a root opens a tree, and any
/// other arrival merges under its parent's global index in that tree. Only
/// model errors can stop a time-ordered batch.
fn push_all(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
    mut emit: impl FnMut(ClientReport),
) -> Result<IncrementalSummary, SimError> {
    let mut engine = IncrementalEngine::new(media_len, config)?;
    for (range, tree) in forest.iter_with_ranges() {
        for local in 0..tree.len() {
            let attach = match tree.parent(local) {
                None => Attach::Root,
                Some(p) => Attach::Under(range.start + p),
            };
            match engine.push(times[range.start + local], attach, &mut emit) {
                Ok(()) => {}
                Err(IngestError::Sim(e)) => return Err(e),
                Err(e) => panic!("the push interface rejected a time-ordered batch: {e}"),
            }
        }
    }
    engine.finish(emit)
}

/// The push-based incremental engine fed the same arrivals must be
/// bit-identical to the collected event-engine report: same summary, same
/// reports in the same emission order, same first error.
fn assert_incremental_matches(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
    events: &Result<SimReport, SimError>,
) {
    let mut emitted = Vec::new();
    let got = push_all(forest, times, media_len, SimConfig { buffer_bound }, |r| {
        emitted.push(r)
    });
    match (events, got) {
        (Ok(report), Ok(inc)) => {
            assert_eq!(inc.summary.bandwidth, report.bandwidth);
            assert_eq!(inc.summary.total_units, report.total_units);
            assert_eq!(inc.summary.clients, report.clients.len());
            assert_eq!(emitted, report.clients, "incremental emission order");
            assert!(
                inc.max_open_trees <= forest.num_trees().max(1),
                "retention may never exceed the tree count"
            );
        }
        (Err(batch_err), Err(ingest_err)) => {
            assert_eq!(ingest_err, *batch_err, "first error must pin");
        }
        (batch, ingest) => {
            panic!("incremental/batch feasibility disagreement: {batch:?} vs {ingest:?}")
        }
    }
}

/// Full bit-for-bit comparison, plus internal-consistency checks on success.
fn assert_engines_agree(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
) {
    let (dense, events) = run_both(forest, times, media_len, buffer_bound);
    assert_eq!(dense, events, "L = {media_len}, n = {}", times.len());
    assert_streaming_matches(forest, times, media_len, buffer_bound, &events);
    assert_incremental_matches(forest, times, media_len, buffer_bound, &events);
    if let Ok(report) = events {
        assert_eq!(report.bandwidth.total_units(), report.total_units);
        // Per-slot bandwidth agreement at every change-point (and just
        // before it, exercising the piecewise-constant lookup).
        let dense_bw = dense.as_ref().unwrap().bandwidth.clone();
        for &(slot, count) in report.bandwidth.change_points() {
            assert_eq!(dense_bw.at(slot), count);
            assert_eq!(report.bandwidth.at(slot), count);
            assert_eq!(dense_bw.at(slot - 1), report.bandwidth.at(slot - 1));
        }
        assert_eq!(report.clients.len(), times.len());
        for (i, cr) in report.clients.iter().enumerate() {
            assert_eq!(cr.client, i, "reports must be in arrival order");
        }
    }
}

/// Strictly increasing, irregular arrival times from positive gaps.
fn cumulate(gaps: &[i64]) -> Vec<i64> {
    let mut t = 0i64;
    gaps.iter()
        .map(|&g| {
            let at = t;
            t += g;
            at
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimal_forests_agree(media_len in 2u64..64, n in 1usize..60) {
        let plan = sm_offline::forest::optimal_forest(media_len, n);
        let times = consecutive_slots(n);
        assert_engines_agree(&plan.forest, &times, media_len, None);
    }

    #[test]
    fn optimal_forests_agree_under_buffer_bounds(
        media_len in 4u64..40,
        n in 1usize..40,
        bound in 0u64..6,
    ) {
        // Bounds small enough to trip BufferOverflow on many cases: the
        // engines must agree on the Ok reports *and* on the exact error.
        let plan = sm_offline::forest::optimal_forest(media_len, n);
        let times = consecutive_slots(n);
        assert_engines_agree(&plan.forest, &times, media_len, Some(bound));
    }

    #[test]
    fn delay_guaranteed_forests_agree(media_len in 2u64..48, n in 1usize..130) {
        let alg = sm_online::DelayGuaranteedOnline::new(media_len);
        let forest = alg.forest_after(n);
        let times = consecutive_slots(n);
        assert_engines_agree(&forest, &times, media_len, None);
    }

    #[test]
    fn general_dp_forests_agree_on_irregular_arrivals(
        gaps in proptest::collection::vec(1i64..5, 1..24),
        media_len in 4u64..24,
    ) {
        let times = cumulate(&gaps);
        let (forest, cost) = sm_offline::general::optimal_forest(&times, media_len);
        assert_engines_agree(&forest, &times, media_len, None);
        let (_, events) = run_both(&forest, &times, media_len, None);
        prop_assert_eq!(events.unwrap().total_units, cost);
    }

    #[test]
    fn deep_chain_forests_agree(
        media_len in 8u64..64,
        n in 1usize..120,
    ) {
        // The pathological many-segment case the endpoint sweep exists for:
        // maximal feasible chains (length L/2 + 1) tiled over the arrivals.
        let chain = (media_len / 2 + 1) as usize;
        let mut trees = Vec::new();
        let mut left = n;
        while left > 0 {
            let k = left.min(chain);
            trees.push(MergeTree::chain(k));
            left -= k;
        }
        let forest = MergeForest::from_trees(trees).unwrap();
        let times = consecutive_slots(n);
        assert_engines_agree(&forest, &times, media_len, None);
    }

    #[test]
    fn arbitrary_trees_agree_including_errors(
        seeds in proptest::collection::vec(0u64..1_000_000, 1..12),
        media_len in 1u64..18,
    ) {
        // Random (frequently infeasible) parent structures: the engines
        // must return identical errors, not just identical successes.
        let parents: Vec<Option<usize>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| if i == 0 { None } else { Some((s as usize) % i) })
            .collect();
        let tree = MergeTree::from_parents(&parents).unwrap();
        let n = parents.len();
        let forest = MergeForest::single(tree);
        let times = consecutive_slots(n);
        assert_engines_agree(&forest, &times, media_len, None);
    }

    #[test]
    fn simultaneous_arrivals_pin_all_three_engines(
        seeds in proptest::collection::vec(0u64..1_000_000_000, 2..40),
        media_len in 2u64..20,
        bound in 0u64..7,
    ) {
        // A flash-crowd generator: each seed decides a gap (0 with high
        // probability, so duplicate timestamps pile up both *within* a
        // title's tree and *across* tree boundaries), whether the arrival
        // opens a new title's tree, and where it merges. Tie-breaking —
        // deadline ties resolve in arrival-index order, co-arrival streams
        // start at the same slot — must pin identically across the dense,
        // event, and incremental engines. A buffer bound of 0..6 (or none)
        // pins the closed-form reports of tied arrivals through
        // `BufferOverflow` as well.
        let mut times = Vec::with_capacity(seeds.len());
        let mut parents_by_tree: Vec<Vec<Option<usize>>> = Vec::new();
        let mut t = 0i64;
        for (i, &s) in seeds.iter().enumerate() {
            t += match s % 5 { 0..=2 => 0, 3 => 1, _ => 2 };
            times.push(t);
            if i == 0 || (s / 5) % 4 == 0 {
                parents_by_tree.push(vec![None]);
            } else {
                let open = parents_by_tree.last_mut().unwrap();
                let parent = (s / 20) as usize % open.len();
                open.push(Some(parent));
            }
        }
        let trees: Vec<MergeTree> = parents_by_tree
            .iter()
            .map(|p| MergeTree::from_parents(p).unwrap())
            .collect();
        let forest = MergeForest::from_trees(trees).unwrap();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "generator premise");
        assert_engines_agree(&forest, &times, media_len, (bound < 6).then_some(bound));
    }

    #[test]
    fn adversarial_mixed_forests_pin_all_three_engines(
        seeds in proptest::collection::vec(0u64..1_000_000_000, 1..36),
        media_len in 0u64..12,
    ) {
        // One forest deliberately mixing the degenerate shapes: media_len
        // can be 0 (every part-deadline fires at the arrival slot itself,
        // and the only feasible merge chain is the trivial one),
        // single-arrival trees, maximum-depth chains (L/2 + 1, the longest
        // feasible chain), overlong chains that *exceed* that depth, and
        // zero-gap arrival ties within and across tree boundaries. Many
        // cases are infeasible by construction — the dense, event, and
        // incremental engines must agree bit for bit on the Ok runs and
        // pin the exact same first error everywhere else.
        let max_chain = (media_len / 2 + 1) as usize;
        let mut trees = Vec::new();
        let mut times = Vec::with_capacity(seeds.len());
        let mut t = 0i64;
        let mut i = 0usize;
        while i < seeds.len() {
            let s = seeds[i];
            let remaining = seeds.len() - i;
            let k = match s % 3 {
                0 => 1,                        // single-arrival tree
                1 => max_chain.min(remaining), // deepest feasible chain
                // Short chains that may exceed the feasible depth when
                // media_len is tiny: the infeasibility generator.
                _ => (1 + (s / 3) as usize % 4).min(remaining),
            };
            trees.push(MergeTree::chain(k));
            for j in 0..k {
                if i + j > 0 {
                    t += match (s / 12 + j as u64) % 4 {
                        0 | 1 => 0, // pile up ties
                        2 => 1,
                        _ => 2,
                    };
                }
                times.push(t);
            }
            i += k;
        }
        let forest = MergeForest::from_trees(trees).unwrap();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "generator premise");
        assert_engines_agree(&forest, &times, media_len, None);
    }
}

#[test]
fn out_of_order_times_fail_every_entry_point_before_any_report() {
    // Client 0's deadline (0 + 10) passes before the arrival at 100, so an
    // entry point that checked times only as it pushed would emit client
    // 0's report first.
    let forest = MergeForest::from_trees(vec![MergeTree::singleton(); 3]).unwrap();
    let times = [0i64, 100, 50];
    let expected = SimError::TimesOutOfOrder {
        index: 2,
        time: 50,
        previous: 100,
    };
    assert_eq!(simulate(&forest, &times, 10), Err(expected.clone()));
    let (dense, events) = run_both(&forest, &times, 10, None);
    assert_eq!(dense, Err(expected.clone()));
    assert_eq!(events, Err(expected.clone()));
    let (summary, emitted) = run_streaming(&forest, &times, 10, None);
    assert_eq!(summary, Err(expected));
    assert!(emitted.is_empty(), "streaming emitted {emitted:?}");
}

/// Every parent array over `n` nodes: node `i` merges under any of `0..i`.
fn all_parent_arrays(n: usize) -> Vec<Vec<Option<usize>>> {
    let mut out = vec![vec![None]];
    for i in 1..n {
        out = out
            .into_iter()
            .flat_map(|parents| {
                (0..i).map(move |p| {
                    let mut next = parents.clone();
                    next.push(Some(p));
                    next
                })
            })
            .collect();
    }
    out
}

#[test]
fn every_small_tree_and_time_vector_pins_events_to_dense() {
    // Every parent array with at most 5 nodes, every times vector over
    // 0..=3 and L in 0..=8: 236 340 cases. Sorted times replay through the
    // incremental engine's closed forms, whose first error `simulate_with`
    // returns as is; every unsorted vector must fail on both engines at
    // its first decrease. Every sorted case also runs all three engines
    // under buffer bounds 0..=3 (57 888 more cases), which pins
    // `BufferOverflow`'s `needed` and the incremental path.
    let mut cases = 0usize;
    let mut bounded = 0usize;
    for n in 1..=5usize {
        for parents in all_parent_arrays(n) {
            let forest = MergeForest::single(MergeTree::from_parents(&parents).unwrap());
            for code in 0..4usize.pow(n as u32) {
                let times: Vec<i64> = (0..n)
                    .map(|i| (code / 4usize.pow(i as u32) % 4) as i64)
                    .collect();
                let first_decrease = (1..n).find(|&i| times[i] < times[i - 1]);
                for media_len in 0..=8u64 {
                    let (dense, events) = run_both(&forest, &times, media_len, None);
                    assert_eq!(
                        dense, events,
                        "parents {parents:?}, times {times:?}, L = {media_len}"
                    );
                    cases += 1;
                    if let Some(index) = first_decrease {
                        let expected = SimError::TimesOutOfOrder {
                            index,
                            time: times[index],
                            previous: times[index - 1],
                        };
                        assert_eq!(events, Err(expected), "times {times:?}");
                    } else {
                        for bound in 0..=3u64 {
                            assert_engines_agree(&forest, &times, media_len, Some(bound));
                            bounded += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!((cases, bounded), (236_340, 57_888));
}

/// A batch simulator: the dense reference or `simulate_with`.
type Batch = fn(&MergeForest, &[i64], u64, SimConfig) -> Result<SimReport, SimError>;

/// The fixed cases below run on both batch simulators.
const ENGINES: [(&str, Batch); 2] = [("dense", dense::simulate), ("events", simulate_with)];

fn fig4_forest() -> MergeForest {
    MergeForest::single(
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
        .unwrap(),
    )
}

#[test]
fn fig3_executes_cleanly() {
    let forest = fig4_forest();
    let times = consecutive_slots(8);
    for (_, run) in ENGINES {
        let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
        assert_eq!(report.total_units, 36);
        assert_eq!(report.total_units, full_cost(&forest, &times, 15));
        assert_eq!(report.clients.len(), 8);
    }
}

#[test]
fn measured_buffers_match_lemma15() {
    let forest = fig4_forest();
    let times = consecutive_slots(8);
    for (engine, run) in ENGINES {
        let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
        let tree = &forest.trees()[0];
        for cr in &report.clients {
            assert_eq!(
                cr.max_buffer,
                required_buffer(tree, &times, 15, cr.client),
                "client {} ({engine})",
                cr.client
            );
        }
    }
}

#[test]
fn no_client_exceeds_two_streams() {
    let forest = fig4_forest();
    let times = consecutive_slots(8);
    for (_, run) in ENGINES {
        let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
        for cr in &report.clients {
            assert!(cr.max_concurrent <= 2);
        }
    }
}

#[test]
fn stall_detected_when_media_too_short() {
    // The Fig. 4 shape with L = 8: client 7's program needs parts past
    // what the root can deliver in time.
    let forest = fig4_forest();
    let times = consecutive_slots(8);
    for (engine, run) in ENGINES {
        let err = run(&forest, &times, 8, SimConfig::default()).unwrap_err();
        // Either a coverage failure or a stall, depending on which
        // client trips first — both are model-consistency failures.
        match err {
            SimError::Model(_) | SimError::Stall { .. } | SimError::StreamTooShort { .. } => {}
            other => panic!("unexpected error {other:?} ({engine})"),
        }
    }
}

#[test]
fn buffer_bound_enforced() {
    let forest = fig4_forest();
    let times = consecutive_slots(8);
    for (engine, run) in ENGINES {
        let config = SimConfig {
            buffer_bound: Some(3),
        };
        let err = run(&forest, &times, 15, config).unwrap_err();
        assert!(matches!(err, SimError::BufferOverflow { .. }), "{engine}");
    }
}

#[test]
fn slack_is_zero_for_just_in_time_parts() {
    // Clients receive their first parts exactly as they play them.
    let forest = fig4_forest();
    let times = consecutive_slots(8);
    for (engine, run) in ENGINES {
        let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
        for cr in &report.clients {
            assert_eq!(cr.min_slack, 0, "client {} ({engine})", cr.client);
        }
    }
}

#[test]
fn bandwidth_profile_peaks_match_fig3() {
    let forest = fig4_forest();
    let times = consecutive_slots(8);
    for (_, run) in ENGINES {
        let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
        // At slot 7 streams A, D(3..8), F(5..14), H(7..9) are live -> 4
        // concurrent; G lives only in slot 6..7.
        assert!(report.bandwidth.peak() >= 4);
        assert_eq!(report.bandwidth.total_units(), 36);
    }
}

#[test]
fn multi_tree_forest_simulates() {
    let t = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
    let forest = MergeForest::from_trees(vec![t.clone(), t]).unwrap();
    let times = consecutive_slots(6);
    for (_, run) in ENGINES {
        let report = run(&forest, &times, 10, SimConfig::default()).unwrap();
        assert_eq!(report.total_units, 2 * 10 + 3 + 3);
    }
}

#[test]
fn empty_forest_yields_empty_report() {
    // Regression: zero arrivals used to be unconstructible/panicky; it
    // must now produce an empty report on both engines.
    let forest = MergeForest::empty();
    for (_, run) in ENGINES {
        let report = run(&forest, &[], 15, SimConfig::default()).unwrap();
        assert_eq!(report.total_units, 0);
        assert!(report.clients.is_empty());
        assert!(report.bandwidth.is_empty());
        assert_eq!(report.bandwidth.peak(), 0);
    }
}

#[test]
fn single_arrival_forest_simulates() {
    let forest = MergeForest::single(MergeTree::singleton());
    let times = [5i64];
    for (_, run) in ENGINES {
        let report = run(&forest, &times, 12, SimConfig::default()).unwrap();
        assert_eq!(report.total_units, 12);
        assert_eq!(report.clients.len(), 1);
        let cr = &report.clients[0];
        assert_eq!(cr.max_buffer, 0);
        assert_eq!(cr.max_concurrent, 1);
        assert_eq!(cr.min_slack, 0);
        assert_eq!(report.bandwidth.peak(), 1);
    }
}

#[test]
fn zero_media_len_simulates_to_nothing() {
    // Regression: L = 0 exercised the per-slot vectors' edge cases. A
    // forest of singleton trees is the only feasible shape (no parts to
    // deliver, so every receiving program is empty).
    let trees = vec![MergeTree::singleton(); 3];
    let forest = MergeForest::from_trees(trees).unwrap();
    let times = [0i64, 4, 9];
    for (_, run) in ENGINES {
        let report = run(&forest, &times, 0, SimConfig::default()).unwrap();
        assert_eq!(report.total_units, 0);
        assert_eq!(report.clients.len(), 3);
        for cr in &report.clients {
            assert_eq!(cr.max_buffer, 0);
            assert_eq!(cr.max_concurrent, 0);
            assert_eq!(cr.min_slack, i64::MAX, "no parts -> vacuous slack");
        }
    }
}

#[test]
fn decreasing_times_are_rejected_and_ties_simulate() {
    // Sibling order follows index order; a later sibling may not
    // arrive earlier.
    let tree = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
    let forest = MergeForest::single(tree);
    for (engine, run) in ENGINES {
        let err = run(&forest, &[0, 5, 2], 40, SimConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SimError::TimesOutOfOrder {
                index: 2,
                time: 2,
                previous: 5
            },
            "{engine}"
        );
        let report = run(&forest, &[0, 2, 2], 40, SimConfig::default()).unwrap();
        assert_eq!(report.clients.len(), 3, "{engine}");
    }
}

#[test]
fn media_len_overflow_is_rejected_up_front() {
    let forest = MergeForest::single(MergeTree::singleton());
    for (_, run) in ENGINES {
        let err = run(&forest, &[0], u64::MAX, SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::MediaLenOverflow { .. }));
    }
}

/// The push interface against the dense reference over the same sorted
/// input; pins summary, reports, emission order (arrival order for sorted
/// times), and the first error.
fn assert_matches_dense(forest: &MergeForest, times: &[i64], media_len: u64, config: SimConfig) {
    let expected = dense::simulate(forest, times, media_len, config);
    let mut inc = Vec::new();
    let got = push_all(forest, times, media_len, config, |r| inc.push(r));
    match (expected, got) {
        (Ok(report), Ok(isummary)) => {
            assert_eq!(isummary.summary.bandwidth, report.bandwidth);
            assert_eq!(isummary.summary.total_units, report.total_units);
            assert_eq!(isummary.summary.clients, report.clients.len());
            assert_eq!(inc, report.clients, "reports and emission order must pin");
        }
        (Err(e), Err(ie)) => assert_eq!(ie, e),
        (e, g) => panic!("engines disagree on outcome: {e:?} vs {g:?}"),
    }
}

#[test]
fn fig4_pins_against_the_dense_oracle() {
    let forest = fig4_forest();
    assert_matches_dense(&forest, &consecutive_slots(8), 15, SimConfig::default());
}

#[test]
fn multi_tree_with_gaps_and_ties_pins() {
    let t = MergeTree::from_parents(&[None, Some(0), Some(1), Some(0)]).unwrap();
    let forest = MergeForest::from_trees(vec![t.clone(), t, MergeTree::singleton()]).unwrap();
    // Ties within a tree, a tie across the tree boundary, and a gap.
    let times = vec![0, 0, 2, 2, 2, 3, 3, 5, 40];
    assert_matches_dense(&forest, &times, 12, SimConfig::default());
}

#[test]
fn tied_co_arrival_gains_its_stream_retroactively() {
    // Arrival 1 ties with the root: until arrival 2 merges under it,
    // its stream has length 0. Stream 1 must then retroactively start
    // (length 2·7 − 5 − 5 = 4) — the case that forces stream lengths
    // and bandwidth events to wait for tree closure.
    let tree = MergeTree::from_parents(&[None, Some(0), Some(1)]).unwrap();
    let forest = MergeForest::single(tree);
    assert_matches_dense(&forest, &[5, 5, 7], 20, SimConfig::default());
}

#[test]
fn deep_chain_pins() {
    let media = 40u64;
    let c = (media / 2 + 1) as usize;
    let forest = MergeForest::single(MergeTree::chain(c));
    assert_matches_dense(&forest, &consecutive_slots(c), media, SimConfig::default());
}

#[test]
fn buffer_bound_error_pins() {
    // Fig. 4's largest buffer is 3 parts, so a bound of 1 trips
    // BufferOverflow. Bounds from 2^63 up do not fit an `i64`: no buffer
    // can exceed them, and a wrapping cast would make them negative.
    let forest = fig4_forest();
    let times = consecutive_slots(8);
    for bound in [1, 1 << 63, u64::MAX] {
        let config = SimConfig {
            buffer_bound: Some(bound),
        };
        assert_matches_dense(&forest, &times, 15, config);
        let dense = dense::simulate(&forest, &times, 15, config);
        assert_eq!(dense.is_err(), bound == 1, "bound {bound}: {dense:?}");
    }
}

/// Every report of one tree through the push interface, or its first
/// error, after pinning the run against the dense reference.
fn tree_reports(
    parents: &[Option<usize>],
    times: &[i64],
    media_len: u64,
) -> Result<Vec<ClientReport>, SimError> {
    let forest = MergeForest::single(MergeTree::from_parents(parents).unwrap());
    assert_matches_dense(&forest, times, media_len, SimConfig::default());
    let mut reports = Vec::new();
    push_all(&forest, times, media_len, SimConfig::default(), |r| {
        reports.push(r)
    })?;
    Ok(reports)
}

fn report(client: usize, max_buffer: i64, max_concurrent: usize) -> ClientReport {
    ClientReport {
        client,
        max_buffer,
        max_concurrent,
        min_slack: 0,
    }
}

#[test]
fn closed_forms_match_the_worked_examples() {
    // Client 2: t_c = 7, t_u = 5, t_r = 0, so m = 9 and d = 7. Its
    // buffer peaks at min(d, L − d) = 3, not at d, and it receives two
    // streams at once because t_c > t_u.
    let got = tree_reports(&[None, Some(0), Some(1)], &[0, 5, 7], 10).unwrap();
    assert_eq!(got, vec![report(0, 0, 1), report(1, 5, 2), report(2, 3, 2)]);
    // Client 1 sits under the root at d = 5, so m = d. At L = 5 the
    // root's segment is empty (m = L): one stream at a time, no buffer.
    let got = tree_reports(&[None, Some(0)], &[0, 5], 5).unwrap();
    assert_eq!(got, vec![report(0, 0, 1), report(1, 0, 1)]);
    // At L = 4 part m = 5 lies outside the media.
    let out_of_range = |part| Err(SimError::Model(ModelError::PartOutOfRange { part }));
    assert_eq!(tree_reports(&[None, Some(0)], &[0, 5], 4), out_of_range(5));
    // L = 0: a root and its co-arrival receive nothing (m = 0)…
    let nothing = |client| ClientReport {
        client,
        max_buffer: 0,
        max_concurrent: 0,
        min_slack: i64::MAX,
    };
    let got = tree_reports(&[None, Some(0)], &[3, 3], 0).unwrap();
    assert_eq!(got, vec![nothing(0), nothing(1)]);
    // …and a later arrival needs part m = 1 of an empty media.
    assert_eq!(tree_reports(&[None, Some(0)], &[3, 4], 0), out_of_range(1));
}
