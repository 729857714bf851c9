//! End-to-end oracle tests: every schedule produced by any algorithm in the
//! workspace must *execute* — uninterrupted playback, ≤ 2 concurrent
//! streams, Lemma-15 buffers — and its simulated bandwidth must equal the
//! analytic cost.

use stream_merging::core::{consecutive_slots, required_buffer};
use stream_merging::offline::forest::{optimal_forest, optimal_forest_bounded_buffer};
use stream_merging::offline::general;
use stream_merging::online::DelayGuaranteedOnline;
use stream_merging::sim::{simulate, simulate_with, SimConfig};

#[path = "../crates/sim/tests/support/dense.rs"]
mod dense;

#[test]
fn optimal_forests_execute_across_grid() {
    for media_len in [2u64, 5, 8, 15, 21, 40] {
        for n in [1usize, 2, 7, 8, 13, 25, 60] {
            let plan = optimal_forest(media_len, n);
            let times = consecutive_slots(n);
            let report = simulate(&plan.forest, &times, media_len)
                .unwrap_or_else(|e| panic!("L = {media_len}, n = {n}: {e}"));
            assert_eq!(
                report.total_units, plan.cost as i64,
                "bandwidth mismatch at L = {media_len}, n = {n}"
            );
            assert!(report.clients.iter().all(|c| c.max_concurrent <= 2));
            assert!(report.clients.iter().all(|c| c.min_slack >= 0));
        }
    }
}

#[test]
fn simulated_buffers_equal_lemma15_everywhere() {
    for media_len in [8u64, 15, 30] {
        for n in [8usize, 20, 45] {
            let plan = optimal_forest(media_len, n);
            let times = consecutive_slots(n);
            let report = simulate(&plan.forest, &times, media_len).unwrap();
            for cr in &report.clients {
                let (ti, local) = plan.forest.locate(cr.client);
                let tree = &plan.forest.trees()[ti];
                let start = plan.forest.tree_start(ti);
                let local_times = &times[start..start + tree.len()];
                assert_eq!(
                    cr.max_buffer,
                    required_buffer(tree, local_times, media_len, local),
                    "client {} (L = {media_len}, n = {n})",
                    cr.client
                );
            }
        }
    }
}

#[test]
fn online_forests_execute() {
    for media_len in [7u64, 15, 100] {
        let alg = DelayGuaranteedOnline::new(media_len);
        for n in [1usize, 5, 34, 120] {
            let forest = alg.forest_after(n);
            let times = consecutive_slots(n);
            let report = simulate(&forest, &times, media_len)
                .unwrap_or_else(|e| panic!("L = {media_len}, n = {n}: {e}"));
            assert_eq!(report.total_units as u64, alg.total_cost_after(n as u64));
        }
    }
}

#[test]
fn bounded_buffer_forests_respect_bound_in_simulation() {
    for (media_len, n, buffer) in [(20u64, 40usize, 4u64), (15, 33, 3), (30, 60, 7)] {
        let plan = optimal_forest_bounded_buffer(media_len, n, buffer);
        let times = consecutive_slots(n);
        let report = simulate_with(
            &plan.forest,
            &times,
            media_len,
            SimConfig {
                buffer_bound: Some(buffer),
            },
        )
        .unwrap_or_else(|e| panic!("L = {media_len}, n = {n}, B = {buffer}: {e}"));
        assert!(report.clients.iter().all(|c| c.max_buffer <= buffer as i64));
    }
}

#[test]
fn general_dp_forests_execute_on_irregular_arrivals() {
    let cases: Vec<Vec<i64>> = vec![
        vec![0, 1, 2, 3, 9, 10, 11, 30],
        vec![0, 4, 5, 6, 7, 8],
        vec![0, 2, 4, 8, 16, 32],
    ];
    for times in cases {
        let (forest, cost) = general::optimal_forest(&times, 12);
        let report =
            simulate(&forest, &times, 12).unwrap_or_else(|e| panic!("times {times:?}: {e}"));
        assert_eq!(report.total_units, cost, "times {times:?}");
    }
}

#[test]
fn peak_bandwidth_bounded_by_tree_heights() {
    // Any slot's concurrent streams within one tree is at most the number
    // of overlapping stream intervals; sanity-check the profile is sane and
    // the average matches total/units.
    let plan = optimal_forest(100, 200);
    let times = consecutive_slots(200);
    let report = simulate(&plan.forest, &times, 100).unwrap();
    let bw = &report.bandwidth;
    assert_eq!(bw.total_units(), report.total_units);
    assert!(bw.peak() as i64 <= report.total_units);
    assert!(bw.average() > 0.0);
    assert!((bw.average() - report.total_units as f64 / bw.span() as f64).abs() < 1e-9);
}

#[test]
fn dense_and_event_engines_agree_end_to_end() {
    // The proptest suite pins the event engine to the test-side dense
    // reference on randomized inputs; this pins it on the paper's own
    // plans, through the facade crate.
    for (media_len, n) in [(15u64, 8usize), (40, 60), (100, 200)] {
        let plan = optimal_forest(media_len, n);
        let times = consecutive_slots(n);
        let dense = dense::simulate(&plan.forest, &times, media_len, SimConfig::default()).unwrap();
        let events = simulate(&plan.forest, &times, media_len).unwrap();
        assert_eq!(dense, events, "L = {media_len}, n = {n}");
    }
}
