//! `epoch_server`: the §5 multi-object server over many catalog epochs,
//! `sm_server::simulate_dynamic_with` at plan-ahead depth 2 with a shared
//! `PlannerMemo`. Catalogs cycle through five Zipf sizes, so every switch
//! re-plans, and most epochs re-plan media lengths the memo has seen.

use std::hint::black_box;
use std::time::Instant;

use sm_server::{
    plan_weighted, plan_weighted_with, simulate_dynamic_with, Catalog, DynamicConfig,
    DynamicReport, Epoch, PlannerMemo,
};

use crate::alloc::allocations;
use crate::{mix, ns_since, repeat_for, setup, Layers, Opts, Outcome};

const EPOCH_MINUTES: u64 = 600;
/// Candidate guaranteed delays, in minutes.
const CANDIDATES: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
/// Catalog sizes; each block of five epochs visits all of them.
const SIZES: [usize; 5] = [16, 20, 24, 28, 32];
/// Playback durations cycled over each catalog's titles, in minutes.
const DURATIONS: [f64; 4] = [120.0, 90.0, 100.0, 150.0];

struct Inputs {
    epochs: Vec<Epoch>,
    horizon: u64,
    budget: u64,
}

/// The seed orders the sizes within each block of five epochs and nudges
/// the Zipf exponent by at most 2%: it varies the inputs, not the
/// workload's character. The budget is two thirds of the biggest
/// catalog's all-minimum-delay demand, so the greedy planner relaxes
/// delays without ever going infeasible.
fn inputs(seed: u64, count: usize) -> Inputs {
    let exponent = 1.0 + ((mix(seed, 3) % 2001) as f64 / 1000.0 - 1.0) * 0.02;
    let mut order = SIZES;
    let epochs = (0..count)
        .map(|i| {
            if i % SIZES.len() == 0 {
                for j in (1..order.len()).rev() {
                    let k = (mix(seed, 4 + (i * SIZES.len() + j) as u64) % (j as u64 + 1)) as usize;
                    order.swap(j, k);
                }
            }
            Epoch {
                start_minute: i as u64 * EPOCH_MINUTES,
                catalog: Catalog::zipf(order[i % SIZES.len()], exponent, &DURATIONS),
            }
        })
        .collect();
    let biggest = Catalog::zipf(SIZES[SIZES.len() - 1], exponent, &DURATIONS);
    let budget = plan_weighted(&biggest, u64::MAX, &[CANDIDATES[0]])
        .expect("an unconstrained plan always exists")
        .total_peak
        * 2
        / 3;
    Inputs {
        epochs,
        horizon: count as u64 * EPOCH_MINUTES,
        budget,
    }
}

fn simulate(input: &Inputs, epochs: usize, config: &DynamicConfig) -> Option<DynamicReport> {
    simulate_dynamic_with(
        &input.epochs[..epochs],
        input.budget,
        &CANDIDATES,
        epochs as u64 * EPOCH_MINUTES,
        config,
    )
    .map_err(|e| eprintln!("perfbench: dynamic run failed: {e}"))
    .ok()
}

pub fn run(opts: &Opts) -> Outcome {
    let count = opts.scale.pick(384, 12);
    let (input, setup_s) = setup(|| {
        let input = inputs(opts.seed, count);
        let warm_up = DynamicConfig::depth(2).with_memo(PlannerMemo::new());
        black_box(simulate(&input, count, &warm_up));
        input
    });
    // The memo-free depth-1 run is the reference every timed run must
    // match; it runs once, outside the timed region.
    let reference = simulate(&input, count, &DynamicConfig::depth(1));
    let mut out = Outcome::new(setup_s);
    repeat_for(opts.seconds, || {
        let memo = PlannerMemo::new();
        let config = DynamicConfig::depth(2).with_memo(memo.clone());
        let a0 = allocations();
        let t0 = Instant::now();
        let report = simulate(&input, count, &config);
        let wall_ns = ns_since(t0);
        let allocs = allocations() - a0;
        let (Some(report), Some(reference)) = (report, reference.as_ref()) else {
            out.tally(count as u64, false);
            return;
        };
        let mut ok = match report.deterministic_diff(reference) {
            None => true,
            Some(diff) => {
                eprintln!("perfbench: run diverges from the reference: {diff}");
                false
            }
        };
        out.end_to_end.rates.push(count as f64 / (wall_ns * 1e-9));
        out.end_to_end.mean_streams =
            report.per_minute.iter().sum::<u64>() as f64 / input.horizon as f64;
        if opts.trace {
            let replay = replay_plans(&input, reference);
            ok &= replay.is_some();
            if let Some((plan_ns, overhead_pct)) = replay {
                let epochs = count as f64;
                let (hits, misses) = (memo.hits() as f64, memo.misses() as f64);
                out.layers.push(Layers {
                    plan_ms_per_epoch: plan_ns * 1e-6 / epochs,
                    memo_hit_ratio: hits / (hits + misses),
                    materialize_ms_per_epoch: (wall_ns - plan_ns) * 1e-6 / epochs,
                    server_allocs_per_epoch: allocs as f64 / epochs,
                    server_peak_streams: report.peak as f64,
                    trace_overhead_pct: overhead_pct,
                    ..Layers::default()
                });
            }
        }
        out.tally(count as u64, ok);
    });
    out
}

/// Replays the planning stage on the calling thread: `plan_weighted_with`
/// per epoch catalog, sharing one fresh memo across epochs as the timed
/// run does. Returns the summed per-call time and the overhead of timing
/// each call against a second pass timed only as a whole, or `None` if a
/// plan differs from the reference run's.
fn replay_plans(input: &Inputs, reference: &DynamicReport) -> Option<(f64, f64)> {
    let plan = |memo: &PlannerMemo, epoch: &Epoch| {
        plan_weighted_with(&epoch.catalog, input.budget, &CANDIDATES, memo)
    };
    let memo = PlannerMemo::new();
    let mut plan_ns = 0.0;
    let mut matches = true;
    let t0 = Instant::now();
    for (epoch, expected) in input.epochs.iter().zip(&reference.epoch_plans) {
        let t = Instant::now();
        let chosen = plan(&memo, epoch);
        plan_ns += ns_since(t);
        matches &= chosen.as_ref() == Some(&expected.plan);
    }
    let traced_ns = ns_since(t0);

    let memo = PlannerMemo::new();
    let t0 = Instant::now();
    for epoch in &input.epochs {
        black_box(plan(&memo, epoch));
    }
    let whole_ns = ns_since(t0);
    matches.then_some((plan_ns, (traced_ns - whole_ns) / whole_ns * 100.0))
}
