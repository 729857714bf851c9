//! `offline_plan`: the known-horizon §3 plan. `sm_offline::optimal_forest`
//! builds the optimal forest for `n` consecutive slots in O(n), and
//! `sm_sim::simulate_streaming_slice` verifies it on the batch events
//! engine: the simulated cost must equal both the plan's cost and the
//! closed form `F(L, n)`.

use std::hint::black_box;
use std::time::Instant;

use sm_core::consecutive_slots;
use sm_offline::{optimal_forest, optimal_full_cost};
use sm_sim::{simulate_streaming_slice, SimConfig, StreamingSummary};

use crate::alloc::allocations;
use crate::{mix, ns_since, repeat_for, setup, Layers, Opts, Outcome};

/// Media length in slots.
const MEDIA_LEN: u64 = 100;

/// One plan-and-verify repetition.
struct Rep {
    forest_ns: f64,
    events_ns: f64,
    events_allocations: u64,
    cost: u64,
    summary: StreamingSummary,
    served: usize,
}

fn plan_and_verify(times: &[i64]) -> Result<Rep, String> {
    let mut served = 0usize;
    let t0 = Instant::now();
    let plan = optimal_forest(MEDIA_LEN, times.len());
    let forest_ns = ns_since(t0);
    let a0 = allocations();
    let t1 = Instant::now();
    let summary =
        simulate_streaming_slice(&plan.forest, times, MEDIA_LEN, SimConfig::events(), |r| {
            served += 1;
            black_box(r.max_buffer);
        })
        .map_err(|e| e.to_string())?;
    let events_ns = ns_since(t1);
    let events_allocations = allocations() - a0;
    Ok(Rep {
        forest_ns,
        events_ns,
        events_allocations,
        cost: plan.cost,
        summary,
        served,
    })
}

pub fn run(opts: &Opts) -> Outcome {
    // The seed moves n within a 2% band; the plan depends on (L, n) only.
    let base = opts.scale.pick(1_000_000, 150_000);
    let n = base + (mix(opts.seed, 2) % (base as u64 / 50)) as usize;
    let (times, setup_s) = setup(|| {
        let times = consecutive_slots(n);
        black_box(plan_and_verify(&times).ok());
        times
    });
    let expected = optimal_full_cost(MEDIA_LEN, n as u64);
    let mut out = Outcome::new(setup_s);
    out.end_to_end.mean_streams = expected as f64 / n as f64;
    let once = |out: &mut Outcome| -> Option<(Rep, f64)> {
        let t0 = Instant::now();
        let rep = plan_and_verify(&times);
        let wall_ns = ns_since(t0);
        match rep {
            Ok(rep) => {
                let ok = rep.served == n
                    && rep.summary.clients == n
                    && rep.summary.total_units == rep.cost as i64
                    && rep.cost == expected;
                out.tally(n as u64, ok);
                Some((rep, wall_ns))
            }
            Err(e) => {
                eprintln!("perfbench: plan failed: {e}");
                out.tally(n as u64, false);
                None
            }
        }
    };
    repeat_for(opts.seconds, || {
        let Some((_, wall_ns)) = once(&mut out) else {
            return;
        };
        out.end_to_end.rates.push(n as f64 / (wall_ns * 1e-9));
        // Traced: a second repetition whose layer times are kept; the
        // first one, timed as a whole, is the base of the overhead.
        if !opts.trace {
            return;
        }
        let Some((rep, traced_ns)) = once(&mut out) else {
            return;
        };
        let n = n as f64;
        out.layers.push(Layers {
            forest_ns_per_arrival: rep.forest_ns / n,
            events_ns_per_arrival: rep.events_ns / n,
            events_allocs_per_arrival: rep.events_allocations as f64 / n,
            sim_peak_streams: f64::from(rep.summary.bandwidth.peak()),
            bandwidth_units_per_arrival: rep.summary.total_units as f64 / n,
            trace_overhead_pct: (traced_ns - wall_ns) / wall_ns * 100.0,
            ..Layers::default()
        });
    });
    out
}
