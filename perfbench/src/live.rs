//! `live_budget` and `live_dense`: the multi-title serve loop
//! (`sm_serve::serve_multi_with`) end to end, plus a per-layer replay of
//! the same traffic through the loop's public building blocks.
//!
//! Every run is a closed batch: arrivals live in virtual slot time and the
//! producer→ingest channel applies backpressure, so throughput is arrivals
//! served over wall time.

use std::hint::black_box;
use std::time::Instant;

use sm_core::merge_runs;
use sm_online::{DelayGuaranteedOnline, DyadicConfig, DyadicMerger, IncrementalPolicy};
use sm_serve::{serve_multi_with, MultiServeConfig, MultiServeReport, PolicyKind, TitleConfig};
use sm_server::PlannerMemo;
use sm_sim::{Attach, IncrementalEngine, IncrementalSummary, SimConfig};
use sm_workload::{ArrivalProcess, PoissonProcess};

use crate::alloc::allocations;
use crate::{mix, ns_since, percentile, repeat_for, setup, tail, Layers, Opts, Outcome};

/// The serve loop's per-(batch, title) seed mixers. The replay must draw
/// exactly the traffic `serve_multi_with` draws; `live_dense` checks that
/// it does, because its replay must reproduce the served run bit for bit.
const BATCH_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const TITLE_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Media lengths of the three titles, in slots.
const MEDIA_LENS: [u64; 3] = [64, 100, 144];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Dyadic titles, mean gaps 1/2/4 slots, shared budget 6: the delay
    /// planner binds and the policy costs tens of ns per decision.
    Budget,
    /// Delay Guaranteed titles, mean gaps 0.5/1/2 slots, no budget: the
    /// planner is bypassed and about half the arrivals join a pending
    /// group, so the engine and the loop itself do the work.
    Dense,
}

fn config(shape: Shape, seed: u64, arrivals: usize) -> MultiServeConfig {
    let (gaps, policy, budget) = match shape {
        Shape::Budget => ([1.0, 2.0, 4.0], PolicyKind::Dyadic, Some(6)),
        Shape::Dense => ([0.5, 1.0, 2.0], PolicyKind::DelayGuaranteed, None),
    };
    let titles = MEDIA_LENS
        .iter()
        .zip(gaps)
        .map(|(&len, gap)| TitleConfig {
            policy,
            ..TitleConfig::new(len, gap)
        })
        .collect();
    let rate: f64 = gaps.iter().map(|g| 1.0 / g).sum();
    MultiServeConfig {
        budget,
        seed: mix(seed, 1),
        ..MultiServeConfig::new(titles, arrivals as f64 / rate)
    }
}

/// One served run, timed as a whole.
struct Served {
    report: MultiServeReport,
    reports: usize,
    wall_ns: f64,
    allocations: u64,
}

fn serve_once(config: &MultiServeConfig) -> Result<Served, String> {
    let memo = PlannerMemo::new();
    let mut reports = 0usize;
    let a0 = allocations();
    let t0 = Instant::now();
    let report = serve_multi_with(config, &memo, |_, r| {
        reports += 1;
        black_box(r.max_buffer);
    })
    .map_err(|e| e.to_string())?;
    let wall_ns = ns_since(t0);
    Ok(Served {
        report,
        reports,
        wall_ns,
        allocations: allocations() - a0,
    })
}

/// The served run's own invariants: nothing rejected, every arrival served
/// and reported once, and every title's engine accounts for its clients
/// and its bandwidth consistently.
fn served_ok(s: &Served) -> bool {
    let r = &s.report;
    r.rejected == 0
        && r.served == r.generated
        && s.reports == r.served
        && r.titles.iter().map(|t| t.generated).sum::<usize>() == r.generated
        && r.titles.iter().all(|t| {
            let summary = &t.summary.summary;
            summary.clients == t.generated && summary.bandwidth.total_units() == summary.total_units
        })
}

fn total_units(r: &MultiServeReport) -> i64 {
    r.titles.iter().map(|t| t.summary.summary.total_units).sum()
}

pub fn run(shape: Shape, opts: &Opts) -> Outcome {
    let arrivals = opts.scale.pick(500_000, 60_000);
    let (config, setup_s) = setup(|| {
        let config = config(shape, opts.seed, arrivals);
        black_box(serve_once(&config).ok());
        config
    });
    let mut out = Outcome::new(setup_s);
    repeat_for(opts.seconds, || match serve_once(&config) {
        Ok(served) => {
            let mut ok = served_ok(&served);
            let generated = served.report.generated as f64;
            out.end_to_end
                .rates
                .push(generated / (served.wall_ns * 1e-9));
            out.end_to_end.mean_streams = total_units(&served.report) as f64 / config.horizon;
            if opts.trace {
                match trace(shape, &config, &served) {
                    Ok(layers) => out.layers.push(layers),
                    Err(e) => {
                        eprintln!("perfbench: replay failed: {e}");
                        ok = false;
                    }
                }
            }
            out.tally(served.report.generated as u64, ok);
        }
        Err(e) => {
            eprintln!("perfbench: serve failed: {e}");
            out.tally(arrivals as u64, false);
        }
    });
    out
}

/// One engine push of the replay.
struct Op {
    title: usize,
    time: i64,
    attach: Attach,
}

/// The replay's layer timings over one copy of the served traffic.
struct Replay {
    arrivals: usize,
    generate_ns: f64,
    merge_ns: f64,
    decisions: usize,
    policy_ns: f64,
    push_ns: f64,
    push_allocations: u64,
    push_reports: usize,
    finish_ns: f64,
    reports: usize,
    summaries: Vec<IncrementalSummary>,
    /// Per-call push times, ascending.
    samples: Vec<u64>,
    /// Wall time of the per-call timed push pass, clock reads included.
    traced_push_ns: f64,
}

fn policy_for(title: &TitleConfig) -> Box<dyn IncrementalPolicy> {
    match title.policy {
        PolicyKind::DelayGuaranteed => Box::new(DelayGuaranteedOnline::new(title.media_len)),
        PolicyKind::Dyadic => Box::new(DyadicMerger::new(
            DyadicConfig::golden_poisson(),
            title.media_len as f64,
        )),
    }
}

fn engines_for(config: &MultiServeConfig) -> Result<Vec<IncrementalEngine>, String> {
    config
        .titles
        .iter()
        .map(|t| {
            IncrementalEngine::new(
                t.media_len,
                SimConfig {
                    buffer_bound: t.buffer_bound,
                    ..SimConfig::events()
                },
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// Draws the producer's traffic batch by batch, timing each
/// `PoissonProcess::generate` and `merge_runs` call.
fn traffic(config: &MultiServeConfig) -> (Vec<(f64, u32)>, f64, f64) {
    let batches = (config.horizon / config.batch_slots).ceil() as usize;
    let (mut generate_ns, mut merge_ns) = (0.0, 0.0);
    let mut arrivals = Vec::new();
    for i in 0..batches {
        let offset = i as f64 * config.batch_slots;
        let span = (config.horizon - offset).min(config.batch_slots);
        let mut runs = Vec::with_capacity(config.titles.len());
        for (k, title) in config.titles.iter().enumerate() {
            let seed = config.seed
                ^ (i as u64).wrapping_mul(BATCH_SALT)
                ^ (k as u64).wrapping_mul(TITLE_SALT);
            let mut process = PoissonProcess::new(title.mean_interarrival, seed);
            let t0 = Instant::now();
            let times = process.generate(span);
            generate_ns += ns_since(t0);
            runs.push(times.into_iter().map(|t| (offset + t, k as u32)).collect());
        }
        let t0 = Instant::now();
        let merged = merge_runs(runs, |a: &(f64, u32), b: &(f64, u32)| a.0 < b.0);
        merge_ns += ns_since(t0);
        arrivals.extend(merged);
    }
    (arrivals, generate_ns, merge_ns)
}

/// Replays `config`'s traffic layer by layer: generation and fan-in, then
/// the join rule and every title's policy (timed as one pass), then every
/// title's engine (timed as one pass, then again per call). The replay
/// plans no delay: the delay planner is private to `sm-serve`, so on
/// `live_budget` the policy and engine passes see the traffic undelayed.
fn replay(config: &MultiServeConfig) -> Result<Replay, String> {
    let (arrivals, generate_ns, merge_ns) = traffic(config);
    let titles = config.titles.len();

    // The batching rule: an arrival at or before its title's pending
    // service slot joins that group; without planning, a group is served
    // at its head's arrival slot.
    let mut pending: Vec<Option<i64>> = vec![None; titles];
    let mut heads: Vec<(usize, i64)> = Vec::new();
    let mut is_head = Vec::with_capacity(arrivals.len());
    for &(t, k) in &arrivals {
        let slot = t.floor() as i64;
        let k = k as usize;
        let joins = pending[k].is_some_and(|s| slot <= s);
        if !joins {
            pending[k] = Some(slot);
            heads.push((k, slot));
        }
        is_head.push(!joins);
    }

    let mut policies: Vec<Box<dyn IncrementalPolicy>> =
        config.titles.iter().map(policy_for).collect();
    let mut parents = Vec::with_capacity(heads.len());
    let t0 = Instant::now();
    for &(k, slot) in &heads {
        parents.push(policies[k].push(slot as f64).parent);
    }
    let policy_ns = ns_since(t0);

    // Engine pushes, as the serve loop derives them: Delay Guaranteed
    // titles advance one dense tick per group, dyadic titles push at the
    // service slot, and joiners ride their group's head.
    struct TitleState {
        dense: bool,
        pushes: usize,
        last_time: i64,
        group_heads: Vec<usize>,
        group: (i64, usize),
    }
    let mut states: Vec<TitleState> = config
        .titles
        .iter()
        .map(|t| TitleState {
            dense: t.policy == PolicyKind::DelayGuaranteed,
            pushes: 0,
            last_time: -1,
            group_heads: Vec::new(),
            group: (0, 0),
        })
        .collect();
    let mut ops = Vec::with_capacity(arrivals.len());
    let mut next_head = 0;
    for (&(_, k), &head) in arrivals.iter().zip(&is_head) {
        let title = k as usize;
        let st = &mut states[title];
        if head {
            let (_, slot) = heads[next_head];
            let parent = parents[next_head];
            next_head += 1;
            let time = if st.dense { st.last_time + 1 } else { slot };
            let attach = match parent {
                None => Attach::Root,
                Some(p) => Attach::Under(
                    *st.group_heads
                        .get(p)
                        .ok_or(format!("policy named unknown parent {p}"))?,
                ),
            };
            st.group_heads.push(st.pushes);
            st.group = (time, st.pushes);
            st.last_time = time;
            ops.push(Op {
                title,
                time,
                attach,
            });
        } else {
            ops.push(Op {
                title,
                time: st.group.0,
                attach: Attach::Under(st.group.1),
            });
        }
        st.pushes += 1;
    }
    let decisions = heads.len();
    drop((heads, is_head, parents, states));

    let mut engines = engines_for(config)?;
    let mut reports = 0usize;
    let a0 = allocations();
    let t0 = Instant::now();
    for op in &ops {
        engines[op.title]
            .push(op.time, op.attach, |r| {
                reports += 1;
                black_box(r.max_buffer);
            })
            .map_err(|e| e.to_string())?;
    }
    let push_ns = ns_since(t0);
    let push_allocations = allocations() - a0;
    let push_reports = reports;
    let t0 = Instant::now();
    let mut summaries = Vec::with_capacity(titles);
    for engine in engines {
        summaries.push(
            engine
                .finish(|r| {
                    reports += 1;
                    black_box(r.max_buffer);
                })
                .map_err(|e| e.to_string())?,
        );
    }
    let finish_ns = ns_since(t0);

    let mut engines = engines_for(config)?;
    let mut samples = Vec::with_capacity(ops.len());
    let t0 = Instant::now();
    for op in &ops {
        let t = Instant::now();
        engines[op.title]
            .push(op.time, op.attach, |r| {
                black_box(r.max_buffer);
            })
            .map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_nanos() as u64);
    }
    let traced_push_ns = ns_since(t0);
    drop(engines);
    samples.sort_unstable();

    Ok(Replay {
        arrivals: arrivals.len(),
        generate_ns,
        merge_ns,
        decisions,
        policy_ns,
        push_ns,
        push_allocations,
        push_reports,
        finish_ns,
        reports,
        summaries,
        samples,
        traced_push_ns,
    })
}

/// Per-layer metrics of one traced iteration: the served run, timed as a
/// whole, gives the ingest time, and the replay gives each layer's share
/// of it. The remainder, the serve loop's own time, is derived from the
/// medians over all iterations.
fn trace(shape: Shape, config: &MultiServeConfig, served: &Served) -> Result<Layers, String> {
    let r = replay(config)?;
    let report = &served.report;
    let generated = report.generated;
    if r.arrivals != generated || r.reports != generated {
        return Err(format!(
            "replay saw {} arrivals and {} reports, the served run {generated}",
            r.arrivals, r.reports
        ));
    }
    // Without a budget the replay is the served run, bit for bit.
    if shape == Shape::Dense
        && report
            .titles
            .iter()
            .zip(&r.summaries)
            .any(|(t, s)| &t.summary != s)
    {
        return Err("replay diverges from the served run".into());
    }
    let n = generated as f64;
    let pushes = r.samples.len() as f64;
    let (tail_q, tail_ns) = tail(&r.samples);
    Ok(Layers {
        generate_ns_per_arrival: r.generate_ns / n,
        merge_runs_ns_per_arrival: r.merge_ns / n,
        policy_ns_per_decision: r.policy_ns / r.decisions as f64,
        decisions_per_arrival: r.decisions as f64 / n,
        push_ns_mean: r.push_ns / pushes,
        push_ns_p50: percentile(&r.samples, 50.0),
        push_ns_tail: tail_ns,
        push_tail_percentile: tail_q,
        push_samples: pushes,
        finish_ms: r.finish_ns * 1e-6,
        reports_per_push: r.push_reports as f64 / pushes,
        max_open_trees: report
            .titles
            .iter()
            .map(|t| t.summary.max_open_trees as f64)
            .sum(),
        allocs_per_push: r.push_allocations as f64 / pushes,
        ingest_ns_per_arrival: served.wall_ns / n,
        serve_allocs_per_arrival: served.allocations as f64 / n,
        startup_delay_p99_slots: report.delay.p99_slots as f64,
        startup_delay_mean_slots: report.delay.mean_slots,
        bandwidth_units_per_arrival: total_units(report) as f64 / n,
        trace_overhead_pct: (r.traced_push_ns - r.push_ns) / r.push_ns * 100.0,
        ..Layers::default()
    })
}
