#![allow(unsafe_code)] // counting #[global_allocator]: raw-pointer plumbing by design
//! Scale: the event-driven engine at ten million arrivals.
//!
//! Three million-client shapes, all streamed through
//! [`sm_sim::simulate_streaming_slice`] so per-client reports are consumed
//! and dropped as their part-deadlines fire and each merge tree is released
//! once its last client is served — peak memory tracks the *open* trees and
//! active streams, never a full-schedule vector or a per-slot array over
//! the horizon:
//!
//! * the Delay Guaranteed grid (one merged client per slot, the §4.1
//!   steady-state server shape — balanced trees, logarithmic programs);
//! * deep merge chains (`sm_workload::deep_chain_forest`, depth `L/2 + 1`
//!   per tree — chain programs carry ~26 segments per client against ~8
//!   on the balanced grid, while the engine scores every client in `O(1)`
//!   from Lemma 1's closed forms, whatever its segment count; the printed
//!   wall-time ratio to the balanced grid plus `BENCH_scale.json` track it
//!   per commit);
//! * a flash-crowd workload (Poisson with a ×20 premiere spike), co-slot
//!   arrivals batched into star trees — one full stream per occupied slot,
//!   spike clients riding the batch.
//!
//! A `serve_multi` case drives the multi-title delay-planning serve loop
//! (`sm_serve::serve_multi`): a three-title Poisson catalog behind a
//! shared six-channel budget squeezed below unbounded demand. Its JSON
//! line (engine tag `"multi"`) carries the catalog size, the
//! zero-rejection gauge, the planned start-up delay percentiles —
//! `titles`, `rejected`, `delay_p50`, `delay_p99`, `delay_max` — and the
//! titles' summed `max_open_trees` retention gauge, and is CI-gated on
//! `rejected` = 0 and the 0-allocation ingest floor.
//!
//! A further case drives the many-epoch dynamic server: the depth-K
//! plan-ahead pipeline at K ∈ {1, 2, 4}, with the K ≥ 2 runs sharing a
//! cross-epoch `PlannerMemo` whose hit count lands in the JSON
//! (`memo_hits`) and checked bit-identical against the memo-free K = 1
//! run.
//!
//! `SM_SCALE_ARRIVALS` overrides the arrival count (CI smoke-runs a small
//! N; the default is 10⁷). Besides the criterion timings, one dedicated
//! measured run per case is appended to a machine-readable
//! `BENCH_scale.json` (workspace root, or the `SM_BENCH_JSON` path) so the
//! perf trajectory accumulates across commits.
//!
//! The bench binary installs a counting `#[global_allocator]` (the
//! workspace's only sanctioned `unsafe`, shared with
//! `tests/alloc_budget.rs`): each case's dedicated run records
//! `allocations_per_arrival` — heap allocations observed on the driving
//! thread during the run, divided by arrivals and floored. The pooled
//! event engine is allocation-free in steady state, so its O(log n)
//! warm-up allocations floor to **0**; CI gates on exactly that.

use criterion::{criterion_group, criterion_main, Criterion};
use sm_core::{alloc_counter, consecutive_slots, MergeForest, MergeTree};
use sm_online::DelayGuaranteedOnline;
use sm_server::{
    plan_weighted, simulate_dynamic, simulate_dynamic_with, Catalog, DynamicConfig, DynamicReport,
    Epoch, PlannerMemo,
};
use sm_sim::{simulate_streaming_slice, SimConfig};
use sm_workload::{deep_chain_forest, ArrivalProcess, FlashCrowd};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::time::Instant;

/// The system allocator wrapped with `sm_core::alloc_counter` bookkeeping:
/// every allocation on the driving thread lands in the per-thread counters
/// behind the `allocations_per_arrival` JSON field.
struct CountingAlloc;

// SAFETY: every operation delegates verbatim to `System`; the counter
// update is allocation-free and panic-free (see `sm_core::alloc_counter`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_counter::note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_counter::note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn scale_arrivals() -> usize {
    std::env::var("SM_SCALE_ARRIVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000)
}

/// Batches co-slot arrivals into star trees: every occupied slot opens one
/// full stream, and the rest of its batch merges into it with zero-length
/// streams — the classical batching service plan, always feasible.
fn batched_star_forest(slots: &[i64]) -> (MergeForest, Vec<i64>) {
    let mut trees = Vec::new();
    let mut times = Vec::with_capacity(slots.len());
    let mut i = 0usize;
    while i < slots.len() {
        let batch = slots[i..].iter().take_while(|&&s| s == slots[i]).count();
        trees.push(if batch == 1 {
            MergeTree::singleton()
        } else {
            MergeTree::star(batch)
        });
        times.extend(std::iter::repeat_n(slots[i], batch));
        i += batch;
    }
    (
        MergeForest::from_trees(trees).expect("at least one arrival"),
        times,
    )
}

/// One measured scale datapoint for `BENCH_scale.json`.
struct CaseResult {
    name: String,
    /// Execution spine: `"events"` for the simulator cases, `"multi"` for
    /// the serve loop, `"pipelined"` for the dynamic-server cases.
    engine: &'static str,
    /// Client arrivals for the simulator cases; *epochs* for the
    /// dynamic-server cases (see ARCHITECTURE.md for the schema).
    arrivals: usize,
    wall_ms: f64,
    peak_streams: u32,
    total_units: i64,
    /// Planner-memo lookups served from cache during the run (intra-epoch
    /// greedy lookups included — see the ARCHITECTURE.md schema note): 0
    /// for the simulator cases and every memo-free dynamic configuration.
    memo_hits: u64,
    /// High-water mark of simultaneously retained merge trees, summed over
    /// the serve loop's titles: the engine's memory gauge. 0 for the other
    /// spines, which do not record it.
    max_open_trees: usize,
    /// Heap allocations observed on the driving thread during the measured
    /// run, divided by `arrivals` and floored. The pooled event engine
    /// allocates only O(log n) warm-up storage, so this is 0 for it
    /// (CI-gated); the dynamic-server spines report their genuine
    /// per-epoch allocation traffic.
    allocations_per_arrival: u64,
    /// Pre-formatted optional JSON fields appended to this case's line
    /// (leading `, ` included). The multi-title serving case carries its
    /// catalog size, the zero-rejection gauge, and the planned start-up
    /// delay percentiles here: `"titles"`, `"rejected"`, `"delay_p50"`,
    /// `"delay_p99"`, `"delay_max"`. Empty for every other case.
    extra: String,
}

/// One dedicated timed streaming run (outside the criterion sampling),
/// recording wall time and the whole-run aggregates.
fn timed_case(
    name: impl Into<String>,
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
) -> CaseResult {
    let ckpt = alloc_counter::checkpoint();
    let t0 = Instant::now();
    let mut served = 0usize;
    let summary =
        simulate_streaming_slice(forest, times, media_len, SimConfig::default(), |report| {
            served += 1;
            black_box(report.max_buffer);
        })
        .expect("scale shapes must execute");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let allocs = ckpt.allocations_since();
    assert_eq!(served, times.len());
    CaseResult {
        name: name.into(),
        engine: "events",
        arrivals: times.len(),
        wall_ms,
        peak_streams: summary.bandwidth.peak(),
        total_units: summary.total_units,
        memo_hits: 0,
        max_open_trees: 0,
        allocations_per_arrival: allocs / times.len().max(1) as u64,
        extra: String::new(),
    }
}

/// Many-epoch dynamic-server workload: `epoch_count` catalog switches every
/// `epoch_minutes`, catalogs cycling through five sizes (16–32 titles) so
/// every switch genuinely re-plans. Returns the epochs, the horizon, and a
/// squeezed budget (two-thirds of the biggest catalog's all-minimum-delay
/// demand) that keeps the greedy planner relaxing without going infeasible.
fn dynamic_workload(epoch_count: usize, epoch_minutes: u64) -> (Vec<Epoch>, u64, u64) {
    let epochs: Vec<Epoch> = (0..epoch_count)
        .map(|i| Epoch {
            start_minute: i as u64 * epoch_minutes,
            catalog: Catalog::zipf(16 + (i % 5) * 4, 1.0, &[120.0, 90.0, 100.0, 150.0]),
        })
        .collect();
    let horizon = epoch_count as u64 * epoch_minutes;
    let biggest = epochs
        .iter()
        .max_by_key(|e| e.catalog.len())
        .expect("at least one epoch")
        .catalog
        .clone();
    let budget = plan_weighted(&biggest, u64::MAX, &[1.0])
        .expect("unconstrained plan always exists")
        .total_peak
        * 2
        / 3;
    (epochs, horizon, budget)
}

/// Writes the run's datapoints as one JSON snapshot; hand-rolled (the
/// offline workspace vendors no serde) but machine-readable. Full-size runs
/// refresh the committed `BENCH_scale.json` (the per-commit perf
/// trajectory); reduced-N smoke runs (`SM_SCALE_ARRIVALS` set) go to
/// `BENCH_scale_smoke.json` — committed too, so `tests/docs_sync.rs` can
/// validate its schema, but refreshed by CI's smoke step rather than by
/// full-size runs — so they never clobber the committed 10⁷-arrival
/// datapoints. `SM_BENCH_JSON` overrides the path outright.
fn write_bench_json(results: &[CaseResult]) {
    let default_path = if std::env::var_os("SM_SCALE_ARRIVALS").is_some() {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale_smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json")
    };
    let path = std::env::var("SM_BENCH_JSON").unwrap_or_else(|_| default_path.into());
    let mut out = String::from("{\n  \"bench\": \"scale\",\n  \"engine\": \"events\",\n");
    out.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"arrivals\": {}, \"engine\": \"{}\", \
             \"wall_ms\": {:.3}, \"peak_streams\": {}, \"total_units\": {}, \
             \"memo_hits\": {}, \"ns_per_arrival\": {:.1}, \
             \"max_open_trees\": {}, \"allocations_per_arrival\": {}{}}}{}\n",
            r.name,
            r.arrivals,
            r.engine,
            r.wall_ms,
            r.peak_streams,
            r.total_units,
            r.memo_hits,
            r.wall_ms * 1e6 / r.arrivals.max(1) as f64,
            r.max_open_trees,
            r.allocations_per_arrival,
            r.extra,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(&path, out) {
        Ok(()) => println!("bench-json: wrote {} cases to {path}", results.len()),
        Err(e) => eprintln!("bench-json: could not write {path}: {e}"),
    }
}

fn bench_scale(c: &mut Criterion) {
    let n = scale_arrivals();
    let media_len = 100u64;
    let mut g = c.benchmark_group("scale");
    g.sample_size(10);
    let mut results = Vec::new();

    // Delay Guaranteed grid: n slots, one client each (balanced trees).
    let alg = DelayGuaranteedOnline::new(media_len);
    let forest = alg.forest_after(n);
    let times = consecutive_slots(n);
    let dg_case = timed_case(
        format!("events_dg_L{media_len}"),
        &forest,
        &times,
        media_len,
    );
    g.bench_function(format!("events_dg_L{media_len}_n{n}"), |b| {
        b.iter(|| {
            let mut served = 0usize;
            let summary = simulate_streaming_slice(
                black_box(&forest),
                black_box(&times),
                media_len,
                SimConfig::default(),
                |report| {
                    served += 1;
                    black_box(report.max_buffer);
                },
            )
            .expect("DG plan must execute");
            assert_eq!(served, n);
            black_box(summary.total_units)
        })
    });

    drop((forest, times));

    // Deep chains at the same arrival count: the longest receiving
    // programs, scored by the same closed forms as the balanced grid.
    let (forest, times) = deep_chain_forest(n, media_len);
    let chain_case = timed_case(
        format!("events_deep_chain_L{media_len}"),
        &forest,
        &times,
        media_len,
    );
    g.bench_function(format!("events_deep_chain_L{media_len}_n{n}"), |b| {
        b.iter(|| {
            let mut served = 0usize;
            let summary = simulate_streaming_slice(
                black_box(&forest),
                black_box(&times),
                media_len,
                SimConfig::default(),
                |report| {
                    served += 1;
                    black_box(report.max_buffer);
                },
            )
            .expect("deep chains are feasible by construction");
            assert_eq!(served, n);
            black_box(summary.total_units)
        })
    });
    drop((forest, times));
    println!(
        "bench: scale/deep_chain vs balanced wall-time ratio: {:.2}x \
         ({:.1} ms vs {:.1} ms at n = {})",
        chain_case.wall_ms / dg_case.wall_ms.max(1e-9),
        chain_case.wall_ms,
        dg_case.wall_ms,
        n
    );
    results.push(dg_case);
    results.push(chain_case);

    // Flash crowd: Poisson background, ×20 spike, batched per slot.
    let horizon = (n as f64 * 0.45).max(100.0);
    let mut crowd = FlashCrowd::new(0.5, horizon * 0.4, horizon * 0.01, 20.0, 42);
    let slots: Vec<i64> = crowd
        .generate(horizon)
        .into_iter()
        .map(|t| t.floor() as i64)
        .collect();
    let (forest, times) = batched_star_forest(&slots);
    let clients = times.len();
    let crowd_case = timed_case(
        format!("events_flash_crowd_L{media_len}"),
        &forest,
        &times,
        media_len,
    );
    results.push(crowd_case);
    g.bench_function(format!("events_flash_crowd_L{media_len}_n{clients}"), |b| {
        b.iter(|| {
            let mut served = 0usize;
            let summary = simulate_streaming_slice(
                black_box(&forest),
                black_box(&times),
                media_len,
                SimConfig::default(),
                |report| {
                    served += 1;
                    black_box(report.min_slack);
                },
            )
            .expect("batched flash-crowd plan must execute");
            assert_eq!(served, clients);
            black_box(summary.bandwidth.peak())
        })
    });
    // Multi-title delay-planning serve loop: a three-title Poisson catalog
    // behind a shared six-channel budget squeezed below unbounded demand
    // (the per-title steady-state peaks sum to ~27), so the planner must
    // genuinely re-plan — the recorded delay percentiles are nonzero — while
    // the zero-rejection invariant holds at scale. The aggregate `arrivals`
    // tracks the configured n (the horizon is sized for the catalog's
    // summed arrival rate); `peak_streams`/`total_units` sum the per-title
    // engines, `max_open_trees` sums their retention gauges. The case rides
    // the `"multi"` engine tag and appends `titles`/`rejected`/`delay_*`
    // extras to its JSON line; CI gates rejected == 0 and the 0-alloc floor
    // on the driving (ingest) thread, and `tests/docs_sync.rs` gates the
    // committed full-size datapoint's amortized ns/arrival against the
    // events baseline.
    let serve_catalog = || {
        vec![
            sm_serve::TitleConfig::new(64, 1.0),
            sm_serve::TitleConfig::new(100, 2.0),
            sm_serve::TitleConfig::new(144, 4.0),
        ]
    };
    let serve_config = sm_serve::MultiServeConfig {
        budget: Some(6),
        // Means 1, 2, 4 sum to 1.75 arrivals per slot.
        ..sm_serve::MultiServeConfig::new(serve_catalog(), (n as f64 / 1.75).max(100.0))
    };
    let ckpt = alloc_counter::checkpoint();
    let t0 = Instant::now();
    let mut served = 0usize;
    let multi = sm_serve::serve_multi_with(&serve_config, &PlannerMemo::new(), |_, report| {
        served += 1;
        black_box(report.max_buffer);
    })
    .expect("a bounded budget is always feasible under delay planning");
    let multi_ms = t0.elapsed().as_secs_f64() * 1e3;
    let multi_allocs = ckpt.allocations_since();
    assert_eq!(served, multi.served, "every served client reports once");
    assert_eq!(multi.rejected, 0, "delay planning never declines");
    assert_eq!(multi.served, multi.generated);
    assert!(
        multi.delay.max_slots > 0,
        "the squeezed budget must surface as nonzero start-up delay"
    );
    println!(
        "bench: scale/serve_multi {} titles, budget 6: {} arrivals, delay \
         p50/p99/max = {}/{}/{} slots, {:.1} ns/arrival",
        multi.titles.len(),
        multi.generated,
        multi.delay.p50_slots,
        multi.delay.p99_slots,
        multi.delay.max_slots,
        multi_ms * 1e6 / multi.generated.max(1) as f64
    );
    results.push(CaseResult {
        name: format!("serve_multi_T{}", multi.titles.len()),
        engine: "multi",
        arrivals: multi.generated,
        wall_ms: multi_ms,
        peak_streams: multi
            .titles
            .iter()
            .map(|t| t.summary.summary.bandwidth.peak())
            .sum(),
        total_units: multi
            .titles
            .iter()
            .map(|t| t.summary.summary.total_units)
            .sum(),
        memo_hits: multi.memo_hits,
        max_open_trees: multi.titles.iter().map(|t| t.summary.max_open_trees).sum(),
        allocations_per_arrival: multi_allocs / multi.generated.max(1) as u64,
        extra: format!(
            ", \"titles\": {}, \"rejected\": {}, \"delay_p50\": {}, \
             \"delay_p99\": {}, \"delay_max\": {}",
            multi.titles.len(),
            multi.rejected,
            multi.delay.p50_slots,
            multi.delay.p99_slots,
            multi.delay.max_slots
        ),
    });
    g.bench_function(
        format!("serve_multi_T{}_n{n}", serve_config.titles.len()),
        |b| {
            b.iter(|| {
                let report = sm_serve::serve_multi(black_box(&serve_config))
                    .expect("a bounded budget is always feasible under delay planning");
                assert_eq!(report.rejected, 0);
                black_box(report.delay.max_slots)
            })
        },
    );

    // Many-epoch dynamic server: the depth-K cross-epoch pipeline at three
    // plan-ahead depths — K = 1 memo-free (the PR-4 configuration) and
    // K ∈ {2, 4} each with a fresh run-shared `PlannerMemo`. The
    // cross-epoch reuse the memo exists for (the workload's catalogs cycle
    // five sizes over a fixed duration menu, so most epochs re-plan
    // lengths an earlier epoch already analyzed) shows up as the K ≥ 2
    // wall-time drop below K = 1; the recorded hit count confirms the memo
    // was live but also includes intra-epoch lookups. The K = 1 run is the
    // baseline: it supplies `total_units`, and every K ≥ 2 run is checked
    // bit-identical against it before its datapoint is recorded.
    let epoch_count = (n / 20_000).clamp(4, 48);
    let (epochs, horizon, budget) = dynamic_workload(epoch_count, 600);
    let candidates = [1.0, 2.0, 4.0, 8.0, 16.0];
    // Warm OS/allocator state so no run pays a cold-start cost.
    let _ = simulate_dynamic(&epochs, budget, &candidates, horizon)
        .expect("bench epochs must be plannable");
    let mut baseline: Option<(DynamicReport, f64)> = None;
    for plan_ahead in [1usize, 2, 4] {
        let memo = (plan_ahead > 1).then(PlannerMemo::new);
        let config = DynamicConfig {
            plan_ahead,
            memo: memo.clone(),
        };
        let ckpt = alloc_counter::checkpoint();
        let t0 = Instant::now();
        let piped = simulate_dynamic_with(&epochs, budget, &candidates, horizon, &config)
            .expect("bench epochs must be plannable");
        let piped_ms = t0.elapsed().as_secs_f64() * 1e3;
        let piped_allocs = ckpt.allocations_since();
        let memo_hits = memo.as_ref().map(|m| m.hits()).unwrap_or(0);
        let (k1, k1_ms) = baseline.get_or_insert_with(|| (piped.clone(), piped_ms));
        if let Some(diff) = piped.deterministic_diff(k1) {
            panic!("K = {plan_ahead} diverges from the K = 1 run: {diff}");
        }
        println!(
            "bench: scale/server_dynamic K = {plan_ahead}{}: {:.1} ms, {:.2}x the K = 1 run \
             ({} epochs, {} minutes, {} memo hits)",
            if memo.is_some() { " + memo" } else { "" },
            piped_ms,
            piped_ms / k1_ms.max(1e-9),
            epoch_count,
            horizon,
            memo_hits
        );
        results.push(CaseResult {
            name: format!("server_dynamic_E{epoch_count}_k{plan_ahead}"),
            engine: "pipelined",
            arrivals: epoch_count,
            wall_ms: piped_ms,
            peak_streams: piped.peak as u32,
            total_units: k1.per_minute.iter().sum::<u64>() as i64,
            memo_hits,
            max_open_trees: 0,
            allocations_per_arrival: piped_allocs / epoch_count.max(1) as u64,
            extra: String::new(),
        });
        g.bench_function(
            format!("server_dynamic_pipelined_E{epoch_count}_k{plan_ahead}"),
            |b| {
                b.iter(|| {
                    let report = simulate_dynamic_with(
                        black_box(&epochs),
                        budget,
                        &candidates,
                        horizon,
                        &config,
                    )
                    .expect("bench epochs must be plannable");
                    black_box(report.peak)
                })
            },
        );
    }
    g.finish();

    write_bench_json(&results);
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
