#![allow(unsafe_code)] // counting #[global_allocator]: raw-pointer plumbing by design
//! Allocation-budget harness for the pooled engines.
//!
//! A counting `#[global_allocator]` (the same wrapper `sm-bench`'s
//! `scale.rs` installs) feeds `sm_core::alloc_counter`'s per-thread
//! counters, and the tests here pin the engines' allocation discipline:
//!
//! * **events** — one cold streaming run allocates only the engine's
//!   reusable storage (the stream-length scratch, the pooled tree
//!   parent, top and time columns, and the bandwidth profile's
//!   change-point log), each growing by amortized doubling.
//!   The total is `O(log n)`, so it fits a fixed [`EVENTS_SETUP_BUDGET`]
//!   and — the sharper claim — barely moves when `n` quadruples.
//! * **incremental** — after a warm-up prefix of pushes has grown every
//!   pool and buffer, the remaining pushes are allocation-free up to the
//!   log-many residual doublings of the bandwidth log
//!   ([`INCREMENTAL_STEADY_BUDGET`]): `allocations / pushes` floors to 0.
//! * **dyadic merger** — after a warm-up prefix, `DyadicMerger` pushes
//!   request no bytes: the merger holds only its frame stack and the open
//!   tree, whose columns keep their capacity from tree to tree.
//! * **serve loop** — for a Delay Guaranteed catalog, the multi-title
//!   ingest thread's heap bytes barely grow with the run: at most
//!   [`SERVE_BYTES_PER_EXTRA_ARRIVAL`] per extra arrival when the horizon
//!   quadruples (no per-arrival latency samples, no whole-run group
//!   table, no per-merger history). A dyadic catalog adds about 1.5
//!   bandwidth change points per merge group to the log its report
//!   returns, so its bytes may also grow by
//!   [`LOG_BYTES_PER_EXTRA_CHANGE_POINT`] per extra change point — and by
//!   nothing else.
//! * **plan forest** — Theorem 10's optimal forest holds two tree shapes
//!   and one handle per tree: `optimal_forest` makes the same number of
//!   allocations when `n` quadruples, and its bytes grow by at most
//!   [`PLAN_BYTES_PER_EXTRA_TREE`] per extra tree.
//!
//! The counters are per-thread, so the harness is immune to the test
//! runner's own threads; each test observes only its own allocations.

use sm_core::{alloc_counter, consecutive_slots};
use sm_offline::optimal_forest;
use sm_online::{DelayGuaranteedOnline, DyadicConfig, DyadicMerger, IncrementalPolicy};
use sm_serve::{serve_multi, MultiServeConfig, PolicyKind, TitleConfig};
use sm_sim::{simulate_streaming_slice, Attach, IncrementalEngine, SimConfig};
use sm_workload::{deep_chain_forest, ArrivalProcess, PoissonProcess};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;

/// The system allocator wrapped with `sm_core::alloc_counter` bookkeeping.
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

const MEDIA: u64 = 100;

/// Setup budget for one cold `simulate_streaming_slice` run: the scratch
/// buffers, tree-storage pool, event heap, and bandwidth log together
/// allocate a few dozen times (amortized doublings included).
/// The budget leaves generous headroom; the scaling assertion below is the
/// load-bearing one.
const EVENTS_SETUP_BUDGET: u64 = 512;

/// How much the cold-run allocation count may grow when `n` quadruples:
/// only the bandwidth log and spec buffers keep doubling, so the
/// difference is a handful of allocations, never `O(n)`.
const EVENTS_GROWTH_SLACK: u64 = 64;

/// Post-warm-up budget for the incremental engine: every pool and scratch
/// buffer is already grown, leaving only the residual amortized doublings
/// of the run-length bandwidth log — log-many, not per-push.
const INCREMENTAL_STEADY_BUDGET: u64 = 64;

/// Ingest-thread heap bytes the serve loop may add per extra arrival: the
/// engines' amortized bandwidth-log doublings, well under one machine
/// word — a per-arrival record of any kind would cost at least 8.
const SERVE_BYTES_PER_EXTRA_ARRIVAL: u64 = 2;

/// Ingest-thread heap bytes a serve run may add per extra bandwidth change
/// point: one 16-byte `(i64, u32)` log entry under amortized doubling — at
/// most twice the final capacity is ever requested, and the capacity is
/// under twice the length.
const LOG_BYTES_PER_EXTRA_CHANGE_POINT: u64 = 64;

/// Heap bytes an optimal plan may add per extra tree: one 8-byte handle in
/// the forest's tree list and one 8-byte start index. A tree that owned its
/// own columns would cost at least one allocation more.
const PLAN_BYTES_PER_EXTRA_TREE: u64 = 16;

/// One cold Delay Guaranteed streaming run; returns the allocations the
/// run itself performed (workload construction excluded).
fn events_run_allocations(n: usize) -> u64 {
    let alg = DelayGuaranteedOnline::new(MEDIA);
    let forest = alg.forest_after(n);
    let times = consecutive_slots(n);
    let ckpt = alloc_counter::checkpoint();
    let mut served = 0usize;
    simulate_streaming_slice(&forest, &times, MEDIA, SimConfig::events(), |report| {
        served += 1;
        black_box(report.max_buffer);
    })
    .expect("DG plan must execute");
    let allocs = ckpt.allocations_since();
    assert_eq!(served, n);
    allocs
}

#[test]
fn counting_allocator_is_live() {
    let ckpt = alloc_counter::checkpoint();
    let boxed = Box::new(black_box([0u8; 64]));
    black_box(&boxed);
    assert!(
        ckpt.allocations_since() >= 1,
        "the counting allocator must observe a fresh Box"
    );
}

#[test]
fn events_steady_state_is_allocation_free() {
    let small = events_run_allocations(4_000);
    let large = events_run_allocations(16_000);
    assert!(
        small <= EVENTS_SETUP_BUDGET,
        "cold events run allocated {small} times, budget is {EVENTS_SETUP_BUDGET}"
    );
    // The per-arrival discipline: quadrupling the workload must not scale
    // the allocation count — only log-many further doublings are allowed.
    assert!(
        large <= small + EVENTS_GROWTH_SLACK,
        "allocations scaled with n: {small} at n=4000 vs {large} at n=16000"
    );
    assert_eq!(
        large / 16_000,
        0,
        "allocations per arrival must floor to zero"
    );
}

#[test]
fn incremental_push_steady_state_is_allocation_free() {
    const TOTAL: usize = 20_000;
    const WARMUP: usize = 2_000;
    // Deep chains recycle tree storage constantly: every tree the cursor
    // drains returns its storage to the pool for the next chain to reuse.
    let (forest, times) = deep_chain_forest(TOTAL, MEDIA);
    let mut attaches = Vec::with_capacity(times.len());
    let mut base = 0usize;
    for tree in forest.trees() {
        let parents = tree.to_parents();
        attaches.push(Attach::Root);
        for parent in parents.iter().skip(1) {
            let parent = parent.expect("non-root chain nodes have parents");
            attaches.push(Attach::Under(base + parent));
        }
        base += parents.len();
    }
    assert_eq!(attaches.len(), times.len());

    let mut engine = IncrementalEngine::new(MEDIA, SimConfig::events()).expect("valid media len");
    let mut served = 0usize;
    for i in 0..WARMUP {
        engine
            .push(times[i], attaches[i], |report| {
                served += 1;
                black_box(report.max_buffer);
            })
            .expect("deep chains are feasible by construction");
    }
    let ckpt = alloc_counter::checkpoint();
    for i in WARMUP..times.len() {
        engine
            .push(times[i], attaches[i], |report| {
                served += 1;
                black_box(report.max_buffer);
            })
            .expect("deep chains are feasible by construction");
    }
    let steady = ckpt.allocations_since();
    let inc = engine
        .finish(|report| {
            served += 1;
            black_box(report.max_buffer);
        })
        .expect("finish drains every pending deadline");
    assert_eq!(served, times.len());
    assert_eq!(inc.summary.clients, times.len());
    assert!(
        steady <= INCREMENTAL_STEADY_BUDGET,
        "steady-state pushes allocated {steady} times, budget is {INCREMENTAL_STEADY_BUDGET}"
    );
    assert_eq!(
        steady / (TOTAL - WARMUP) as u64,
        0,
        "allocations per push must floor to zero after warm-up"
    );
}

#[test]
fn dyadic_push_steady_state_requests_no_bytes() {
    const WARMUP: usize = 4_000;
    let arrivals = PoissonProcess::new(1.0, 3).generate(40_000.0);
    let mut merger = DyadicMerger::new(DyadicConfig::golden_poisson(), MEDIA as f64);
    for &t in &arrivals[..WARMUP] {
        black_box(merger.push(t));
    }
    let ckpt = alloc_counter::checkpoint();
    for &t in &arrivals[WARMUP..] {
        black_box(merger.push(t));
    }
    let bytes = ckpt.bytes_since();
    let pushes = (arrivals.len() - WARMUP) as u64;
    assert!(merger.roots() > 100, "{} trees", merger.roots());
    assert_eq!(
        bytes / pushes,
        0,
        "{pushes} steady-state pushes requested {bytes} bytes"
    );
}

/// What one three-title `serve_multi` run's ingest (calling) thread
/// requested, and what the run served and logged. The producer thread's
/// batches are not counted.
struct IngestRun {
    bytes: u64,
    served: usize,
    /// Bandwidth change points across every title's returned log.
    change_points: usize,
}

/// Titles of 64, 100 and 144 slots at the given mean gaps, all under
/// `policy`.
fn serve_ingest(
    policy: PolicyKind,
    gaps: [f64; 3],
    budget: Option<usize>,
    horizon: f64,
) -> IngestRun {
    let titles = [64, 100, 144]
        .into_iter()
        .zip(gaps)
        .map(|(media_len, mean)| TitleConfig {
            policy,
            ..TitleConfig::new(media_len, mean)
        })
        .collect();
    let config = MultiServeConfig {
        budget,
        ..MultiServeConfig::new(titles, horizon)
    };
    let ckpt = alloc_counter::checkpoint();
    let report = serve_multi(&config).expect("the loop delays instead of declining");
    let bytes = ckpt.bytes_since();
    assert_eq!(report.served, report.generated);
    let change_points = report
        .titles
        .iter()
        .map(|t| t.summary.summary.bandwidth.change_points().len())
        .sum();
    IngestRun {
        bytes,
        served: report.served,
        change_points,
    }
}

#[test]
fn serve_loop_ingest_bytes_do_not_grow_per_arrival() {
    let dg = |horizon| serve_ingest(PolicyKind::DelayGuaranteed, [0.5, 1.0, 2.0], None, horizon);
    let (small, large) = (dg(5_000.0), dg(20_000.0));
    assert!(
        large.served > 3 * small.served,
        "{} then {} arrivals",
        small.served,
        large.served
    );
    let extra = (large.served - small.served) as u64;
    assert!(
        large.bytes <= small.bytes + SERVE_BYTES_PER_EXTRA_ARRIVAL * extra,
        "ingest bytes grew {} -> {} over {extra} extra arrivals \
         (budget {SERVE_BYTES_PER_EXTRA_ARRIVAL} B each)",
        small.bytes,
        large.bytes
    );
}

#[test]
fn dyadic_serve_ingest_bytes_grow_only_with_the_bandwidth_log() {
    let dyadic = |horizon| serve_ingest(PolicyKind::Dyadic, [1.0, 2.0, 4.0], Some(6), horizon);
    let (small, large) = (dyadic(5_000.0), dyadic(20_000.0));
    assert!(
        large.served > 3 * small.served,
        "{} then {} arrivals",
        small.served,
        large.served
    );
    let extra = (large.served - small.served) as u64;
    let extra_points = large.change_points.saturating_sub(small.change_points) as u64;
    let budget =
        SERVE_BYTES_PER_EXTRA_ARRIVAL * extra + LOG_BYTES_PER_EXTRA_CHANGE_POINT * extra_points;
    assert!(
        large.bytes <= small.bytes + budget,
        "ingest bytes grew {} -> {} over {extra} extra arrivals and {extra_points} extra \
         change points (budget {budget} B)",
        small.bytes,
        large.bytes
    );
}

#[test]
fn plan_forest_holds_two_shapes_and_a_handle_per_tree() {
    // (allocations, bytes, trees) of one optimal plan over `n` arrivals.
    let plan = |n| {
        let ckpt = alloc_counter::checkpoint();
        let plan = black_box(optimal_forest(MEDIA, n));
        (
            ckpt.allocations_since(),
            ckpt.bytes_since(),
            plan.forest.num_trees(),
        )
    };
    let (small_allocs, small_bytes, small_trees) = plan(250_000);
    let (large_allocs, large_bytes, large_trees) = plan(1_000_000);
    assert!(
        large_trees > 3 * small_trees,
        "{small_trees} then {large_trees} trees"
    );
    assert_eq!(
        large_allocs, small_allocs,
        "allocations scaled with the tree count: {small_allocs} for {small_trees} trees \
         vs {large_allocs} for {large_trees}"
    );
    let extra = (large_trees - small_trees) as u64;
    assert!(
        large_bytes <= small_bytes + PLAN_BYTES_PER_EXTRA_TREE * extra,
        "plan bytes grew {small_bytes} -> {large_bytes} over {extra} extra trees \
         (budget {PLAN_BYTES_PER_EXTRA_TREE} B each)"
    );
}
