#![forbid(unsafe_code)]
//! Multi-object Media-on-Demand server — the §5 "future work" of the paper,
//! built out.
//!
//! §5: *"An area for future work is to consider the practical case of a
//! server that serves multiple media objects. In a situation such as this
//! one, studying the maximum bandwidth rather than average bandwidth usage
//! is likely to be important. … By increasing the guaranteed delay, we can
//! ensure that we never go over the fixed maximum bandwidth and still never
//! have to decline a client request."*
//!
//! This crate operationalizes that paragraph:
//!
//! * [`catalog`] — a set of titles with popularity weights (Zipf-distributed
//!   by default, the standard VoD popularity model), each title served by
//!   the Delay Guaranteed algorithm on its own slot grid;
//! * [`zipf`] — an exact inverse-CDF Zipf sampler for request generation;
//! * [`planner`] — **per-title** guaranteed-delay assignment minimizing the
//!   popularity-weighted expected delay subject to an aggregate
//!   peak-bandwidth budget (popular titles get short delays, long-tail
//!   titles absorb the slack), with a brute-force cross-check;
//! * [`admission`] — minute-grained aggregation of the per-title periodic
//!   DG bandwidth profiles, demonstrating the §5 claim: the planned peak
//!   never exceeds the budget and no request is ever declined, because DG
//!   bandwidth is *deterministic* (it does not depend on the request
//!   process at all).

//! * [`dynamic`] — epoch-by-epoch re-planning with stream-exact transition
//!   accounting: the §5 point that dynamic channel allocation lets the
//!   server *change* the guaranteed delay without tearing anything down.
//!
//! The expensive per-title work — one steady-state Delay Guaranteed
//! analysis per media length, whose peak [`planner`] budgets and whose
//! periodic profile [`admission`] sums — is cached in a
//! [`memo::PlannerMemo`]: a shared cross-epoch (and cross-run) handle that
//! pays for each distinct media length once, for both layers, on the
//! calling thread. The greedy planner reads its peaks in at most two
//! batched memo reads and caches each title's next-move ratio instead of
//! rebuilding its plan per step. [`dynamic`] pipelines *across* epochs with
//! [`sm_core::pipeline`]: planning hands over batches of 16 epochs and runs
//! up to [`DynamicConfig::plan_ahead`](dynamic::DynamicConfig) batches
//! ahead of materialization, which stamps each `(media length, slots)`
//! window once per run straight from a run-local Delay Guaranteed template
//! (no forest, no threads), bins its net stream deltas once per group of
//! titles sharing it, and folds each epoch's minutes into counts while
//! they are in cache. Its reference lives in the tests: a server that
//! materializes every `(title, epoch)` forest.
//!
//! # Example
//!
//! ```
//! use sm_server::{plan_weighted, simulate_requests, Catalog};
//!
//! // Six Zipf-popular titles under a 30-stream license.
//! let catalog = Catalog::zipf(6, 1.0, &[120.0, 90.0]);
//! let plan = plan_weighted(&catalog, 30, &[1.0, 2.0, 5.0, 10.0, 20.0])
//!     .expect("30 streams fit at some delay mix");
//! assert!(plan.total_peak <= 30);
//! // Popular titles never wait longer than the long tail.
//! assert!(plan.delays_minutes[0] <= plan.delays_minutes[5]);
//!
//! // A day of Poisson requests: nobody is declined (§5's claim).
//! let report = simulate_requests(&catalog, &plan, 1440.0, 2.0, 7);
//! assert_eq!(report.declined, 0);
//! ```

pub mod admission;
pub mod catalog;
pub mod dynamic;
pub mod memo;
pub mod planner;
pub mod zipf;

pub use admission::{aggregate_profile, simulate_requests, AggregateReport, RequestReport};
pub use catalog::{Catalog, Title};
pub use dynamic::{
    simulate_dynamic, simulate_dynamic_with, DynamicConfig, DynamicError, DynamicReport, Epoch,
    EpochBreakdown, EpochPlan,
};
pub use memo::PlannerMemo;
pub use planner::{plan_weighted, plan_weighted_with, DelayPlan};
pub use zipf::Zipf;
