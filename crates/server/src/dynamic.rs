//! Dynamic re-provisioning — the §5 observation that stream merging, unlike
//! the static broadcasting schemes, "can accommodate scenarios where the
//! server wishes to change the guaranteed start-up delay".
//!
//! The catalog changes over time (titles added/retired, popularity shifts);
//! at each epoch boundary the server re-plans per-title delays against the
//! same bandwidth budget. Nothing is torn down: streams committed under the
//! old plan simply run to completion while the new plan's slot grids start
//! — exactly what dynamic channel allocation means. The simulation here is
//! *stream-exact*: every stream of every epoch is stamped from the Delay
//! Guaranteed template (its Lemma-1 truncated length included) and binned
//! on the minute grid, so the transition overlap is measured, not modeled.
//!
//! The Delay Guaranteed algorithm makes no on-line decision, so no forest
//! is built: [`DelayGuaranteedOnline::schedule_after`] reads a
//! `(title, epoch)`'s streams straight off the template, and each run keeps
//! one template per media length. Those streams, in slot units, are a fixed
//! function of the media length and the window's slot count, so the
//! pipelined spine stamps each distinct `(media_len, slots)` window once
//! per run into its nonzero net per-slot deltas — a few dozen, against
//! hundreds of streams. Every `(title, epoch)` with that window then adds
//! those deltas, scaled by its delay and shifted to its epoch start, into
//! one difference array. A step of the pipelined server therefore costs
//! about as much as its windows' net deltas, not the streams it emits. The
//! sequential spine still stamps stream by stream, so pinning the two
//! spines together checks the window cache against an independent path.
//!
//! # The depth-K cross-epoch pipeline
//!
//! Epochs are processed by a two-stage pipeline built on
//! [`sm_core::pipeline`]: a *planning* stage runs the weighted planner
//! (whose memo seeding shards unseen media lengths across threads with
//! [`sm_core::parallel_map`]) on its own thread while the
//! *materialization* stage bins finished plans' exact streams on the
//! minute grid. The bounded channel between the stages holds
//! up to [`DynamicConfig::plan_ahead`] finished plans, so planning runs at
//! most `K` epochs ahead of materialization — `K = 1` is the classic
//! one-epoch overlap, larger `K` lets short planning stages batch ahead of
//! a slow materialization without ever growing the backlog unboundedly.
//!
//! [`DynamicConfig::memo`] optionally threads a shared [`PlannerMemo`]
//! through the planning stage: overlapping catalogs then pay for each
//! distinct media length's steady-state analysis once per memo lifetime
//! instead of once per epoch. [`simulate_dynamic_sequential`] keeps the
//! original one-epoch-at-a-time spine as the reference (it honors the memo
//! too, via [`simulate_dynamic_sequential_with`]): all spines and knob
//! settings produce **bit-identical** reports (pinned by proptest in
//! `crates/server/tests/proptests.rs` for `K ∈ {1, 2, 4}`, with and
//! without a shared memo) up to the wall-clock latency fields of
//! [`EpochBreakdown`], which measure the run itself.
//!
//! The report separates the steady-state peak (which the planner guarantees
//! under the budget) from the transition peak (old + new streams briefly
//! coexist; the worst case is bounded by the two adjacent plans' peaks
//! combined, and measured far lower in practice), and breaks both down per
//! epoch alongside the plan/materialization latencies so the pipeline's
//! overlap is measurable rather than asserted.
//!
//! ```
//! use sm_server::{simulate_dynamic, simulate_dynamic_sequential, Catalog, Epoch};
//!
//! // Two epochs: the catalog doubles at minute 120 under the same budget.
//! let epochs = [
//!     Epoch { start_minute: 0, catalog: Catalog::zipf(2, 1.0, &[60.0]) },
//!     Epoch { start_minute: 120, catalog: Catalog::zipf(4, 1.0, &[60.0]) },
//! ];
//! let report = simulate_dynamic(&epochs, 40, &[2.0, 5.0, 10.0], 240).unwrap();
//! assert_eq!(report.epoch_plans.len(), 2);
//! assert!(report.steady_peak <= 40);
//! assert_eq!(report.per_epoch.len(), 2);
//!
//! // The pipelined spine is bit-identical to the sequential reference.
//! let seq = simulate_dynamic_sequential(&epochs, 40, &[2.0, 5.0, 10.0], 240).unwrap();
//! assert_eq!(report.per_minute, seq.per_minute);
//! assert_eq!(report.peak, seq.peak);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use crate::catalog::Catalog;
use crate::memo::PlannerMemo;
use crate::planner::{plan_weighted, plan_weighted_with, DelayPlan};
use sm_core::pipeline;
use sm_online::delay_guaranteed::DelayGuaranteedOnline;
use sm_sim::{BandwidthProfile, SimError};

/// Knobs of the dynamic simulation: how far the planning stage may run
/// ahead of materialization, and whether the steady-state analyses are
/// shared across epochs (and runs) through a [`PlannerMemo`].
///
/// Every setting is **observability-only** with respect to the report: all
/// `(plan_ahead, memo)` combinations produce bit-identical deterministic
/// fields (pinned by proptest). The knobs change wall-clock behavior —
/// how much planning overlaps materialization, and how often the
/// steady-state analyses actually execute.
///
/// ```
/// use sm_server::{DynamicConfig, PlannerMemo};
///
/// // The default is the PR-4 behavior: plan one epoch ahead, no sharing.
/// let default = DynamicConfig::default();
/// assert_eq!(default.plan_ahead, 1);
/// assert!(default.memo.is_none());
///
/// // Plan up to 4 epochs ahead, sharing analyses across the whole run.
/// let tuned = DynamicConfig::depth(4).with_memo(PlannerMemo::new());
/// assert_eq!(tuned.plan_ahead, 4);
/// assert!(tuned.memo.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Channel depth of the cross-epoch pipeline: the planner may finish up
    /// to this many epochs before materialization consumes them. Must be at
    /// least 1 ([`simulate_dynamic_with`] returns [`DynamicError::Config`]
    /// otherwise). Ignored by the sequential spine, which has no pipeline.
    pub plan_ahead: usize,
    /// Shared steady-state analysis cache threaded through the planning
    /// stage. `None` (the default) gives every epoch's plan a fresh memo —
    /// the memo-free PR-4 behavior.
    pub memo: Option<PlannerMemo>,
}

impl Default for DynamicConfig {
    /// Depth-1 plan-ahead, no shared memo — exactly the PR-4 pipeline.
    fn default() -> Self {
        Self {
            plan_ahead: 1,
            memo: None,
        }
    }
}

impl DynamicConfig {
    /// A memo-free config planning up to `plan_ahead` epochs ahead.
    pub fn depth(plan_ahead: usize) -> Self {
        Self {
            plan_ahead,
            memo: None,
        }
    }

    /// Threads `memo` through the planning stage (builder-style).
    pub fn with_memo(mut self, memo: PlannerMemo) -> Self {
        self.memo = Some(memo);
        self
    }
}

/// A catalog snapshot taking effect at `start_minute`.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// First minute this catalog is live.
    pub start_minute: u64,
    /// The catalog served from this minute on.
    pub catalog: Catalog,
}

/// The plan chosen for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// First minute of the epoch.
    pub start_minute: u64,
    /// First minute after the epoch.
    pub end_minute: u64,
    /// The per-title delay plan.
    pub plan: DelayPlan,
}

/// Per-epoch slice of the report: load peaks over the epoch's live window
/// plus the wall-clock cost of its two pipeline stages.
///
/// The peak fields are deterministic (bit-identical between the pipelined
/// and sequential spines); `plan_ms` and `materialize_ms` measure the run
/// itself and vary between executions.
#[derive(Debug, Clone)]
pub struct EpochBreakdown {
    /// First minute of the epoch.
    pub start_minute: u64,
    /// First minute after the epoch.
    pub end_minute: u64,
    /// Maximum concurrent streams during `[start_minute, end_minute)`.
    pub peak: u64,
    /// Maximum outside transition windows within this epoch.
    pub steady_peak: u64,
    /// Maximum inside transition windows within this epoch (0 for the first
    /// epoch when no earlier switch's window reaches into it).
    pub transition_peak: u64,
    /// Wall-clock milliseconds the planning stage spent on this epoch.
    pub plan_ms: f64,
    /// Wall-clock milliseconds the materialization stage spent binning
    /// the epoch's streams on the minute grid: the pipelined spine adds
    /// each title's cached window deltas (stamping a window only on its
    /// first use in the run), the sequential spine stamps every stream.
    pub materialize_ms: f64,
}

/// Stream-exact minute-grid report of a dynamic run.
#[derive(Debug, Clone)]
pub struct DynamicReport {
    /// Concurrent streams per minute over the horizon.
    pub per_minute: Vec<u64>,
    /// Overall maximum.
    pub peak: u64,
    /// Maximum outside transition windows (one longest-media length after
    /// each epoch switch).
    pub steady_peak: u64,
    /// Maximum inside transition windows.
    pub transition_peak: u64,
    /// The plan of each epoch.
    pub epoch_plans: Vec<EpochPlan>,
    /// Per-epoch peaks and stage latencies, aligned with `epoch_plans`.
    pub per_epoch: Vec<EpochBreakdown>,
}

impl DynamicReport {
    /// Compares every **deterministic** field against `other` — everything
    /// except the per-epoch `plan_ms` / `materialize_ms` latencies, which
    /// measure the run itself — and returns a description of the first
    /// divergence, or `None` when the reports are bit-identical. This is
    /// the one canonical definition of "the pipelined and sequential spines
    /// agree", shared by the unit tests, the proptest pin, and the
    /// `sm-experiments` cross-check gate.
    pub fn deterministic_diff(&self, other: &Self) -> Option<String> {
        if self.per_minute != other.per_minute {
            return Some("per-minute profiles diverge".into());
        }
        if (self.peak, self.steady_peak, self.transition_peak)
            != (other.peak, other.steady_peak, other.transition_peak)
        {
            return Some(format!(
                "peaks diverge: ({}, {}, {}) vs ({}, {}, {})",
                self.peak,
                self.steady_peak,
                self.transition_peak,
                other.peak,
                other.steady_peak,
                other.transition_peak
            ));
        }
        if self.epoch_plans != other.epoch_plans {
            return Some("epoch plans diverge".into());
        }
        if self.per_epoch.len() != other.per_epoch.len() {
            return Some(format!(
                "per-epoch breakdown lengths diverge: {} vs {}",
                self.per_epoch.len(),
                other.per_epoch.len()
            ));
        }
        for (x, y) in self.per_epoch.iter().zip(&other.per_epoch) {
            if (
                x.start_minute,
                x.end_minute,
                x.peak,
                x.steady_peak,
                x.transition_peak,
            ) != (
                y.start_minute,
                y.end_minute,
                y.peak,
                y.steady_peak,
                y.transition_peak,
            ) {
                return Some(format!(
                    "epoch [{}, {}) breakdown diverges",
                    x.start_minute, x.end_minute
                ));
            }
        }
        None
    }
}

/// Failure modes of the dynamic simulation, surfaced as typed errors
/// instead of panicking deep inside a pipeline worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicError {
    /// An input is malformed: no epochs, a first epoch not at minute 0,
    /// epochs out of order, no candidate delay, a candidate delay that is
    /// not a positive whole number of minutes, candidate delays that do
    /// not strictly increase, a zero horizon, or a zero plan-ahead depth.
    Config {
        /// Which input.
        field: &'static str,
        /// What it must satisfy.
        reason: &'static str,
    },
    /// Epoch `epoch` has no feasible plan under the budget, even with every
    /// title at the largest candidate delay.
    Infeasible {
        /// Index into the `epochs` slice.
        epoch: usize,
        /// First minute of the infeasible epoch.
        start_minute: u64,
    },
    /// Materializing a title's schedule failed: its media length does not
    /// fit the signed slot arithmetic ([`SimError::MediaLenOverflow`]),
    /// checked before any template is built.
    Schedule {
        /// Index into the `epochs` slice.
        epoch: usize,
        /// Name of the title whose schedule failed.
        title: String,
        /// The underlying simulator error.
        source: SimError,
    },
}

impl fmt::Display for DynamicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config { field, reason } => write!(f, "invalid dynamic config {field}: {reason}"),
            Self::Infeasible {
                epoch,
                start_minute,
            } => write!(
                f,
                "epoch {epoch} (starting at minute {start_minute}) has no feasible plan under the budget"
            ),
            Self::Schedule {
                epoch,
                title,
                source,
            } => write!(f, "epoch {epoch}, title {title}: {source}"),
        }
    }
}

impl std::error::Error for DynamicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Schedule { source, .. } => Some(source),
            Self::Config { .. } | Self::Infeasible { .. } => None,
        }
    }
}

/// One live epoch window: `epochs[epoch]` served over `[t0, t1)`.
#[derive(Debug, Clone, Copy)]
struct EpochJob {
    epoch: usize,
    t0: u64,
    t1: u64,
}

/// Validates the inputs shared by every spine and lists the epochs with a
/// non-empty live window. Both spines call it first, so a malformed input
/// fails with the same [`DynamicError::Config`] on either.
fn epoch_jobs(
    epochs: &[Epoch],
    candidates_minutes: &[f64],
    horizon_minutes: u64,
) -> Result<Vec<EpochJob>, DynamicError> {
    let bad = |field, reason| Err(DynamicError::Config { field, reason });
    let Some(first) = epochs.first() else {
        return bad("epochs", "need at least one epoch");
    };
    if first.start_minute != 0 {
        return bad("epochs", "the first epoch must start at minute 0");
    }
    if !epochs
        .windows(2)
        .all(|w| w[0].start_minute < w[1].start_minute)
    {
        return bad("epochs", "start minutes must strictly increase");
    }
    if candidates_minutes.is_empty() {
        return bad("candidates_minutes", "need at least one candidate delay");
    }
    if !candidates_minutes
        .iter()
        .all(|d| *d > 0.0 && d.fract() == 0.0)
    {
        return bad(
            "candidates_minutes",
            "every candidate delay must be a positive whole number of minutes",
        );
    }
    if !candidates_minutes.windows(2).all(|w| w[0] < w[1]) {
        return bad(
            "candidates_minutes",
            "candidate delays must strictly increase",
        );
    }
    if horizon_minutes == 0 {
        return bad("horizon_minutes", "must be at least 1");
    }
    Ok(epochs
        .iter()
        .enumerate()
        .filter_map(|(i, epoch)| {
            let t0 = epoch.start_minute;
            let t1 = epochs
                .get(i + 1)
                .map(|e| e.start_minute)
                .unwrap_or(horizon_minutes)
                .min(horizon_minutes);
            (t0 < t1).then_some(EpochJob { epoch: i, t0, t1 })
        })
        .collect())
}

/// Plans one epoch: the pipeline's producer stage. With a memo the
/// steady-state analyses are shared across epochs (and runs); without one
/// each epoch plans against a fresh cache — either way the chosen plan is
/// bit-identical.
fn plan_stage(
    epochs: &[Epoch],
    job: EpochJob,
    budget: u64,
    candidates_minutes: &[f64],
    memo: Option<&PlannerMemo>,
) -> Result<(DelayPlan, f64), DynamicError> {
    let t = Instant::now();
    let catalog = &epochs[job.epoch].catalog;
    let plan = match memo {
        Some(memo) => plan_weighted_with(catalog, budget, candidates_minutes, memo),
        None => plan_weighted(catalog, budget, candidates_minutes),
    }
    .ok_or(DynamicError::Infeasible {
        epoch: job.epoch,
        start_minute: job.t0,
    })?;
    Ok((plan, t.elapsed().as_secs_f64() * 1e3))
}

/// Run-local Delay Guaranteed templates keyed by media length: each spine
/// builds a length's template once per run. The sequential spine stamps
/// every `(title, epoch)` from it, the pipelined spine every window.
type Templates = HashMap<u64, DelayGuaranteedOnline>;

/// Run-local window cache of the pipelined spine: the sorted nonzero net
/// slot deltas of each `(media_len, slots)` window, stamped once per run
/// by [`window_deltas`] and added by every `(title, epoch)` that needs it.
/// A window keeps at most `slots + media_len` entries for the whole run,
/// even when no later epoch reuses it.
type Windows = HashMap<(u64, u64), Vec<(u64, i64)>>;

/// Stamps one planned epoch's streams: the sequential spine's consumer
/// stage, and the reference [`bin_epoch`] is pinned against. Each title's
/// Delay Guaranteed schedule over the epoch's slots is read straight from
/// its template and handed to `emit` as `(start, end)` minutes, titles in
/// catalog order. Streams started before `job.t1` run to their natural
/// end (possibly past it). The first title whose media length overflows
/// the signed slot axis fails the epoch.
fn stamp_epoch(
    catalog: &Catalog,
    plan: &DelayPlan,
    job: EpochJob,
    templates: &mut Templates,
    mut emit: impl FnMut(u64, u64),
) -> Result<(), DynamicError> {
    for (title, &delay) in catalog.titles().iter().zip(&plan.delays_minutes) {
        let d = delay as u64;
        let slots = (job.t1 - job.t0) / d;
        if slots == 0 {
            // The epoch window is shorter than one delay slot: no stream of
            // this title's grid starts inside it.
            continue;
        }
        let media_len = title.media_len(delay);
        if i64::try_from(media_len).is_err() {
            return Err(DynamicError::Schedule {
                epoch: job.epoch,
                title: title.name.clone(),
                source: SimError::MediaLenOverflow { media_len },
            });
        }
        let template = templates
            .entry(media_len)
            .or_insert_with(|| DelayGuaranteedOnline::new(media_len));
        // `for_each` drives the nested per-tree walk as plain loops.
        template.schedule_after(slots).for_each(|(slot, length)| {
            let start = job.t0 + slot * d;
            emit(start, start + length * d);
        });
    }
    Ok(())
}

/// The net change in concurrent streams at each slot of `template`'s
/// schedule over its first `slots` slots — `+1` where a stream starts,
/// `−1` where one ends — kept where nonzero, in slot order. The last
/// stream starts at slot `slots − 1` and runs at most the media length,
/// so one dense pass over `slots + media_len` entries nets every stream
/// with no sort: `O(slots + media_len)`, the order of stamping the
/// window's streams once.
fn window_deltas(template: &DelayGuaranteedOnline, slots: u64) -> Vec<(u64, i64)> {
    let mut dense = vec![0i64; (slots + template.media_len()) as usize];
    template.schedule_after(slots).for_each(|(slot, length)| {
        dense[slot as usize] += 1;
        dense[(slot + length) as usize] -= 1;
    });
    dense
        .into_iter()
        .enumerate()
        .filter(|&(_, delta)| delta != 0)
        .map(|(slot, delta)| (slot as u64, delta))
        .collect()
}

/// Bins one planned epoch into the difference array `diff` of a
/// `horizon`-minute run: the pipelined spine's consumer stage. Titles are
/// skipped or fail exactly as in [`stamp_epoch`], in catalog order; each
/// other title adds its window's cached deltas, stamping the window on its
/// first use in the run. A delta at slot `s` lands on minute
/// `job.t0 + s · delay`, clamped to `horizon`, just as the sequential
/// spine clips each stamped stream to the horizon: a stream that starts at
/// or past the horizon, or an empty one, adds `+1` and `−1` on one index
/// and nets to 0, and `diff[horizon]` is never read.
fn bin_epoch(
    catalog: &Catalog,
    plan: &DelayPlan,
    job: EpochJob,
    templates: &mut Templates,
    windows: &mut Windows,
    diff: &mut [i64],
    horizon: u64,
) -> Result<(), DynamicError> {
    for (title, &delay) in catalog.titles().iter().zip(&plan.delays_minutes) {
        let d = delay as u64;
        let slots = (job.t1 - job.t0) / d;
        if slots == 0 {
            continue;
        }
        let media_len = title.media_len(delay);
        if i64::try_from(media_len).is_err() {
            return Err(DynamicError::Schedule {
                epoch: job.epoch,
                title: title.name.clone(),
                source: SimError::MediaLenOverflow { media_len },
            });
        }
        let deltas = windows.entry((media_len, slots)).or_insert_with(|| {
            let template = templates
                .entry(media_len)
                .or_insert_with(|| DelayGuaranteedOnline::new(media_len));
            window_deltas(template, slots)
        });
        for &(slot, delta) in deltas.iter() {
            diff[(job.t0 + slot * d).min(horizon) as usize] += delta;
        }
    }
    Ok(())
}

/// Folds the binned horizon into the report: global and per-epoch
/// steady/transition peaks. Transition windows last one longest-media
/// length (over every live epoch's catalog) after each epoch switch; the
/// first epoch has no predecessor, hence no transition of its own. A short
/// epoch can end inside the window its own switch opened, but that
/// window's reach into the successor lies inside the successor's own,
/// equally long window. So an epoch's transition minutes are exactly the
/// first `longest_media` after its own start, and each epoch splits its
/// window once: O(horizon + epochs).
fn assemble_report(
    epochs: &[Epoch],
    jobs: &[EpochJob],
    per_minute: Vec<u64>,
    epoch_plans: Vec<EpochPlan>,
    latencies: Vec<(f64, f64)>,
) -> DynamicReport {
    let longest_media = jobs
        .iter()
        .flat_map(|job| epochs[job.epoch].catalog.titles())
        .map(|title| title.duration_minutes.ceil() as u64)
        .max()
        .unwrap_or(0);
    let max_over = |lo: u64, hi: u64| {
        per_minute[lo as usize..hi as usize]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    };
    let per_epoch: Vec<EpochBreakdown> = epoch_plans
        .iter()
        .zip(latencies)
        .map(|(ep, (plan_ms, materialize_ms))| {
            // Only the first epoch starts at minute 0.
            let split = match ep.start_minute {
                0 => 0,
                start => start.saturating_add(longest_media).min(ep.end_minute),
            };
            let transition = max_over(ep.start_minute, split);
            let steady = max_over(split, ep.end_minute);
            EpochBreakdown {
                start_minute: ep.start_minute,
                end_minute: ep.end_minute,
                peak: transition.max(steady),
                steady_peak: steady,
                transition_peak: transition,
                plan_ms,
                materialize_ms,
            }
        })
        .collect();
    // The live epoch windows tile [0, horizon) exactly (the first epoch
    // starts at 0, each window ends where the next begins, and the last one
    // ends at the horizon), so the global maxima are folds of the per-epoch
    // breakdown — no second pass over the horizon.
    let fold = |f: fn(&EpochBreakdown) -> u64| per_epoch.iter().map(f).max().unwrap_or(0);
    DynamicReport {
        peak: fold(|e| e.peak),
        steady_peak: fold(|e| e.steady_peak),
        transition_peak: fold(|e| e.transition_peak),
        per_minute,
        epoch_plans,
        per_epoch,
    }
}

/// Simulates the epochs against `budget` over `[0, horizon_minutes)` with
/// the default knobs: depth-1 plan-ahead, no shared memo (see
/// [`simulate_dynamic_with`]). The report is bit-identical to
/// [`simulate_dynamic_sequential`] up to the latency fields.
///
/// # Errors
/// [`DynamicError::Config`] if epochs are empty, unsorted, or don't start
/// at minute 0, if the horizon is 0, if the candidate delays are empty or
/// not strictly increasing, or if any candidate delay is not a positive
/// whole number of minutes (the minute grid needs integral slots);
/// [`DynamicError::Infeasible`] if some epoch has no feasible plan;
/// [`DynamicError::Schedule`] if a title's schedule cannot be
/// materialized. Errors are reported in the same deterministic order as
/// the sequential spine (inputs first; then epochs in order and, within an
/// epoch, titles in catalog order).
pub fn simulate_dynamic(
    epochs: &[Epoch],
    budget: u64,
    candidates_minutes: &[f64],
    horizon_minutes: u64,
) -> Result<DynamicReport, DynamicError> {
    simulate_dynamic_with(
        epochs,
        budget,
        candidates_minutes,
        horizon_minutes,
        &DynamicConfig::default(),
    )
}

/// [`simulate_dynamic`] governed by a [`DynamicConfig`]: the planning stage
/// runs up to `config.plan_ahead` epochs ahead of materialization through
/// the depth-K bounded pipeline, and `config.memo` optionally shares the
/// steady-state analyses across epochs and runs. Every configuration is
/// bit-identical to [`simulate_dynamic_sequential`] up to the latency
/// fields.
///
/// # Errors
/// Same as [`simulate_dynamic`]; additionally [`DynamicError::Config`] if
/// `config.plan_ahead == 0` (a pipeline needs at least one slot of
/// plan-ahead — use the sequential spine for no overlap at all).
pub fn simulate_dynamic_with(
    epochs: &[Epoch],
    budget: u64,
    candidates_minutes: &[f64],
    horizon_minutes: u64,
    config: &DynamicConfig,
) -> Result<DynamicReport, DynamicError> {
    if config.plan_ahead == 0 {
        return Err(DynamicError::Config {
            field: "plan_ahead",
            reason: "must be at least 1 (use simulate_dynamic_sequential for no overlap)",
        });
    }
    let jobs = epoch_jobs(epochs, candidates_minutes, horizon_minutes)?;
    // The materialization stage adds each title's cached window deltas
    // into one difference array — O(net deltas + horizon) per run, plus
    // one O(slots + media_len) stamp per distinct window — and the prefix
    // sum below turns that same allocation into the report's per-minute
    // profile, count-identical to the sequential spine's sort-based
    // sparse profile.
    let mut diff = vec![0i64; horizon_minutes as usize + 1];
    let mut templates = Templates::new();
    let mut windows = Windows::new();
    let mut epoch_plans: Vec<EpochPlan> = Vec::with_capacity(jobs.len());
    let mut latencies: Vec<(f64, f64)> = Vec::with_capacity(jobs.len());

    pipeline(
        jobs.len(),
        config.plan_ahead,
        |k| {
            plan_stage(
                epochs,
                jobs[k],
                budget,
                candidates_minutes,
                config.memo.as_ref(),
            )
        },
        |k, (plan, plan_ms)| {
            let job = jobs[k];
            let t = Instant::now();
            bin_epoch(
                &epochs[job.epoch].catalog,
                &plan,
                job,
                &mut templates,
                &mut windows,
                &mut diff,
                horizon_minutes,
            )?;
            epoch_plans.push(EpochPlan {
                start_minute: job.t0,
                end_minute: job.t1,
                plan,
            });
            latencies.push((plan_ms, t.elapsed().as_secs_f64() * 1e3));
            Ok(())
        },
    )?;

    Ok(assemble_report(
        epochs,
        &jobs,
        prefix_sums(diff, horizon_minutes),
        epoch_plans,
        latencies,
    ))
}

/// The per-minute profile of a `horizon`-minute run from its difference
/// array: running sums of the first `horizon` entries (`diff[horizon]`
/// only collects deltas at or past the horizon). The same-layout `map`
/// collects in place, so the profile reuses the array's allocation.
fn prefix_sums(mut diff: Vec<i64>, horizon: u64) -> Vec<u64> {
    diff.truncate(horizon as usize);
    let mut cur = 0i64;
    diff.into_iter()
        .map(|d| {
            cur += d;
            cur as u64
        })
        .collect()
}

/// The original sequential spine: plans and materializes one epoch at a
/// time on the calling thread, accounting through the sort-based sparse
/// [`BandwidthProfile`]. Kept as the reference implementation the pipelined
/// [`simulate_dynamic`] is pinned against (identical report up to the
/// latency fields), and as the fallback shape for profiling either stage in
/// isolation.
///
/// # Errors
/// Same as [`simulate_dynamic`].
pub fn simulate_dynamic_sequential(
    epochs: &[Epoch],
    budget: u64,
    candidates_minutes: &[f64],
    horizon_minutes: u64,
) -> Result<DynamicReport, DynamicError> {
    simulate_dynamic_sequential_with(
        epochs,
        budget,
        candidates_minutes,
        horizon_minutes,
        &DynamicConfig::default(),
    )
}

/// [`simulate_dynamic_sequential`] honoring `config.memo` (the sequential
/// spine has no pipeline, so `config.plan_ahead` is ignored): the reference
/// spine for memo-carrying runs. Bit-identical to every other
/// spine/configuration up to the latency fields.
///
/// # Errors
/// Same as [`simulate_dynamic`].
pub fn simulate_dynamic_sequential_with(
    epochs: &[Epoch],
    budget: u64,
    candidates_minutes: &[f64],
    horizon_minutes: u64,
    config: &DynamicConfig,
) -> Result<DynamicReport, DynamicError> {
    let jobs = epoch_jobs(epochs, candidates_minutes, horizon_minutes)?;
    let mut intervals: Vec<(i64, i64)> = Vec::new();
    let mut templates = Templates::new();
    let mut epoch_plans: Vec<EpochPlan> = Vec::with_capacity(jobs.len());
    let mut latencies: Vec<(f64, f64)> = Vec::with_capacity(jobs.len());

    for &job in &jobs {
        let (plan, plan_ms) = plan_stage(
            epochs,
            job,
            budget,
            candidates_minutes,
            config.memo.as_ref(),
        )?;
        let t = Instant::now();
        let catalog = &epochs[job.epoch].catalog;
        stamp_epoch(catalog, &plan, job, &mut templates, |s, e| {
            intervals.push((s.min(horizon_minutes) as i64, e.min(horizon_minutes) as i64));
        })?;
        epoch_plans.push(EpochPlan {
            start_minute: job.t0,
            end_minute: job.t1,
            plan,
        });
        latencies.push((plan_ms, t.elapsed().as_secs_f64() * 1e3));
    }

    let profile = BandwidthProfile::from_intervals(intervals);
    let per_minute: Vec<u64> = profile
        .window(0, horizon_minutes as i64)
        .into_iter()
        .map(u64::from)
        .collect();
    Ok(assemble_report(
        epochs,
        &jobs,
        per_minute,
        epoch_plans,
        latencies,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Title;

    fn catalog(n: usize) -> Catalog {
        Catalog::zipf(n, 1.0, &[100.0, 80.0])
    }

    const CANDS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

    /// Bit-identical comparison of everything except the latency fields
    /// (which measure the run itself).
    fn assert_reports_identical(a: &DynamicReport, b: &DynamicReport) {
        if let Some(diff) = a.deterministic_diff(b) {
            panic!("reports diverge: {diff}");
        }
    }

    #[test]
    fn single_epoch_respects_budget_and_degenerates_to_sequential() {
        let epochs = [Epoch {
            start_minute: 0,
            catalog: catalog(3),
        }];
        let budget = 30;
        let report = simulate_dynamic(&epochs, budget, &CANDS, 800).unwrap();
        assert!(report.peak <= report.epoch_plans[0].plan.total_peak);
        assert!(report.epoch_plans[0].plan.total_peak <= budget);
        assert_eq!(report.transition_peak, 0, "no switch, no transition");
        assert_eq!(report.peak, report.steady_peak);
        // One epoch: the pipeline runs inline and still matches the spine.
        let seq = simulate_dynamic_sequential(&epochs, budget, &CANDS, 800).unwrap();
        assert_reports_identical(&report, &seq);
        assert_eq!(report.per_epoch.len(), 1);
        assert_eq!(report.per_epoch[0].peak, report.peak);
    }

    #[test]
    fn growing_catalog_keeps_steady_state_under_budget() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(2),
            },
            Epoch {
                start_minute: 400,
                catalog: catalog(6),
            },
        ];
        let budget = 40;
        let report = simulate_dynamic(&epochs, budget, &CANDS, 1200).unwrap();
        for ep in &report.epoch_plans {
            assert!(ep.plan.total_peak <= budget);
        }
        assert!(report.steady_peak <= budget);
        // The transition may briefly stack old and new streams, but never
        // beyond the two adjacent plans combined.
        let combined =
            report.epoch_plans[0].plan.total_peak + report.epoch_plans[1].plan.total_peak;
        assert!(report.transition_peak <= combined);
        // The global peaks are the maxima of the per-epoch breakdown.
        assert_eq!(
            report.peak,
            report.per_epoch.iter().map(|e| e.peak).max().unwrap()
        );
        assert_eq!(
            report.transition_peak,
            report
                .per_epoch
                .iter()
                .map(|e| e.transition_peak)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn pipelined_matches_sequential_on_multi_epoch_catalogs() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(2),
            },
            Epoch {
                start_minute: 300,
                catalog: catalog(6),
            },
            Epoch {
                start_minute: 700,
                catalog: catalog(4),
            },
        ];
        for budget in [25u64, 40, 200] {
            let piped = simulate_dynamic(&epochs, budget, &CANDS, 1100);
            let seq = simulate_dynamic_sequential(&epochs, budget, &CANDS, 1100);
            match (piped, seq) {
                (Ok(a), Ok(b)) => assert_reports_identical(&a, &b),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("spines disagree: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn shrinking_catalog_buys_shorter_delays() {
        let big = catalog(8);
        let small = catalog(2);
        // Tight budget: exactly what the big catalog needs at the largest
        // candidate delay — feasible for it, comfortable for the small one.
        let budget = plan_weighted(&big, u64::MAX, &[10.0]).unwrap().total_peak;
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: big,
            },
            Epoch {
                start_minute: 500,
                catalog: small,
            },
        ];
        let report = simulate_dynamic(&epochs, budget, &CANDS, 1000).unwrap();
        let before = report.epoch_plans[0].plan.expected_delay;
        let after = report.epoch_plans[1].plan.expected_delay;
        assert!(
            after <= before,
            "fewer titles should afford shorter delays: {after} vs {before}"
        );
    }

    #[test]
    fn infeasible_epoch_returns_typed_error() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(1),
            },
            Epoch {
                start_minute: 200,
                catalog: catalog(10),
            },
        ];
        let err = simulate_dynamic(&epochs, 1, &CANDS, 500).unwrap_err();
        assert_eq!(
            err,
            DynamicError::Infeasible {
                epoch: 0,
                start_minute: 0
            }
        );
        assert!(err.to_string().contains("epoch 0"));
        assert_eq!(
            err,
            simulate_dynamic_sequential(&epochs, 1, &CANDS, 500).unwrap_err()
        );
    }

    #[test]
    fn epoch_shorter_than_one_delay_slot_contributes_no_streams() {
        // Epoch 1 lives for 3 minutes but every feasible delay is 5 or 10
        // minutes — no slot of its grid starts inside the window, so only
        // epoch 0's (and epoch 2's) streams exist.
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(2),
            },
            Epoch {
                start_minute: 400,
                catalog: catalog(8),
            },
            Epoch {
                start_minute: 403,
                catalog: catalog(2),
            },
        ];
        let budget = plan_weighted(&catalog(8), u64::MAX, &[10.0])
            .unwrap()
            .total_peak;
        let piped = simulate_dynamic(&epochs, budget, &[5.0, 10.0], 800).unwrap();
        let seq = simulate_dynamic_sequential(&epochs, budget, &[5.0, 10.0], 800).unwrap();
        assert_reports_identical(&piped, &seq);
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
        // both transition windows, and both spines must bin them alike.
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
        let seq = simulate_dynamic_sequential(&epochs, 100, &CANDS, 400).unwrap();
        assert_reports_identical(&piped, &seq);
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

    #[test]
    fn every_depth_and_memo_combination_matches_the_default_spine() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(2),
            },
            Epoch {
                start_minute: 300,
                catalog: catalog(6),
            },
            Epoch {
                start_minute: 700,
                catalog: catalog(4),
            },
        ];
        let baseline = simulate_dynamic_sequential(&epochs, 40, &CANDS, 1100).unwrap();
        let shared = PlannerMemo::new();
        for plan_ahead in [1usize, 2, 4, 16] {
            for memo in [None, Some(shared.clone())] {
                let config = DynamicConfig { plan_ahead, memo };
                let got = simulate_dynamic_with(&epochs, 40, &CANDS, 1100, &config).unwrap();
                assert_reports_identical(&got, &baseline);
            }
        }
        // The sequential spine honors the memo too.
        let config = DynamicConfig::default().with_memo(shared.clone());
        let seq = simulate_dynamic_sequential_with(&epochs, 40, &CANDS, 1100, &config).unwrap();
        assert_reports_identical(&seq, &baseline);
        assert!(shared.hits() > 0, "overlapping catalogs must hit the memo");
    }

    #[test]
    fn shared_memo_avoids_reanalysis_across_runs() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(3),
            },
            Epoch {
                start_minute: 200,
                catalog: catalog(3),
            },
        ];
        let memo = PlannerMemo::new();
        let config = DynamicConfig::depth(2).with_memo(memo.clone());
        let first = simulate_dynamic_with(&epochs, 30, &CANDS, 600, &config).unwrap();
        let analyses = memo.misses();
        assert!(analyses > 0);
        let second = simulate_dynamic_with(&epochs, 30, &CANDS, 600, &config).unwrap();
        assert_reports_identical(&first, &second);
        assert_eq!(
            memo.misses(),
            analyses,
            "the second run must be served entirely from the memo"
        );
    }

    /// The `Config` field both spines name for these inputs, after
    /// checking that they agree.
    fn config_error_field(epochs: &[Epoch], cands: &[f64], horizon: u64) -> &'static str {
        let piped = simulate_dynamic(epochs, 100, cands, horizon).unwrap_err();
        let seq = simulate_dynamic_sequential(epochs, 100, cands, horizon).unwrap_err();
        assert_eq!(piped, seq, "the spines must fail alike");
        match piped {
            DynamicError::Config { field, .. } => field,
            other => panic!("expected a Config error, got {other:?}"),
        }
    }

    #[test]
    fn zero_plan_ahead_is_a_config_error() {
        let epochs = [Epoch {
            start_minute: 0,
            catalog: catalog(1),
        }];
        let err =
            simulate_dynamic_with(&epochs, 100, &CANDS, 100, &DynamicConfig::depth(0)).unwrap_err();
        assert!(
            matches!(
                err,
                DynamicError::Config {
                    field: "plan_ahead",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err
            .to_string()
            .starts_with("invalid dynamic config plan_ahead: must be at least 1"));
    }

    #[test]
    fn malformed_epochs_are_config_errors() {
        let epoch = |start_minute, n| Epoch {
            start_minute,
            catalog: catalog(n),
        };
        assert_eq!(config_error_field(&[], &CANDS, 100), "epochs");
        assert_eq!(config_error_field(&[epoch(5, 1)], &CANDS, 100), "epochs");
        // Unsorted: two epochs at the same minute.
        assert_eq!(
            config_error_field(&[epoch(0, 1), epoch(0, 2)], &CANDS, 100),
            "epochs"
        );
        assert_eq!(
            config_error_field(&[epoch(0, 1)], &CANDS, 0),
            "horizon_minutes"
        );
    }

    #[test]
    fn fractional_candidate_delays_are_config_errors() {
        let epochs = [Epoch {
            start_minute: 0,
            catalog: catalog(1),
        }];
        let bad: [&[f64]; 7] = [
            &[1.5],
            &[0.0],
            &[f64::NAN],
            &[f64::INFINITY],
            // The planner needs a smallest delay and a strict order.
            &[],
            &[5.0, 2.0],
            &[2.0, 2.0],
        ];
        for cands in bad {
            assert_eq!(
                config_error_field(&epochs, cands, 100),
                "candidates_minutes",
                "candidates {cands:?}"
            );
        }
    }

    #[test]
    fn cached_window_deltas_bin_like_the_stamped_streams() {
        // One cache for every case, as in a run: a window stamped for one
        // delay, horizon or slot count is reused wherever its key matches,
        // so a key that drops a component hands some title another
        // window's deltas.
        let mut templates = Templates::new();
        let mut windows = Windows::new();
        let mut reference_templates = Templates::new();
        for media_len in 1..=150u64 {
            let f = DelayGuaranteedOnline::new(media_len).tree_size();
            for slots in [1, 2, f - 1, f, f + 1, 3 * f + 2, 600] {
                for d in [1u64, 3, 16] {
                    let catalog = Catalog::new(vec![Title {
                        name: "t".into(),
                        duration_minutes: (media_len * d) as f64,
                        weight: 1.0,
                    }]);
                    let plan = DelayPlan {
                        delays_minutes: vec![d as f64],
                        peaks: vec![0],
                        total_peak: 0,
                        expected_delay: d as f64,
                    };
                    let job = EpochJob {
                        epoch: 0,
                        t0: 7,
                        t1: 7 + slots * d,
                    };
                    // Cut inside the window, inside the streams' tails, and
                    // past the last stream's end.
                    for horizon in [
                        job.t0 + slots * d / 2 + 1,
                        job.t1 + media_len * d / 2,
                        job.t1 + media_len * d + 1,
                    ] {
                        let mut intervals = Vec::new();
                        stamp_epoch(&catalog, &plan, job, &mut reference_templates, |s, e| {
                            intervals.push((s.min(horizon) as i64, e.min(horizon) as i64));
                        })
                        .unwrap();
                        let want: Vec<u64> = BandwidthProfile::from_intervals(intervals)
                            .window(0, horizon as i64)
                            .into_iter()
                            .map(u64::from)
                            .collect();
                        let mut diff = vec![0i64; horizon as usize + 1];
                        bin_epoch(
                            &catalog,
                            &plan,
                            job,
                            &mut templates,
                            &mut windows,
                            &mut diff,
                            horizon,
                        )
                        .unwrap();
                        assert_eq!(
                            prefix_sums(diff, horizon),
                            want,
                            "L {media_len}, {slots} slots, delay {d}, horizon {horizon}"
                        );
                    }
                }
            }
        }
    }
}
