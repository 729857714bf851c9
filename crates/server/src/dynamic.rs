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
//! function of the media length and the window's slot count, so the server
//! stamps each distinct `(media_len, slots)` window once per run into its
//! nonzero net per-slot deltas — a few dozen, against hundreds of streams.
//! The titles of an epoch that share a window and a delay add those
//! deltas once, scaled by their count, shifted to the epoch start and
//! spaced by the delay, into one difference array. A step therefore costs
//! about as much as its distinct windows' net deltas, not the streams it
//! emits. Right after an epoch is binned, its own minutes are folded into
//! running stream counts in place, and the same loop takes its transition
//! and steady peaks: no later epoch writes below its own start, so those
//! minutes are final, and the folded array becomes the report's profile
//! with no further pass over the horizon. The proptests in
//! `crates/server/tests/proptests.rs` pin every report against a test-side
//! server that materializes each `(title, epoch)` forest and counts its
//! streams minute by minute, so the window cache is checked against an
//! independent path.
//!
//! # The depth-K cross-epoch pipeline
//!
//! Epochs are processed by a two-stage pipeline built on
//! [`sm_core::pipeline`]: a *planning* stage runs the weighted planner
//! (which analyzes any media length its memo has not seen on that same
//! thread) while the *materialization* stage bins and folds finished
//! plans' exact streams on the minute grid. The planning stage hands over
//! a batch of 16 consecutive epochs per channel message, so the
//! materialization stage sleeps and wakes once per batch rather than once
//! per few-microsecond plan. The bounded channel between the stages holds
//! up to [`DynamicConfig::plan_ahead`] finished batches, so planning runs
//! at most `K` batches (plus the one it is planning) ahead of
//! materialization — `K = 1` is the classic one-step overlap, larger `K`
//! lets short planning stages run ahead of a slow materialization without
//! ever growing the backlog unboundedly. A run of at most 16 live epochs
//! is one batch, which [`sm_core::pipeline`] runs inline.
//!
//! [`DynamicConfig::memo`] optionally threads a shared [`PlannerMemo`]
//! through the planning stage: overlapping catalogs then pay for each
//! distinct media length's steady-state analysis once per memo lifetime
//! instead of once per epoch. All knob settings produce **bit-identical**
//! reports (pinned by proptest in `crates/server/tests/proptests.rs` for
//! `K ∈ {1, 2, 4}`, with and without a shared memo) up to the wall-clock
//! latency fields of [`EpochBreakdown`], which measure the run itself.
//!
//! The report separates the steady-state peak (which the planner guarantees
//! under the budget) from the transition peak (old + new streams briefly
//! coexist; the worst case is bounded by the two adjacent plans' peaks
//! combined, and measured far lower in practice), and breaks both down per
//! epoch alongside the plan/materialization latencies so the pipeline's
//! overlap is measurable rather than asserted.
//!
//! ```
//! use sm_server::{
//!     simulate_dynamic, simulate_dynamic_with, Catalog, DynamicConfig, Epoch, PlannerMemo,
//! };
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
//! // Planning two batches ahead with a shared memo changes no report field.
//! let config = DynamicConfig::depth(2).with_memo(PlannerMemo::new());
//! let ahead = simulate_dynamic_with(&epochs, 40, &[2.0, 5.0, 10.0], 240, &config).unwrap();
//! assert_eq!(report.deterministic_diff(&ahead), None);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use crate::catalog::Catalog;
use crate::memo::PlannerMemo;
use crate::planner::{plan_weighted, plan_weighted_with, DelayPlan};
use sm_core::pipeline;
use sm_online::delay_guaranteed::DelayGuaranteedOnline;
use sm_sim::SimError;

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
/// // The default: plan one batch of epochs ahead, no sharing.
/// let default = DynamicConfig::default();
/// assert_eq!(default.plan_ahead, 1);
/// assert!(default.memo.is_none());
///
/// // Plan up to 4 batches ahead, sharing analyses across the whole run.
/// let tuned = DynamicConfig::depth(4).with_memo(PlannerMemo::new());
/// assert_eq!(tuned.plan_ahead, 4);
/// assert!(tuned.memo.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Channel depth of the cross-epoch pipeline: the planner may finish up
    /// to this many batches of 16 consecutive epochs before
    /// materialization consumes them. Must be at least 1
    /// ([`simulate_dynamic_with`] returns [`DynamicError::Config`]
    /// otherwise).
    pub plan_ahead: usize,
    /// Shared steady-state analysis cache threaded through the planning
    /// stage. `None` (the default) gives every epoch's plan a fresh memo —
    /// the memo-free PR-4 behavior.
    pub memo: Option<PlannerMemo>,
}

impl Default for DynamicConfig {
    /// Depth-1 plan-ahead (one batch of epochs), no shared memo.
    fn default() -> Self {
        Self {
            plan_ahead: 1,
            memo: None,
        }
    }
}

impl DynamicConfig {
    /// A memo-free config planning up to `plan_ahead` batches ahead.
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
/// The peak fields are deterministic (bit-identical at every
/// [`DynamicConfig`]); `plan_ms` and `materialize_ms` measure the run
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
    /// the epoch's streams on the minute grid and folding its minutes: it
    /// adds each distinct window's cached deltas, stamping a window only on
    /// its first use in the run, then turns the epoch's minutes into
    /// running stream counts and takes its peaks.
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
    /// the one canonical definition of "two runs agree", shared by the
    /// unit tests, the proptest pins against the test-side reference, the
    /// scale bench, and the `sm-experiments` cross-check gate.
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
    /// not strictly increase, a zero horizon, a horizon too large to
    /// address (its `horizon_minutes + 1` per-minute counters of 8 bytes
    /// do not fit a `Vec`, as for `1 << 62` minutes), or a zero plan-ahead
    /// depth.
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
    /// A title's schedule cannot be materialized: its media length at the
    /// smallest candidate delay, the longest any plan can give it, does
    /// not fit the signed slot arithmetic ([`SimError::MediaLenOverflow`]).
    /// Checked before the epoch is planned.
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

/// Validates the run's inputs without allocating, and returns the length
/// of the horizon's difference array: `horizon_minutes + 1`.
fn check_inputs(
    epochs: &[Epoch],
    candidates_minutes: &[f64],
    horizon_minutes: u64,
    plan_ahead: usize,
) -> Result<usize, DynamicError> {
    let bad = |field, reason| Err(DynamicError::Config { field, reason });
    if plan_ahead == 0 {
        return bad("plan_ahead", "must be at least 1");
    }
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
    // A `Vec` holds at most `isize::MAX` bytes.
    let max_len = isize::MAX.unsigned_abs() / std::mem::size_of::<i64>();
    match usize::try_from(horizon_minutes) {
        Ok(h) if h < max_len => Ok(h + 1),
        _ => bad(
            "horizon_minutes",
            "horizon_minutes + 1 counters of 8 bytes must fit one Vec",
        ),
    }
}

/// The epochs with a non-empty live window in `[0, horizon_minutes)`.
fn epoch_jobs(epochs: &[Epoch], horizon_minutes: u64) -> Vec<EpochJob> {
    epochs
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
        .collect()
}

/// Plans one epoch: the pipeline's producer stage. With a memo the
/// steady-state analyses are shared across epochs (and runs); without one
/// each epoch plans against a fresh cache — either way the chosen plan is
/// bit-identical.
///
/// The planner analyzes every title at the smallest candidate delay, where
/// its media length is longest, so the first title (in catalog order)
/// whose length there overflows the signed slot axis fails the epoch
/// before it is planned; every length a plan can choose then fits.
fn plan_stage(
    epochs: &[Epoch],
    job: EpochJob,
    budget: u64,
    candidates_minutes: &[f64],
    memo: Option<&PlannerMemo>,
) -> Result<(DelayPlan, f64), DynamicError> {
    let t = Instant::now();
    let catalog = &epochs[job.epoch].catalog;
    for title in catalog.titles() {
        let media_len = title.media_len(candidates_minutes[0]);
        if i64::try_from(media_len).is_err() {
            return Err(DynamicError::Schedule {
                epoch: job.epoch,
                title: title.name.clone(),
                source: SimError::MediaLenOverflow { media_len },
            });
        }
    }
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

/// Epochs the planning stage plans per channel message: the
/// materialization stage then sleeps and wakes once per batch instead of
/// once per epoch. On `epoch_server`, batches of 8 and 32 ran as fast.
const BATCH: usize = 16;

/// One channel message: the plans of up to [`BATCH`] consecutive live
/// epochs, each with its planning time in milliseconds. The array moves
/// through the channel's preallocated slots, so a batch allocates nothing.
type Batch = [Option<(DelayPlan, f64)>; BATCH];

/// The live epochs of batch `b`.
fn batch_jobs(jobs: &[EpochJob], b: usize) -> &[EpochJob] {
    jobs.chunks(BATCH).nth(b).unwrap_or_default()
}

/// Titles of one epoch that share a delay and a media length, hence a
/// window: they add its deltas once, scaled by `count`.
struct Group {
    delay: u64,
    media_len: u64,
    count: i64,
}

/// The materialization stage's run-local state. A run builds each media
/// length's Delay Guaranteed template once, on the first window that needs
/// it, and stamps each `(media_len, slots)` window once into its sorted
/// nonzero net slot deltas ([`window_deltas`]), which every later
/// `(title, epoch)` with that window adds. A window keeps at most
/// `slots + media_len` entries for the whole run, even when no later epoch
/// reuses it. `groups` holds one epoch's title groups; every epoch of the
/// run reuses it.
#[derive(Default)]
struct Binner {
    templates: HashMap<u64, DelayGuaranteedOnline>,
    windows: HashMap<(u64, u64), Vec<(u64, i64)>>,
    groups: Vec<Group>,
}

/// The net change in concurrent streams at each slot of `template`'s
/// schedule over its first `slots` slots — `+1` where a stream starts,
/// `−1` where one ends — kept where nonzero, in slot order. The dense
/// [`DelayGuaranteedOnline::net_deltas`] nets every stream with no sort:
/// `O(slots + media_len)`, the order of stamping the window's streams
/// once.
fn window_deltas(template: &DelayGuaranteedOnline, slots: u64) -> Vec<(u64, i64)> {
    template
        .net_deltas(slots)
        .into_iter()
        .enumerate()
        .filter(|&(_, delta)| delta != 0)
        .map(|(slot, delta)| (slot as u64, delta))
        .collect()
}

impl Binner {
    /// Bins one planned epoch into the difference array `counts` of a
    /// `horizon`-minute run: the pipeline's consumer stage. The titles are
    /// grouped by delay and media length, and each group adds its window's
    /// cached deltas once, times its title count, stamping the window on
    /// its first use in the run; a group whose delay slot is longer than
    /// the epoch window starts no stream in it. Streams started before
    /// `job.t1` run to their natural end, possibly past it. A delta at slot
    /// `s` lands on minute `job.t0 + s · delay`, clamped to `horizon`,
    /// which clips each stream to the horizon: a stream that starts at or
    /// past the horizon, or an empty one, adds `+1` and `−1` on one index
    /// and nets to 0, and `counts[horizon]` is never read. The entries
    /// hold net deltas in two's complement, so [`fold_counts`] can turn
    /// them into counts in place.
    fn bin_epoch(
        &mut self,
        catalog: &Catalog,
        plan: &DelayPlan,
        job: EpochJob,
        counts: &mut [u64],
        horizon: u64,
    ) {
        let Self {
            templates,
            windows,
            groups,
        } = self;
        groups.clear();
        for (title, &delay) in catalog.titles().iter().zip(&plan.delays_minutes) {
            let media_len = title.media_len(delay);
            let delay = delay as u64;
            match groups
                .iter_mut()
                .find(|g| (g.delay, g.media_len) == (delay, media_len))
            {
                Some(group) => group.count += 1,
                None => groups.push(Group {
                    delay,
                    media_len,
                    count: 1,
                }),
            }
        }
        for &Group {
            delay,
            media_len,
            count,
        } in groups.iter()
        {
            let slots = (job.t1 - job.t0) / delay;
            if slots == 0 {
                continue;
            }
            let deltas = windows.entry((media_len, slots)).or_insert_with(|| {
                let template = templates
                    .entry(media_len)
                    .or_insert_with(|| DelayGuaranteedOnline::new(media_len));
                window_deltas(template, slots)
            });
            for &(slot, delta) in deltas.iter() {
                let entry = &mut counts[(job.t0 + slot * delay).min(horizon) as usize];
                *entry = entry.wrapping_add_signed(delta * count);
            }
        }
    }
}

/// Turns binned minutes into running stream counts in place, carrying
/// `running` in from the minute before them, and returns their maximum (0
/// for no minutes). Entries and `running` are two's-complement sums, so
/// the wrapping adds give the exact counts, which are never negative.
fn fold_counts(minutes: &mut [u64], running: &mut u64) -> u64 {
    let mut peak = 0;
    for count in minutes {
        *running = running.wrapping_add(*count);
        *count = *running;
        peak = peak.max(*running);
    }
    peak
}

/// The first minute of `job`'s steady part. Transition windows last one
/// longest-media length (over every live epoch's catalog) after each
/// epoch switch; the first epoch has no predecessor, hence no transition
/// of its own. A short epoch can end inside the window its own switch
/// opened, but that window's reach into the successor lies inside the
/// successor's own, equally long window. So an epoch's transition minutes
/// are exactly the first `longest_media` after its own start, and each
/// epoch splits its window once.
fn steady_start(job: EpochJob, longest_media: u64) -> u64 {
    match job.t0 {
        // Only the first epoch starts at minute 0.
        0 => 0,
        start => start.saturating_add(longest_media).min(job.t1),
    }
}

/// Simulates the epochs against `budget` over `[0, horizon_minutes)` with
/// the default knobs: depth-1 plan-ahead, no shared memo (see
/// [`simulate_dynamic_with`]). The report is bit-identical to every other
/// configuration's up to the latency fields.
///
/// # Errors
/// [`DynamicError::Config`] if epochs are empty, unsorted, or don't start
/// at minute 0, if the horizon is 0 or too large for its per-minute
/// counters to fit a `Vec`, if the candidate delays are empty or
/// not strictly increasing, or if any candidate delay is not a positive
/// whole number of minutes (the minute grid needs integral slots);
/// [`DynamicError::Schedule`] if a title's media length at the smallest
/// candidate delay does not fit the signed slot axis;
/// [`DynamicError::Infeasible`] if some epoch has no feasible plan. Errors
/// come in one deterministic order: inputs first, then epochs in order;
/// within an epoch, the first overflowing title in catalog order, then
/// infeasibility.
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
/// runs up to `config.plan_ahead` batches of epochs ahead of
/// materialization through the depth-K bounded pipeline, and `config.memo`
/// optionally shares the steady-state analyses across epochs and runs.
/// Every configuration is bit-identical up to the latency fields.
///
/// # Errors
/// Same as [`simulate_dynamic`]; additionally [`DynamicError::Config`] if
/// `config.plan_ahead == 0` (a pipeline needs at least one slot of
/// plan-ahead).
pub fn simulate_dynamic_with(
    epochs: &[Epoch],
    budget: u64,
    candidates_minutes: &[f64],
    horizon_minutes: u64,
    config: &DynamicConfig,
) -> Result<DynamicReport, DynamicError> {
    let counts_len = check_inputs(
        epochs,
        candidates_minutes,
        horizon_minutes,
        config.plan_ahead,
    )?;
    // The materialization stage adds each epoch's window deltas into one
    // difference array and folds the epoch's minutes into running counts
    // in place, so the same allocation becomes the report's per-minute
    // profile. It is the run's one large block, so it is allocated before
    // any other: a caller that has just dropped the previous run's report
    // freed a block of the same size, which the allocator can then reuse
    // whole. Once small blocks of this run land in that space, the array
    // no longer fits there and the heap grows by its size instead (a
    // 230 400-minute run's peak RSS read about 1.8 MiB higher).
    let mut counts = vec![0u64; counts_len];
    let jobs = epoch_jobs(epochs, horizon_minutes);
    let longest_media = jobs
        .iter()
        .flat_map(|job| epochs[job.epoch].catalog.titles())
        .map(|title| title.duration_minutes.ceil() as u64)
        .max()
        .unwrap_or(0);
    // Sized for the largest live catalog, so the group buffer allocates
    // once per run.
    let mut binner = Binner {
        groups: Vec::with_capacity(
            jobs.iter()
                .map(|job| epochs[job.epoch].catalog.len())
                .max()
                .unwrap_or(0),
        ),
        ..Binner::default()
    };
    let mut running = 0u64;
    let mut epoch_plans: Vec<EpochPlan> = Vec::with_capacity(jobs.len());
    let mut per_epoch: Vec<EpochBreakdown> = Vec::with_capacity(jobs.len());

    pipeline(
        jobs.len().div_ceil(BATCH),
        config.plan_ahead,
        |b| {
            let mut plans = Batch::default();
            for (slot, &job) in plans.iter_mut().zip(batch_jobs(&jobs, b)) {
                *slot = Some(plan_stage(
                    epochs,
                    job,
                    budget,
                    candidates_minutes,
                    config.memo.as_ref(),
                )?);
            }
            Ok(plans)
        },
        |b, plans: Batch| {
            let planned = plans.into_iter().flatten();
            for (&job, (plan, plan_ms)) in batch_jobs(&jobs, b).iter().zip(planned) {
                let t = Instant::now();
                binner.bin_epoch(
                    &epochs[job.epoch].catalog,
                    &plan,
                    job,
                    &mut counts,
                    horizon_minutes,
                );
                // Every earlier epoch is binned and no later one writes
                // below `job.t1`, so the epoch's minutes are final.
                let split = steady_start(job, longest_media) as usize;
                let transition_peak =
                    fold_counts(&mut counts[job.t0 as usize..split], &mut running);
                let steady_peak = fold_counts(&mut counts[split..job.t1 as usize], &mut running);
                per_epoch.push(EpochBreakdown {
                    start_minute: job.t0,
                    end_minute: job.t1,
                    peak: transition_peak.max(steady_peak),
                    steady_peak,
                    transition_peak,
                    plan_ms,
                    materialize_ms: t.elapsed().as_secs_f64() * 1e3,
                });
                epoch_plans.push(EpochPlan {
                    start_minute: job.t0,
                    end_minute: job.t1,
                    plan,
                });
            }
            Ok(())
        },
    )?;

    // The live epoch windows tile [0, horizon) exactly (the first epoch
    // starts at 0, each window ends where the next begins, and the last one
    // ends at the horizon), so every minute is folded, and the global
    // maxima are folds of the per-epoch breakdown.
    counts.truncate(horizon_minutes as usize);
    let fold = |f: fn(&EpochBreakdown) -> u64| per_epoch.iter().map(f).max().unwrap_or(0);
    Ok(DynamicReport {
        peak: fold(|e| e.peak),
        steady_peak: fold(|e| e.steady_peak),
        transition_peak: fold(|e| e.transition_peak),
        per_minute: counts,
        epoch_plans,
        per_epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Title;
    use sm_sim::BandwidthProfile;

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
    }

    #[test]
    fn overflowing_media_length_is_a_schedule_error() {
        // The planner analyzes every title at the smallest candidate delay,
        // so the length is checked before planning: a 1e19-minute title
        // would overflow its allocation and an endless one `theorem12_h`.
        let endless = |duration_minutes| Title {
            name: "endless".into(),
            duration_minutes,
            weight: 1.0,
        };
        for (duration, media_len) in [
            (1e19, 10_000_000_000_000_000_000),
            (f64::INFINITY, u64::MAX),
        ] {
            let overflow = DynamicError::Schedule {
                epoch: 0,
                title: "endless".into(),
                source: SimError::MediaLenOverflow { media_len },
            };
            let epochs = [Epoch {
                start_minute: 0,
                catalog: Catalog::new(vec![endless(duration)]),
            }];
            let err = simulate_dynamic(&epochs, 100, &[1.0], 100).unwrap_err();
            assert_eq!(err, overflow);
            // Within an epoch the overflow comes before infeasibility.
            let epochs = [Epoch {
                start_minute: 0,
                catalog: Catalog::new(vec![catalog(1).titles()[0].clone(), endless(duration)]),
            }];
            let err = simulate_dynamic(&epochs, 1, &[1.0, 2.0], 100).unwrap_err();
            assert_eq!(err, overflow);
        }
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
        let baseline = simulate_dynamic(&epochs, 40, &CANDS, 1100).unwrap();
        let shared = PlannerMemo::new();
        for plan_ahead in [1usize, 2, 4, 16] {
            for memo in [None, Some(shared.clone())] {
                let config = DynamicConfig { plan_ahead, memo };
                let got = simulate_dynamic_with(&epochs, 40, &CANDS, 1100, &config).unwrap();
                assert_reports_identical(&got, &baseline);
            }
        }
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

    /// The `Config` field the server names for these inputs.
    fn config_error_field(epochs: &[Epoch], cands: &[f64], horizon: u64) -> &'static str {
        match simulate_dynamic(epochs, 100, cands, horizon).unwrap_err() {
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
    fn unaddressable_horizons_are_config_errors() {
        // `h + 1` counters of 8 bytes overflow a `Vec` for both: the check
        // step rejects them before anything is allocated.
        let epochs = [Epoch {
            start_minute: 0,
            catalog: catalog(1),
        }];
        for h in [u64::MAX, 1 << 62] {
            let err = simulate_dynamic(&epochs, 40, &[2.0, 5.0], h).unwrap_err();
            assert!(
                matches!(
                    err,
                    DynamicError::Config {
                        field: "horizon_minutes",
                        ..
                    }
                ),
                "horizon {h}: {err:?}"
            );
        }
        // The check itself allocates nothing, so it can probe the edge:
        // the largest horizon whose array fits a `Vec` passes.
        let max_len = isize::MAX.unsigned_abs() / 8;
        let largest = u64::try_from(max_len - 1).unwrap();
        assert_eq!(check_inputs(&epochs, &CANDS, largest, 1), Ok(max_len));
        assert!(check_inputs(&epochs, &CANDS, largest + 1, 1).is_err());
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

    /// A catalog of `copies` copies of one title, all at `delay_minutes`.
    fn repeated(title: &Title, copies: usize, delay_minutes: f64) -> (Catalog, DelayPlan) {
        let plan = DelayPlan {
            delays_minutes: vec![delay_minutes; copies],
            peaks: vec![0; copies],
            total_peak: 0,
            expected_delay: delay_minutes,
        };
        (Catalog::new(vec![title.clone(); copies]), plan)
    }

    #[test]
    fn cached_window_deltas_bin_like_the_stamped_streams() {
        // One binner for every case, as in a run: a window stamped for one
        // delay, horizon or slot count is reused wherever its key matches,
        // so a key that drops a component hands some title another
        // window's deltas.
        let mut binner = Binner::default();
        for media_len in 1..=150u64 {
            let reference = DelayGuaranteedOnline::new(media_len);
            let f = reference.tree_size();
            for slots in [1, 2, f - 1, f, f + 1, 3 * f + 2, 600] {
                for d in [1u64, 3, 16] {
                    let title = Title {
                        name: "t".into(),
                        duration_minutes: (media_len * d) as f64,
                        weight: 1.0,
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
                        // Each stream stamped on its own, clipped to the
                        // horizon.
                        let intervals = reference.schedule_after(slots).map(|(slot, length)| {
                            let start = job.t0 + slot * d;
                            let end = start + length * d;
                            (start.min(horizon) as i64, end.min(horizon) as i64)
                        });
                        let once: Vec<u64> = BandwidthProfile::from_intervals(intervals)
                            .window(0, horizon as i64)
                            .into_iter()
                            .map(u64::from)
                            .collect();
                        // One title, then two that share the window: their
                        // group adds its deltas once, times 2.
                        for copies in [1, 2] {
                            let want: Vec<u64> = once.iter().map(|c| c * copies).collect();
                            let (catalog, plan) = repeated(&title, copies as usize, d as f64);
                            let mut counts = vec![0u64; horizon as usize + 1];
                            binner.bin_epoch(&catalog, &plan, job, &mut counts, horizon);
                            // Fold as a run does: the epoch's own minutes,
                            // then the tail the later epochs fold.
                            counts.truncate(horizon as usize);
                            let end = job.t1.min(horizon) as usize;
                            let (epoch, tail) = counts.split_at_mut(end);
                            let mut running = 0;
                            let peaks = [
                                fold_counts(epoch, &mut running),
                                fold_counts(tail, &mut running),
                            ];
                            let max = |m: &[u64]| m.iter().copied().max().unwrap_or(0);
                            let case = format!(
                                "L {media_len}, {slots} slots, delay {d}, horizon {horizon}, \
                                 {copies} titles"
                            );
                            assert_eq!(counts, want, "{case}");
                            assert_eq!(peaks, [max(&want[..end]), max(&want[end..])], "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn titles_sharing_a_window_at_different_delays_bin_apart() {
        // Over a 35-minute epoch, media length 10 at delays 16 and 17 is
        // the same `(media_len, slots)` window of 2 slots, but its streams
        // land on different minutes: the two titles form two groups.
        let job = EpochJob {
            epoch: 0,
            t0: 0,
            t1: 35,
        };
        let horizon = 400;
        let title = |minutes: f64| Title {
            name: format!("{minutes}"),
            duration_minutes: minutes,
            weight: 1.0,
        };
        let mut binner = Binner::default();
        let mut alone = vec![0u64; horizon as usize + 1];
        for (minutes, delay) in [(160.0, 16.0), (170.0, 17.0)] {
            let (catalog, plan) = repeated(&title(minutes), 1, delay);
            binner.bin_epoch(&catalog, &plan, job, &mut alone, horizon);
        }
        let catalog = Catalog::new(vec![title(160.0), title(170.0)]);
        let plan = DelayPlan {
            delays_minutes: vec![16.0, 17.0],
            peaks: vec![0, 0],
            total_peak: 0,
            expected_delay: 16.5,
        };
        let mut together = vec![0u64; horizon as usize + 1];
        binner.bin_epoch(&catalog, &plan, job, &mut together, horizon);
        assert_eq!(binner.windows.len(), 1, "one window serves both titles");
        assert_eq!(together, alone);
    }
}
