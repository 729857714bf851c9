//! The multi-title delay-planning serve loop.
//!
//! One producer thread draws an independent Poisson run per title for
//! each pipeline batch and fans them into a single time-ordered stream
//! with [`sm_core::merge_runs`] (ties resolve to the lower title index —
//! deterministic, documented). The consumer feeds each arrival to a
//! private `ServeCore`, which owns one [`IncrementalEngine`] and one
//! built-in [`IncrementalPolicy`] per title (matched as an enum, not
//! called through a trait object) plus a single shared [`DelayPlanner`],
//! and serves every arrival: overload becomes start-up delay, never
//! rejection.
//!
//! # Delay planning
//!
//! The planner keeps a min-heap of **license chains** — back-to-back
//! timelines of full-length streams. Planning a group at arrival slot
//! `a` first drops chains that ended by `a`; if the budget is saturated
//! it pops the chain that frees earliest and schedules the group at
//! `s = max(a, chain end)`; otherwise `s = a`. The plan happens *before*
//! the title's policy decides root-or-merge — the same decision boundary
//! at which the retired license gauge declined. A root verdict extends
//! the popped chain with its full stream (or opens a chain in a free
//! slot). A merge verdict opens no full stream, so the popped chain goes
//! back on the heap unchanged: its own full stream is still live until
//! the chain's end, which lies after `a`, and another title's group may
//! arrive before then. Chains never overlap internally, so live full
//! streams never exceed the chain count, which never exceeds the budget.
//!
//! # Batching
//!
//! Arrivals at slots no later than their title's pending service slot
//! join that group as zero-length streams under its head — everyone who
//! shows up while the stream is still pending rides it, the paper's
//! batching rule. Consequently per-title service slots strictly increase
//! group to group, which is exactly what [`DyadicMerger`] requires of
//! its clock.
//!
//! # Two time bases
//!
//! The shared planner, the delay distributions, and the join rule all
//! live on **real slotted time**. Each title's *engine*, however, runs on
//! the clock its policy is defined on. The dyadic merger is natively
//! continuous-time, so dyadic groups are pushed at their real service
//! slots. The Delay Guaranteed template is slot-*dense* — its contract is
//! "arrival `k` is slot `k`", and its merge lengths are only feasible on
//! that grid — so a Delay Guaranteed title pushes each merge group at its
//! group index (joiners ride the group's tick), exactly the §4.1 grid
//! its guarantee is stated on.
//!
//! # Bookkeeping off the hot path
//!
//! The loop's own per-arrival state does not grow with the run. A merge
//! parent always lies in the title's open tree (the engine rejects any
//! other with `IngestError::ParentNotOpen`, and the [`IncrementalPolicy`]
//! contract forbids one), so the group→head table behind
//! [`Attach::Under`] holds the open tree only and is cleared on every
//! root decision. The clock is read twice per pipeline batch, and one
//! engine push in [`LATENCY_SAMPLE_EVERY`] is timed into a fixed-size
//! histogram.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use sm_core::{merge_runs, pipeline};
use sm_online::{DelayGuaranteedOnline, DyadicConfig, DyadicMerger, IncrementalPolicy};
use sm_server::PlannerMemo;
use sm_sim::{Attach, ClientReport, IncrementalEngine, IncrementalSummary, SimConfig};
use sm_workload::{ArrivalProcess, PoissonProcess};

use crate::{DelayHistogram, DelayStats, LatencyHistogram, LatencyStats, ServeError, MAX_HORIZON};

/// The loop times one engine push in this many, push 0 included.
const LATENCY_SAMPLE_EVERY: u64 = 64;

/// Backpressure depth of the generator→ingest channel: the producer
/// runs at most this many batches (plus one in flight) ahead of ingest.
const PIPELINE_DEPTH: usize = 4;

/// Per-batch seed mixer (splitmix64's odd constant): batch `i` of every
/// title draws from an RNG that is a pure function of `(seed, i, title)`.
const BATCH_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Per-title seed mixer (xxhash's odd prime). Title 0's salt is zero, so
/// a one-title catalog's traffic is a function of the seed and the batch
/// index alone.
const TITLE_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Which built-in on-line merge policy a title runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The §4.1 delay-guaranteed template policy (slot-indexed; ignores
    /// service times).
    DelayGuaranteed,
    /// The dyadic merger with the golden ratio α and β = ½ — the paper's
    /// recommended configuration for Poisson traffic.
    Dyadic,
}

impl PolicyKind {
    /// A fresh policy for a title of `media_len` slots. A Delay Guaranteed
    /// title with a client buffer bound gets the bounded template, whose
    /// trees hold at most `bound + 1` arrivals (the on-line mirror of
    /// Theorem 16), so no client outgrows its buffer.
    fn build(self, media_len: u64, buffer_bound: Option<u64>) -> Policy {
        match self {
            Self::DelayGuaranteed => Policy::DelayGuaranteed(match buffer_bound {
                Some(bound) => DelayGuaranteedOnline::with_buffer_bound(media_len, bound),
                None => DelayGuaranteedOnline::new(media_len),
            }),
            Self::Dyadic => Policy::Dyadic(Box::new(DyadicMerger::new(
                DyadicConfig::golden_poisson(),
                media_len as f64,
            ))),
        }
    }
}

/// A title's active policy: one of the two built-ins, dispatched by
/// `match`. The variant also fixes the title's engine clock.
enum Policy {
    /// Runs on the dense template grid: one engine tick per merge group.
    DelayGuaranteed(DelayGuaranteedOnline),
    /// Runs on real service slots. Boxed: its inline power table makes
    /// the merger over ten times the template's size.
    Dyadic(Box<DyadicMerger>),
}

/// One title of a multi-title serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct TitleConfig {
    /// Media length in slots (`L`); must be at least 1.
    pub media_len: u64,
    /// Mean inter-arrival gap of this title's Poisson workload, in slots.
    pub mean_interarrival: f64,
    /// The on-line merge policy deciding this title's forest.
    pub policy: PolicyKind,
    /// Optional per-client buffer bound, forwarded to the engine. A Delay
    /// Guaranteed policy also builds its template to fit it.
    pub buffer_bound: Option<u64>,
}

impl TitleConfig {
    /// A title under the default dyadic policy, no buffer bound.
    pub fn new(media_len: u64, mean_interarrival: f64) -> Self {
        Self {
            media_len,
            mean_interarrival,
            policy: PolicyKind::Dyadic,
            buffer_bound: None,
        }
    }
}

/// A multi-title serving run: a catalog of titles behind one shared
/// channel budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiServeConfig {
    /// The catalog; must be non-empty.
    pub titles: Vec<TitleConfig>,
    /// Traffic horizon in slots: every title generates over `(0, horizon]`.
    pub horizon: f64,
    /// Shared channel budget across all titles: at most this many
    /// full-length streams live at once. Arrivals past the budget are
    /// *delayed*, never declined. `None` plans everything at its arrival
    /// slot (zero delay).
    pub budget: Option<usize>,
    /// Workload RNG seed; identical seeds replay identical traffic.
    pub seed: u64,
    /// Producer batch granularity in slots.
    pub batch_slots: f64,
}

impl MultiServeConfig {
    /// A run over `(0, horizon]` with an unbounded budget and 256-slot
    /// producer batches.
    pub fn new(titles: Vec<TitleConfig>, horizon: f64) -> Self {
        Self {
            titles,
            horizon,
            budget: None,
            seed: 7,
            batch_slots: 256.0,
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        let bad = |field, reason| Err(ServeError::Config { field, reason });
        if self.titles.is_empty() {
            return bad("titles", "the catalog needs at least one title");
        }
        for title in &self.titles {
            if title.media_len == 0 {
                return bad("media_len", "every title needs at least 1 slot of media");
            }
            if !(title.mean_interarrival > 0.0 && title.mean_interarrival.is_finite()) {
                return bad("mean_interarrival", "must be finite and positive");
            }
        }
        if !(self.horizon > 0.0 && self.horizon <= MAX_HORIZON) {
            return bad("horizon", "must be finite, positive, and at most 1e15");
        }
        if self.budget == Some(0) {
            return bad("budget", "a bounded budget needs at least 1 channel");
        }
        if !(self.batch_slots >= 1.0 && self.batch_slots.is_finite()) {
            return bad("batch_slots", "must be finite and at least 1");
        }
        Ok(())
    }
}

/// One title's share of a [`MultiServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TitleReport {
    /// The title's media length in slots.
    pub media_len: u64,
    /// Arrivals this title's generator produced.
    pub generated: usize,
    /// Arrivals served for this title (`= generated`; never declines).
    pub served: usize,
    /// Merge groups opened (policy decisions made) for this title.
    pub groups: usize,
    /// The Delay Guaranteed steady-state bandwidth peak for this title's
    /// media length: the per-length analysis [`PlannerMemo`] caches,
    /// reported so the operator can read planned peak next to observed
    /// delay. It is the Delay Guaranteed peak whatever the title's
    /// policy, so for a dyadic title it is not that title's own peak.
    pub planned_peak: u32,
    /// Planned start-up delay distribution over this title's arrivals.
    pub delay: DelayStats,
    /// The title engine's whole-run aggregates.
    pub summary: IncrementalSummary,
}

/// What a multi-title serving run did.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiServeReport {
    /// Arrivals generated across all titles.
    pub generated: usize,
    /// Arrivals served across all titles (`= generated`).
    pub served: usize,
    /// Always 0 — the zero-rejection invariant of the delay-planning
    /// contract, kept observable.
    pub rejected: usize,
    /// Planned start-up delay distribution across all titles.
    pub delay: DelayStats,
    /// Per-title breakdowns, in catalog order.
    pub titles: Vec<TitleReport>,
    /// Ingest cost across all titles: percentiles over a 1-in-64 sample
    /// of engine pushes (bucketed, at most 6.25% high; the max is the
    /// worst sampled push) and the mean batch wall time per served
    /// arrival. See [`LatencyStats`].
    pub latency: LatencyStats,
    /// Planner-memo lookups served from cache during this run (per-length
    /// analyses shared across titles and with any earlier runs on the
    /// same memo).
    pub memo_hits: u64,
}

/// The shared-budget scheduler: a min-heap of license-chain end slots.
/// See the module docs for the safety argument.
#[derive(Clone)]
struct DelayPlanner {
    chains: BinaryHeap<Reverse<i64>>,
    budget: Option<usize>,
    /// End of the chain the last [`plan`](Self::plan) popped to make
    /// room, held until the verdict: a root extends it, a merge hands it
    /// back.
    popped: Option<i64>,
}

impl DelayPlanner {
    fn new(budget: Option<usize>) -> Self {
        Self {
            chains: BinaryHeap::new(),
            budget,
            popped: None,
        }
    }

    /// Plans the service slot for a group arriving at `slot`: the arrival
    /// slot itself while the budget has room, else the end of the chain
    /// that frees earliest. Every plan is followed by exactly one
    /// [`commit`](Self::commit) or [`merge`](Self::merge), so the heap
    /// never holds more than `budget` chains and one pop makes room.
    fn plan(&mut self, slot: i64) -> i64 {
        let Some(b) = self.budget else {
            return slot;
        };
        while self.chains.peek().is_some_and(|&Reverse(end)| end <= slot) {
            self.chains.pop();
        }
        self.popped = None;
        if self.chains.len() >= b {
            self.popped = self.chains.pop().map(|Reverse(end)| end);
        }
        self.popped.map_or(slot, |end| end.max(slot))
    }

    /// Commits a planned full-length stream ending at `end` (a root
    /// verdict): opens a chain, or extends the one `plan` popped.
    fn commit(&mut self, end: i64) {
        self.popped = None;
        if self.budget.is_some() {
            self.chains.push(Reverse(end));
        }
    }

    /// A merge verdict opens no full stream: the chain `plan` popped (if
    /// any) still runs to its end, which is after the arrival slot since
    /// expired chains were dropped first, so it goes back on the heap.
    fn merge(&mut self) {
        if let Some(end) = self.popped.take() {
            self.chains.push(Reverse(end));
        }
    }
}

/// A title's pending merge group.
#[derive(Clone, Copy)]
struct Group {
    /// Real service slot: the planner's verdict, the join-rule boundary.
    service_slot: i64,
    /// What the title's engine was pushed with: the service slot for a
    /// real-time policy, the dense-grid tick for a template policy.
    engine_time: i64,
    /// Engine-global index of the group's head.
    head: usize,
}

/// Per-title consumer state.
struct TitleState {
    media_len: u64,
    media: i64,
    engine: IncrementalEngine,
    policy: Policy,
    /// Group index of the open tree's root group.
    tree_base: usize,
    /// Engine-global heads of the open tree's groups: entry `i` heads
    /// group `tree_base + i`. Cleared on every root decision.
    tree_heads: Vec<usize>,
    /// Pending group, if any.
    cur: Option<Group>,
    groups: usize,
    generated: usize,
    delays: DelayHistogram,
}

/// Floors a continuous arrival time onto the slot grid. `t` is bounded
/// by the validated horizon, so the saturating `as` cast is exact.
fn slot_of(t: f64) -> i64 {
    t.floor() as i64
}

/// Nanoseconds since `t0`, saturating instead of unwrapping on the
/// (centuries-long) overflow path.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times one engine push in [`LATENCY_SAMPLE_EVERY`] into a fixed-size
/// histogram; the others run without touching the clock.
#[derive(Default)]
struct PushSampler {
    pushes: u64,
    latency: LatencyHistogram,
}

impl PushSampler {
    fn time<T>(&mut self, push: impl FnOnce() -> T) -> T {
        let sampled = self.pushes.is_multiple_of(LATENCY_SAMPLE_EVERY);
        self.pushes += 1;
        if !sampled {
            return push();
        }
        let t0 = Instant::now();
        let out = push();
        self.latency.record(elapsed_ns(t0));
        out
    }
}

/// The serve loop's state between arrivals: each title's engine,
/// policy and pending group, the shared planner and the push sampler.
/// [`serve_multi_with`] feeds it the producer's arrivals one at a time.
struct ServeCore {
    titles: Vec<TitleState>,
    planner: DelayPlanner,
    sampler: PushSampler,
}

impl ServeCore {
    /// A core with one fresh engine and policy per catalog title and an
    /// empty planner over the config's budget.
    fn new(config: &MultiServeConfig) -> Result<Self, ServeError> {
        let mut titles = Vec::with_capacity(config.titles.len());
        for title in &config.titles {
            titles.push(TitleState {
                media_len: title.media_len,
                media: title.media_len as i64,
                engine: IncrementalEngine::new(
                    title.media_len,
                    SimConfig {
                        buffer_bound: title.buffer_bound,
                    },
                )?,
                policy: title.policy.build(title.media_len, title.buffer_bound),
                tree_base: 0,
                tree_heads: Vec::new(),
                cur: None,
                groups: 0,
                generated: 0,
                delays: DelayHistogram::default(),
            });
        }
        Ok(Self {
            titles,
            planner: DelayPlanner::new(config.budget),
            sampler: PushSampler::default(),
        })
    }

    /// Serves one arrival of `title` at time `t`: it joins the title's
    /// pending group, or opens a new group that is planned, decided by the
    /// title's policy and pushed into its engine. `on_report(title,
    /// report)` fires for every client whose last deadline the push passes.
    fn arrive(
        &mut self,
        t: f64,
        title: usize,
        on_report: &mut impl FnMut(usize, ClientReport),
    ) -> Result<(), ServeError> {
        let slot = slot_of(t);
        let state = &mut self.titles[title];
        state.generated += 1;
        // The batching rule: arrivals no later than the pending group's
        // service slot ride it as zero-length streams.
        if let Some(group) = state.cur {
            if slot <= group.service_slot {
                state.delays.record((group.service_slot - slot) as u64);
                self.sampler.time(|| {
                    state
                        .engine
                        .push(group.engine_time, Attach::Under(group.head), &mut |r| {
                            on_report(title, r)
                        })
                })?;
                return Ok(());
            }
        }
        // New group: plan its service slot against the shared budget
        // *before* the policy decides — delay is granted exactly where the
        // retired gauge declined.
        let s = self.planner.plan(slot);
        state.delays.record((s - slot) as u64);
        let (engine_time, decision) = match &mut state.policy {
            Policy::DelayGuaranteed(p) => (state.groups as i64, p.push(s as f64)),
            Policy::Dyadic(p) => (s, p.push(s as f64)),
        };
        let attach = match decision.parent {
            None => {
                self.planner.commit(s + state.media);
                state.tree_base = state.groups;
                state.tree_heads.clear();
                Attach::Root
            }
            Some(p) => {
                self.planner.merge();
                let head = p
                    .checked_sub(state.tree_base)
                    .and_then(|i| state.tree_heads.get(i));
                Attach::Under(*head.ok_or(ServeError::PolicyDesync {
                    node: decision.node,
                    parent: p,
                })?)
            }
        };
        let global = state.engine.arrivals();
        self.sampler.time(|| {
            state
                .engine
                .push(engine_time, attach, &mut |r| on_report(title, r))
        })?;
        state.tree_heads.push(global);
        state.cur = Some(Group {
            service_slot: s,
            engine_time,
            head: global,
        });
        state.groups += 1;
        Ok(())
    }

    /// Ends the run: drains every title's engine through `on_report` and
    /// assembles the report. `batch_ns` is the ingest wall time behind the
    /// mean latency; `memo` supplies each title's planned peak, and the
    /// report counts those lookups' cache hits.
    fn finish(
        self,
        memo: &PlannerMemo,
        batch_ns: u64,
        on_report: &mut impl FnMut(usize, ClientReport),
    ) -> Result<MultiServeReport, ServeError> {
        let hits_before = memo.hits();
        let mut titles = Vec::with_capacity(self.titles.len());
        let mut delay_all = DelayHistogram::default();
        let mut served = 0usize;
        for (title, state) in self.titles.into_iter().enumerate() {
            let summary = state.engine.finish(&mut |r| on_report(title, r))?;
            debug_assert_eq!(summary.summary.clients, state.generated);
            served += state.generated;
            delay_all.absorb(&state.delays);
            titles.push(TitleReport {
                media_len: state.media_len,
                generated: state.generated,
                served: state.generated,
                groups: state.groups,
                planned_peak: memo.peak(state.media_len),
                delay: state.delays.stats(),
                summary,
            });
        }
        Ok(MultiServeReport {
            generated: served,
            served,
            rejected: 0,
            delay: delay_all.stats(),
            titles,
            latency: self.sampler.latency.stats(batch_ns, served),
            memo_hits: memo.hits().saturating_sub(hits_before),
        })
    }
}

/// Runs a multi-title serving session with a private planner memo,
/// discarding per-client reports. See [`serve_multi_with`] for the full
/// form.
///
/// ```
/// use sm_serve::{serve_multi, MultiServeConfig, TitleConfig};
///
/// let config = MultiServeConfig {
///     budget: Some(8),
///     ..MultiServeConfig::new(
///         vec![TitleConfig::new(48, 1.5), TitleConfig::new(96, 3.0)],
///         500.0,
///     )
/// };
/// let report = serve_multi(&config).unwrap();
/// assert_eq!(report.rejected, 0);
/// assert_eq!(report.served, report.generated);
/// ```
pub fn serve_multi(config: &MultiServeConfig) -> Result<MultiServeReport, ServeError> {
    serve_multi_with(config, &PlannerMemo::new(), |_, _| {})
}

/// Runs a multi-title serving session end to end: per-title Poisson runs
/// are drawn on a producer thread, fanned in time-ordered through the
/// bounded pipeline channel, and ingested arrival-at-a-time through the
/// shared delay planner, each title's policy, and each title's engine.
/// `on_report(title, report)` fires for every served client the moment
/// its last part-deadline passes. `memo` supplies (and caches) the
/// per-length planner analyses reported as [`TitleReport::planned_peak`];
/// share one memo across runs to reuse them.
pub fn serve_multi_with<F>(
    config: &MultiServeConfig,
    memo: &PlannerMemo,
    mut on_report: F,
) -> Result<MultiServeReport, ServeError>
where
    F: FnMut(usize, ClientReport),
{
    config.validate()?;
    memo.seed(config.titles.iter().map(|t| t.media_len));
    let mut core = ServeCore::new(config)?;
    let mut batch_ns = 0u64;
    let n_batches = (config.horizon / config.batch_slots).ceil() as usize;
    let (horizon, batch, seed) = (config.horizon, config.batch_slots, config.seed);
    let means: Vec<f64> = config.titles.iter().map(|t| t.mean_interarrival).collect();

    // Workload generation runs on the pipeline's producer thread, at most
    // `PIPELINE_DEPTH` batches ahead of ingest. Each (title, batch) run is
    // an independent Poisson segment over its sub-horizon; memoryless
    // increments make the concatenation exactly one Poisson process per
    // title, and per-(title, batch) seeding keeps every run a pure
    // function of (seed, batch index, title index).
    pipeline(
        n_batches,
        PIPELINE_DEPTH,
        move |i| -> Result<Vec<(f64, u32)>, ServeError> {
            let offset = i as f64 * batch;
            let span = (horizon - offset).min(batch);
            let runs: Vec<Vec<(f64, u32)>> = means
                .iter()
                .enumerate()
                .map(|(k, &mean)| {
                    let mixed = seed
                        ^ (i as u64).wrapping_mul(BATCH_SALT)
                        ^ (k as u64).wrapping_mul(TITLE_SALT);
                    let mut proc = PoissonProcess::new(mean, mixed);
                    proc.generate(span)
                        .iter()
                        // sm-lint: allow(narrowing-cast) — k indexes the in-memory title catalog, nowhere near 2^32
                        .map(|t| (offset + t, k as u32))
                        .collect()
                })
                .collect();
            Ok(merge_runs(runs, |a, b| a.0 < b.0))
        },
        // Out of line: inlined, this loop's speed moved with unrelated code.
        #[inline(never)]
        |_, arrivals| {
            let batch_start = Instant::now();
            for (t, k) in arrivals {
                core.arrive(t, k as usize, &mut on_report)?;
            }
            batch_ns = batch_ns.saturating_add(elapsed_ns(batch_start));
            Ok(())
        },
    )?;
    core.finish(memo, batch_ns, &mut on_report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_sim::{IngestError, SimError};

    fn titles3() -> Vec<TitleConfig> {
        vec![
            TitleConfig::new(64, 1.5),
            TitleConfig {
                policy: PolicyKind::DelayGuaranteed,
                ..TitleConfig::new(40, 2.0)
            },
            TitleConfig::new(100, 4.0),
        ]
    }

    #[test]
    fn unbounded_multi_run_serves_everything_with_zero_delay() {
        let report = serve_multi(&MultiServeConfig::new(titles3(), 800.0)).unwrap();
        assert_eq!(report.rejected, 0);
        assert_eq!(report.served, report.generated);
        assert_eq!(report.delay, DelayStats::default());
        assert_eq!(report.titles.len(), 3);
        let sum: usize = report.titles.iter().map(|t| t.generated).sum();
        assert_eq!(sum, report.generated);
        for title in &report.titles {
            assert_eq!(title.served, title.generated);
            assert_eq!(title.summary.summary.clients, title.generated);
            assert!(title.groups > 0 && title.groups <= title.generated);
            assert!(title.planned_peak > 0, "memo analysis must be reported");
        }
        assert_eq!(report.memo_hits, 3, "one cached peak lookup per title");
    }

    #[test]
    fn shared_budget_delays_but_never_declines() {
        let config = MultiServeConfig {
            budget: Some(2),
            ..MultiServeConfig::new(titles3(), 800.0)
        };
        let report = serve_multi(&config).unwrap();
        assert_eq!(report.rejected, 0, "delay replaces rejection");
        assert_eq!(report.served, report.generated);
        assert!(
            report.delay.max_slots > 0,
            "three titles over two channels must queue"
        );
        let per_title_max = report.titles.iter().map(|t| t.delay.max_slots).max();
        assert_eq!(per_title_max, Some(report.delay.max_slots));
    }

    #[test]
    fn multi_replays_are_deterministic() {
        let config = MultiServeConfig {
            budget: Some(3),
            ..MultiServeConfig::new(titles3(), 600.0)
        };
        let a = serve_multi(&config).unwrap();
        let b = serve_multi(&config).unwrap();
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delay, b.delay);
        for (ta, tb) in a.titles.iter().zip(&b.titles) {
            assert_eq!(ta.summary, tb.summary);
            assert_eq!(ta.delay, tb.delay);
        }
    }

    /// A one-title catalog under the default dyadic policy.
    fn one_title(media_len: u64, horizon: f64, mean: f64) -> MultiServeConfig {
        MultiServeConfig::new(vec![TitleConfig::new(media_len, mean)], horizon)
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let report = serve_multi(&one_title(64, 500.0, 2.0)).unwrap();
        let l = report.latency;
        assert!(l.p50_ns <= l.p90_ns && l.p90_ns <= l.p99_ns && l.p99_ns <= l.max_ns);
        assert!(l.max_ns > 0, "pushes take measurable time");
        assert!(l.mean_ns > 0, "batches take measurable time");
    }

    #[test]
    fn seeds_change_the_workload() {
        let base = one_title(32, 400.0, 1.5);
        let other = MultiServeConfig {
            seed: base.seed + 1,
            ..base.clone()
        };
        let a = serve_multi(&base).unwrap();
        let b = serve_multi(&other).unwrap();
        assert_ne!(
            (a.generated, a.titles[0].summary.summary.total_units),
            (b.generated, b.titles[0].summary.summary.total_units),
            "different seeds should draw different traffic"
        );
    }

    #[test]
    fn single_channel_delays_overflow_instead_of_declining() {
        // One channel over dense traffic: the old loop declined most
        // arrivals here; the delay planner serves all of them, pushing
        // start-up back by up to about one media length, and keeps at
        // most the draining tree plus the live one retained.
        let config = MultiServeConfig {
            budget: Some(1),
            ..one_title(40, 600.0, 1.0)
        };
        let report = serve_multi(&config).unwrap();
        assert_eq!(report.rejected, 0, "delay replaces rejection");
        assert_eq!(report.served, report.generated);
        let title = &report.titles[0];
        assert_eq!(title.summary.summary.clients, report.generated);
        assert!(
            report.delay.max_slots > 0,
            "dense traffic over one channel must queue"
        );
        assert!(
            report.delay.max_slots <= 2 * 40,
            "one-channel queueing is bounded by chain spacing, got {}",
            report.delay.max_slots
        );
        assert!(report.delay.mean_slots > 0.0);
        assert!(
            title.summary.max_open_trees <= 2,
            "one channel keeps at most a draining tree plus the live one, got {}",
            title.summary.max_open_trees
        );
    }

    #[test]
    fn reports_stream_out_in_service_order() {
        let mut clients = Vec::new();
        let report = serve_multi_with(&one_title(24, 250.0, 1.0), &PlannerMemo::new(), |_, r| {
            clients.push(r.client);
        })
        .unwrap();
        assert_eq!(clients.len(), report.served);
        let in_order: Vec<usize> = (0..report.served).collect();
        assert_eq!(
            clients, in_order,
            "service slots are sorted, so emission order is service order"
        );
    }

    #[test]
    fn config_validation_names_the_offending_field() {
        let base = || one_title(8, 100.0, 1.0);
        let cases: [(MultiServeConfig, &str); 6] = [
            (one_title(0, 100.0, 1.0), "media_len"),
            (one_title(8, 0.0, 1.0), "horizon"),
            (one_title(8, f64::INFINITY, 1.0), "horizon"),
            (one_title(8, 100.0, 0.0), "mean_interarrival"),
            (
                MultiServeConfig {
                    budget: Some(0),
                    ..base()
                },
                "budget",
            ),
            (
                MultiServeConfig {
                    batch_slots: 0.5,
                    ..base()
                },
                "batch_slots",
            ),
        ];
        for (config, want) in cases {
            match serve_multi(&config) {
                Err(ServeError::Config { field, .. }) => assert_eq!(field, want),
                other => panic!("expected Config error for {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn buffer_bound_is_forwarded_to_the_engine() {
        // A zero client buffer makes any actual merge infeasible; dense
        // traffic guarantees merges, so the run must fail with the
        // engine's own typed error.
        let config = MultiServeConfig::new(
            vec![TitleConfig {
                buffer_bound: Some(0),
                ..TitleConfig::new(32, 1.0)
            }],
            300.0,
        );
        match serve_multi(&config) {
            Err(ServeError::Ingest(IngestError::Sim(SimError::BufferOverflow { .. })))
            | Err(ServeError::Sim(SimError::BufferOverflow { .. })) => {}
            other => panic!("expected BufferOverflow, got {other:?}"),
        }
    }

    #[test]
    fn delay_guaranteed_titles_fit_their_buffer_bound() {
        // Below ⌊L/2⌋ = 20 the unbounded template needs more buffer than
        // the bound allows; the bounded template serves every arrival
        // within it.
        for bound in [0u64, 3, 10, 19] {
            let config = MultiServeConfig::new(
                vec![TitleConfig {
                    policy: PolicyKind::DelayGuaranteed,
                    buffer_bound: Some(bound),
                    ..TitleConfig::new(40, 0.5)
                }],
                4000.0,
            );
            let mut worst = 0i64;
            let mut reports = 0usize;
            let report = serve_multi_with(&config, &PlannerMemo::new(), |_, r| {
                worst = worst.max(r.max_buffer);
                reports += 1;
            })
            .unwrap_or_else(|e| panic!("bound {bound}: {e}"));
            assert_eq!(report.served, report.generated, "bound {bound}");
            assert_eq!(reports, report.served, "bound {bound}");
            assert!(
                worst <= bound as i64,
                "bound {bound}: a client buffered {worst}"
            );
        }
    }

    #[test]
    fn per_title_reports_stream_with_their_title_index() {
        let mut seen = [0usize; 3];
        let report = serve_multi_with(
            &MultiServeConfig::new(titles3(), 400.0),
            &PlannerMemo::new(),
            |title, _| seen[title] += 1,
        )
        .unwrap();
        for (title, &count) in seen.iter().enumerate() {
            assert_eq!(count, report.titles[title].served);
        }
    }

    #[test]
    fn shared_memo_reuses_per_length_analyses_across_runs() {
        let memo = PlannerMemo::new();
        let config = MultiServeConfig::new(titles3(), 300.0);
        let first = serve_multi_with(&config, &memo, |_, _| {}).unwrap();
        let misses_after_first = memo.misses();
        let second = serve_multi_with(&config, &memo, |_, _| {}).unwrap();
        assert_eq!(first.memo_hits, 3, "one cached peak lookup per title");
        assert_eq!(second.memo_hits, 3);
        assert_eq!(
            memo.misses(),
            misses_after_first,
            "the second run must re-analyze nothing: every length is cached"
        );
        assert_eq!(memo.distinct_lengths(), 3);
    }

    #[test]
    fn empty_catalog_is_rejected() {
        match serve_multi(&MultiServeConfig::new(vec![], 100.0)) {
            Err(ServeError::Config { field, .. }) => assert_eq!(field, "titles"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn planner_extends_the_earliest_freeing_chain() {
        let mut p = DelayPlanner::new(Some(2));
        assert_eq!(p.plan(0), 0);
        p.commit(10);
        assert_eq!(p.plan(1), 1);
        p.commit(14);
        // Budget saturated: the next group waits for the chain ending 10.
        assert_eq!(p.plan(2), 10);
        p.commit(20);
        // Slot 15: the chain ending 14 expired on its own; room is free.
        assert_eq!(p.plan(15), 15);
        p.commit(25);
        // Unbounded planner never waits and tracks nothing.
        let mut free = DelayPlanner::new(None);
        free.commit(9);
        assert_eq!(free.plan(3), 3);
        assert!(free.chains.is_empty());
    }

    #[test]
    fn merge_verdict_hands_the_popped_chain_back() {
        let mut p = DelayPlanner::new(Some(1));
        assert_eq!(p.plan(0), 0);
        p.commit(10);
        // Saturated: the group waits for the chain ending 10, then merges.
        assert_eq!(p.plan(2), 10);
        p.merge();
        // That chain's full stream still runs until 10, so a group at 5
        // (another title's, say) must wait for it too.
        assert_eq!(p.plan(5), 10);
    }

    /// Media lengths of the two titles the exhaustive walk interleaves.
    const WALK_MEDIA: [i64; 2] = [2, 3];
    /// Last arrival slot a walked group may take.
    const WALK_LAST_SLOT: i64 = 5;
    /// Group decisions per walked sequence, at most.
    const WALK_GROUPS: usize = 7;

    /// The planner and the per-title state after a prefix of decisions.
    #[derive(Clone)]
    struct Walk {
        planner: DelayPlanner,
        /// Arrival slot of the latest group: arrivals are nondecreasing.
        last_arrival: i64,
        /// Each title's pending service slot; `Some` once the title has
        /// an open tree (its first group is always a root).
        pending: [Option<i64>; 2],
        /// Every committed root window `[s, s + L)`, in commit order.
        windows: Vec<(i64, i64)>,
    }

    /// Depth-first over every next group decision from `walk`: either
    /// title, every arrival slot the order and the join rule allow, and
    /// each verdict (merge only into an open tree). Returns the number
    /// of decisions explored.
    fn walk_decisions(walk: &Walk, budget: usize, groups_left: usize) -> usize {
        if groups_left == 0 {
            return 0;
        }
        let mut explored = 0;
        for (title, &media) in WALK_MEDIA.iter().enumerate() {
            // The join rule: an arrival at or before the pending service
            // slot would ride that group, so a new group arrives after it.
            let first =
                walk.pending[title].map_or(walk.last_arrival, |p| walk.last_arrival.max(p + 1));
            for arrival in first..=WALK_LAST_SLOT {
                let mut planned = walk.clone();
                let s = planned.planner.plan(arrival);
                assert!(s >= arrival, "planned slot {s} before arrival {arrival}");
                planned.last_arrival = arrival;
                planned.pending[title] = Some(s);
                for root in [true, false] {
                    if !root && walk.pending[title].is_none() {
                        continue;
                    }
                    let mut next = planned.clone();
                    if root {
                        next.planner.commit(s + media);
                        next.windows.push((s, s + media));
                        for t in s..s + media {
                            let live = next
                                .windows
                                .iter()
                                .filter(|&&(a, b)| a <= t && t < b)
                                .count();
                            assert!(
                                live <= budget,
                                "{live} full streams live at {t} over budget {budget}: {:?}",
                                next.windows
                            );
                        }
                    } else {
                        next.planner.merge();
                    }
                    explored += 1 + walk_decisions(&next, budget, groups_left - 1);
                }
            }
        }
        explored
    }

    #[test]
    fn every_short_two_title_interleaving_keeps_the_budget() {
        // Exhaustive over short runs: no interleaving of the two titles'
        // group arrivals and verdicts puts more than `budget` root
        // windows on any slot, and no plan precedes its arrival.
        let explored: usize = (1..=3)
            .map(|budget| {
                let start = Walk {
                    planner: DelayPlanner::new(Some(budget)),
                    last_arrival: 0,
                    pending: [None; 2],
                    windows: Vec::new(),
                };
                walk_decisions(&start, budget, WALK_GROUPS)
            })
            .sum();
        assert_eq!(explored, 227_272, "the walk's extent is pinned");
    }

    /// Media lengths of the two titles the core check drives: title 0
    /// runs the Delay Guaranteed template, title 1 the dyadic merger.
    const CORE_MEDIA: [u64; 2] = [3, 4];

    /// Every order of arrivals within one slot: each sequence of title
    /// indices with at most two arrivals per title (1 + 2 + 4 + 6 + 6).
    fn slot_orders() -> Vec<Vec<usize>> {
        (0..=4usize)
            .flat_map(|len| {
                (0..1usize << len).map(move |bits| (0..len).map(|i| bits >> i & 1).collect())
            })
            .filter(|order: &Vec<usize>| {
                let ones: usize = order.iter().sum();
                ones <= 2 && order.len() - ones <= 2
            })
            .collect()
    }

    /// Feeds `arrivals` (slot, title) through a fresh core under `budget`
    /// and checks the loop's invariants after every arrival and after
    /// `finish`.
    fn check_core_run(budget: Option<usize>, arrivals: &[(i64, usize)], memo: &PlannerMemo) {
        let titles = vec![
            TitleConfig {
                policy: PolicyKind::DelayGuaranteed,
                ..TitleConfig::new(CORE_MEDIA[0], 1.0)
            },
            TitleConfig::new(CORE_MEDIA[1], 1.0),
        ];
        let config = MultiServeConfig {
            budget,
            ..MultiServeConfig::new(titles, 3.0)
        };
        let mut core = ServeCore::new(&config).unwrap();
        let ctx = format!("{arrivals:?} under budget {budget:?}");
        let mut reports = [0usize; 2];
        // Every root window `[s, s + L)` opened so far, across both titles.
        let mut windows: Vec<(i64, i64)> = Vec::new();
        for &(slot, title) in arrivals {
            let pending = core.titles[title].cur.map(|g| g.service_slot);
            let groups = core.titles[title].groups;
            if let Err(e) = core.arrive(slot as f64 + 0.5, title, &mut |k, _| reports[k] += 1) {
                panic!("{ctx}: {e}");
            }
            let state = &core.titles[title];
            let group = state.cur.unwrap();
            assert!(
                group.service_slot >= slot,
                "{ctx}: planned before its arrival"
            );
            match pending {
                Some(p) if slot <= p => {
                    assert_eq!(state.groups, groups, "{ctx}: a joiner opened a group");
                    assert_eq!(group.service_slot, p, "{ctx}: a joiner moved its group");
                }
                _ => {
                    assert_eq!(state.groups, groups + 1, "{ctx}: no new group");
                    assert!(
                        pending.is_none_or(|p| group.service_slot > p),
                        "{ctx}: service slots must strictly increase"
                    );
                    if state.tree_base + 1 == state.groups {
                        let media = CORE_MEDIA[title] as i64;
                        windows.push((group.service_slot, group.service_slot + media));
                    }
                }
            }
            assert_eq!(state.tree_heads.len(), state.groups - state.tree_base);
            if let Some(b) = budget {
                // The live count only rises at a window start.
                for &(at, _) in &windows {
                    let live = windows.iter().filter(|&&(s, e)| s <= at && at < e).count();
                    assert!(live <= b, "{ctx}: {live} full streams live at {at}");
                }
            }
        }
        if let Err(e) = core.finish(memo, 0, &mut |k, _| reports[k] += 1) {
            panic!("{ctx}: {e}");
        }
        for (title, &count) in reports.iter().enumerate() {
            let arrived = arrivals.iter().filter(|&&(_, k)| k == title).count();
            assert_eq!(count, arrived, "{ctx}: title {title}'s reports");
        }
    }

    #[test]
    fn every_short_two_title_arrival_sequence_keeps_the_loop_invariants() {
        // Exhaustive through the real core: every arrival sequence of the
        // two titles over slots 0, 1 and 2 (each arrival at `slot + 0.5`),
        // up to two arrivals per title per slot in every order, under
        // budgets none, 1, 2 and 3.
        let orders = slot_orders();
        assert_eq!(orders.len(), 19);
        let memo = PlannerMemo::new();
        let mut runs = 0usize;
        for budget in [None, Some(1), Some(2), Some(3)] {
            for first in &orders {
                for second in &orders {
                    for third in &orders {
                        let arrivals: Vec<(i64, usize)> = [first, second, third]
                            .into_iter()
                            .zip(0..)
                            .flat_map(|(order, slot)| order.iter().map(move |&k| (slot, k)))
                            .collect();
                        check_core_run(budget, &arrivals, &memo);
                        runs += 1;
                    }
                }
            }
        }
        assert_eq!(runs, 27_436, "the check's extent is pinned");
    }

    #[test]
    fn sampler_times_push_zero_then_every_64th() {
        let mut sampler = PushSampler::default();
        assert_eq!(sampler.time(|| 7), 7, "the push's result passes through");
        assert_eq!(
            sampler.latency.total, 1,
            "a one-arrival run holds one sample"
        );
        for _ in 1..LATENCY_SAMPLE_EVERY {
            sampler.time(|| ());
        }
        assert_eq!(sampler.latency.total, 1);
        sampler.time(|| ());
        assert_eq!(sampler.latency.total, 2, "push 64 is the second sample");
    }

    #[test]
    fn a_run_without_arrivals_reports_zero_latency() {
        // A 10-slot horizon at one arrival per 10^9 slots draws nothing.
        let report = serve_multi(&MultiServeConfig::new(
            vec![TitleConfig::new(16, 1e9)],
            10.0,
        ))
        .unwrap();
        assert_eq!(report.generated, 0);
        assert_eq!(report.latency, LatencyStats::default());
    }
}
