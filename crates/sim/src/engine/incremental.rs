//! The push-based serving engine: arrivals are *ingested* one at a time.
//!
//! A serving loop has no `(forest, times)` pair up front: clients show up
//! one by one, the merge policy commits each one at traffic time, and
//! reports must flow out while the horizon is still growing.
//! [`IncrementalEngine`] is the event engine built around that ingest
//! direction, and it is also the one driver for sorted batch input: the
//! [`events`](super::events) entry points replay nondecreasing arrival
//! times through it via [`simulate_incremental`].
//!
//! * **one open tree** — arrivals attach to the most recently opened tree
//!   (the model's invariant: merging across closed trees is impossible
//!   because their streams have already begun). The open tree is a `u32`
//!   parent column plus its arrival times and its *tentative* Lemma-1
//!   stream specs, all recycled through a storage pool so steady-state
//!   pushes are allocation-free. Attaching `y` under `p` makes `y` the
//!   last descendant of its entire root path, so only nodes on that path
//!   can change, each to `ℓ(x) = (t_y − t_x) + (t_y − t_{p(x)})`: a growth
//!   of `2(t_y − t_{z_old(x)})`. The walk up stops at the first ancestor
//!   whose length does not change — its old last descendant arrived at
//!   `t_y`, and every ancestor above it has an old last descendant that
//!   arrived between that one and `y`, so (times never decrease) at `t_y`
//!   too. A joiner attached at its head's time therefore costs `O(1)`; no
//!   attach costs more than `O(depth)`, and nothing is re-derived from the
//!   prefix;
//! * **deadlines fire during ingest** — a client's report depends only on
//!   its root-path arrival times and on spec fields that later arrivals
//!   can only *grow* past its demands (`t_z ≥ t_c` for every later
//!   descendant), so each report is final the moment the client's last
//!   part-deadline `t_c + L` falls strictly before the ingest clock.
//!   Reports stream out through `emit` in deadline order (ties by arrival
//!   index), and the first violating deadline is the error;
//! * **co-arrivals reuse their parent's report** — under Lemma 1 a client
//!   that arrives in its parent's slot gets an empty stream of its own
//!   (parts `1..=2t_c − t_c − t_p`, none) and then exactly its parent's
//!   segments, read against the same specs. The two share a deadline, so
//!   they fire in one `fire_deadlines` call, and no attach runs inside a
//!   call: every check returns the parent's verdict. The call keeps the
//!   last report it evaluated in full, and a client whose parent is that
//!   client, at the same time, takes it with its own index instead of
//!   being evaluated again — every joiner the serving loop batches under
//!   its group head is such a client;
//! * **bandwidth change-points finalize at tree closure** — a stream's end
//!   moves later while descendants can still attach (a tied co-arrival
//!   even gains its start retroactively), so a tree's streams enter the
//!   bandwidth sweep only when a new root closes it. All future events
//!   then lie at or past the closing root's arrival, so every instant
//!   strictly below it is final: the closing tree's starts (already in
//!   time order) merge as a sorted run with a min-heap that holds only the
//!   active streams' ends, and each instant is netted into one sparse
//!   `ProfileBuilder` record. Starts tied with the closing root are only
//!   counted, and join that root's instant when it closes in turn. Heap
//!   and retention are `O(open trees + active streams)`, never
//!   `O(arrivals)`;
//! * **time travel is rejected, interleaving is not** — `push` accepts any
//!   nondecreasing time sequence (ties included) and fails fast with
//!   [`IngestError::OutOfOrder`] otherwise, leaving the engine untouched.
//!
//! The `engine_equivalence` proptest suite pins this engine bit-identical
//! (reports, emission order, summary, first error) to the dense oracle on
//! every sorted input.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::iter::Peekable;

use super::events::{eval_client, label, EngineScratch, StreamingSummary};
use super::{ClientReport, SimConfig};
use crate::error::SimError;
use crate::metrics::ProfileBuilder;
use crate::schedule::{checked_media_len, StreamSpec};
use sm_core::{MergeForest, ModelError};

/// Where one ingested arrival goes, structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// Open a new tree with this arrival as its root (a full stream);
    /// closes the previously open tree.
    Root,
    /// Merge under the arrival with this *global* index, which must lie in
    /// the currently open tree.
    Under(usize),
}

/// An ingest call was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// A simulation-model violation (same errors, same precedence, as the
    /// batch engines).
    Sim(SimError),
    /// The arrival time moved backwards; the serving clock only advances.
    OutOfOrder {
        /// The offending push time.
        time: i64,
        /// The latest time already ingested.
        last: i64,
    },
    /// An [`Attach::Under`] named a parent outside the currently open tree
    /// (or no tree was open at all).
    ParentNotOpen {
        /// Global index the rejected arrival would have received.
        node: usize,
        /// The out-of-range parent it named.
        parent: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sim(e) => write!(f, "{e}"),
            Self::OutOfOrder { time, last } => {
                write!(f, "arrival at {time} pushed after the clock reached {last}")
            }
            Self::ParentNotOpen { node, parent } => write!(
                f,
                "arrival {node} merges under {parent}, which is not in the open tree"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<SimError> for IngestError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

/// Whole-run aggregates of an ingest run: the batch
/// [`StreamingSummary`] plus the ingest loop's own memory gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalSummary {
    /// What [`super::events::simulate_streaming_slice`] returns for the
    /// same arrivals.
    pub summary: StreamingSummary,
    /// High-water mark of simultaneously retained trees (the open tree
    /// plus closed trees with clients still inside their playback
    /// windows) — the `O(open trees)` claim, measured.
    pub max_open_trees: usize,
}

/// Recyclable per-tree storage: the parent column plus the times and spec
/// buffers. Fully-served trees return their storage here so later opens
/// reuse the capacity instead of allocating.
#[derive(Debug, Default)]
struct TreeStorage {
    parents: Vec<u32>,
    times: Vec<i64>,
    specs: Vec<StreamSpec>,
}

/// The tree currently accepting arrivals.
#[derive(Debug)]
struct OpenTree {
    /// Global index of the root.
    base: usize,
    /// Local parent of each arrival; entry 0, the root's, is unused.
    parents: Vec<u32>,
    times: Vec<i64>,
    /// Tentative Lemma-1 specs: exact for the tree as grown so far; only
    /// root-path entries of future arrivals can still grow.
    specs: Vec<StreamSpec>,
}

impl OpenTree {
    fn new(base: usize, time: i64, media: i64, storage: TreeStorage) -> Self {
        let TreeStorage {
            mut parents,
            mut times,
            mut specs,
        } = storage;
        parents.clear();
        parents.push(0);
        times.clear();
        times.push(time);
        specs.clear();
        specs.push(StreamSpec {
            node: base,
            start: time,
            length: media,
        });
        Self {
            base,
            parents,
            times,
            specs,
        }
    }

    /// The `u32` label of local node `parent` for the next arrival, which
    /// must itself fit a label; `None` when `parent` is not in this tree.
    fn parent_label(&self, parent: usize) -> Option<Result<u32, ModelError>> {
        let local = parent
            .checked_sub(self.base)
            .filter(|&l| l < self.times.len())?;
        Some(label(self.times.len()).and_then(|_| label(local)))
    }

    /// Attaches an arrival at `time` under local node `parent` (a label
    /// from [`Self::parent_label`]), updating tentative lengths up the root
    /// path only as far as they change (see the module docs).
    fn attach(&mut self, time: i64, parent: u32) {
        let p = parent as usize;
        let node = self.times.len();
        self.parents.push(parent);
        self.times.push(time);
        // The new node is its own last descendant: ℓ = t_y − t_p.
        self.specs.push(StreamSpec {
            node: self.base + node,
            start: time,
            length: time - self.times[p],
        });
        // …and the new last descendant of every proper ancestor: each
        // non-root ancestor a becomes ℓ(a) = (t_y − t_a) + (t_y − t_{p(a)}),
        // until one keeps its length. The root keeps the full media length.
        let mut cur = p;
        while cur != 0 {
            let up = self.parents[cur] as usize;
            let length = (time - self.times[cur]) + (time - self.times[up]);
            let spec = &mut self.specs[cur];
            if spec.length == length {
                break;
            }
            spec.length = length;
            cur = up;
        }
    }
}

/// A closed tree retained only while clients inside it still await their
/// last part-deadline.
#[derive(Debug)]
struct ClosedTree {
    base: usize,
    parents: Vec<u32>,
    times: Vec<i64>,
    specs: Vec<StreamSpec>,
    remaining: usize,
}

/// Arrival-at-a-time serving engine; see the module docs for the design.
///
/// Drive it with [`push`](Self::push) per arrival and
/// [`finish`](Self::finish) once the horizon ends;
/// [`simulate_incremental`] is the batch adapter over a ready-made
/// `(forest, times)` pair.
#[derive(Debug)]
pub struct IncrementalEngine {
    media_len: u64,
    media: i64,
    config: SimConfig,
    /// Latest ingested arrival time; pushes may not move before it.
    last_time: Option<i64>,
    /// Arrivals ingested so far (also the next global index).
    n: usize,
    /// Deadline cursor: next client to evaluate and emit.
    ci: usize,
    open: Option<OpenTree>,
    closed: VecDeque<ClosedTree>,
    /// Reclaimed storage of fully-served trees; opening a new tree pops
    /// from here, so steady-state ingest allocates nothing.
    pool: Vec<TreeStorage>,
    /// End slots of the started streams of *closed* trees; every instant
    /// below the latest closing root's arrival time is already drained.
    ends: BinaryHeap<Reverse<i64>>,
    /// Streams of closed trees that start at `tied_at` — the latest
    /// closing root's arrival — and so wait for that root's own closure
    /// to share its instant. Their ends are already in `ends`.
    tied: u32,
    /// Start slot of the `tied` streams (read only while `tied > 0`).
    tied_at: i64,
    active: u32,
    profile: ProfileBuilder,
    total_units: i64,
    max_open_trees: usize,
    scratch: EngineScratch,
}

impl IncrementalEngine {
    /// A fresh engine for a media of `media_len` parts.
    /// `config.buffer_bound` is honored; `config.engine` is ignored (this
    /// *is* the incremental engine).
    pub fn new(media_len: u64, config: SimConfig) -> Result<Self, SimError> {
        let media = checked_media_len(media_len)?;
        Ok(Self {
            media_len,
            media,
            config,
            last_time: None,
            n: 0,
            ci: 0,
            open: None,
            closed: VecDeque::new(),
            pool: Vec::new(),
            ends: BinaryHeap::new(),
            tied: 0,
            tied_at: 0,
            active: 0,
            profile: ProfileBuilder::new(),
            total_units: 0,
            max_open_trees: 0,
            scratch: EngineScratch::default(),
        })
    }

    /// Arrivals ingested so far.
    pub fn arrivals(&self) -> usize {
        self.n
    }

    /// Trees currently retained: the open one plus closed trees whose
    /// clients are still inside their playback windows.
    pub fn open_trees(&self) -> usize {
        self.closed.len() + usize::from(self.open.is_some())
    }

    /// High-water mark of [`open_trees`](Self::open_trees) so far.
    pub fn max_open_trees(&self) -> usize {
        self.max_open_trees
    }

    /// Ingests one arrival at `time`, first streaming out every report
    /// whose last part-deadline falls strictly before `time`.
    ///
    /// Times must be nondecreasing (ties welcome — simultaneous arrivals
    /// are the model's bread and butter); a backwards push is rejected
    /// with [`IngestError::OutOfOrder`] and changes nothing. A rejected
    /// attach ([`IngestError::ParentNotOpen`], or a tree outgrowing its
    /// `u32` labels) likewise leaves the engine as it was — no report is
    /// emitted and no tree retired — so a serving loop can drop the
    /// request and carry on.
    pub fn push<F: FnMut(ClientReport)>(
        &mut self,
        time: i64,
        attach: Attach,
        mut emit: F,
    ) -> Result<(), IngestError> {
        if let Some(last) = self.last_time {
            if time < last {
                return Err(IngestError::OutOfOrder { time, last });
            }
        }
        let parent = match attach {
            Attach::Root => None,
            Attach::Under(parent) => {
                let not_open = IngestError::ParentNotOpen {
                    node: self.n,
                    parent,
                };
                let label = self
                    .open
                    .as_ref()
                    .and_then(|open| open.parent_label(parent))
                    .ok_or(not_open)?;
                Some(label.map_err(|e| IngestError::Sim(SimError::Model(e)))?)
            }
        };
        self.fire_deadlines(Some(time), &mut emit)?;
        match parent {
            None => {
                self.close_open(Some(time));
                let storage = self.pool.pop().unwrap_or_default();
                self.open = Some(OpenTree::new(self.n, time, self.media, storage));
            }
            // Validated above; firing deadlines leaves the open tree alone.
            Some(parent) => {
                if let Some(open) = self.open.as_mut() {
                    open.attach(time, parent);
                }
            }
        }
        self.n += 1;
        self.last_time = Some(time);
        self.max_open_trees = self.max_open_trees.max(self.open_trees());
        Ok(())
    }

    /// Ends the horizon: fires every pending deadline, closes the open
    /// tree, drains the bandwidth events, and returns the aggregates.
    pub fn finish<F: FnMut(ClientReport)>(
        mut self,
        mut emit: F,
    ) -> Result<IncrementalSummary, SimError> {
        self.fire_deadlines(None, &mut emit)?;
        self.close_open(None);
        Ok(IncrementalSummary {
            summary: StreamingSummary {
                bandwidth: self.profile.finish(),
                total_units: self.total_units,
                clients: self.n,
            },
            max_open_trees: self.max_open_trees,
        })
    }

    /// Evaluates and emits clients in arrival-index order (which is
    /// deadline order, since times are nondecreasing) while their deadline
    /// `t_c + L` lies strictly before `before` — or all of them when
    /// `before` is `None`. Served-out closed trees are dropped from the
    /// front as the cursor passes them. A co-arrival of the last client
    /// evaluated in full takes that client's report (see the module docs).
    fn fire_deadlines<F: FnMut(ClientReport)>(
        &mut self,
        before: Option<i64>,
        emit: &mut F,
    ) -> Result<(), SimError> {
        let mut full: Option<ClientReport> = None;
        while self.ci < self.n {
            // The next unserved client always lives in the *front* closed
            // tree (earlier trees were dropped exactly when served out),
            // or in the open tree once no closed tree is left.
            let (base, parents, times, specs) = match (self.closed.front(), &self.open) {
                (Some(t), _) => (t.base, &t.parents, &t.times, &t.specs),
                (None, Some(t)) => (t.base, &t.parents, &t.times, &t.specs),
                (None, None) => {
                    debug_assert!(false, "client {} has no retained tree", self.ci);
                    return Ok(());
                }
            };
            debug_assert!((base..base + times.len()).contains(&self.ci));
            let local = self.ci - base;
            let time = times[local];
            if before.is_some_and(|h| time + self.media >= h) {
                return Ok(());
            }
            // A co-arrival of the client last evaluated in full reads the
            // same segments against the same specs: same verdict.
            let parent = parents[local] as usize;
            let report = match &full {
                Some(r) if local > 0 && r.client == base + parent && times[parent] == time => {
                    ClientReport {
                        client: self.ci,
                        ..*r
                    }
                }
                _ => {
                    // Tentative specs are safe here: every spec a client
                    // reads can only grow past demands that are fixed at
                    // its arrival.
                    let r = eval_client(
                        parents,
                        times,
                        specs,
                        self.media_len,
                        base,
                        local,
                        self.config,
                        &mut self.scratch,
                    )?;
                    full = Some(r.clone());
                    r
                }
            };
            emit(report);
            self.ci += 1;
            if let Some(front) = self.closed.front_mut() {
                front.remaining -= 1;
                if front.remaining == 0 {
                    if let Some(done) = self.closed.pop_front() {
                        self.pool.push(TreeStorage {
                            parents: done.parents,
                            times: done.times,
                            specs: done.specs,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Closes the open tree (if any): its specs are now final, so its
    /// units enter the total and its streams the bandwidth sweep; it is
    /// retained only if unserved clients remain. Then settles every instant
    /// strictly below `horizon` (all of them for `None`), merging the tree's
    /// starts in as a sorted run — sound because every undrained event and
    /// every event a future push can add lies at or past the closing root's
    /// arrival time.
    fn close_open(&mut self, horizon: Option<i64>) {
        let Some(open) = self.open.take() else {
            return;
        };
        self.total_units += open.specs.iter().map(|s| s.length).sum::<i64>();
        // Local order is arrival order, so the starts are already sorted.
        // A stream's end enters the heap when its start is applied, so the
        // heap holds only the active streams' ends.
        let mut streams = open.specs.iter().filter(|s| s.length > 0).peekable();
        // Streams the previous closure left tied with this tree's root open
        // the first instant: nothing pending lies below them.
        if self.tied > 0 && horizon.is_none_or(|h| self.tied_at < h) {
            self.active += std::mem::take(&mut self.tied);
            self.settle(self.tied_at, &mut streams);
        }
        while let Some(first) = streams.next_if(|s| horizon.is_none_or(|h| s.start < h)) {
            self.drain_below(Some(first.start));
            self.ends.push(Reverse(first.end()));
            self.active += 1;
            self.settle(first.start, &mut streams);
        }
        self.drain_below(horizon);
        // What is left starts at the horizon, tied with the next root.
        for s in streams {
            self.ends.push(Reverse(s.end()));
            self.tied += 1;
            self.tied_at = s.start;
        }
        let len = open.times.len();
        let remaining = (open.base + len) - self.ci.max(open.base);
        if remaining > 0 {
            self.closed.push_back(ClosedTree {
                base: open.base,
                parents: open.parents,
                times: open.times,
                specs: open.specs,
                remaining,
            });
        } else {
            self.pool.push(TreeStorage {
                parents: open.parents,
                times: open.times,
                specs: open.specs,
            });
        }
    }

    /// Settles instant `t` once its first starts are counted: the run's
    /// other streams starting at `t` go live, the streams ending at `t`
    /// retire, and the net count is recorded once, so a back-to-back
    /// handoff records no change.
    fn settle<'a>(&mut self, t: i64, streams: &mut Peekable<impl Iterator<Item = &'a StreamSpec>>) {
        while let Some(s) = streams.next_if(|s| s.start == t) {
            self.ends.push(Reverse(s.end()));
            self.active += 1;
        }
        self.pop_ends_at(t);
        self.profile.record(t, self.active);
    }

    /// Settles every pending end strictly below `limit` (all of them for
    /// `None`), one profile record per instant.
    fn drain_below(&mut self, limit: Option<i64>) {
        while let Some(&Reverse(t)) = self.ends.peek() {
            if limit.is_some_and(|h| t >= h) {
                break;
            }
            self.pop_ends_at(t);
            self.profile.record(t, self.active);
        }
    }

    /// Retires every stream ending at exactly `t`.
    fn pop_ends_at(&mut self, t: i64) {
        while self.ends.peek().is_some_and(|&Reverse(end)| end == t) {
            self.ends.pop();
            self.active -= 1;
        }
    }
}

/// Replays a batch `(forest, times)` pair through the push interface, in
/// global arrival order — the sorted-input driver behind
/// [`simulate_streaming_slice`](super::events::simulate_streaming_slice)
/// and [`super::simulate_with`]. Its summary adds the retention gauge.
///
/// `times` must be nondecreasing (the push interface's clock contract);
/// a backwards step fails with [`IngestError::OutOfOrder`].
pub fn simulate_incremental<F: FnMut(ClientReport)>(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
    mut emit: F,
) -> Result<IncrementalSummary, IngestError> {
    if times.len() != forest.total_arrivals() {
        return Err(IngestError::Sim(SimError::Model(
            ModelError::TimesLengthMismatch {
                nodes: forest.total_arrivals(),
                times: times.len(),
            },
        )));
    }
    let mut engine = IncrementalEngine::new(media_len, config)?;
    for (range, tree) in forest.iter_with_ranges() {
        let base = range.start;
        for local in 0..tree.len() {
            let attach = match tree.parent(local) {
                None => Attach::Root,
                Some(p) => Attach::Under(base + p),
            };
            engine.push(times[base + local], attach, &mut emit)?;
        }
    }
    engine.finish(&mut emit).map_err(IngestError::Sim)
}

#[cfg(test)]
mod tests {
    use super::super::simulate_with;
    use super::*;
    use sm_core::{consecutive_slots, MergeTree};

    fn fig4_forest() -> MergeForest {
        MergeForest::single(
            MergeTree::from_parents(&[
                None,
                Some(0),
                Some(0),
                Some(0),
                Some(3),
                Some(0),
                Some(5),
                Some(5),
            ])
            .unwrap(),
        )
    }

    /// The replay against the slot-stepped dense oracle over the same
    /// sorted input; pins summary, reports, emission order (arrival order
    /// for sorted times), and the first error.
    fn assert_matches_dense(forest: &MergeForest, times: &[i64], media_len: u64) {
        let expected = simulate_with(forest, times, media_len, SimConfig::dense());
        let mut inc = Vec::new();
        let got = simulate_incremental(forest, times, media_len, SimConfig::default(), |r| {
            inc.push(r)
        });
        match (expected, got) {
            (Ok(report), Ok(isummary)) => {
                assert_eq!(isummary.summary.bandwidth, report.bandwidth);
                assert_eq!(isummary.summary.total_units, report.total_units);
                assert_eq!(isummary.summary.clients, report.clients.len());
                assert_eq!(inc, report.clients, "reports and emission order must pin");
            }
            (Err(e), Err(IngestError::Sim(ie))) => assert_eq!(ie, e),
            (e, g) => panic!("engines disagree on outcome: {e:?} vs {g:?}"),
        }
    }

    #[test]
    fn fig4_pins_against_the_dense_oracle() {
        let forest = fig4_forest();
        assert_matches_dense(&forest, &consecutive_slots(8), 15);
    }

    #[test]
    fn multi_tree_with_gaps_and_ties_pins() {
        let t = MergeTree::from_parents(&[None, Some(0), Some(1), Some(0)]).unwrap();
        let forest = MergeForest::from_trees(vec![t.clone(), t, MergeTree::singleton()]).unwrap();
        // Ties within a tree, a tie across the tree boundary, and a gap.
        let times = vec![0, 0, 2, 2, 2, 3, 3, 5, 40];
        assert_matches_dense(&forest, &times, 12);
    }

    #[test]
    fn tied_co_arrival_gains_its_stream_retroactively() {
        // Arrival 1 ties with the root: its tentative stream has length 0.
        // Arrival 2 then merges under it, so stream 1 must retroactively
        // start (length 2·7 − 5 − 5 = 4) — the case that forces bandwidth
        // events to wait for tree closure.
        let tree = MergeTree::from_parents(&[None, Some(0), Some(1)]).unwrap();
        let forest = MergeForest::single(tree);
        assert_matches_dense(&forest, &[5, 5, 7], 20);
    }

    #[test]
    fn deep_chain_pins() {
        let media = 40u64;
        let c = (media / 2 + 1) as usize;
        let forest = MergeForest::single(MergeTree::chain(c));
        assert_matches_dense(&forest, &consecutive_slots(c), media);
    }

    #[test]
    fn buffer_bound_error_pins() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let cfg = SimConfig {
            buffer_bound: Some(1),
            ..SimConfig::dense()
        };
        let dense = simulate_with(&forest, &times, 15, cfg).unwrap_err();
        let got = simulate_incremental(&forest, &times, 15, cfg, |_| {}).unwrap_err();
        assert_eq!(got, IngestError::Sim(dense));
    }

    #[test]
    fn out_of_order_push_is_rejected_and_harmless() {
        let mut eng = IncrementalEngine::new(10, SimConfig::default()).unwrap();
        eng.push(5, Attach::Root, |_| {}).unwrap();
        let err = eng.push(4, Attach::Root, |_| {}).unwrap_err();
        assert_eq!(err, IngestError::OutOfOrder { time: 4, last: 5 });
        // The clock and structure are untouched: a tie still goes through.
        eng.push(5, Attach::Under(0), |_| {}).unwrap();
        assert_eq!(eng.arrivals(), 2);
    }

    #[test]
    fn attach_outside_the_open_tree_is_rejected() {
        let mut eng = IncrementalEngine::new(10, SimConfig::default()).unwrap();
        let err = eng.push(0, Attach::Under(0), |_| {}).unwrap_err();
        assert_eq!(err, IngestError::ParentNotOpen { node: 0, parent: 0 });
        eng.push(0, Attach::Root, |_| {}).unwrap();
        eng.push(1, Attach::Root, |_| {}).unwrap();
        // Arrival 2 may not reach back into the closed tree's root 0.
        let err = eng.push(2, Attach::Under(0), |_| {}).unwrap_err();
        assert_eq!(err, IngestError::ParentNotOpen { node: 2, parent: 0 });
        // Nor name itself or the future.
        let err = eng.push(2, Attach::Under(2), |_| {}).unwrap_err();
        assert_eq!(err, IngestError::ParentNotOpen { node: 2, parent: 2 });
    }

    #[test]
    fn rejected_push_emits_nothing_and_changes_nothing() {
        // Client 0's deadline 0 + 2 lies before the rejected push's time,
        // so firing deadlines before validating the attach would emit it.
        let mut eng = IncrementalEngine::new(2, SimConfig::default()).unwrap();
        eng.push(0, Attach::Root, |_| {}).unwrap();
        let mut emitted = Vec::new();
        let err = eng
            .push(10, Attach::Under(5), |r: ClientReport| {
                emitted.push(r.client)
            })
            .unwrap_err();
        assert_eq!(err, IngestError::ParentNotOpen { node: 1, parent: 5 });
        assert!(emitted.is_empty(), "a rejected push emitted {emitted:?}");
        assert_eq!(eng.arrivals(), 1);
        assert_eq!(eng.open_trees(), 1);
        eng.push(10, Attach::Root, |r: ClientReport| emitted.push(r.client))
            .unwrap();
        assert_eq!(emitted, vec![0]);
    }

    #[test]
    fn reports_stream_out_while_ingest_continues() {
        // Spaced singletons: by the time tree k opens, every client of
        // tree k−1 is past its deadline, so pushes interleave with emits
        // and retention stays at the open tree alone.
        let media = 5u64;
        let mut eng = IncrementalEngine::new(media, SimConfig::default()).unwrap();
        let mut emitted = Vec::new();
        for k in 0..16i64 {
            eng.push(k * 100, Attach::Root, |r: ClientReport| {
                emitted.push(r.client)
            })
            .unwrap();
            assert_eq!(eng.open_trees(), 1, "previous trees must be dropped");
            assert_eq!(emitted.len(), k as usize);
        }
        let summary = eng.finish(|r| emitted.push(r.client)).unwrap();
        assert_eq!(emitted, (0..16).collect::<Vec<_>>());
        assert_eq!(summary.max_open_trees, 1);
        assert_eq!(summary.summary.total_units, 16 * media as i64);
    }

    #[test]
    fn empty_run_matches_the_empty_batch() {
        let eng = IncrementalEngine::new(9, SimConfig::default()).unwrap();
        let summary = eng.finish(|_| {}).unwrap();
        assert_eq!(summary.summary.clients, 0);
        assert_eq!(summary.summary.total_units, 0);
        assert!(summary.summary.bandwidth.is_empty());
        assert_eq!(summary.max_open_trees, 0);
    }

    #[test]
    fn media_len_overflow_is_rejected_at_construction() {
        assert!(matches!(
            IncrementalEngine::new(u64::MAX, SimConfig::default()).unwrap_err(),
            SimError::MediaLenOverflow { .. }
        ));
    }

    #[test]
    fn max_open_trees_tracks_overlapping_windows() {
        // Roots every slot with a long media: all windows overlap, so
        // every tree is still retained when the last one opens.
        let n = 8usize;
        let forest = MergeForest::from_trees(vec![MergeTree::singleton(); n]).unwrap();
        let times: Vec<i64> = (0..n as i64).collect();
        let summary =
            simulate_incremental(&forest, &times, 1000, SimConfig::default(), |_| {}).unwrap();
        assert_eq!(summary.max_open_trees, n);
    }
}
