//! The push-based serving engine: arrivals are *ingested* one at a time.
//!
//! A serving loop has no `(forest, times)` pair up front: clients show up
//! one by one, the merge policy commits each one at traffic time, and
//! reports must flow out while the horizon is still growing.
//! [`IncrementalEngine`] is the event engine built around that ingest
//! direction, and it is also the one driver for batch input: every batch
//! entry point (see [`events`](super::events)) checks that the arrival
//! times never decrease and then replays them through it.
//!
//! * **one open tree** — arrivals attach to the most recently opened tree
//!   (the model's invariant: merging across closed trees is impossible
//!   because their streams have already begun). A tree is three columns
//!   indexed by local arrival: its `u32` parent, its `u32` *top* (the
//!   root's child on its root path — a node attached under the root is its
//!   own top, any other copies its parent's), and its arrival time, all
//!   recycled through a storage pool so steady-state pushes are
//!   allocation-free. An attach pushes one entry onto each column: `O(1)`.
//! * **each report in `O(1)`, from Lemma 1's closed forms** — on every
//!   push sequence this engine accepts (nondecreasing times, each parent
//!   pushed before its children) a client `c`'s whole report follows from
//!   three arrival times: its own `t_c`, its root's `t_r`, and its top's
//!   `t_u` (for the root itself, `u = c = r`). All three are known when
//!   `c` attaches, so `push` checks them there. Let `m = 2t_c − t_u − t_r`
//!   (the last part `c` takes from a non-root stream) and `d = t_c − t_r`.
//!   - If `m > L`, the push fails with [`ModelError::PartOutOfRange`]:
//!     the first `2t_c − t_{x_j} − t_{x_{j+1}}` above `L` on the walk up
//!     from `c`. These values never decrease up the path, and this walk
//!     runs on the error path only.
//!   - If `L = 0` (so `m = 0`), no part is received: `max_buffer` 0,
//!     `max_concurrent` 0, `min_slack` `i64::MAX`.
//!   - Otherwise `max_buffer = min(d, L − d)` and `min_slack = 0`;
//!     `max_concurrent` is 2 when `t_c > t_u`, or when both `t_u > t_r`
//!     and `m < L`, and 1 in every other case. A buffer bound below
//!     `max_buffer` fails the push with [`SimError::BufferOverflow`].
//!
//!   A root has `m = d = 0`, so it never fails. As `t_u ≥ t_r`,
//!   `m ≤ 2d`, so a push reads `t_u` only when `2d > L`.
//!
//!   *Why no other check can fail.* Take the path
//!   `x_0 = c, …, x_k = r` and set `x_{−1} = c`. Segment `j` is parts
//!   `2t_c − t_{x_{j−1}} − t_{x_j} + 1 ..= 2t_c − t_{x_j} − t_{x_{j+1}}` of
//!   `x_j`'s stream, and the root's segment ends at `L`. The segments run
//!   on from part 1 without a gap, so once `m ≤ L` there is no
//!   `CoverageGap`. Every time on the path is at most `t_c`, so there is
//!   no `ParentNotEarlier` and no `Stall`.
//!   `ℓ(x_j) = 2t_{z(x_j)} − t_{x_j} − t_{x_{j+1}}` with `t_z ≥ t_c`, so
//!   there is no `StreamTooShort`. Segment `j` is received during
//!   `[2t_c − t_{x_{j−1}}, 2t_c − t_{x_{j+1}})`; segment `j + 2` starts
//!   where `j` ends, so at most two streams arrive at once and there is
//!   no `ReceiveTwoViolation` (segments `j` and `j + 1` overlap exactly
//!   when `t_{x_j} > t_{x_{j+1}}`, and the root's segment is non-empty
//!   exactly when `m < L`: the concurrency rule above). Reception never
//!   pauses between `t_c` and its last slot `max(2t_c − t_r, t_r + L)`,
//!   so the buffer only grows until then. Its peak is `L` minus the
//!   `max(d, L − d)` parts played by then, which is `min(d, L − d)`.
//! * **deadlines fire during ingest** — a client's report is fixed at its
//!   arrival, so each report is emitted the moment the client's last
//!   part-deadline `t_c + L` falls strictly before the ingest clock.
//!   Reports stream out through `emit` in deadline order (ties by arrival
//!   index), which is arrival order. A client whose report would fail was
//!   already rejected by its own push, so firing a deadline never fails,
//!   and the batch entry points stop at the first failing client in
//!   arrival order, as a deadline-order error would;
//! * **stream lengths at tree closure** — a stream's length grows while
//!   descendants can still attach (a tied co-arrival even gains its
//!   stream retroactively), so no length is kept during ingest. Times never
//!   decrease in index order, so a node's last descendant arrived at the
//!   latest time in its subtree: when a new root closes the tree, one
//!   reverse pass over the parent column finds that time `t_{z(x)}` and
//!   sets `ℓ(x) = 2t_{z(x)} − t_x − t_{p(x)}`, the root's being `L`. The
//!   lengths live in one scratch vector owned by the engine; the tree's
//!   units enter the total and its streams the bandwidth sweep;
//! * **bandwidth change-points finalize at tree closure** — all future
//!   events then lie at or past the closing root's arrival, so every
//!   instant strictly below it is final: the closing tree's starts
//!   (already in time order) merge as a sorted run with a min-heap that
//!   holds only the active streams' ends, and each instant is netted into
//!   one sparse `ProfileBuilder` record. Starts tied with the closing root
//!   are only counted, and join that root's instant when it closes in
//!   turn. Heap and retention are `O(open trees + active streams)`, never
//!   `O(arrivals)`;
//! * **time travel is rejected, interleaving is not** — `push` accepts any
//!   nondecreasing time sequence (ties included) and fails fast with
//!   [`IngestError::OutOfOrder`] otherwise, leaving the engine untouched.
//!
//! The `engine_equivalence` proptest suite and its exhaustive small-tree
//! grid pin this engine bit-identical (reports, emission order, summary,
//! first error) to the suite's slot-stepped dense reference on every input
//! the batch entry points accept, both through those entry points and
//! pushed one arrival at a time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::iter::Peekable;

use super::events::{label, StreamingSummary};
use super::{ClientReport, SimConfig};
use crate::error::SimError;
use crate::metrics::ProfileBuilder;
use crate::schedule::checked_media_len;
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

/// One tree's columns, indexed by local arrival. Fully-served trees return
/// theirs to the engine's pool so later opens reuse the capacity instead of
/// allocating.
#[derive(Debug, Default)]
struct TreeStorage {
    /// Local parent of each arrival; entry 0, the root's, is unused.
    parents: Vec<u32>,
    /// The root's child on each arrival's root path; entry 0, the root's,
    /// is the root itself.
    tops: Vec<u32>,
    times: Vec<i64>,
}

impl TreeStorage {
    /// Lemma 1's closed-form report of local client `c`, global index
    /// `base + c` (see the module docs). `push` checked at attach that it
    /// does not fail.
    fn report(&self, base: usize, c: usize, media: i64) -> ClientReport {
        let client = base + c;
        if media == 0 {
            return ClientReport {
                client,
                max_buffer: 0,
                max_concurrent: 0,
                min_slack: i64::MAX,
            };
        }
        let t_c = self.times[c];
        let t_r = self.times[0];
        let t_u = self.times[self.tops[c] as usize];
        let d = t_c - t_r;
        let m = (t_c - t_u) + d;
        let two = t_c > t_u || (t_u > t_r && m < media);
        ClientReport {
            client,
            max_buffer: d.min(media - d),
            max_concurrent: if two { 2 } else { 1 },
            min_slack: 0,
        }
    }

    /// Writes every node's final Lemma-1 stream length into `lengths`:
    /// `ℓ(x) = 2t_{z(x)} − t_x − t_{p(x)}`, and `media` for the root.
    /// A node's descendants all have larger indices and times never
    /// decrease, so one reverse pass carries each subtree's latest time,
    /// `t_{z(x)}`, up to its root, and it is final when the pass reaches
    /// `x`.
    fn stream_lengths(&self, media: i64, lengths: &mut Vec<i64>) {
        lengths.clear();
        lengths.extend_from_slice(&self.times);
        for x in (1..self.times.len()).rev() {
            let up = self.parents[x] as usize;
            let t_z = lengths[x];
            lengths[x] = (t_z - self.times[x]) + (t_z - self.times[up]);
            lengths[up] = lengths[up].max(t_z);
        }
        if let Some(root) = lengths.first_mut() {
            *root = media;
        }
    }
}

/// The tree currently accepting arrivals.
#[derive(Debug)]
struct OpenTree {
    /// Global index of the root.
    base: usize,
    cols: TreeStorage,
}

impl OpenTree {
    fn new(base: usize, time: i64, mut cols: TreeStorage) -> Self {
        cols.parents.clear();
        cols.parents.push(0);
        cols.tops.clear();
        cols.tops.push(0);
        cols.times.clear();
        cols.times.push(time);
        Self { base, cols }
    }

    /// The `(parent, top)` labels of the next arrival under global node
    /// `parent`, which must fit a label itself; `None` when `parent` is not
    /// in this tree.
    fn labels(&self, parent: usize) -> Option<Result<(u32, u32), ModelError>> {
        let local = parent
            .checked_sub(self.base)
            .filter(|&l| l < self.cols.times.len())?;
        Some(label(self.cols.times.len()).and_then(|node| {
            let top = if local == 0 {
                node
            } else {
                self.cols.tops[local]
            };
            Ok((label(local)?, top))
        }))
    }

    /// Fails exactly when the report of an arrival at `time` with labels
    /// from [`Self::labels`], global index `client`, would: a part past
    /// `media` or a buffer past `bound` (see the module docs). Every attach
    /// runs it from [`IncrementalEngine::push`], which is generic and so
    /// built in the caller's crate; without `always` the check stays a call
    /// there.
    #[inline(always)]
    fn check(
        &self,
        client: usize,
        time: i64,
        (parent, top): (u32, u32),
        media: i64,
        bound: Option<u64>,
    ) -> Result<(), SimError> {
        let times = &self.cols.times;
        let d = time - times[0];
        let rest = media - d;
        // `m = (t_c − t_u) + d` is at most `2d`, as `t_u ≥ t_r`, so only an
        // arrival past half the media (`d > rest`) can need a part past it.
        if d > rest {
            // Directly under the root, the arrival is its own top.
            let t_u = if top as usize == times.len() {
                time
            } else {
                times[top as usize]
            };
            if time - t_u > rest {
                // The first segment end `2t_c − t_x − t_{p(x)}` above
                // `media` on the walk up from the arrival; the top's end is
                // `m`, so the walk stops there at the latest.
                let mut part = time - times[parent as usize];
                let mut node = parent as usize;
                while part <= media && node != 0 {
                    let up = self.cols.parents[node] as usize;
                    part = (time - times[node]) + (time - times[up]);
                    node = up;
                }
                return Err(SimError::Model(ModelError::PartOutOfRange { part }));
            }
        }
        let needed = d.min(rest);
        match bound {
            Some(bound) if i64::try_from(bound).is_ok_and(|b| needed > b) => {
                Err(SimError::BufferOverflow {
                    client,
                    needed,
                    bound,
                })
            }
            _ => Ok(()),
        }
    }

    /// Attaches an arrival at `time` with labels from [`Self::labels`].
    fn attach(&mut self, time: i64, (parent, top): (u32, u32)) {
        self.cols.parents.push(parent);
        self.cols.tops.push(top);
        self.cols.times.push(time);
    }
}

/// A closed tree retained only while clients inside it still await their
/// last part-deadline.
#[derive(Debug)]
struct ClosedTree {
    base: usize,
    cols: TreeStorage,
    remaining: usize,
}

/// Arrival-at-a-time serving engine; see the module docs for the design.
///
/// Drive it with [`push`](Self::push) per arrival and
/// [`finish`](Self::finish) once the horizon ends. The batch entry points
/// replay a ready-made `(forest, times)` pair through it.
#[derive(Debug)]
pub struct IncrementalEngine {
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
    /// The closing tree's stream lengths; reused by every closure.
    lengths: Vec<i64>,
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
}

impl IncrementalEngine {
    /// A fresh engine for a media of `media_len` parts.
    /// `config.buffer_bound` is honored.
    pub fn new(media_len: u64, config: SimConfig) -> Result<Self, SimError> {
        let media = checked_media_len(media_len)?;
        Ok(Self {
            media,
            config,
            last_time: None,
            n: 0,
            ci: 0,
            open: None,
            closed: VecDeque::new(),
            pool: Vec::new(),
            lengths: Vec::new(),
            ends: BinaryHeap::new(),
            tied: 0,
            tied_at: 0,
            active: 0,
            profile: ProfileBuilder::new(),
            total_units: 0,
            max_open_trees: 0,
        })
    }

    /// Arrivals ingested so far.
    pub fn arrivals(&self) -> usize {
        self.n
    }

    /// Trees currently retained: the open one plus closed trees whose
    /// clients are still inside their playback windows.
    fn open_trees(&self) -> usize {
        self.closed.len() + usize::from(self.open.is_some())
    }

    /// High-water mark so far of the trees retained: the open one plus
    /// closed trees whose clients are still inside their playback windows.
    pub fn max_open_trees(&self) -> usize {
        self.max_open_trees
    }

    /// Ingests one arrival at `time`, first streaming out every report
    /// whose last part-deadline falls strictly before `time`.
    ///
    /// Times must be nondecreasing (ties welcome — simultaneous arrivals
    /// are the model's bread and butter); a backwards push is rejected
    /// with [`IngestError::OutOfOrder`] and changes nothing. A rejected
    /// attach ([`IngestError::ParentNotOpen`], a tree outgrowing its `u32`
    /// labels, or a client whose report would fail: a part past the media,
    /// [`ModelError::PartOutOfRange`], or a buffer past the bound,
    /// [`SimError::BufferOverflow`]) likewise leaves the engine as it was —
    /// no report is emitted and no tree retired — so a serving loop can
    /// drop the request and carry on.
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
        let labels = match attach {
            Attach::Root => None,
            Attach::Under(parent) => {
                let not_open = IngestError::ParentNotOpen {
                    node: self.n,
                    parent,
                };
                let Some(open) = self.open.as_ref() else {
                    return Err(not_open);
                };
                let labels = open
                    .labels(parent)
                    .ok_or(not_open)?
                    .map_err(SimError::Model)?;
                open.check(self.n, time, labels, self.media, self.config.buffer_bound)?;
                Some(labels)
            }
        };
        self.fire_deadlines(Some(time), &mut emit);
        match labels {
            None => {
                self.close_open(Some(time));
                let storage = self.pool.pop().unwrap_or_default();
                self.open = Some(OpenTree::new(self.n, time, storage));
            }
            // Validated above; firing deadlines leaves the open tree alone.
            Some(labels) => {
                if let Some(open) = self.open.as_mut() {
                    open.attach(time, labels);
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
    /// Every client was checked when it was pushed, so no report fails
    /// here.
    pub fn finish<F: FnMut(ClientReport)>(
        mut self,
        mut emit: F,
    ) -> Result<IncrementalSummary, SimError> {
        self.fire_deadlines(None, &mut emit);
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

    /// Reports and emits clients in arrival-index order (which is deadline
    /// order, since times are nondecreasing) while their deadline `t_c + L`
    /// lies strictly before `before` — or all of them when `before` is
    /// `None`. Served-out closed trees are dropped from the front as the
    /// cursor passes them.
    fn fire_deadlines<F: FnMut(ClientReport)>(&mut self, before: Option<i64>, emit: &mut F) {
        while self.ci < self.n {
            // The next unserved client always lives in the *front* closed
            // tree (earlier trees were dropped exactly when served out),
            // or in the open tree once no closed tree is left.
            let (base, cols) = match (self.closed.front(), &self.open) {
                (Some(t), _) => (t.base, &t.cols),
                (None, Some(t)) => (t.base, &t.cols),
                (None, None) => {
                    debug_assert!(false, "client {} has no retained tree", self.ci);
                    return;
                }
            };
            debug_assert!((base..base + cols.times.len()).contains(&self.ci));
            let local = self.ci - base;
            if before.is_some_and(|h| cols.times[local] + self.media >= h) {
                return;
            }
            emit(cols.report(base, local, self.media));
            self.ci += 1;
            if let Some(front) = self.closed.front_mut() {
                front.remaining -= 1;
                if front.remaining == 0 {
                    if let Some(done) = self.closed.pop_front() {
                        self.pool.push(done.cols);
                    }
                }
            }
        }
    }

    /// Closes the open tree (if any): its stream lengths are now final, so
    /// its units enter the total and its streams the bandwidth sweep; it is
    /// retained only if unserved clients remain. Then settles every instant
    /// strictly below `horizon` (all of them for `None`), merging the tree's
    /// starts in as a sorted run — sound because every undrained event and
    /// every event a future push can add lies at or past the closing root's
    /// arrival time.
    fn close_open(&mut self, horizon: Option<i64>) {
        let Some(open) = self.open.take() else {
            return;
        };
        let mut lengths = std::mem::take(&mut self.lengths);
        open.cols.stream_lengths(self.media, &mut lengths);
        self.total_units += lengths.iter().sum::<i64>();
        // Local order is arrival order, so the starts are already sorted.
        // A stream's end enters the heap when its start is applied, so the
        // heap holds only the active streams' ends.
        let mut streams = open
            .cols
            .times
            .iter()
            .zip(&lengths)
            .filter(|&(_, &length)| length > 0)
            .map(|(&start, &length)| (start, start + length))
            .peekable();
        // Streams the previous closure left tied with this tree's root open
        // the first instant: nothing pending lies below them.
        if self.tied > 0 && horizon.is_none_or(|h| self.tied_at < h) {
            self.active += std::mem::take(&mut self.tied);
            self.settle(self.tied_at, &mut streams);
        }
        while let Some((start, end)) = streams.next_if(|&(s, _)| horizon.is_none_or(|h| s < h)) {
            self.drain_below(Some(start));
            self.ends.push(Reverse(end));
            self.active += 1;
            self.settle(start, &mut streams);
        }
        self.drain_below(horizon);
        // What is left starts at the horizon, tied with the next root.
        for (start, end) in streams {
            self.ends.push(Reverse(end));
            self.tied += 1;
            self.tied_at = start;
        }
        self.lengths = lengths;
        let len = open.cols.times.len();
        let remaining = (open.base + len) - self.ci.max(open.base);
        if remaining > 0 {
            self.closed.push_back(ClosedTree {
                base: open.base,
                cols: open.cols,
                remaining,
            });
        } else {
            self.pool.push(open.cols);
        }
    }

    /// Settles instant `t` once its first starts are counted: the run's
    /// other streams starting at `t` go live, the streams ending at `t`
    /// retire, and the net count is recorded once, so a back-to-back
    /// handoff records no change.
    fn settle(&mut self, t: i64, streams: &mut Peekable<impl Iterator<Item = (i64, i64)>>) {
        while let Some((_, end)) = streams.next_if(|&(start, _)| start == t) {
            self.ends.push(Reverse(end));
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

/// The replay behind every batch entry point, over input that entry point
/// has checked.
pub(super) fn replay<F: FnMut(ClientReport)>(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
    mut emit: F,
) -> Result<IncrementalSummary, SimError> {
    let mut engine = IncrementalEngine::new(media_len, config)?;
    for (range, tree) in forest.iter_with_ranges() {
        let base = range.start;
        for local in 0..tree.len() {
            let attach = match tree.parent(local) {
                None => Attach::Root,
                Some(p) => Attach::Under(base + p),
            };
            engine
                .push(times[base + local], attach, &mut emit)
                .map_err(|e| match e {
                    IngestError::Sim(e) => e,
                    // Checked times over a validated forest push in clock
                    // order with every parent inside its own open tree, so
                    // these are unreachable; they surface as model errors
                    // rather than panics.
                    IngestError::OutOfOrder { .. } => SimError::Model(ModelError::TimesNotSorted),
                    IngestError::ParentNotOpen { node, parent } => {
                        SimError::Model(ModelError::ParentNotEarlier { node, parent })
                    }
                })?;
        }
    }
    engine.finish(&mut emit)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn infeasible_attach_is_rejected_and_harmless() {
        let mut emitted = Vec::new();
        // L = 3: client 1 under root 0 at 5 would need part 5.
        let mut eng = IncrementalEngine::new(3, SimConfig::default()).unwrap();
        eng.push(0, Attach::Root, |r: ClientReport| emitted.push(r.client))
            .unwrap();
        let err = eng
            .push(5, Attach::Under(0), |r: ClientReport| {
                emitted.push(r.client)
            })
            .unwrap_err();
        let part_out = ModelError::PartOutOfRange { part: 5 };
        assert_eq!(err, IngestError::Sim(SimError::Model(part_out)));
        assert!(emitted.is_empty(), "a rejected push emitted {emitted:?}");
        assert_eq!(eng.arrivals(), 1);
        for t in [10, 11, 20] {
            eng.push(t, Attach::Root, |r: ClientReport| emitted.push(r.client))
                .unwrap();
        }
        let summary = eng.finish(|r| emitted.push(r.client)).unwrap();
        assert_eq!(emitted, vec![0, 1, 2, 3]);
        assert_eq!(summary.summary.total_units, 4 * 3);

        // L = 10, bound 1: client 1 under root 0 at 3 would buffer
        // min(3, 10 − 3) = 3 parts.
        emitted.clear();
        let config = SimConfig {
            buffer_bound: Some(1),
        };
        let mut eng = IncrementalEngine::new(10, config).unwrap();
        eng.push(0, Attach::Root, |r: ClientReport| emitted.push(r.client))
            .unwrap();
        let err = eng
            .push(3, Attach::Under(0), |r: ClientReport| {
                emitted.push(r.client)
            })
            .unwrap_err();
        let overflow = SimError::BufferOverflow {
            client: 1,
            needed: 3,
            bound: 1,
        };
        assert_eq!(err, IngestError::Sim(overflow));
        assert!(emitted.is_empty(), "a rejected push emitted {emitted:?}");
        for t in [30, 31] {
            eng.push(t, Attach::Root, |r: ClientReport| emitted.push(r.client))
                .unwrap();
        }
        let summary = eng.finish(|r| emitted.push(r.client)).unwrap();
        assert_eq!(emitted, vec![0, 1, 2]);
        assert_eq!(summary.summary.total_units, 3 * 10);
    }

    #[test]
    fn far_times_check_and_report_without_overflow() {
        // `2t_c` and `2t_z` would overflow at these times; the check, the
        // report and the stream lengths form only differences.
        let far = 1i64 << 62;
        let mut eng = IncrementalEngine::new(10, SimConfig::default()).unwrap();
        eng.push(0, Attach::Root, |_| {}).unwrap();
        let err = eng.push(far, Attach::Under(0), |_| {}).unwrap_err();
        let part_out = ModelError::PartOutOfRange { part: far };
        assert_eq!(err, IngestError::Sim(SimError::Model(part_out)));
        // A feasible tree that far out reports and closes.
        eng.push(far, Attach::Root, |_| {}).unwrap();
        eng.push(far + 1, Attach::Under(1), |_| {}).unwrap();
        let mut reports = Vec::new();
        let summary = eng.finish(|r| reports.push(r)).unwrap();
        let client = ClientReport {
            client: 2,
            max_buffer: 1,
            max_concurrent: 2,
            min_slack: 0,
        };
        assert_eq!(reports.last(), Some(&client));
        assert_eq!(summary.summary.total_units, 10 + 10 + 1);
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
        let n = 8i64;
        let mut eng = IncrementalEngine::new(1000, SimConfig::default()).unwrap();
        for t in 0..n {
            eng.push(t, Attach::Root, |_| {}).unwrap();
        }
        let summary = eng.finish(|_| {}).unwrap();
        assert_eq!(summary.max_open_trees, n as usize);
    }
}
