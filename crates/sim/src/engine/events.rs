//! The discrete-event engine's entry points, and the fallback and
//! per-client walk for unsorted arrivals.
//!
//! Where the [`dense`](super::dense) engine sweeps every slot of every
//! client's playback window, this engine advances time only at *events*:
//! stream starts, stream ends, and per-client part-deadlines (each
//! client's program ends with part `L` playing during `[t_c+L−1, t_c+L)`;
//! the final deadline `t_c + L` is the event at which the client's whole
//! program is checked and its report emitted).
//!
//! * **Sorted arrivals** — every real workload, and the only form the
//!   paper's algorithms produce — replay through the push-based
//!   [`incremental`](super::incremental) engine, the one driver for
//!   slot-ordered input: it scores each client in `O(1)` from Lemma 1's
//!   closed forms, computes each tree's stream lengths once when the tree
//!   closes, retains trees only while their clients' playback windows are
//!   open, keeps stream ends in a min-heap, and merges each closing tree's
//!   starts in as a sorted run. Its first error is the one
//!   [`super::simulate_with`] reports.
//! * **Unsorted arrivals** (sibling order need not follow time order) take
//!   an eager fallback here that materializes the schedule and every
//!   tree's `u32` parent column and sorts the start and deadline sources;
//!   results are identical either way.
//!
//! The walk below serves unsorted input only, where the closed forms
//! do not hold: one allocation-free walk from the client up its tree's
//! parent column derives, verifies and checks every segment of its
//! receiving program, pushing the receive intervals into the sweep
//! buffers of a single `EngineScratch` reused across every client of the
//! run. The pointer-based `MergeTree`/`ReceivingProgram` stay the
//! validated constructors; the [`dense`](super::dense) oracle keeps using
//! them directly, so the walk is cross-checked against them by
//! equivalence.
//!
//! Bandwidth is metered sparsely: the active-stream count is recorded only
//! when it changes, yielding the change-point [`BandwidthProfile`] directly
//! — no per-slot allocation over the span ever happens.
//!
//! The walk computes per-client metrics in closed form from the receiving
//! program's segments instead of slot-by-slot replay. For a client at `t_c`
//! receiving parts `[first, last]` from the stream of node `x_j` (started at
//! `t_j`):
//!
//! * part `q` is broadcast in slot `t_j + q − 1` and plays in slot
//!   `t_c + q − 1`, so the *slack* `t_c − t_j` and the *stall* condition
//!   `t_j > t_c` are constant across the segment;
//! * reception occupies the slot interval `[t_j+first−1, t_j+last−1]`, so
//!   receive-two compliance is interval-overlap ≤ 2;
//! * buffer occupancy `received(τ) − played(τ)` is piecewise linear in `τ`
//!   with kinks only at segment interval endpoints (and `t_c`, `t_c + L`);
//!   one merged sweep over the sorted endpoints evaluates every kink
//!   candidate with a running `(open streams, Σ open starts, finished
//!   parts)` prefix — `O(segments log segments)` total, never
//!   candidates × segments.
//!
//! All of this reproduces the dense engine's measurements *bit for bit*
//! (including which error fires first); the `engine_equivalence` proptest
//! suite pins that, for the collected and the streaming API both.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::incremental::{simulate_incremental, IngestError};
use super::{ClientReport, SimConfig, SimReport};
use crate::error::SimError;
use crate::metrics::{BandwidthProfile, ProfileBuilder};
use crate::schedule::{stream_schedule, StreamSpec};
use sm_core::{MergeForest, MergeTree, ModelError};

/// Whole-run aggregates of a streaming simulation (everything a
/// [`SimReport`] holds except the per-client vector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingSummary {
    /// Server bandwidth at its change-points.
    pub bandwidth: BandwidthProfile,
    /// Total transmitted slot-units (`= Fcost`).
    pub total_units: i64,
    /// Number of clients served (and emitted).
    pub clients: usize,
}

/// Runs the event engine and collects a full [`SimReport`].
pub(super) fn run(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    let mut clients = Vec::with_capacity(times.len());
    match simulate_streaming_slice(forest, times, media_len, config, |r| clients.push(r)) {
        Ok(summary) => {
            // Deadline order equals arrival-index order for sorted times;
            // sort to guarantee index order for the report regardless.
            clients.sort_unstable_by_key(|r| r.client);
            Ok(SimReport {
                bandwidth: summary.bandwidth,
                total_units: summary.total_units,
                clients,
            })
        }
        // For sorted times deadline order is index order, so the stream's
        // first error is already the dense engine's.
        Err(streaming_err) if times.is_sorted() => Err(streaming_err),
        Err(streaming_err) => {
            // The stream fails at the earliest part-deadline violation; the
            // dense engine reports the lowest-*index* violation. On unsorted
            // times the two can differ, so replay client checks in index
            // order to report the dense engine's. Error path only.
            let specs = stream_schedule(forest, times, media_len)?;
            let mut scratch = EngineScratch::default();
            for (range, tree) in forest.iter_with_ranges() {
                let parents = parent_column(tree)?;
                let base = range.start;
                let local_times = &times[range.clone()];
                let local_specs = &specs[range];
                for local in 0..tree.len() {
                    eval_client(
                        &parents,
                        local_times,
                        local_specs,
                        media_len,
                        base,
                        local,
                        config,
                        &mut scratch,
                    )?;
                }
            }
            Err(streaming_err)
        }
    }
}

/// Event-driven simulation with streaming per-client reports over an
/// arrival-times slice.
///
/// `emit` is called once per client, in part-deadline order (`t_c + L`,
/// ties by arrival index), as soon as the client's program completes —
/// nothing per-client is retained afterwards. Nondecreasing arrival times
/// (the model's canonical form) replay through the incremental engine, so
/// peak memory tracks the trees whose playback windows are open and the
/// active streams rather than the whole arrival sequence.
/// `config.buffer_bound` is honored; `config.engine` is ignored (this *is*
/// the event engine).
///
/// Returns the whole-run aggregates; fails at the first violating
/// *part-deadline*. That is the same first error [`super::simulate_with`]
/// reports whenever arrival times are nondecreasing; on exotic unsorted
/// inputs (which take an eager, sort-based path) `simulate_with`
/// additionally replays the checks in arrival order to keep its error
/// identical to the dense engine's.
pub fn simulate_streaming_slice<F: FnMut(ClientReport)>(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
    mut emit: F,
) -> Result<StreamingSummary, SimError> {
    if times.len() != forest.total_arrivals() {
        return Err(SimError::Model(ModelError::TimesLengthMismatch {
            nodes: forest.total_arrivals(),
            times: times.len(),
        }));
    }
    if !times.is_sorted() {
        return streaming_eager(forest, times, media_len, config, &mut emit);
    }
    match simulate_incremental(forest, times, media_len, config, emit) {
        Ok(run) => Ok(run.summary),
        Err(IngestError::Sim(e)) => Err(e),
        // A validated forest over sorted times replays in clock order with
        // every parent inside its own (open) tree; these are unreachable
        // and surface as model errors rather than panics.
        Err(IngestError::OutOfOrder { .. }) => Err(SimError::Model(ModelError::TimesNotSorted)),
        Err(IngestError::ParentNotOpen { node, parent }) => {
            Err(SimError::Model(ModelError::ParentNotEarlier {
                node,
                parent,
            }))
        }
    }
}

/// The eager fallback for exotic inputs with globally unsorted arrival
/// times: materialize the whole schedule (and every tree's parent column)
/// and sort the event sources.
fn streaming_eager<F: FnMut(ClientReport)>(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
    emit: &mut F,
) -> Result<StreamingSummary, SimError> {
    let specs = stream_schedule(forest, times, media_len)?;
    let media = media_len as i64; // validated by stream_schedule
    let total_units: i64 = specs.iter().map(|s| s.length).sum();
    let columns = forest
        .trees()
        .iter()
        .map(parent_column)
        .collect::<Result<Vec<_>, _>>()?;

    let mut starts: Vec<usize> = (0..specs.len()).filter(|&i| specs[i].length > 0).collect();
    starts.sort_by_key(|&i| specs[i].start);
    let mut deadlines: Vec<usize> = (0..times.len()).collect();
    deadlines.sort_by_key(|&c| times[c]);

    let mut ends: BinaryHeap<Reverse<i64>> = BinaryHeap::new();
    let mut active: u32 = 0;
    let mut profile = ProfileBuilder::new();
    let mut si = 0usize; // cursor into `starts`
    let mut ci = 0usize; // cursor into `deadlines`
    let mut scratch = EngineScratch::default();

    loop {
        // Next event instant over the three sources.
        let mut next: Option<i64> = ends.peek().map(|&Reverse(t)| t);
        if let Some(&i) = starts.get(si) {
            next = Some(next.map_or(specs[i].start, |t| t.min(specs[i].start)));
        }
        if let Some(&c) = deadlines.get(ci) {
            let d = times[c] + media;
            next = Some(next.map_or(d, |t| t.min(d)));
        }
        let Some(now) = next else { break };

        // Stream ends, then starts: the net count change at `now` is what
        // the sparse profile records (a back-to-back handoff is no change).
        let mut bandwidth_event = false;
        while ends.peek().is_some_and(|&Reverse(t)| t == now) {
            ends.pop();
            active -= 1;
            bandwidth_event = true;
        }
        while starts.get(si).is_some_and(|&i| specs[i].start == now) {
            ends.push(Reverse(specs[starts[si]].end()));
            active += 1;
            si += 1;
            bandwidth_event = true;
        }
        if bandwidth_event {
            profile.record(now, active);
        }

        // Client part-deadlines: the client's last part has played, so its
        // whole program is checkable; verify and emit.
        while deadlines.get(ci).is_some_and(|&c| times[c] + media == now) {
            let c = deadlines[ci];
            ci += 1;
            let (ti, local) = forest.locate(c);
            let base = forest.tree_start(ti);
            let parents = &columns[ti];
            let local_times = &times[base..base + parents.len()];
            let local_specs = &specs[base..base + parents.len()];
            emit(eval_client(
                parents,
                local_times,
                local_specs,
                media_len,
                base,
                local,
                config,
                &mut scratch,
            )?);
        }
    }

    Ok(StreamingSummary {
        bandwidth: profile.finish(),
        total_units,
        clients: times.len(),
    })
}

/// Node `node`'s label in a `u32` parent column. The largest `u32` stays
/// unused, so a tree holds at most `u32::MAX` nodes; past that the typed
/// [`ModelError::NodeLimitExceeded`] names the size the tree would reach.
pub(super) fn label(node: usize) -> Result<u32, ModelError> {
    u32::try_from(node)
        .ok()
        .filter(|&l| l != u32::MAX)
        .ok_or(ModelError::NodeLimitExceeded {
            nodes: node.saturating_add(1),
        })
}

/// `tree`'s parent column: each node's local parent, 0 for the root.
fn parent_column(tree: &MergeTree) -> Result<Vec<u32>, SimError> {
    label(tree.len().saturating_sub(1))?;
    (0..tree.len())
        .map(|x| label(tree.parent(x).unwrap_or(0)))
        .collect::<Result<_, _>>()
        .map_err(SimError::Model)
}

/// Reusable per-client sweep buffers: one allocation set for a whole run
/// instead of one per client.
#[derive(Debug, Default)]
struct EngineScratch {
    /// Inclusive receive-slot interval of each non-empty segment
    /// (test-only staging: the walk feeds `starts`/`ends` directly).
    #[cfg(test)]
    intervals: Vec<(i64, i64)>,
    /// Interval start slots, sorted ascending.
    starts: Vec<i64>,
    /// Exclusive interval end slots (`hi + 1`), sorted ascending.
    ends: Vec<i64>,
}

impl EngineScratch {
    /// Sorts the endpoint views if needed. The walk pushes endpoints in
    /// part order, which is often sorted already, so the check is a single
    /// ordered scan; a sort produces exactly what sorting the part-order
    /// endpoints always produced, so behavior is the same either way.
    fn sort_endpoints(&mut self) {
        if !self.starts.is_sorted() {
            self.starts.sort_unstable();
        }
        if !self.ends.is_sorted() {
            self.ends.sort_unstable();
        }
    }

    /// Loads the sorted endpoint views of `intervals` (test-only staging —
    /// the walk pushes into `starts`/`ends` directly).
    #[cfg(test)]
    fn load_endpoints(&mut self) {
        self.starts.clear();
        self.starts.extend(self.intervals.iter().map(|&(lo, _)| lo));
        self.ends.clear();
        self.ends
            .extend(self.intervals.iter().map(|&(_, hi)| hi + 1));
        self.sort_endpoints();
    }
}

/// Everything one merged endpoint walk learns about a client's reception.
#[derive(Debug, Default, PartialEq, Eq)]
struct SweepOutcome {
    /// Peak concurrent receptions (≤ 2 when compliant).
    max_concurrent: usize,
    /// Maximum of `received(τ) − played(τ)` over the playback window.
    max_buffer: i64,
    /// First `(slot, count)` where concurrency exceeded two, if any.
    violation: Option<(i64, i64)>,
}

/// Receive-two compliance *and* peak buffer occupancy in a single merged
/// walk over the sorted interval endpoints.
///
/// The concurrency half reproduces exactly the change-points (and the first
/// violating slot) of the sparse reception profile the dense scan is pinned
/// against. The buffer half exploits that `received(τ) − played(τ)` is
/// piecewise linear with slope `open_count − 1` between endpoints: for any
/// *verified* program every interval endpoint lies inside the playback
/// window `[t_c, t_c + L]` (`lo = 2t_c − t_above ≥ t_c` since every source
/// on the path arrives no later than the client, and `hi + 1 = t_j + last ≤
/// t_c + L` since `last ≤ L`), so the window clamps the former standalone
/// sweep applied are provably no-ops and the running integral evaluated at
/// each endpoint visits every candidate maximum (the window bounds
/// themselves can never beat the endpoint values: before the first `lo` and
/// after the last `hi + 1` the buffer only drains).
fn endpoint_sweep(scratch: &EngineScratch, t_c: i64, media: i64) -> SweepOutcome {
    let (starts, ends) = (&scratch.starts, &scratch.ends);
    debug_assert!(starts.first().is_none_or(|&lo| lo >= t_c));
    debug_assert!(ends.last().is_none_or(|&e| e <= t_c + media));
    let (mut si, mut ei) = (0usize, 0usize);
    let mut count = 0i64;
    let mut out = SweepOutcome::default();
    let mut prev = t_c;
    let mut buf = 0i64;
    while si < starts.len() || ei < ends.len() {
        let slot = match (starts.get(si), ends.get(ei)) {
            (Some(&s), Some(&e)) => s.min(e),
            (Some(&s), None) => s,
            (None, Some(&e)) => e,
            // Unreachable (the loop condition keeps one side non-empty),
            // but exiting the loop is the honest fallback: the tail checks
            // still run and no panic surface is introduced.
            (None, None) => break,
        };
        // Buffer at `slot`, evaluated before the count changes: the slope
        // since the previous endpoint is `count − 1` (reception minus
        // playback).
        buf += (count - 1) * (slot - prev);
        prev = slot;
        out.max_buffer = out.max_buffer.max(buf);
        let before = count;
        while ei < ends.len() && ends[ei] == slot {
            count -= 1;
            ei += 1;
        }
        while si < starts.len() && starts[si] == slot {
            count += 1;
            si += 1;
        }
        if count != before {
            if count > 2 && out.violation.is_none() {
                out.violation = Some((slot, count));
            }
            out.max_concurrent = out.max_concurrent.max(count as usize);
        }
    }
    out
}

/// The spec check of one non-empty segment `[first, last]` of client
/// `client` (at `t_c`) against its source stream, in the dense per-part
/// loop's precedence: for each part in order, "stream too short" is
/// checked before "stall", so the first failing part decides the variant.
fn spec_error(
    spec: &StreamSpec,
    first: i64,
    last: i64,
    t_c: i64,
    client: usize,
    stream: usize,
) -> Option<SimError> {
    if first > spec.length {
        return Some(SimError::StreamTooShort {
            client,
            stream,
            part: first,
            length: spec.length,
        });
    }
    if spec.start > t_c {
        return Some(SimError::Stall {
            client,
            part: first,
            received: spec.start + first - 1,
            deadline: t_c + first - 1,
        });
    }
    if last > spec.length {
        return Some(SimError::StreamTooShort {
            client,
            stream,
            part: spec.length + 1,
            length: spec.length,
        });
    }
    None
}

/// Checks one client's program against its tree's schedule and measures it,
/// in `O(segments log segments)` arithmetic — no per-slot state, no
/// allocation (everything lives in `scratch`). Unsorted input only: sorted
/// input is scored by the [`super::incremental`] engine's closed forms.
///
/// One walk from the client up `parents` visits the program's segments in
/// part order (its own stream first, the root last). At each level it
/// derives the segment in closed form (see `sm_core::ReceivingProgram`),
/// runs `ReceivingProgram::verify`'s structural checks, checks the segment
/// against its stream's spec, and pushes its receive interval. Structural
/// errors return at once — the first in part order, as `verify` reports
/// it. The first spec error (`StreamTooShort`, `Stall`) is held until the
/// walk and the final coverage check finish, so a structural error
/// anywhere on the path still wins, as it does in the dense oracle, which
/// verifies the whole program before it reads a single spec.
#[allow(clippy::too_many_arguments)] // tree-local slices + scratch, all hot
fn eval_client(
    parents: &[u32],
    local_times: &[i64],
    local_specs: &[StreamSpec],
    media_len: u64,
    base: usize,
    local: usize,
    config: SimConfig,
    scratch: &mut EngineScratch,
) -> Result<ClientReport, SimError> {
    let media = media_len as i64;
    let t_c = local_times[local];
    let global = base + local;

    scratch.starts.clear();
    scratch.ends.clear();
    let mut min_slack = i64::MAX;
    let mut held: Option<SimError> = None;
    let mut expected = 1i64;
    // Segment j reads t_{j+1} (t_c for the client's own stream), t_j and
    // t_{j−1}; walking up shifts them through registers, so each level
    // costs a single `local_times` load.
    let mut node = local;
    let mut t_above = t_c;
    let mut t_j = t_c;
    loop {
        let up = (node != 0).then(|| parents[node] as usize);
        let t_below = up.map_or(0, |p| local_times[p]);
        let first = 2 * t_c - t_above - t_j + 1;
        let last = if up.is_some() {
            2 * t_c - t_j - t_below
        } else {
            media
        };
        if last >= first {
            if first < 1 || last > media {
                let part = if first < 1 { first } else { last };
                return Err(SimError::Model(ModelError::PartOutOfRange { part }));
            }
            if first != expected {
                return Err(SimError::Model(ModelError::CoverageGap {
                    expected_part: expected,
                    found_part: first,
                }));
            }
            // Timeliness: part q is received during slot
            // [t_stream + q − 1, t_stream + q) and played during
            // [t_client + q − 1, t_client + q); the source must not be
            // later than the client (guaranteed by parent < child,
            // re-checked here against the actual times).
            if t_j > t_c {
                return Err(SimError::Model(ModelError::ParentNotEarlier {
                    node: local,
                    parent: node,
                }));
            }
            expected = last + 1;
            if held.is_none() {
                let spec = &local_specs[node];
                held = spec_error(spec, first, last, t_c, global, base + node);
                // Part q arrives at the end of slot t_j + q − 1 and plays
                // in slot t_c + q − 1: slack is t_c − t_j for every part
                // of the segment. (Once `held` is set, the walk's
                // measurements are discarded.)
                min_slack = min_slack.min(t_c - spec.start);
                scratch.starts.push(spec.start + first - 1);
                scratch.ends.push(spec.start + last);
            }
        }
        let Some(p) = up else { break };
        node = p;
        t_above = t_j;
        t_j = t_below;
    }
    if expected != media + 1 {
        return Err(SimError::Model(ModelError::CoverageGap {
            expected_part: expected,
            found_part: media + 1,
        }));
    }
    if let Some(e) = held {
        return Err(e);
    }
    scratch.sort_endpoints();

    // Receive-two (segment intervals may overlap at most pairwise — the
    // first endpoint whose net coverage exceeds 2 is exactly the slot the
    // dense scan reports) and buffer occupancy (received(τ) − played(τ)
    // maximized over the playback window; a part received in slot τ′ is
    // *in hand* from τ′ + 1 on), both from one merged endpoint walk.
    let sweep = endpoint_sweep(scratch, t_c, media);
    if let Some((slot, count)) = sweep.violation {
        return Err(SimError::ReceiveTwoViolation {
            client: global,
            slot,
            count: count as usize,
        });
    }
    let max_buffer = sweep.max_buffer;

    if let Some(bound) = config.buffer_bound {
        if max_buffer > bound as i64 {
            return Err(SimError::BufferOverflow {
                client: global,
                needed: max_buffer,
                bound,
            });
        }
    }
    Ok(ClientReport {
        client: global,
        max_buffer,
        max_concurrent: sweep.max_concurrent,
        min_slack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::consecutive_slots;

    /// Quadratic reference for the endpoint sweep: evaluate occupancy at
    /// every candidate by re-summing all segments.
    fn max_buffer_quadratic(intervals: &[(i64, i64)], t_c: i64, media: i64) -> i64 {
        let occupancy = |tau: i64| -> i64 {
            let received: i64 = intervals
                .iter()
                .map(|&(lo, hi)| (tau - lo).clamp(0, hi - lo + 1))
                .sum();
            received - (tau - t_c).clamp(0, media)
        };
        let clamp_window = |tau: i64| tau.clamp(t_c, t_c + media);
        let mut max_buffer = 0i64;
        for &(lo, hi) in intervals {
            max_buffer = max_buffer.max(occupancy(clamp_window(lo)));
            max_buffer = max_buffer.max(occupancy(clamp_window(hi + 1)));
        }
        max_buffer.max(occupancy(t_c)).max(occupancy(t_c + media))
    }

    fn sweep_with(intervals: &[(i64, i64)], t_c: i64, media: i64) -> i64 {
        let mut scratch = EngineScratch::default();
        scratch.intervals.extend_from_slice(intervals);
        scratch.load_endpoints();
        endpoint_sweep(&scratch, t_c, media).max_buffer
    }

    #[test]
    fn sweep_matches_quadratic_reference() {
        // Deterministic pseudo-random interval sets — overlapping, nested,
        // touching, deeply stacked — drawn inside the playback window, the
        // domain the verify pass establishes before the sweep ever runs
        // (every interval of a verified program lies within
        // [t_c, t_c + media]).
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..500 {
            let t_c = (next() % 50) as i64 - 25;
            let media = 1 + (next() % 40) as i64;
            let n = (case % 7) as usize;
            let intervals: Vec<(i64, i64)> = (0..n)
                .map(|_| {
                    let lo = t_c + (next() % media as u64) as i64;
                    let len = (next() % 12) as i64;
                    (lo, (lo + len).min(t_c + media - 1))
                })
                .collect();
            assert_eq!(
                sweep_with(&intervals, t_c, media),
                max_buffer_quadratic(&intervals, t_c, media),
                "case {case}: t_c={t_c} media={media} intervals={intervals:?}"
            );
        }
    }

    #[test]
    fn receive_two_sweep_matches_sparse_profile() {
        // Same randomized interval sets: the merged endpoint walk must see
        // exactly the change-points (and max) of the sparse profile.
        let mut state = 0x1319_8A2E_0370_7344u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..500 {
            let n = (case % 6) as usize;
            let intervals: Vec<(i64, i64)> = (0..n)
                .map(|_| {
                    let lo = (next() % 30) as i64;
                    (lo, lo + (next() % 10) as i64)
                })
                .collect();
            let mut scratch = EngineScratch::default();
            scratch.intervals.extend_from_slice(&intervals);
            scratch.load_endpoints();
            let swept = endpoint_sweep(&scratch, 0, 64);
            let reference =
                BandwidthProfile::from_intervals(intervals.iter().map(|&(lo, hi)| (lo, hi + 1)));
            let first_violation = reference
                .change_points()
                .iter()
                .find(|&&(_, count)| count > 2)
                .map(|&(slot, count)| (slot, count as i64));
            assert_eq!(swept.violation, first_violation, "case {case}");
            if first_violation.is_none() {
                assert_eq!(swept.max_concurrent as u32, reference.peak(), "case {case}");
            }
        }
    }

    #[test]
    fn sweep_on_no_intervals_is_zero() {
        assert_eq!(sweep_with(&[], 5, 10), 0);
        assert_eq!(sweep_with(&[], 0, 0), 0);
    }

    #[test]
    fn spaced_singleton_trees_emit_in_arrival_order() {
        // Singleton trees at widely spaced times: each client's deadline
        // fires before the next arrival, so reports come out in arrival
        // order and at most one full stream is ever live.
        let n = 64usize;
        let media = 5u64;
        let trees = vec![MergeTree::singleton(); n];
        let forest = MergeForest::from_trees(trees).unwrap();
        let times: Vec<i64> = (0..n as i64).map(|i| i * 100).collect();
        let mut served = 0usize;
        let summary = simulate_streaming_slice(&forest, &times, media, SimConfig::events(), |r| {
            assert_eq!(r.client, served, "deadline order is arrival order");
            served += 1;
        })
        .unwrap();
        assert_eq!(served, n);
        assert_eq!(summary.total_units, n as i64 * media as i64);
        assert_eq!(summary.bandwidth.peak(), 1);
    }

    #[test]
    fn deep_chain_tree_streams_cleanly() {
        // One maximal-depth feasible chain: L ≥ 2(c − 1) with consecutive
        // arrivals. Exercises the sweep on many-segment programs.
        let media = 60u64;
        let c = (media / 2 + 1) as usize;
        let forest = MergeForest::single(MergeTree::chain(c));
        let times = consecutive_slots(c);
        let mut reports = Vec::new();
        let summary = simulate_streaming_slice(&forest, &times, media, SimConfig::events(), |r| {
            reports.push(r)
        })
        .unwrap();
        assert_eq!(reports.len(), c);
        assert_eq!(
            summary.total_units,
            sm_core::full_cost(&forest, &times, media)
        );
        for r in &reports {
            assert!(r.max_concurrent <= 2);
        }
    }
}
