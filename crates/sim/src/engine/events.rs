//! The discrete-event engine's entry points, its per-client evaluator, and
//! the fallback for unsorted arrivals.
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
//!   slot-ordered input: trees are retained only while their clients'
//!   playback windows are open, stream ends live in a min-heap, and each
//!   closing tree's starts merge in as a sorted run.
//! * **Unsorted arrivals** (sibling order need not follow time order) take
//!   an eager fallback here that materializes the schedule and every
//!   tree's [`TreeArena`] and sorts the start and deadline sources; results
//!   are identical either way.
//!
//! Both drivers evaluate clients with the same allocation-free code path:
//! all per-client state — the receiving program in struct-of-arrays form
//! and the sweep buffers — lives in a single `EngineScratch` reused across
//! every client of the run. The pointer-based `MergeTree`/`ReceivingProgram`
//! stay the validated constructors; the [`dense`](super::dense) oracle keeps
//! using them directly so the arena lowering itself is cross-checked by
//! equivalence.
//!
//! Bandwidth is metered sparsely: the active-stream count is recorded only
//! when it changes, yielding the change-point [`BandwidthProfile`] directly
//! — no per-slot allocation over the span ever happens.
//!
//! Per-client metrics are computed in closed form from the receiving
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
use sm_core::{MergeForest, ModelError, TreeArena};

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
        Err(streaming_err) => {
            // The stream fails at the earliest part-deadline violation; the
            // dense engine reports the lowest-*index* violation. Those only
            // differ when arrival times are not globally nondecreasing —
            // replay client checks in index order so the reported error is
            // identical either way. Error path only: no cost on success.
            let specs = stream_schedule(forest, times, media_len)?;
            let mut scratch = EngineScratch::default();
            let mut arena = TreeArena::new();
            for (range, tree) in forest.iter_with_ranges() {
                arena.lower_into(tree).map_err(SimError::Model)?;
                let base = range.start;
                let local_times = &times[range.clone()];
                let local_specs = &specs[range];
                for local in 0..arena.len() {
                    eval_client(
                        &arena,
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
/// times: materialize the whole schedule (and every tree's arena) and sort
/// the event sources.
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
    let mut arenas: Vec<TreeArena> = Vec::with_capacity(forest.num_trees());
    for tree in forest.trees() {
        arenas.push(TreeArena::lower(tree).map_err(SimError::Model)?);
    }

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
            let arena = &arenas[ti];
            let local_times = &times[base..base + arena.len()];
            let local_specs = &specs[base..base + arena.len()];
            emit(eval_client(
                arena,
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

/// Reusable per-client evaluation buffers: one allocation set for a whole
/// run instead of one per client. The receiving program is held in
/// struct-of-arrays form (`seg_stream`/`seg_first`/`seg_last` parallel
/// columns) — the arena counterpart of `ReceivingProgram`, rebuilt in
/// place with identical output and identical `verify` semantics. Shared
/// with the push-based [`super::incremental`] engine so both evaluate
/// clients with the very same code path.
#[derive(Debug, Default)]
pub(super) struct EngineScratch {
    /// Root path of the client under evaluation (local indices).
    path: Vec<usize>,
    /// Receiving-program segments in part order, struct-of-arrays: source
    /// stream (local index), first and last part (1-based, inclusive).
    seg_stream: Vec<usize>,
    seg_first: Vec<i64>,
    seg_last: Vec<i64>,
    /// Inclusive receive-slot interval of each non-empty segment
    /// (test-only staging: the hot path feeds `starts`/`ends` directly).
    #[cfg(test)]
    intervals: Vec<(i64, i64)>,
    /// Interval start slots, sorted ascending.
    starts: Vec<i64>,
    /// Exclusive interval end slots (`hi + 1`), sorted ascending.
    ends: Vec<i64>,
}

impl EngineScratch {
    /// Rebuilds `client`'s receiving program into the segment columns and
    /// verifies it in the same pass — the struct-of-arrays fusion of
    /// `ReceivingProgram::rebuild` + `verify`: bit-identical segments and
    /// errors (rebuild is infallible and verify rejects at the first
    /// offending segment in part order — exactly the order segments are
    /// generated here, so checking each segment as it is built reports the
    /// identical first error), no per-client allocation once the columns
    /// have capacity.
    fn rebuild_and_verify_program(
        &mut self,
        arena: &TreeArena,
        times: &[i64],
        media: i64,
        client: usize,
    ) -> Result<(), ModelError> {
        debug_assert_eq!(times.len(), arena.len());
        arena.path_from_root_into(client, &mut self.path);
        let path = &self.path;
        let k = path.len() - 1;
        let tk = times[path[k]];
        let client_time = times[client];
        self.seg_stream.clear();
        self.seg_first.clear();
        self.seg_last.clear();
        let mut expected = 1i64;
        // j runs from the client's own stream (j = k) down to the root;
        // the three path times each closed form reads (`t_{j+1}`, `t_j`,
        // `t_{j−1}`) shift through registers so each level costs a single
        // `times` load.
        let mut t_above = tk;
        let mut tj = tk;
        for j in (0..=k).rev() {
            let t_below = if j == 0 { 0 } else { times[path[j - 1]] };
            let first = 2 * tk - t_above - tj + 1;
            let last = if j == 0 { media } else { 2 * tk - tj - t_below };
            self.seg_stream.push(path[j]);
            self.seg_first.push(first);
            self.seg_last.push(last);
            if last >= first {
                if first < 1 || last > media {
                    let part = if first < 1 { first } else { last };
                    return Err(ModelError::PartOutOfRange { part });
                }
                if first != expected {
                    return Err(ModelError::CoverageGap {
                        expected_part: expected,
                        found_part: first,
                    });
                }
                // Timeliness: part q is received during slot
                // [t_stream + q − 1, t_stream + q) and played during
                // [t_client + q − 1, t_client + q); the source must not be
                // later than the client (guaranteed by parent < child,
                // re-checked here against the actual times).
                if tj > client_time {
                    return Err(ModelError::ParentNotEarlier {
                        node: client,
                        parent: path[j],
                    });
                }
                expected = last + 1;
            }
            t_above = tj;
            tj = t_below;
        }
        if expected != media + 1 {
            return Err(ModelError::CoverageGap {
                expected_part: expected,
                found_part: media + 1,
            });
        }
        Ok(())
    }

    /// Sorts the endpoint views if needed. The hot path pushes endpoints in
    /// part order, which the closed forms keep sorted for every program the
    /// verify pass admits on sorted arrivals, so the common case is a single
    /// ordered scan with no swap; the sorts only fire on adversarial inputs
    /// (and produce exactly what sorting the part-order endpoints always
    /// produced, so behavior is unchanged either way).
    fn sort_endpoints(&mut self) {
        if !self.starts.is_sorted() {
            self.starts.sort_unstable();
        }
        if !self.ends.is_sorted() {
            self.ends.sort_unstable();
        }
    }

    /// Loads the sorted endpoint views of `intervals` (test-only staging —
    /// the hot path pushes into `starts`/`ends` directly).
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

/// Checks one client's program against its tree's schedule and measures it,
/// in `O(segments log segments)` arithmetic — no per-slot state, no
/// allocation (everything lives in `scratch`). Also the evaluator of the
/// push-based [`super::incremental`] engine (same code path, so the two
/// engines cannot drift apart on per-client semantics).
#[allow(clippy::too_many_arguments)] // tree-local slices + scratch, all hot
pub(super) fn eval_client(
    arena: &TreeArena,
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

    scratch
        .rebuild_and_verify_program(arena, local_times, media, local)
        .map_err(SimError::Model)?;

    // Per-segment closed forms, pushing each non-empty segment's inclusive
    // receive-slot interval straight into the endpoint views.
    let mut min_slack = i64::MAX;
    scratch.starts.clear();
    scratch.ends.clear();
    for s in 0..scratch.seg_stream.len() {
        let (first, last) = (scratch.seg_first[s], scratch.seg_last[s]);
        if last < first {
            continue;
        }
        let stream = scratch.seg_stream[s];
        let spec = &local_specs[stream];
        // Mirrors the dense per-part loop's error precedence: for each part
        // in order, "stream too short" is checked before "stall", so the
        // first failing part decides the variant.
        if first > spec.length {
            return Err(SimError::StreamTooShort {
                client: global,
                stream: base + stream,
                part: first,
                length: spec.length,
            });
        }
        if spec.start > t_c {
            return Err(SimError::Stall {
                client: global,
                part: first,
                received: spec.start + first - 1,
                deadline: t_c + first - 1,
            });
        }
        if last > spec.length {
            return Err(SimError::StreamTooShort {
                client: global,
                stream: base + stream,
                part: spec.length + 1,
                length: spec.length,
            });
        }
        // Part q arrives at the end of slot t_j + q − 1 and plays in slot
        // t_c + q − 1: slack is t_c − t_j for every part of the segment.
        min_slack = min_slack.min(t_c - spec.start);
        scratch.starts.push(spec.start + first - 1);
        scratch.ends.push(spec.start + last);
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
    use sm_core::{consecutive_slots, MergeTree, ReceivingProgram};

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
    fn soa_program_matches_receiving_program_rebuild() {
        // The scratch's SoA rebuild + verify must agree with the
        // pointer-based `ReceivingProgram` on the paper's Fig. 4 tree,
        // client by client, segment by segment.
        let tree = MergeTree::from_parents(&[
            None,
            Some(0),
            Some(0),
            Some(0),
            Some(3),
            Some(0),
            Some(5),
            Some(5),
        ])
        .unwrap();
        let times = consecutive_slots(8);
        let arena = TreeArena::lower(&tree).unwrap();
        let mut scratch = EngineScratch::default();
        for client in 0..tree.len() {
            let prog = ReceivingProgram::build(&tree, &times, 15, client);
            let verdict = scratch.rebuild_and_verify_program(&arena, &times, 15, client);
            assert_eq!(verdict, prog.verify(&times, 15), "client {client}");
            assert_eq!(scratch.path, prog.path, "client {client}");
            let soa: Vec<(usize, i64, i64)> = (0..scratch.seg_stream.len())
                .map(|s| {
                    (
                        scratch.seg_stream[s],
                        scratch.seg_first[s],
                        scratch.seg_last[s],
                    )
                })
                .collect();
            let reference: Vec<(usize, i64, i64)> = prog
                .segments
                .iter()
                .map(|seg| (seg.stream, seg.first_part, seg.last_part))
                .collect();
            assert_eq!(soa, reference, "client {client}");
        }
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
