//! The discrete-event engine's batch entry points.
//!
//! Where the [`dense`](super::dense) engine sweeps every slot of every
//! client's playback window, this engine advances time only at *events*:
//! stream starts, stream ends, and per-client part-deadlines (each
//! client's program ends with part `L` playing during `[t_c+L−1, t_c+L)`;
//! the final deadline `t_c + L` is the event at which the client's whole
//! program is checked and its report emitted).
//!
//! Once the batch contract is checked (one time per arrival, times that
//! never decrease, a media length that fits `i64`), every input replays
//! through the push-based [`incremental`](super::incremental) engine, the
//! one driver for time-ordered arrivals: it scores each client in
//! `O(1)` from Lemma 1's closed forms, computes each tree's stream lengths
//! once when the tree closes, retains trees only while their clients'
//! playback windows are open, keeps stream ends in a min-heap, and merges
//! each closing tree's starts in as a sorted run. Its first error is the
//! one [`super::simulate_with`] reports.
//!
//! Bandwidth is metered sparsely: the active-stream count is recorded only
//! when it changes, yielding the change-point [`BandwidthProfile`] directly
//! — no per-slot allocation over the span ever happens.
//!
//! All of this reproduces the dense engine's measurements *bit for bit*
//! (including which error fires first); the `engine_equivalence` proptest
//! suite pins that, for the collected and the streaming API both.

use super::incremental::replay;
use super::{check_batch, ClientReport, SimConfig, SimReport};
use crate::error::SimError;
use crate::metrics::BandwidthProfile;
use sm_core::{MergeForest, ModelError};

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

/// Runs the event engine over input [`super::simulate_with`] has checked
/// and collects a full [`SimReport`]; reports are emitted, and so
/// collected, in arrival order.
pub(super) fn run(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    let mut clients = Vec::with_capacity(times.len());
    let summary = replay(forest, times, media_len, config, |r| clients.push(r))?.summary;
    Ok(SimReport {
        bandwidth: summary.bandwidth,
        total_units: summary.total_units,
        clients,
    })
}

/// Event-driven simulation with streaming per-client reports over an
/// arrival-times slice.
///
/// `emit` is called once per client, in part-deadline order (`t_c + L`,
/// ties by arrival index, which is arrival order since times never
/// decrease), as soon as the client's program completes — nothing
/// per-client is retained afterwards, so peak memory tracks the trees
/// whose playback windows are open and the active streams rather than the
/// whole arrival sequence. `config.buffer_bound` is honored;
/// `config.engine` is ignored (this *is* the event engine).
///
/// Returns the whole-run aggregates. Input is checked as
/// [`super::simulate_with`] checks it, before any client is emitted; past
/// that it fails at the first violating part-deadline, with the error
/// `simulate_with` reports.
pub fn simulate_streaming_slice<F: FnMut(ClientReport)>(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
    emit: F,
) -> Result<StreamingSummary, SimError> {
    check_batch(forest, times, media_len)?;
    Ok(replay(forest, times, media_len, config, emit)?.summary)
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

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{consecutive_slots, MergeTree};

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
        // arrivals, so every client's program has the most segments.
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
