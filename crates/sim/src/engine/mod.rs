//! The execution engines.
//!
//! Three engines replay every client's receiving program against the
//! concrete broadcast schedule and fail with the *first* violation —
//! stall, receive-two breach, buffer overflow, or a program/schedule
//! mismatch. Every batch entry point takes arrivals in time order, as the
//! paper numbers them: before it scores or emits any client it rejects a
//! times vector that ever decreases with [`SimError::TimesOutOfOrder`]
//! (ties are legal).
//!
//! * [`dense`] — the original slot-stepped oracle: every client is swept
//!   over every slot of its playback window (`O(clients · L²)` time,
//!   `O(L)` scratch per client). Simple, and kept as the reference.
//! * [`events`] — the discrete-event engine's batch entry points, which
//!   replay every input through the incremental driver below.
//! * [`incremental`] — the one driver for time-ordered arrivals: they push
//!   in one at a time ([`IncrementalEngine::push`]), each appending a
//!   parent, a top (the root's child on its path) and a time to the open
//!   tree's columns in `O(1)`. Each client's report comes in `O(1)` from
//!   Lemma 1's closed forms over three arrival times, and streams out as
//!   its deadline fires during ingest; each tree's stream lengths are
//!   computed once, when it closes, and its stream ends live in a binary
//!   min-heap — no forest, no horizon, no times slice up front, and memory
//!   proportional to the *open* trees and active streams. The serving loop
//!   drives it directly; [`simulate_incremental`] replays a batch through
//!   it.
//!
//! All produce bit-identical reports (pinned by the `engine_equivalence`
//! proptest suite); [`SimConfig::engine`] selects the dense oracle or the
//! event engine, while the incremental engine is also driven through its
//! own push interface.

pub mod dense;
pub mod events;
pub mod incremental;

use crate::error::SimError;
use crate::metrics::BandwidthProfile;
use crate::schedule::checked_media_len;
use sm_core::{MergeForest, ModelError};

pub use events::{simulate_streaming_slice, StreamingSummary};
pub use incremental::{
    simulate_incremental, Attach, IncrementalEngine, IncrementalSummary, IngestError,
};

/// Which execution engine to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// Slot-stepped reference engine (`O(span · clients)` time).
    Dense,
    /// Event-driven engine (default): heap-scheduled, sparse accounting.
    #[default]
    Events,
}

/// Execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimConfig {
    /// Fail if a client would need more than this many buffered parts.
    pub buffer_bound: Option<u64>,
    /// Engine selection; defaults to [`Engine::Events`].
    pub engine: Engine,
}

impl SimConfig {
    /// Default configuration on the slot-stepped reference engine.
    pub fn dense() -> Self {
        Self {
            engine: Engine::Dense,
            ..Self::default()
        }
    }

    /// Default configuration on the event-driven engine.
    pub fn events() -> Self {
        Self {
            engine: Engine::Events,
            ..Self::default()
        }
    }
}

/// Per-client measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    /// Global arrival index.
    pub client: usize,
    /// Peak number of parts held in the buffer: `min(d, L − d)`, where `d`
    /// is the client's distance from its root's arrival.
    pub max_buffer: i64,
    /// Peak number of simultaneously received streams (at most 2; 0 when
    /// `L = 0`).
    pub max_concurrent: usize,
    /// Slack (in slots) between each part's arrival and its playback,
    /// minimised over parts: 0 means some part arrives just in time. It is
    /// 0 whenever `L ≥ 1`; with `L = 0` there are no parts and it is
    /// `i64::MAX`.
    pub min_slack: i64,
}

/// Whole-run measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Server bandwidth at its change-points (sparse).
    pub bandwidth: BandwidthProfile,
    /// Total transmitted slot-units (must equal the analytic `Fcost`).
    pub total_units: i64,
    /// Per-client reports, by global arrival index.
    pub clients: Vec<ClientReport>,
}

/// Simulates with default configuration (event-driven engine).
pub fn simulate(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
) -> Result<SimReport, SimError> {
    simulate_with(forest, times, media_len, SimConfig::default())
}

/// Simulates a merge forest over slotted arrivals.
///
/// Every client of every tree is executed: its receiving program is built
/// from the tree structure, then *checked against the broadcast schedule*
/// (the schedule knows only stream lengths; the program knows only the
/// tree path — agreement is the Lemma 1 ↔ §2 consistency the paper relies
/// on).
///
/// Before it scores any client it fails on malformed input, checked in
/// this order: a times vector that does not hold one time per arrival,
/// times that ever decrease ([`SimError::TimesOutOfOrder`]; ties are
/// legal), and a `media_len` beyond `i64`. Otherwise the error is the
/// first violating client's, and reports come in arrival order.
///
/// An empty forest over zero arrivals yields an empty report.
pub fn simulate_with(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    check_batch(forest, times, media_len)?;
    match config.engine {
        Engine::Dense => dense::run(forest, times, media_len, config),
        Engine::Events => events::run(forest, times, media_len, config),
    }
}

/// The batch input contract that every batch entry point checks first, in
/// [`simulate_with`]'s order.
fn check_batch(forest: &MergeForest, times: &[i64], media_len: u64) -> Result<(), SimError> {
    if times.len() != forest.total_arrivals() {
        return Err(SimError::Model(ModelError::TimesLengthMismatch {
            nodes: forest.total_arrivals(),
            times: times.len(),
        }));
    }
    // One scan on the accepted path; the first decrease is searched for
    // only once it is known to exist.
    if !times.is_sorted() {
        if let Some(i) = times.windows(2).position(|w| w[1] < w[0]) {
            return Err(SimError::TimesOutOfOrder {
                index: i + 1,
                time: times[i + 1],
                previous: times[i],
            });
        }
    }
    checked_media_len(media_len)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{consecutive_slots, full_cost, required_buffer, MergeTree};

    const ENGINES: [Engine; 2] = [Engine::Dense, Engine::Events];

    fn cfg(engine: Engine) -> SimConfig {
        SimConfig {
            engine,
            ..SimConfig::default()
        }
    }

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

    #[test]
    fn fig3_executes_cleanly() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for engine in ENGINES {
            let report = simulate_with(&forest, &times, 15, cfg(engine)).unwrap();
            assert_eq!(report.total_units, 36);
            assert_eq!(report.total_units, full_cost(&forest, &times, 15));
            assert_eq!(report.clients.len(), 8);
        }
    }

    #[test]
    fn measured_buffers_match_lemma15() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for engine in ENGINES {
            let report = simulate_with(&forest, &times, 15, cfg(engine)).unwrap();
            let tree = &forest.trees()[0];
            for cr in &report.clients {
                assert_eq!(
                    cr.max_buffer,
                    required_buffer(tree, &times, 15, cr.client),
                    "client {} ({engine:?})",
                    cr.client
                );
            }
        }
    }

    #[test]
    fn no_client_exceeds_two_streams() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for engine in ENGINES {
            let report = simulate_with(&forest, &times, 15, cfg(engine)).unwrap();
            for cr in &report.clients {
                assert!(cr.max_concurrent <= 2);
            }
        }
    }

    #[test]
    fn stall_detected_when_media_too_short() {
        // The Fig. 4 shape with L = 8: client 7's program needs parts past
        // what the root can deliver in time.
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for engine in ENGINES {
            let err = simulate_with(&forest, &times, 8, cfg(engine)).unwrap_err();
            // Either a coverage failure or a stall, depending on which
            // client trips first — both are model-consistency failures.
            match err {
                SimError::Model(_) | SimError::Stall { .. } | SimError::StreamTooShort { .. } => {}
                other => panic!("unexpected error {other:?} ({engine:?})"),
            }
        }
    }

    #[test]
    fn buffer_bound_enforced() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for engine in ENGINES {
            let err = simulate_with(
                &forest,
                &times,
                15,
                SimConfig {
                    buffer_bound: Some(3),
                    engine,
                },
            )
            .unwrap_err();
            assert!(matches!(err, SimError::BufferOverflow { .. }), "{engine:?}");
        }
    }

    #[test]
    fn slack_is_zero_for_just_in_time_parts() {
        // Clients receive their first parts exactly as they play them.
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for engine in ENGINES {
            let report = simulate_with(&forest, &times, 15, cfg(engine)).unwrap();
            for cr in &report.clients {
                assert_eq!(cr.min_slack, 0, "client {} ({engine:?})", cr.client);
            }
        }
    }

    #[test]
    fn bandwidth_profile_peaks_match_fig3() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for engine in ENGINES {
            let report = simulate_with(&forest, &times, 15, cfg(engine)).unwrap();
            // At slot 7 streams A, D(3..8), F(5..14), H(7..9) are live -> 4
            // concurrent; G lives only in slot 6..7.
            assert!(report.bandwidth.peak() >= 4);
            assert_eq!(report.bandwidth.total_units(), 36);
        }
    }

    #[test]
    fn multi_tree_forest_simulates() {
        let t = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let forest = MergeForest::from_trees(vec![t.clone(), t]).unwrap();
        let times = consecutive_slots(6);
        for engine in ENGINES {
            let report = simulate_with(&forest, &times, 10, cfg(engine)).unwrap();
            assert_eq!(report.total_units, 2 * 10 + 3 + 3);
        }
    }

    #[test]
    fn empty_forest_yields_empty_report() {
        // Regression: zero arrivals used to be unconstructible/panicky; it
        // must now produce an empty report on both engines.
        let forest = MergeForest::empty();
        for engine in ENGINES {
            let report = simulate_with(&forest, &[], 15, cfg(engine)).unwrap();
            assert_eq!(report.total_units, 0);
            assert!(report.clients.is_empty());
            assert!(report.bandwidth.is_empty());
            assert_eq!(report.bandwidth.peak(), 0);
        }
    }

    #[test]
    fn single_arrival_forest_simulates() {
        let forest = MergeForest::single(MergeTree::singleton());
        let times = [5i64];
        for engine in ENGINES {
            let report = simulate_with(&forest, &times, 12, cfg(engine)).unwrap();
            assert_eq!(report.total_units, 12);
            assert_eq!(report.clients.len(), 1);
            let cr = &report.clients[0];
            assert_eq!(cr.max_buffer, 0);
            assert_eq!(cr.max_concurrent, 1);
            assert_eq!(cr.min_slack, 0);
            assert_eq!(report.bandwidth.peak(), 1);
        }
    }

    #[test]
    fn zero_media_len_simulates_to_nothing() {
        // Regression: L = 0 exercised the per-slot vectors' edge cases. A
        // forest of singleton trees is the only feasible shape (no parts to
        // deliver, so every receiving program is empty).
        let trees = vec![MergeTree::singleton(); 3];
        let forest = MergeForest::from_trees(trees).unwrap();
        let times = [0i64, 4, 9];
        for engine in ENGINES {
            let report = simulate_with(&forest, &times, 0, cfg(engine)).unwrap();
            assert_eq!(report.total_units, 0);
            assert_eq!(report.clients.len(), 3);
            for cr in &report.clients {
                assert_eq!(cr.max_buffer, 0);
                assert_eq!(cr.max_concurrent, 0);
                assert_eq!(cr.min_slack, i64::MAX, "no parts -> vacuous slack");
            }
        }
    }

    #[test]
    fn decreasing_times_are_rejected_and_ties_simulate() {
        // Sibling order follows index order; a later sibling may not
        // arrive earlier.
        let tree = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let forest = MergeForest::single(tree);
        for engine in ENGINES {
            let err = simulate_with(&forest, &[0, 5, 2], 40, cfg(engine)).unwrap_err();
            assert_eq!(
                err,
                SimError::TimesOutOfOrder {
                    index: 2,
                    time: 2,
                    previous: 5
                },
                "{engine:?}"
            );
            let report = simulate_with(&forest, &[0, 2, 2], 40, cfg(engine)).unwrap();
            assert_eq!(report.clients.len(), 3, "{engine:?}");
        }
    }

    #[test]
    fn media_len_overflow_is_rejected_up_front() {
        let forest = MergeForest::single(MergeTree::singleton());
        for engine in ENGINES {
            let err = simulate_with(&forest, &[0], u64::MAX, cfg(engine)).unwrap_err();
            assert!(matches!(err, SimError::MediaLenOverflow { .. }));
        }
    }
}
