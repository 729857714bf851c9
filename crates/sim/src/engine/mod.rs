//! The execution engine.
//!
//! One event engine replays every client's receiving program against the
//! concrete broadcast schedule and fails with the *first* violation —
//! stall, receive-two breach, buffer overflow, or a program/schedule
//! mismatch. Every batch entry point takes arrivals in time order, as the
//! paper numbers them: before it scores or emits any client it rejects a
//! times vector that ever decreases with [`SimError::TimesOutOfOrder`]
//! (ties are legal).
//!
//! * [`events`] — the streaming entry point [`simulate_streaming_slice`]
//!   and the collecting run behind [`simulate_with`]: both check their
//!   input, then replay it through the incremental driver below.
//! * [`incremental`] — the one driver for time-ordered arrivals: they push
//!   in one at a time ([`IncrementalEngine::push`]), each appending a
//!   parent, a top (the root's child on its path) and a time to the open
//!   tree's columns in `O(1)`. Each client's report comes in `O(1)` from
//!   Lemma 1's closed forms over three arrival times, and streams out as
//!   its deadline fires during ingest; each tree's stream lengths are
//!   computed once, when it closes, and its stream ends live in a binary
//!   min-heap — no forest, no horizon, no times slice up front, and memory
//!   proportional to the *open* trees and active streams. The serving loop
//!   drives it directly.
//!
//! The `engine_equivalence` proptest suite pins every entry point and the
//! push interface bit-identical to a slot-stepped dense reference that
//! lives in the suite's test support and shares none of these closed
//! forms.

pub mod events;
pub mod incremental;

use crate::error::SimError;
use crate::metrics::BandwidthProfile;
use crate::schedule::checked_media_len;
use sm_core::{MergeForest, ModelError};

pub use events::{simulate_streaming_slice, StreamingSummary};
pub use incremental::{Attach, IncrementalEngine, IncrementalSummary, IngestError};

/// Execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimConfig {
    /// Fail if a client would need more than this many buffered parts.
    pub buffer_bound: Option<u64>,
}

impl SimConfig {
    /// The same value as [`SimConfig::default`]; the name dates from when
    /// a second engine could be selected.
    pub fn events() -> Self {
        Self::default()
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

/// Simulates with the default configuration.
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
    events::run(forest, times, media_len, config)
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
