#![forbid(unsafe_code)]
//! Discrete-event Media-on-Demand simulator — the correctness oracle of the
//! reproduction.
//!
//! The paper evaluates schedules analytically; this crate *executes* them.
//! Given a merge forest over slotted arrivals in time order (as the paper
//! numbers them; a times vector that ever decreases is rejected), it
//! derives the concrete broadcast schedule (which stream transmits which
//! part in which slot, as in the paper's Fig. 3), replays every client's
//! receiving program against that schedule, and independently re-measures
//! every quantity the theory predicts:
//!
//! * **uninterrupted playback** — every part arrives no later than its
//!   playback slot;
//! * **receive-two compliance** — no client ever listens to more than two
//!   streams in a slot;
//! * **buffer occupancy** — peak buffer per client (equals Lemma 15's
//!   `min(x−r, L−(x−r))`);
//! * **server bandwidth** — per-slot stream count; the total must equal the
//!   analytic `Fcost` of the forest.
//!
//! A schedule passing [`simulate`] is, by construction, a feasible
//! delay-guaranteed Media-on-Demand service plan.
//!
//! There is one engine. [`simulate`], [`simulate_with`] and
//! [`simulate_streaming_slice`] are its batch entry points, and a serving
//! loop drives it one arrival at a time through [`IncrementalEngine`]. The
//! slot-stepped dense oracle it is pinned against is test support
//! (`tests/support/dense.rs`), not public API.

pub mod channels;
pub mod continuous;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod schedule;

pub use channels::{assign_channels, ChannelPlan};
pub use continuous::{verify_continuous, ContinuousError};
pub use engine::{
    simulate, simulate_streaming_slice, simulate_with, Attach, ClientReport, IncrementalEngine,
    IncrementalSummary, IngestError, SimConfig, SimReport, StreamingSummary,
};
pub use error::SimError;
pub use metrics::BandwidthProfile;
pub use schedule::{stream_schedule, StreamSpec};
