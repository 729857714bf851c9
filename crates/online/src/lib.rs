#![forbid(unsafe_code)]
//! On-line algorithms (paper §4).
//!
//! * [`delay_guaranteed`] — the paper's on-line algorithm: without knowing
//!   the time horizon, start a full stream every `F_h` slots
//!   (`F_{h+1} < L+2 ≤ F_{h+2}`) and fit arrivals into a *precomputed*
//!   optimal merge tree of `F_h` arrivals. No on-line decisions at all:
//!   a slot's place in the template is a table lookup (`O(1)` per
//!   arrival), its receiving program follows from the template, and
//!   Theorems 21/22 bound its cost against the off-line optimum.
//! * [`dyadic`] — the (α,β)-dyadic stream-merging algorithm of Coffman,
//!   Jelenković and Momčilović \[9\], the comparison baseline of §4.2
//!   (stack-based on-line construction, immediate or batched service).
//! * [`batching`] — plain batching (a full stream per non-empty delay
//!   window), the classical baseline of Theorem 14.
//! * [`patching`] — the depth-one merging predecessor (threshold patching,
//!   with the classical optimal-threshold formula) [22, 18, 35].
//! * [`hierarchical`] — the greedy ERMT policy family of
//!   Eager–Vernon–Zahorjan \[16\], benchmarked by the study \[4\] the paper's
//!   §4.2 relies on.
//! * [`incremental`] — the §4 algorithms as explicit arrival-at-a-time
//!   state machines: `push(arrival) -> MergeDecision`, with the batch
//!   reconstruction functions reimplemented as a fold over the decision
//!   stream.
//! * [`analysis`] — the competitive bounds of Theorems 21 and 22.
//! * [`hybrid`] — the §5 hybrid server (DG under load, dyadic when idle).
//! * [`capacity`] — the Delay Guaranteed steady state of one media length
//!   (peak, average and one-period profile), the one analysis the §5
//!   multi-object server (`sm-server`) plans and admits with.

pub mod analysis;
pub mod batching;
pub mod capacity;
mod cast;
pub mod delay_guaranteed;
pub mod dyadic;
pub mod hierarchical;
pub mod hybrid;
pub mod incremental;
pub mod patching;

pub use delay_guaranteed::DelayGuaranteedOnline;
pub use dyadic::{DyadicConfig, DyadicMerger};
pub use hierarchical::{HierarchicalMerger, MergePolicy};
pub use hybrid::{HybridConfig, HybridServer};
pub use incremental::{DecisionError, ForestBuilder, IncrementalPolicy, MergeDecision};
pub use patching::{optimal_threshold, PatchingMerger};
