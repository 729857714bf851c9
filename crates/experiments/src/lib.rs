#![forbid(unsafe_code)]
//! Regeneration of every table and figure in the paper's evaluation.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Fig. 1 — bandwidth vs start-up delay | [`fig1`] | `fig1` |
//! | M(n) table (§3.1) | [`tables`] | `tables` |
//! | Fig. 6/7 — optimal trees | [`tables`] | `tables` |
//! | Fig. 8 — I(n) for 2 ≤ n ≤ 55 | [`fig8`] | `fig8` |
//! | Mω(n) table (§3.4) | [`tables`] | `tables` |
//! | Fig. 9 — on-line/off-line ratio vs horizon | [`fig9`] | `fig9` |
//! | Fig. 11 — constant-rate intensity sweep | [`intensity`] | `fig11` |
//! | Fig. 12 — Poisson intensity sweep | [`intensity`] | `fig12` |
//! | Thms 14/19/20/22 — ratio tables, beside the bounds of Thms 8/13/21 | [`ratios`] | `ratios` |
//! | §5 hybrid server on bursty traffic (extension) | [`hybrid_exp`] | `hybrid` |
//! | Extended policy roster: ERMT/patching/batching (extension) | [`policies`] | `policies` |
//! | Static broadcasting vs merging (§1 framing, extension) | [`broadcast_exp`] | `broadcast` |
//! | §5 multi-title planning: weighted vs uniform delay (extension) | [`server_exp`] | `server` |
//! | §5 dynamic re-provisioning on a catalog change (extension) | `sm_server::dynamic` | `dynamic` |
//!
//! Each module returns plain row structs; binaries render them as aligned
//! text and CSV under `results/`. Sweeps parallelize over their points with
//! [`sm_core::parallel_map`] (scoped threads, results in input order) — the
//! same primitive the sharded `sm_server` layer uses.

pub mod broadcast_exp;
pub mod fig1;
pub mod fig8;
pub mod fig9;
pub mod hybrid_exp;
pub mod intensity;
pub mod output;
pub mod policies;
pub mod ratios;
pub mod server_exp;
pub mod simcheck;
pub mod tables;
