//! Runs the other 13 experiment binaries in sequence; each prints its
//! figure or table and writes its CSV under `results/`. The
//! `sm_experiments` crate docs map each binary to its paper artifact. It
//! launches them from its own directory, and `cargo run --bin all` builds
//! only this one, so build the package first:
//!
//! ```sh
//! cargo build --release -p sm-experiments
//! cargo run --release -p sm-experiments --bin all
//! ```
//!
//! Stops with a non-zero exit at the first binary that fails.

use std::process::Command;

fn main() {
    for bin in [
        "tables",
        "fig1",
        "fig8",
        "fig9",
        "fig11",
        "fig12",
        "ratios",
        "hybrid",
        "buffers",
        "policies",
        "broadcast",
        "server",
        "dynamic",
    ] {
        println!("==================== {bin} ====================");
        let status = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
}
