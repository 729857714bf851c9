//@ path: crates/server/src/dynamic.rs
// The §5 dynamic server is a serving hot path too: its pipeline workers
// must report typed errors, so every construct below is flagged.

pub fn bin(window: Option<&[i64]>, plan: Result<u64, ()>) -> i64 {
    let deltas = window.unwrap(); //~ deny(no-panic-surface)
    let delay = plan.expect("planned"); //~ deny(no-panic-surface)
    assert!(delay > 0, "a delay slot is at least one minute"); //~ deny(no-panic-surface)
    deltas.iter().sum()
}
