//! Thread-local allocation counters for allocation-budget test harnesses.
//!
//! The workspace forbids `unsafe` in library code, so the actual
//! `#[global_allocator]` wrapper lives in the test/bench binaries that need
//! it (`tests/alloc_budget.rs`, `sm-bench`'s `scale.rs`); those wrappers
//! call [`note_alloc`] from their `alloc`/`realloc` hooks and this module
//! keeps the counts. Counters are **per thread**, so parallel test binaries
//! and `sm_core::parallel` worker threads never pollute each other's
//! measurements — a harness observes exactly the allocations made by the
//! thread driving the code under test.
//!
//! The counters are `const`-initialised `Cell`s: reading or bumping them
//! never allocates and never panics, which is mandatory inside a global
//! allocator. During thread teardown the thread-local may already be gone;
//! [`note_alloc`] silently drops such late counts instead of panicking.

use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Records one heap allocation of `bytes` bytes on the current thread.
/// Called by counting `#[global_allocator]` wrappers; safe to call from
/// inside an allocator (no allocation, no panic).
pub fn note_alloc(bytes: usize) {
    if ALLOCATIONS.try_with(|c| c.set(c.get() + 1)).is_err() {
        // Thread-local storage is being torn down; drop the count rather
        // than panic inside the allocator.
        return;
    }
    if ALLOCATED_BYTES
        .try_with(|c| c.set(c.get().saturating_add(bytes as u64)))
        .is_err()
    {
        // Same teardown race as above.
    }
}

/// Total heap allocations recorded on the current thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Total bytes requested by recorded allocations on the current thread.
fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// A point-in-time snapshot of the current thread's counters, for measuring
/// the allocations of a code region.
#[derive(Debug, Clone, Copy)]
pub struct AllocCheckpoint {
    allocations: u64,
    bytes: u64,
}

/// Snapshots the current thread's counters.
pub fn checkpoint() -> AllocCheckpoint {
    AllocCheckpoint {
        allocations: allocations(),
        bytes: allocated_bytes(),
    }
}

impl AllocCheckpoint {
    /// Allocations on this thread since the checkpoint was taken.
    pub fn allocations_since(&self) -> u64 {
        allocations() - self.allocations
    }

    /// Bytes requested on this thread since the checkpoint was taken.
    pub fn bytes_since(&self) -> u64 {
        allocated_bytes() - self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_checkpoints_diff() {
        let before = checkpoint();
        note_alloc(64);
        note_alloc(32);
        assert_eq!(before.allocations_since(), 2);
        assert_eq!(before.bytes_since(), 96);
        let later = checkpoint();
        assert_eq!(later.allocations_since(), 0);
    }
}
