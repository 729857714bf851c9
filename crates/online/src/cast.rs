//! The sanctioned numeric conversions of this crate.
//!
//! Mirrors the sim/broadcast cast audit: every lossy-looking `as` cast in
//! the on-line algorithms funnels through a helper here, so the places
//! where a conversion could silently wrap or truncate are exactly the
//! places that state why it cannot.

/// The one sanctioned `u64 → usize` conversion: template sizes, positions
/// and slot counters handled here are bounded by the arrival horizon, which
/// fits any supported target word size — fail loudly instead of wrapping if
/// it ever does not.
pub(crate) fn index_to_usize(x: u64) -> usize {
    usize::try_from(x).expect("index exceeds the platform word size")
}

/// The one sanctioned `i64 → u32` conversion for concurrent-stream counts:
/// a running sum of `+1`/`−1` stream deltas counts the streams live in a
/// slot, so it is never negative — fail loudly instead of wrapping if a
/// stamp ever nets one below zero or past `u32::MAX`.
pub(crate) fn stream_count(x: i64) -> u32 {
    u32::try_from(x).expect("stream count outside 0..=u32::MAX")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip_in_range() {
        assert_eq!(index_to_usize(55), 55usize);
        assert_eq!(stream_count(100), 100u32);
    }

    #[test]
    #[should_panic(expected = "stream count outside 0..=u32::MAX")]
    fn negative_stream_count_is_rejected() {
        let _ = stream_count(-1);
    }
}
