//! The sanctioned numeric conversions of this crate.
//!
//! Mirrors the sim/broadcast cast audit: every lossy-looking `as` cast in
//! the on-line algorithms funnels through one of these helpers, so the
//! places where a conversion could silently wrap or truncate are exactly
//! the places that state why it cannot.

/// The one sanctioned `u64 → usize` conversion: template sizes, positions
/// and slot counters handled here are bounded by the arrival horizon, which
/// fits any supported target word size — fail loudly instead of wrapping if
/// it ever does not.
pub(crate) fn index_to_usize(x: u64) -> usize {
    usize::try_from(x).expect("index exceeds the platform word size")
}

/// The one sanctioned `u64 → i64` conversion for slot positions: all slot
/// arithmetic downstream is signed, so a horizon beyond `i64::MAX` must be
/// rejected rather than wrapped to a negative slot.
pub(crate) fn slots_i64(x: u64) -> i64 {
    i64::try_from(x).expect("slot count exceeds the signed slot axis")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip_in_range() {
        assert_eq!(index_to_usize(55), 55usize);
        assert_eq!(slots_i64(100), 100i64);
    }

    #[test]
    #[should_panic]
    fn oversized_slot_count_is_rejected() {
        let _ = slots_i64(u64::MAX);
    }
}
