//! Pyramid broadcasting (Viswanathan–Imielinski \[38\], cited in paper §1) in
//! the unit-rate channel model.
//!
//! The original pyramid scheme cuts the media into segments growing
//! geometrically by a factor α and broadcasts segment `i` cyclically on
//! channel `i`. Viswanathan–Imielinski ran channels *faster* than the
//! playback rate (α ≈ 2.5 with rate-β channels); later work (including the
//! skyscraper and fast-broadcasting papers this crate also implements)
//! standardized on playback-rate channels, which caps the sustainable growth
//! factor at α ≤ 2-ish: segment `i` can be caught in time iff its length is
//! at most one unit more than everything before it
//! (`ℓ_i ≤ 1 + Σ_{j<i} ℓ_j`), and a strict geometric progression saturating
//! that bound is exactly the doubling of fast broadcasting.
//!
//! This module implements the parametric unit-rate pyramid: segment lengths
//! `ℓ_0 = delay`, `ℓ_i = ⌊α·ℓ_{i−1}⌋` (the last segment truncated to fit the
//! media), receive-all clients. The verifier accepts α ≤ 2 and rejects
//! any steeper growth once the media is long enough for the series to pass
//! `1 + Σ prefix` (the tests check α up to 2 at `L = 100` and α from 2.05
//! at `L = 500`), which is *why* the doubling series is the canonical
//! choice.

use crate::error::BroadcastError;
use crate::plan::{Segment, SegmentPlan};

/// Builds the unit-rate pyramid plan for a media of `media_len` units, first
/// segment (= guaranteed delay) of `delay` units, geometric factor `alpha`.
///
/// Segment lengths follow the *unit* progression `u_0 = 1`,
/// `u_{i+1} = ⌊α·u_i⌋` scaled by `delay` — the published schemes size
/// segments in multiples of the first segment, which keeps every broadcast
/// grid aligned to the delay grid (a co-prime period would break deadlines
/// for some phases). The last segment is truncated to fit the media but
/// keeps its full grid period (the channel idles for the remainder of each
/// cycle). The plan is *constructed* for any `alpha > 1`; whether it is
/// *feasible* (every client phase meets every deadline) is decided by
/// [`check_deadlines`](crate::verify::check_deadlines) /
/// [`verify_all_phases`](crate::verify::verify_all_phases)
/// — large α over long media will fail verification.
pub fn pyramid_broadcasting(
    media_len: u64,
    delay: u64,
    alpha: f64,
) -> Result<SegmentPlan, BroadcastError> {
    if media_len == 0 || delay == 0 || delay > media_len {
        return Err(BroadcastError::InvalidParameters {
            reason: "need 0 < delay <= media_len",
        });
    }
    if alpha.is_nan() || alpha <= 1.0 || alpha > 16.0 {
        return Err(BroadcastError::InvalidParameters {
            reason: "alpha must lie in (1, 16]",
        });
    }
    let mut segments = Vec::new();
    let mut covered = 0u64;
    let mut unit = 1u64;
    while covered < media_len {
        let full = unit * delay;
        let take = full.min(media_len - covered);
        segments.push(Segment {
            length: take,
            period: full,
            offset: 0,
        });
        covered += take;
        // Next geometric unit length; floor can stall at small lengths, so
        // force strict progress.
        let next = (unit as f64 * alpha).floor() as u64;
        unit = next.max(unit + 1);
    }
    SegmentPlan::new(segments)
}

/// Number of channels the pyramid with factor `alpha` uses for this
/// geometry.
pub fn channels_for(media_len: u64, delay: u64, alpha: f64) -> Result<usize, BroadcastError> {
    Ok(pyramid_broadcasting(media_len, delay, alpha)?.num_segments())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_deadlines;

    #[test]
    fn alpha_two_reproduces_fast_broadcasting() {
        let plan = pyramid_broadcasting(15, 1, 2.0).unwrap();
        let lens: Vec<u64> = plan.segments().iter().map(|s| s.length).collect();
        assert_eq!(lens, vec![1, 2, 4, 8]);
    }

    #[test]
    fn last_segment_truncated_to_media() {
        let plan = pyramid_broadcasting(12, 1, 2.0).unwrap();
        let lens: Vec<u64> = plan.segments().iter().map(|s| s.length).collect();
        assert_eq!(lens, vec![1, 2, 4, 5]);
        assert_eq!(plan.media_len(), 12);
    }

    #[test]
    fn gentle_alpha_verifies() {
        for &alpha in &[1.3, 1.5, 1.8, 2.0] {
            let plan = pyramid_broadcasting(100, 1, alpha).unwrap();
            check_deadlines(&plan).unwrap_or_else(|e| panic!("alpha {alpha} should verify: {e}"));
        }
    }

    #[test]
    fn aggressive_alpha_fails_on_long_media() {
        // Any α above 2 over a long media must eventually miss a deadline:
        // at α = 2.05 the unit series 1, 2, 4, 8, 16, 32 reaches 65, one
        // past `1 + Σ prefix`.
        for &alpha in &[2.05, 2.1, 2.6] {
            let plan = pyramid_broadcasting(500, 1, alpha).unwrap();
            assert!(check_deadlines(&plan).is_err(), "alpha {alpha} verified");
        }
    }

    #[test]
    fn smaller_alpha_needs_more_channels() {
        let k_15 = channels_for(400, 1, 1.5).unwrap();
        let k_20 = channels_for(400, 1, 2.0).unwrap();
        assert!(k_15 > k_20);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(pyramid_broadcasting(0, 1, 1.5).is_err());
        assert!(pyramid_broadcasting(10, 0, 1.5).is_err());
        assert!(pyramid_broadcasting(10, 11, 1.5).is_err());
        assert!(pyramid_broadcasting(10, 1, 1.0).is_err());
        assert!(pyramid_broadcasting(10, 1, 17.0).is_err());
    }
}
