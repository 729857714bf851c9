//! Skyscraper broadcasting (Hua–Sheu \[24\], cited in paper §1 as *the*
//! delay-guaranteed pyramid-model predecessor).
//!
//! Skyscraper was designed for clients that can receive at most **two**
//! channels at once — the same receive-two model as the paper's stream
//! merging. Its segment-size series
//!
//! ```text
//! 1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52, 105, 105, …
//! ```
//!
//! grows by the recurrence `f(i) = 2f(i−1)+1` (i ≡ 0 mod 4),
//! `f(i) = 2f(i−1)+2` (i ≡ 2 mod 4), `f(i) = f(i−1)` (odd i), chosen so that
//! equal-size segments pair into "transmission groups" which a two-loader
//! client can fetch back-to-back while earlier groups play. The `W`
//! parameter ("width") caps segment sizes to bound the client buffer — the
//! same bandwidth/buffer tradeoff the paper revisits in §3.3.
//!
//! The receive-two property is not assumed here: the slot-exact verifier
//! checks it for every arrival phase (see the tests), which is precisely the
//! guarantee Hua–Sheu prove by construction.

use crate::error::BroadcastError;
use crate::plan::{Segment, SegmentPlan};

/// The first `k` terms of the skyscraper segment-size series, capped at `w`.
///
/// `w = u64::MAX` gives the unrestricted series `1, 2, 2, 5, 5, 12, 12, …`.
fn skyscraper_series(k: usize, w: u64) -> Vec<u64> {
    assert!(w >= 1);
    let mut out = Vec::with_capacity(k);
    let mut prev = 0u64;
    for i in 1..=k {
        let raw = match i {
            1 => 1,
            2 => 2,
            _ => match i % 4 {
                0 => 2 * prev + 1,
                2 => 2 * prev + 2,
                _ => prev, // odd i ≥ 3 repeats
            },
        };
        // Once capped at w the series stays at w (the "width restriction").
        let v = raw.min(w);
        out.push(v);
        prev = v;
    }
    out
}

/// Builds the skyscraper plan covering a media of `media_len` units with
/// first segment (= guaranteed delay) `delay` units and width cap `w` (in
/// multiples of `delay`). The last segment is truncated to fit the media.
pub fn skyscraper_broadcasting(
    media_len: u64,
    delay: u64,
    w: u64,
) -> Result<SegmentPlan, BroadcastError> {
    if media_len == 0 || delay == 0 || delay > media_len {
        return Err(BroadcastError::InvalidParameters {
            reason: "need 0 < delay <= media_len",
        });
    }
    if w == 0 {
        return Err(BroadcastError::InvalidParameters {
            reason: "width cap W must be positive",
        });
    }
    let mut segments = Vec::new();
    let mut covered = 0u64;
    let mut i = 0usize;
    while covered < media_len {
        i += 1;
        let unit_len = skyscraper_series(i, w)[i - 1];
        let full = unit_len * delay;
        let len = full.min(media_len - covered);
        // A truncated tail keeps its full series *period* (the channel idles
        // for the rest of each cycle): the receive-two property relies on
        // equal-size segments pairing up on aligned grids, which truncating
        // the period would break.
        segments.push(Segment {
            length: len,
            period: full,
            offset: 0,
        });
        covered += len;
    }
    SegmentPlan::new(segments)
}

/// Number of channels skyscraper needs for this geometry.
pub fn channels_for(media_len: u64, delay: u64, w: u64) -> Result<usize, BroadcastError> {
    Ok(skyscraper_broadcasting(media_len, delay, w)?.num_segments())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_all_phases;

    #[test]
    fn series_matches_hua_sheu() {
        assert_eq!(
            skyscraper_series(13, u64::MAX),
            vec![1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52, 105, 105]
        );
    }

    #[test]
    fn width_cap_freezes_series() {
        assert_eq!(
            skyscraper_series(10, 12),
            vec![1, 2, 2, 5, 5, 12, 12, 12, 12, 12]
        );
        assert_eq!(skyscraper_series(5, 2), vec![1, 2, 2, 2, 2]);
    }

    #[test]
    fn receive_two_verifies_for_unrestricted_series() {
        // The design claim: skyscraper is feasible with exactly two loaders.
        // Media 1+2+2+5+5+12+12+25+25 = 89 units, 9 channels.
        let plan = skyscraper_broadcasting(89, 1, u64::MAX).unwrap();
        assert_eq!(plan.num_segments(), 9);
        let report = verify_all_phases(&plan, Some(2), 1_000_000).unwrap();
        assert_eq!(report.max_concurrent, 2);
        assert_eq!(report.bandwidth, (9, 1));
    }

    #[test]
    fn receive_two_verifies_with_width_cap() {
        for w in [2u64, 5, 12, 25] {
            let plan = skyscraper_broadcasting(120, 1, w).unwrap();
            verify_all_phases(&plan, Some(2), 1_000_000)
                .unwrap_or_else(|e| panic!("W={w} should verify receive-two: {e}"));
        }
    }

    #[test]
    fn width_cap_trades_channels_for_buffer() {
        let narrow = skyscraper_broadcasting(120, 1, 2).unwrap();
        let wide = skyscraper_broadcasting(120, 1, u64::MAX).unwrap();
        assert!(narrow.num_segments() > wide.num_segments());
        let narrow_report = verify_all_phases(&narrow, Some(2), 1_000_000).unwrap();
        let wide_report = verify_all_phases(&wide, Some(2), 1_000_000).unwrap();
        assert!(narrow_report.max_buffer <= wide_report.max_buffer);
    }

    #[test]
    fn scaled_delay_verifies() {
        let plan = skyscraper_broadcasting(200, 4, 12).unwrap();
        let report = verify_all_phases(&plan, Some(2), 1_000_000).unwrap();
        assert_eq!(report.worst_delay, 3);
    }

    #[test]
    fn truncated_tail_still_verifies() {
        // Media length that cuts the last segment mid-way.
        let plan = skyscraper_broadcasting(100, 1, u64::MAX).unwrap();
        assert_eq!(plan.media_len(), 100);
        verify_all_phases(&plan, Some(2), 1_000_000).unwrap();
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(skyscraper_broadcasting(0, 1, 52).is_err());
        assert!(skyscraper_broadcasting(10, 0, 52).is_err());
        assert!(skyscraper_broadcasting(10, 11, 52).is_err());
        assert!(skyscraper_broadcasting(10, 1, 0).is_err());
    }
}
