//! Steady-state bandwidth of the Delay Guaranteed algorithm — the *maximum*
//! bandwidth view that §5 flags as the important metric for servers with
//! fixed channel licenses ("we can ensure that we never go over the fixed
//! maximum bandwidth and still never have to decline a client request").
//!
//! The DG schedule is periodic with period `F_h` slots once warmed up, so
//! its peak, its average and its profile over one period are well-defined
//! constants for each media length; [`steady_state_bandwidth`] measures
//! them exactly by stamping enough periods of the schedule straight from
//! the template into a per-slot difference array and metering the middle
//! of the window. It is the only DG steady-state analysis in the
//! workspace: the §5 server in `sm-server` plans with its `peak` and sums
//! its `periodic` profiles, reading both from one cache entry per media
//! length.

use crate::cast::{index_to_usize, stream_count};
use crate::delay_guaranteed::DelayGuaranteedOnline;

/// Peak, average and one-period profile of the warmed-up DG schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyStateBandwidth {
    /// Maximum concurrent streams in steady state.
    pub peak: u32,
    /// Average concurrent streams in steady state.
    pub average: f64,
    /// The period of the schedule (`F_h` slots).
    pub period: u64,
    /// Concurrent streams in each of the `period` slots that start one
    /// media length into the stamped schedule; its maximum is `peak`.
    pub periodic: Vec<u32>,
}

/// Measures the steady-state bandwidth of the Delay Guaranteed algorithm
/// for media length `media_len`.
///
/// Stamps enough warm-up (one media length on each side) plus several
/// periods with [`DelayGuaranteedOnline::schedule_after`], then meters only
/// the interior window, so edge effects of the horizon do not leak in.
/// The streams are netted by [`DelayGuaranteedOnline::net_deltas`] into one
/// dense per-slot array, so metering takes one pass over the stamped slots
/// and no sort.
pub fn steady_state_bandwidth(media_len: u64) -> SteadyStateBandwidth {
    let alg = DelayGuaranteedOnline::new(media_len);
    let period = alg.tree_size();
    // Warm-up: streams live at a slot start as much as L slots earlier, so
    // one media length of margin on each side suffices.
    let periods_needed = media_len.div_ceil(period) + 2;
    let n = (2 * periods_needed + 2) * period;
    let mut live = alg.net_deltas(n);
    // The last nonzero delta is the last stream's end: where the stamped
    // schedule falls silent (every Delay Guaranteed stream has a positive
    // length, so nothing starts there).
    let end = live
        .iter()
        .rposition(|&delta| delta != 0)
        .expect("n >= 1 stamps a stream");
    // The running sum, in place: the streams live in each slot.
    let mut count = 0;
    for slot in &mut live[..end] {
        count += *slot;
        *slot = count;
    }
    // Interior window: skip L slots at the front, L + period at the back.
    let lo = index_to_usize(media_len);
    let hi = end - index_to_usize(media_len + period);
    let window = &live[lo..hi];
    let one_period = index_to_usize(period);
    assert!(
        window.len() >= one_period,
        "window must cover at least one period"
    );
    let peak = window.iter().copied().max().unwrap_or(0);
    let average = window.iter().map(|&c| c as f64).sum::<f64>() / window.len() as f64;
    SteadyStateBandwidth {
        peak: stream_count(peak),
        average,
        period,
        periodic: window[..one_period]
            .iter()
            .copied()
            .map(stream_count)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::consecutive_slots;
    use sm_sim::{stream_schedule, BandwidthProfile};

    /// The forest derivation [`steady_state_bandwidth`] replaced: build the
    /// committed forest, flatten its stream schedule, meter the same window
    /// and read one period from its start.
    fn steady_state_via_forest(media_len: u64) -> SteadyStateBandwidth {
        let alg = DelayGuaranteedOnline::new(media_len);
        let period = alg.tree_size();
        let periods_needed = media_len.div_ceil(period) + 2;
        let n = ((2 * periods_needed + 2) * period) as usize;
        let forest = alg.forest_after(n);
        let specs = stream_schedule(&forest, &consecutive_slots(n), media_len).unwrap();
        let profile = BandwidthProfile::from_streams(&specs);
        let lo = profile.origin() + media_len as i64;
        let hi = profile.end() - (media_len + period) as i64;
        let window = profile.window(lo, hi);
        SteadyStateBandwidth {
            peak: window.iter().copied().max().unwrap_or(0),
            average: window.iter().map(|&c| c as f64).sum::<f64>() / window.len() as f64,
            period,
            periodic: profile.window(lo, lo + period as i64),
        }
    }

    #[test]
    fn template_stamp_matches_forest_derivation() {
        // Every length to 300, then a few past it: real titles reach
        // hundreds of slots (two hours at a ten-second delay is 720).
        for media_len in (1..=300u64).chain([377, 610, 720, 987]) {
            let stamped = steady_state_bandwidth(media_len);
            let reference = steady_state_via_forest(media_len);
            assert_eq!(stamped.peak, reference.peak, "L = {media_len}");
            assert_eq!(stamped.period, reference.period, "L = {media_len}");
            assert_eq!(
                stamped.average.to_bits(),
                reference.average.to_bits(),
                "L = {media_len}"
            );
            assert_eq!(stamped.periodic, reference.periodic, "L = {media_len}");
            assert_eq!(
                stamped.periodic.len() as u64,
                stamped.period,
                "L = {media_len}"
            );
            assert_eq!(
                stamped.periodic.iter().copied().max(),
                Some(stamped.peak),
                "L = {media_len}"
            );
        }
    }

    #[test]
    fn steady_state_is_periodic_constant() {
        // Measuring with more periods must not change the answer.
        let a = steady_state_bandwidth(50);
        assert!(a.peak > 0);
        assert!(a.average > 0.0);
        assert!(a.average <= a.peak as f64);
        assert_eq!(a.period, 21); // F_8 = 21 for L = 50 (F_9 = 34 < 52 ≤ F_10)
    }

    #[test]
    fn peak_grows_with_media_length() {
        let small = steady_state_bandwidth(10);
        let large = steady_state_bandwidth(200);
        assert!(large.peak >= small.peak);
        assert!(large.average > small.average);
    }

    #[test]
    fn average_close_to_amortized_cost() {
        // Average concurrent streams ≈ (L + M(F_h)) / F_h.
        let media_len = 100u64;
        let s = steady_state_bandwidth(media_len);
        let cf = sm_offline::closed_form::ClosedForm::new();
        let amortized = (media_len + cf.merge_cost(s.period)) as f64 / s.period as f64;
        assert!(
            (s.average - amortized).abs() < 0.05 * amortized,
            "avg {} vs amortized {amortized}",
            s.average
        );
    }
}
