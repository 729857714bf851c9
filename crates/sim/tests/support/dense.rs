//! The slot-stepped reference engine.
//!
//! Replays every client over every slot of its playback window with dense
//! per-slot scratch vectors. Cost is `O(span × clients)` time and `O(L)`
//! memory per client, which is fine for the paper-scale figures and makes
//! it the easy-to-audit oracle the event engine is pinned against.
//!
//! Test support, built only from public `sm_sim` and `sm_core` items and
//! sharing none of the event engine's closed forms. A test target includes
//! it with `#[path = ".../sim/tests/support/dense.rs"] mod dense;`.

use sm_core::{MergeForest, ModelError, ReceivingProgram};
use sm_sim::{
    stream_schedule, BandwidthProfile, ClientReport, SimConfig, SimError, SimReport, StreamSpec,
};

/// `sm_sim::simulate_with` on the dense engine. Checks the batch input
/// contract first, in `simulate_with`'s order: one time per arrival, times
/// that never decrease, and a media length that fits `i64`.
pub fn simulate(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    if times.len() != forest.total_arrivals() {
        return Err(SimError::Model(ModelError::TimesLengthMismatch {
            nodes: forest.total_arrivals(),
            times: times.len(),
        }));
    }
    if let Some(i) = times.windows(2).position(|w| w[1] < w[0]) {
        return Err(SimError::TimesOutOfOrder {
            index: i + 1,
            time: times[i + 1],
            previous: times[i],
        });
    }
    if i64::try_from(media_len).is_err() {
        return Err(SimError::MediaLenOverflow { media_len });
    }
    run(forest, times, media_len, config)
}

/// Runs the dense engine over input [`simulate`] has checked.
fn run(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    let specs = stream_schedule(forest, times, media_len)?;
    let bandwidth = BandwidthProfile::from_streams(&specs);
    let total_units: i64 = specs.iter().map(|s| s.length).sum();

    let mut clients = Vec::with_capacity(times.len());
    for (range, tree) in forest.iter_with_ranges() {
        let base = range.start;
        let local_times = &times[range.clone()];
        let local_specs = &specs[range.clone()];
        for c in 0..tree.len() {
            let report = run_client(tree, local_times, local_specs, media_len, base, c, config)?;
            clients.push(report);
        }
    }
    Ok(SimReport {
        bandwidth,
        total_units,
        clients,
    })
}

fn run_client(
    tree: &sm_core::MergeTree,
    local_times: &[i64],
    local_specs: &[StreamSpec],
    media_len: u64,
    base: usize,
    c: usize,
    config: SimConfig,
) -> Result<ClientReport, SimError> {
    let media = media_len as i64;
    let t_c = local_times[c];
    let global = base + c;
    let prog = ReceivingProgram::build(tree, local_times, media_len, c);
    prog.verify(local_times, media_len)
        .map_err(SimError::Model)?;

    // receive_end[q]: instant part q is fully received (from the schedule).
    let mut receive_end = vec![i64::MAX; (media + 1) as usize];
    // Reception concurrency per slot offset (program spans [t_c, t_c+media)).
    let mut concurrency = vec![0usize; media as usize + 1];
    for seg in &prog.segments {
        if seg.is_empty() {
            continue;
        }
        let spec = &local_specs[seg.stream];
        for part in seg.first_part..=seg.last_part {
            // The stream must actually broadcast the part.
            let Some(slot) = spec.broadcast_slot(part) else {
                return Err(SimError::StreamTooShort {
                    client: global,
                    stream: base + seg.stream,
                    part,
                    length: spec.length,
                });
            };
            // Playback deadline: part q plays during [t_c+q−1, t_c+q); it
            // must be broadcast no later than that same slot.
            let deadline = t_c + part - 1;
            if slot > deadline {
                return Err(SimError::Stall {
                    client: global,
                    part,
                    received: slot,
                    deadline,
                });
            }
            receive_end[part as usize] = slot + 1;
            let off = (slot - t_c).clamp(0, media) as usize;
            concurrency[off] += 1;
        }
    }

    // Receive-two: in any slot, parts arrive from at most two distinct
    // streams; because each stream contributes at most one part per slot,
    // per-slot part count == per-slot stream count.
    let mut max_concurrent = 0usize;
    for (off, &cnt) in concurrency.iter().enumerate() {
        if cnt > 2 {
            return Err(SimError::ReceiveTwoViolation {
                client: global,
                slot: t_c + off as i64,
                count: cnt,
            });
        }
        max_concurrent = max_concurrent.max(cnt);
    }

    // Buffer occupancy sweep and minimum slack.
    let mut max_buffer = 0i64;
    let mut min_slack = i64::MAX;
    for q in 1..=media {
        let deadline_end = t_c + q; // playback slot ends here
        let slack = deadline_end - receive_end[q as usize];
        min_slack = min_slack.min(slack);
    }
    for tau in t_c..=(t_c + media) {
        let received = (1..=media)
            .filter(|&q| receive_end[q as usize] <= tau)
            .count() as i64;
        let played = (tau - t_c).clamp(0, media);
        max_buffer = max_buffer.max(received - played);
    }
    if let Some(bound) = config.buffer_bound {
        if i64::try_from(bound).is_ok_and(|b| max_buffer > b) {
            return Err(SimError::BufferOverflow {
                client: global,
                needed: max_buffer,
                bound,
            });
        }
    }
    Ok(ClientReport {
        client: global,
        max_buffer,
        max_concurrent,
        min_slack,
    })
}
