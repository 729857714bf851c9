//! Client receiving programs (§2, "Receiving programs").
//!
//! For a client arriving at `x_k` with root-path `x_0 < x_1 < … < x_k`, the
//! paper's staged rules flatten into: the client receives from stream `x_j`
//! exactly parts
//!
//! ```text
//! P_j = [ 2·t_k − t_{j+1} − t_j + 1 ,  2·t_k − t_j − t_{j−1} ]
//! ```
//!
//! with the conventions `t_{k+1} := t_k` (so `P_k` starts at part 1) and the
//! upper bound of `P_0` replaced by `L` (stage `k` runs to the end of the
//! media). Consecutive ranges are contiguous, and during
//! `[2t_k − t_j, 2t_k − t_{j−1})` the client listens to `x_j` and `x_{j−1}`
//! simultaneously — never more than two streams (receive-two).

use crate::error::ModelError;
use crate::tree::MergeTree;

/// A maximal run of parts received from a single stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSegment {
    /// Local index (within the tree) of the source stream.
    pub stream: usize,
    /// First part received from this stream (1-based).
    pub first_part: i64,
    /// Last part received from this stream (inclusive).
    pub last_part: i64,
}

impl StageSegment {
    /// Number of parts in the segment.
    pub fn len(&self) -> i64 {
        (self.last_part - self.first_part + 1).max(0)
    }

    /// `true` iff the segment contributes no parts.
    pub fn is_empty(&self) -> bool {
        self.last_part < self.first_part
    }
}

/// The complete receiving program of one client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivingProgram {
    /// Local index of the client's own arrival.
    pub client: usize,
    /// Root path `x_0 < … < x_k` (local indices).
    pub path: Vec<usize>,
    /// Segments in part order (from the client's own stream back to the
    /// root). Possibly-empty segments are retained so `segments.len() ==
    /// path.len()` always holds.
    pub segments: Vec<StageSegment>,
}

impl ReceivingProgram {
    /// Builds the receiving program of local arrival `client` in `tree`
    /// with slotted arrival times `times` and media length `media_len`.
    ///
    /// # Panics
    /// Panics if `times.len() != tree.len()` or `client` is out of range.
    pub fn build(tree: &MergeTree, times: &[i64], media_len: u64, client: usize) -> Self {
        assert_eq!(times.len(), tree.len());
        let path = tree.path_from_root(client);
        let k = path.len() - 1;
        let tk = times[path[k]];
        let media = media_len as i64;
        let mut segments = Vec::with_capacity(path.len());
        // j runs from the client's own stream (j = k) down to the root.
        for j in (0..=k).rev() {
            let tj = times[path[j]];
            let t_above = if j == k { tk } else { times[path[j + 1]] };
            let first = 2 * tk - t_above - tj + 1;
            let last = if j == 0 {
                media
            } else {
                2 * tk - tj - times[path[j - 1]]
            };
            segments.push(StageSegment {
                stream: path[j],
                first_part: first,
                last_part: last,
            });
        }
        Self {
            client,
            path,
            segments,
        }
    }

    /// Slot during which `part` of `segment` is received:
    /// stream `x_j` broadcasts part `q` during `[t_j + q − 1, t_j + q)`.
    pub fn receive_slot(times: &[i64], segment: &StageSegment, part: i64) -> i64 {
        times[segment.stream] + part - 1
    }

    /// Total number of parts the program delivers.
    pub fn total_parts(&self) -> i64 {
        self.segments.iter().map(StageSegment::len).sum()
    }

    /// Verifies the program delivers exactly parts `1..=L`, contiguously and
    /// in order, never referencing a part outside the media, and that every
    /// part arrives no later than its playback slot.
    pub fn verify(&self, times: &[i64], media_len: u64) -> Result<(), ModelError> {
        let media = media_len as i64;
        let client_time = times[self.client];
        let mut expected = 1i64;
        for seg in &self.segments {
            if seg.is_empty() {
                continue;
            }
            if seg.first_part < 1 || seg.last_part > media {
                let part = if seg.first_part < 1 {
                    seg.first_part
                } else {
                    seg.last_part
                };
                return Err(ModelError::PartOutOfRange { part });
            }
            if seg.first_part != expected {
                return Err(ModelError::CoverageGap {
                    expected_part: expected,
                    found_part: seg.first_part,
                });
            }
            // Timeliness: part q is received during slot
            // [t_stream + q − 1, t_stream + q) and played during
            // [t_client + q − 1, t_client + q); the source must not be later
            // than the client (guaranteed by parent < child, re-checked
            // here against the actual times).
            if times[seg.stream] > client_time {
                return Err(ModelError::ParentNotEarlier {
                    node: self.client,
                    parent: seg.stream,
                });
            }
            expected = seg.last_part + 1;
        }
        if expected != media + 1 {
            return Err(ModelError::CoverageGap {
                expected_part: expected,
                found_part: media + 1,
            });
        }
        Ok(())
    }

    /// The set of `(slot, streams_being_received)` implied by the program,
    /// from which receive-two compliance can be checked explicitly.
    /// Returns, per slot offset from the client's arrival, how many streams
    /// are simultaneously being received.
    fn concurrency_profile(&self, times: &[i64]) -> Vec<(i64, usize)> {
        use std::collections::BTreeMap;
        let mut per_slot: BTreeMap<i64, usize> = BTreeMap::new();
        for seg in &self.segments {
            if seg.is_empty() {
                continue;
            }
            for part in seg.first_part..=seg.last_part {
                let slot = Self::receive_slot(times, seg, part);
                *per_slot.entry(slot).or_insert(0) += 1;
            }
        }
        per_slot.into_iter().collect()
    }

    /// Explicit receive-two check (never more than two streams in a slot).
    pub fn check_receive_two(&self, times: &[i64]) -> Result<(), ModelError> {
        for (time, count) in self.concurrency_profile(times) {
            if count > 2 {
                return Err(ModelError::TooManyConcurrentStreams { time, count });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::consecutive_slots;

    fn fig4() -> MergeTree {
        MergeTree::from_parents(&[
            None,
            Some(0),
            Some(0),
            Some(0),
            Some(3),
            Some(0),
            Some(5),
            Some(5),
        ])
        .unwrap()
    }

    #[test]
    fn client_h_matches_paper_walkthrough() {
        // Paper §2: client H (arrival 7, path 0,5,7; L = 15):
        //   from stream 7: parts 1,2; from stream 5: parts 3..9;
        //   from stream 0: parts 10..15.
        let t = fig4();
        let times = consecutive_slots(8);
        let prog = ReceivingProgram::build(&t, &times, 15, 7);
        assert_eq!(prog.path, vec![0, 5, 7]);
        assert_eq!(
            prog.segments,
            vec![
                StageSegment {
                    stream: 7,
                    first_part: 1,
                    last_part: 2
                },
                StageSegment {
                    stream: 5,
                    first_part: 3,
                    last_part: 9
                },
                StageSegment {
                    stream: 0,
                    first_part: 10,
                    last_part: 15
                },
            ]
        );
        prog.verify(&times, 15).unwrap();
        prog.check_receive_two(&times).unwrap();
    }

    #[test]
    fn root_client_receives_everything_from_root() {
        let t = fig4();
        let times = consecutive_slots(8);
        let prog = ReceivingProgram::build(&t, &times, 15, 0);
        assert_eq!(prog.segments.len(), 1);
        assert_eq!(prog.segments[0].stream, 0);
        assert_eq!(prog.segments[0].first_part, 1);
        assert_eq!(prog.segments[0].last_part, 15);
        prog.verify(&times, 15).unwrap();
    }

    #[test]
    fn every_fig4_client_verifies() {
        let t = fig4();
        let times = consecutive_slots(8);
        for c in 0..8 {
            let prog = ReceivingProgram::build(&t, &times, 15, c);
            prog.verify(&times, 15)
                .unwrap_or_else(|e| panic!("client {c}: {e}"));
            prog.check_receive_two(&times).unwrap();
            assert_eq!(prog.total_parts(), 15, "client {c}");
        }
    }

    #[test]
    fn segment_parts_received_from_stream_match_its_length() {
        // The largest part any client pulls from stream x equals ℓ(x)
        // (Lemma 1), tying receiving programs to the cost model.
        let t = fig4();
        let times = consecutive_slots(8);
        let lens = crate::cost::lengths(&t, &times);
        let mut max_part = [0i64; 8];
        for c in 0..8 {
            let prog = ReceivingProgram::build(&t, &times, 15, c);
            for seg in &prog.segments {
                if !seg.is_empty() {
                    max_part[seg.stream] = max_part[seg.stream].max(seg.last_part);
                }
            }
        }
        for x in 1..8 {
            assert_eq!(max_part[x], lens[x], "stream {x}");
        }
        assert_eq!(max_part[0], 15);
    }

    #[test]
    fn coverage_gap_detected_for_too_short_media() {
        // With L = 6 the Fig. 4 tree is infeasible for far clients:
        // client 7 would need part ranges beyond the media.
        let t = fig4();
        let times = consecutive_slots(8);
        let prog = ReceivingProgram::build(&t, &times, 6, 7);
        assert!(prog.verify(&times, 6).is_err());
    }

    #[test]
    fn concurrency_never_exceeds_two_on_chain() {
        let t = MergeTree::chain(6);
        let times = consecutive_slots(6);
        for c in 0..6 {
            let prog = ReceivingProgram::build(&t, &times, 15, c);
            prog.check_receive_two(&times).unwrap();
            prog.verify(&times, 15).unwrap();
        }
    }
}
