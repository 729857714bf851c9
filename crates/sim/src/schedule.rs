//! Concrete broadcast schedules: the Fig.-3 view of a merge forest, one
//! [`StreamSpec`] per arrival. The dense oracle and the test oracles read
//! it; the event engines derive each tree's stream lengths themselves, once,
//! when the tree closes.

use crate::error::SimError;
use sm_core::MergeForest;

/// One scheduled stream: starts at slot `start`, broadcasts parts
/// `1..=length` in consecutive slots (part `q` during `[start+q−1, start+q)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Global arrival index that initiated the stream.
    pub node: usize,
    /// Start slot.
    pub start: i64,
    /// Number of parts broadcast (truncated length; `L` for roots).
    pub length: i64,
}

impl StreamSpec {
    /// Slot in which `part` is broadcast, if the stream carries it.
    pub fn broadcast_slot(&self, part: i64) -> Option<i64> {
        (1..=self.length)
            .contains(&part)
            .then(|| self.start + part - 1)
    }

    /// End time of the stream (exclusive).
    pub fn end(&self) -> i64 {
        self.start + self.length
    }
}

/// Derives the full broadcast schedule of a forest, one spec per arrival in
/// arrival order: the root of each tree runs `media_len` parts, and every
/// other node `x` exactly its Lemma-1 length `ℓ(x) = 2t_{z(x)} − t_x −
/// t_{p(x)}`, where `p(x)` is its parent and `z(x)` its last descendant.
///
/// Fails with [`SimError::MediaLenOverflow`] when `media_len` does not fit
/// the signed slot arithmetic (a plain `as i64` here would silently wrap to
/// a negative root length).
///
/// # Panics
/// If `times` is shorter than the forest's arrivals (the batch entry points
/// check lengths first).
pub fn stream_schedule(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
) -> Result<Vec<StreamSpec>, SimError> {
    let media = checked_media_len(media_len)?;
    let mut specs = Vec::with_capacity(times.len());
    for (range, tree) in forest.iter_with_ranges() {
        let local_times = &times[range.clone()];
        for (x, &start) in local_times.iter().enumerate() {
            let length = match tree.parent(x) {
                None => media,
                Some(p) => {
                    let t_z = local_times[tree.last_descendant(x)];
                    (t_z - start) + (t_z - local_times[p])
                }
            };
            specs.push(StreamSpec {
                node: range.start + x,
                start,
                length,
            });
        }
    }
    Ok(specs)
}

/// The one sanctioned `u64 → i64` conversion for media lengths: all slot
/// arithmetic is signed, so a media length beyond `i64::MAX` is a hard
/// model error, not a wrap.
pub(crate) fn checked_media_len(media_len: u64) -> Result<i64, SimError> {
    i64::try_from(media_len).map_err(|_| SimError::MediaLenOverflow { media_len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{consecutive_slots, MergeTree};

    fn fig4_forest() -> MergeForest {
        MergeForest::single(
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
            .unwrap(),
        )
    }

    #[test]
    fn fig3_schedule() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let specs = stream_schedule(&forest, &times, 15).unwrap();
        let lens: Vec<i64> = specs.iter().map(|s| s.length).collect();
        // Fig. 3: A runs 15 slots, B 1, C 2, D 5, E 1, F 9, G 1, H 2.
        assert_eq!(lens, vec![15, 1, 2, 5, 1, 9, 1, 2]);
        // Stream F starts at 5 and runs to 14.
        assert_eq!(specs[5].start, 5);
        assert_eq!(specs[5].end(), 14);
    }

    #[test]
    fn broadcast_slots() {
        let s = StreamSpec {
            node: 5,
            start: 5,
            length: 9,
        };
        assert_eq!(s.broadcast_slot(1), Some(5));
        assert_eq!(s.broadcast_slot(9), Some(13));
        assert_eq!(s.broadcast_slot(10), None);
        assert_eq!(s.broadcast_slot(0), None);
    }

    #[test]
    fn total_schedule_length_is_full_cost() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let specs = stream_schedule(&forest, &times, 15).unwrap();
        let total: i64 = specs.iter().map(|s| s.length).sum();
        assert_eq!(total, sm_core::full_cost(&forest, &times, 15));
    }

    #[test]
    fn empty_forest_has_an_empty_schedule() {
        let specs = stream_schedule(&MergeForest::empty(), &[], 10).unwrap();
        assert!(specs.is_empty());
    }

    #[test]
    fn singleton_trees_are_full_streams_at_their_own_arrivals() {
        let n = 5usize;
        let forest = MergeForest::from_trees(vec![MergeTree::singleton(); n]).unwrap();
        let times: Vec<i64> = (0..n as i64).map(|i| i * 7).collect();
        let expected: Vec<StreamSpec> = times
            .iter()
            .enumerate()
            .map(|(node, &start)| StreamSpec {
                node,
                start,
                length: 4,
            })
            .collect();
        assert_eq!(stream_schedule(&forest, &times, 4).unwrap(), expected);
    }

    #[test]
    fn unit_media_len_keeps_roots_at_one_part_and_merges_at_lemma_lengths() {
        // media_len == 1: the root broadcasts a single part; a same-slot
        // co-arrival merges with a zero-length stream, a later arrival
        // would simply be infeasible (caught downstream, not here — the
        // schedule itself is still well-defined).
        let tree = MergeTree::from_parents(&[None, Some(0)]).unwrap();
        let forest = MergeForest::single(tree);
        let specs = stream_schedule(&forest, &[3, 3], 1).unwrap();
        let lens: Vec<i64> = specs.iter().map(|s| s.length).collect();
        assert_eq!(lens, vec![1, 0]);
    }

    #[test]
    fn oversized_media_len_is_an_error_not_a_wrap() {
        // `u64::MAX as i64` is −1; the schedule must refuse instead.
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let err = stream_schedule(&forest, &times, u64::MAX).unwrap_err();
        assert_eq!(
            err,
            SimError::MediaLenOverflow {
                media_len: u64::MAX
            }
        );
        let boundary = stream_schedule(&forest, &times, i64::MAX as u64 + 1).unwrap_err();
        assert!(matches!(boundary, SimError::MediaLenOverflow { .. }));
    }
}
