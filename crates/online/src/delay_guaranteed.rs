//! The on-line delay-guaranteed algorithm (§4.1).
//!
//! The algorithm never makes an on-line decision: it statically picks the
//! tree size `F_h` (the same size Theorem 12 shows the off-line optimum
//! gravitates to), precomputes the optimal merge tree for `F_h` arrivals
//! once (`O(L)` work), and then serves slot `t` from position `t mod F_h`
//! of tree number `t div F_h` — a table lookup.
//!
//! Its total cost after `n` slots, `A(L, n)`, is `⌊n/F_h⌋` full trees plus
//! one truncated tree over the remaining arrivals; Theorem 22 shows
//! `A(L,n)/F(L,n) ≤ 1 + 2L/n` for `L ≥ 7`, `n > L² + 2`.

use sm_core::{MergeForest, MergeTree};
use sm_offline::closed_form::ClosedForm;
use sm_offline::tree_builder::optimal_merge_tree_with;

use crate::cast::index_to_usize;
use crate::incremental::{ForestBuilder, MergeDecision};

/// The on-line delay-guaranteed server.
///
/// Feed it slots (one per guaranteed-delay interval); query each slot's
/// merge decision, costs, the stream schedule and the materialized
/// forest at any point. A client's receiving program follows from
/// [`Self::template`] (`ReceivingProgram::build`). All per-slot work is
/// `O(1)` except the one-time `O(L)` setup — the simplicity the paper
/// contrasts against the dyadic algorithm's per-arrival decisions.
#[derive(Debug, Clone)]
pub struct DelayGuaranteedOnline {
    media_len: u64,
    tree_size: u64,
    /// The precomputed optimal merge tree on `F_h` arrivals.
    template: MergeTree,
    /// `Mcost` of the template truncated to its first `i` arrivals, for
    /// `i = 0..=F_h` — so the cost of the trailing partial tree is O(1);
    /// `prefix_costs[F_h]` is the template's own `Mcost`.
    prefix_costs: Vec<u64>,
    /// Slots processed so far.
    slots: u64,
}

impl DelayGuaranteedOnline {
    /// Sets up the algorithm for media length `media_len` slots.
    ///
    /// # Panics
    /// Panics if `media_len == 0`.
    pub fn new(media_len: u64) -> Self {
        assert!(media_len >= 1, "media length must be at least one slot");
        let cf = ClosedForm::new();
        let h = cf.fib().theorem12_h(media_len);
        let tree_size = cf.fib().get(h).max(1);
        Self::with_tree_size(media_len, tree_size)
    }

    /// The §3.3 bounded-buffer variant: clients can store at most `buffer`
    /// parts, so trees are capped at `B+1` consecutive arrivals (Lemma 15;
    /// see `sm_offline::forest::max_tree_size_for_buffer`) — the on-line
    /// mirror of Theorem 16. With `buffer ≥ ⌊L/2⌋` this coincides with
    /// [`Self::new`]; with `buffer = 0` it degenerates to plain batching
    /// (singleton trees, one full stream per slot).
    pub fn with_buffer_bound(media_len: u64, buffer: u64) -> Self {
        assert!(media_len >= 1, "media length must be at least one slot");
        let cf = ClosedForm::new();
        let h = cf.fib().theorem12_h(media_len);
        let unbounded = cf.fib().get(h).max(1);
        let cap = sm_offline::forest::max_tree_size_for_buffer(media_len, buffer);
        Self::with_tree_size(media_len, unbounded.min(cap).max(1))
    }

    /// Core constructor: precomputes the optimal template of `tree_size`
    /// arrivals and its prefix costs.
    fn with_tree_size(media_len: u64, tree_size: u64) -> Self {
        let cf = ClosedForm::new();
        let size = index_to_usize(tree_size);
        let template = optimal_merge_tree_with(&cf, size);
        // Appending arrival `i` (the last node in preorder) gives it the
        // stream `i − p(i)` and lengthens each non-root proper ancestor's
        // stream by 2 (its last descendant moves from `i − 1` to `i`), so
        // every prefix cost follows from the previous one in O(1).
        let mut prefix_costs = vec![0u64; size + 1];
        let mut depth = vec![0u64; size];
        for i in 1..size {
            let p = template
                .parent(i)
                .expect("every non-root node has a parent");
            depth[i] = depth[p] + 1;
            prefix_costs[i + 1] = prefix_costs[i] + (i - p) as u64 + 2 * (depth[i] - 1);
        }
        Self {
            media_len,
            tree_size,
            template,
            prefix_costs,
            slots: 0,
        }
    }

    /// The statically chosen tree size `F_h`.
    pub fn tree_size(&self) -> u64 {
        self.tree_size
    }

    /// The media length `L` in slots.
    pub fn media_len(&self) -> u64 {
        self.media_len
    }

    /// The precomputed template tree.
    pub fn template(&self) -> &MergeTree {
        &self.template
    }

    /// Processes the next slot.
    pub fn on_slot(&mut self) {
        self.slots += 1;
    }

    /// The [`MergeDecision`] the on-line algorithm commits to for slot `t`:
    /// position 0 opens a fresh template instance, every other position
    /// merges under the template parent shifted into instance `t / F_h`.
    /// Pure (`&self`) — the stateful form is the crate's
    /// [`IncrementalPolicy`](crate::incremental::IncrementalPolicy) `push`.
    pub fn decision_at(&self, slot: u64) -> MergeDecision {
        let tree = slot / self.tree_size;
        let position = index_to_usize(slot % self.tree_size);
        let base = index_to_usize(tree * self.tree_size);
        MergeDecision {
            node: index_to_usize(slot),
            tree: index_to_usize(tree),
            parent: self.template.parent(position).map(|lp| base + lp),
        }
    }

    /// Number of slots processed so far.
    pub fn slots_seen(&self) -> u64 {
        self.slots
    }

    /// `A(L, n)`: total server bandwidth (slot-units) after `n` slots —
    /// `⌊n/F_h⌋` complete trees plus one truncated tree for the remainder.
    /// `O(1)`.
    pub fn total_cost_after(&self, n: u64) -> u64 {
        let full = n / self.tree_size;
        let rem = index_to_usize(n % self.tree_size);
        let template_cost = self.prefix_costs[index_to_usize(self.tree_size)];
        let mut cost = full * (self.media_len + template_cost);
        if rem > 0 {
            cost += self.media_len + self.prefix_costs[rem];
        }
        cost
    }

    /// `A(L, n)` for the slots fed so far.
    pub fn total_cost(&self) -> u64 {
        self.total_cost_after(self.slots)
    }

    /// Materializes the forest the algorithm has committed to after `n`
    /// slots (full template trees plus a truncated final tree) — a fold of
    /// [`Self::decision_at`] through a [`ForestBuilder`], so the batch view
    /// is byte-for-byte what the arrival-at-a-time decision stream builds.
    pub fn forest_after(&self, n: usize) -> MergeForest {
        assert!(n >= 1);
        let mut builder = ForestBuilder::new();
        for slot in 0..n as u64 {
            builder
                .apply(&self.decision_at(slot))
                .expect("template decisions are structurally valid");
        }
        builder.finish().expect("n >= 1 opens a tree")
    }

    /// The Lemma-1 schedule of the first `n` slots, stamped straight from
    /// the template with no forest: one `(start, length)` pair per slot,
    /// in slot order, where slot `t`'s stream starts at `t` and runs
    /// `length` slots. A template root runs the whole media `L`; any other
    /// node `x` runs `2·z − x − p(x)`, where `p` is its template parent and
    /// `z` its last descendant, clipped to the last slot the trailing
    /// (truncated) instance holds. The pairs are exactly the
    /// [`sm_sim::stream_schedule`] of [`Self::forest_after`]`(n)` on
    /// consecutive slots.
    pub fn schedule_after(&self, n: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let size = self.tree_size;
        (0..n.div_ceil(size)).flat_map(move |k| {
            let base = k * size;
            let held = index_to_usize((n - base).min(size));
            (0..held).map(move |x| {
                let length = match self.template.parent(x) {
                    None => self.media_len,
                    Some(p) => (2 * self.template.last_descendant(x).min(held - 1) - x - p) as u64,
                };
                (base + x as u64, length)
            })
        })
    }
}

/// Convenience: `A(L, n)` without retaining the server.
pub fn online_full_cost(media_len: u64, n: u64) -> u64 {
    DelayGuaranteedOnline::new(media_len).total_cost_after(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{
        consecutive_slots, full_cost, merge_cost, validate_forest, ReceivingProgram,
        ValidationOptions,
    };
    use sm_offline::forest::optimal_full_cost;
    use sm_sim::stream_schedule;

    #[test]
    fn tree_size_is_fh() {
        // L = 100 -> F_h = 55 (h = 10); L = 15 -> F_h = 8; L = 1 -> F_h = 1.
        assert_eq!(DelayGuaranteedOnline::new(100).tree_size(), 55);
        assert_eq!(DelayGuaranteedOnline::new(15).tree_size(), 8);
        assert_eq!(DelayGuaranteedOnline::new(1).tree_size(), 1);
    }

    #[test]
    fn cost_matches_materialized_forest() {
        for (l, n) in [(15u64, 30usize), (15, 8), (15, 21), (4, 16), (100, 300)] {
            let alg = DelayGuaranteedOnline::new(l);
            let forest = alg.forest_after(n);
            let times = consecutive_slots(n);
            assert_eq!(
                full_cost(&forest, &times, l) as u64,
                alg.total_cost_after(n as u64),
                "L = {l}, n = {n}"
            );
        }
    }

    #[test]
    fn online_never_beats_offline_optimum() {
        for l in [3u64, 7, 15, 40, 100] {
            let alg = DelayGuaranteedOnline::new(l);
            for n in 1..=300u64 {
                let online = alg.total_cost_after(n);
                let offline = optimal_full_cost(l, n);
                assert!(online >= offline, "L = {l}, n = {n}: {online} < {offline}");
            }
        }
    }

    #[test]
    fn online_matches_offline_at_multiples_of_fh_when_offline_picks_fh() {
        // When n is a multiple of F_h and the off-line optimum uses
        // trees of exactly F_h arrivals, the two coincide.
        let l = 15u64;
        let alg = DelayGuaranteedOnline::new(l); // F_h = 8
        let n = 8u64 * 6;
        let online = alg.total_cost_after(n);
        let offline = optimal_full_cost(l, n);
        assert_eq!(online, offline);
    }

    #[test]
    fn incremental_feed_matches_closed_form() {
        let mut alg = DelayGuaranteedOnline::new(15);
        for t in 0..100u64 {
            alg.on_slot();
            let d = alg.decision_at(t);
            assert_eq!(d.node as u64, t);
            assert_eq!(d.tree as u64, t / 8);
            assert_eq!(d.parent.is_none(), t % 8 == 0);
        }
        assert_eq!(alg.slots_seen(), 100);
        assert_eq!(alg.total_cost(), alg.total_cost_after(100));
    }

    #[test]
    fn receiving_programs_valid_for_all_positions() {
        let alg = DelayGuaranteedOnline::new(15);
        let times = consecutive_slots(8);
        for pos in 0..8 {
            let prog = ReceivingProgram::build(alg.template(), &times, 15, pos);
            prog.verify(&times, 15).unwrap();
            prog.check_receive_two(&times).unwrap();
        }
    }

    #[test]
    fn forests_are_feasible() {
        for (l, n) in [(15u64, 100usize), (7, 50), (100, 500)] {
            let alg = DelayGuaranteedOnline::new(l);
            let forest = alg.forest_after(n);
            let times = consecutive_slots(n);
            validate_forest(
                &forest,
                &times,
                l,
                ValidationOptions {
                    require_preorder: true,
                    buffer_bound: None,
                },
            )
            .unwrap_or_else(|e| panic!("L = {l}, n = {n}: {e}"));
        }
    }

    #[test]
    fn theorem21_upper_bound() {
        // A(L,n) ≤ (s1+1)(L + M(F_h)).
        let cf = ClosedForm::new();
        for l in [7u64, 15, 100] {
            let alg = DelayGuaranteedOnline::new(l);
            let fh = alg.tree_size();
            for n in [fh, 3 * fh + 1, 10 * fh + fh / 2] {
                let s1 = n / fh;
                let bound = (s1 + 1) * (l + cf.merge_cost(fh));
                assert!(alg.total_cost_after(n) <= bound, "L = {l}, n = {n}");
            }
        }
    }

    #[test]
    fn prefix_costs_monotone_and_bounded() {
        let alg = DelayGuaranteedOnline::new(100);
        for w in alg.prefix_costs.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let times = consecutive_slots(alg.template().len());
        assert_eq!(
            *alg.prefix_costs.last().unwrap(),
            u64::try_from(merge_cost(alg.template(), &times)).unwrap()
        );
    }

    /// The one-pass prefix costs equal the direct construction: cost each
    /// truncated template `from_parents(&parents[..i])` on its own.
    #[test]
    fn one_pass_prefix_costs_match_costing_every_truncated_template() {
        for l in 1..=400u64 {
            let alg = DelayGuaranteedOnline::new(l);
            let parents = alg.template().to_parents();
            let mut direct = vec![0u64];
            for i in 1..=parents.len() {
                let truncated = MergeTree::from_parents(&parents[..i]).unwrap();
                let cost = merge_cost(&truncated, &consecutive_slots(i));
                direct.push(u64::try_from(cost).unwrap());
            }
            assert_eq!(alg.prefix_costs, direct, "L = {l}");
        }
    }

    /// The stamped schedule equals `stream_schedule` over the materialized
    /// forest, node for node, for every media length up to 200 and every
    /// truncation of the trailing tree behind 0, 1 and 2 full trees.
    #[test]
    fn stamped_schedule_matches_schedule_stream_over_the_forest() {
        for l in 1..=200u64 {
            let alg = DelayGuaranteedOnline::new(l);
            let fh = alg.tree_size();
            for full in 0..=2u64 {
                for r in 0..fh {
                    let n = full * fh + r;
                    if n == 0 {
                        continue;
                    }
                    let forest = alg.forest_after(index_to_usize(n));
                    let times = consecutive_slots(index_to_usize(n));
                    let expected: Vec<(u64, u64)> = stream_schedule(&forest, &times, l)
                        .unwrap()
                        .into_iter()
                        .map(|s| (s.start as u64, s.length as u64))
                        .collect();
                    let stamped: Vec<(u64, u64)> = alg.schedule_after(n).collect();
                    assert_eq!(
                        stamped, expected,
                        "L = {l}, n = {n} ({full} full trees + {r})"
                    );
                }
            }
        }
    }

    #[test]
    fn buffer_bound_caps_tree_size() {
        // L = 100: unbounded F_h = 55; B = 10 caps trees at 11.
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 10).tree_size(),
            11
        );
        // B ≥ ⌊L/2⌋ never binds.
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 50).tree_size(),
            55
        );
        // B = 0 degenerates to batching: singleton trees.
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 0).tree_size(),
            1
        );
    }

    #[test]
    fn bounded_buffer_forests_respect_the_bound() {
        for buffer in [0u64, 1, 3, 10, 25] {
            let alg = DelayGuaranteedOnline::with_buffer_bound(100, buffer);
            let n = (3 * alg.tree_size() + 1) as usize;
            let forest = alg.forest_after(n);
            let times = consecutive_slots(n);
            validate_forest(
                &forest,
                &times,
                100,
                ValidationOptions {
                    require_preorder: true,
                    buffer_bound: Some(buffer),
                },
            )
            .unwrap_or_else(|e| panic!("B = {buffer}: {e}"));
        }
    }

    #[test]
    fn bounded_buffer_cost_decreases_as_buffer_grows() {
        let n = 1000u64;
        let mut last = u64::MAX;
        for buffer in [0u64, 1, 2, 5, 10, 20, 50] {
            let cost = DelayGuaranteedOnline::with_buffer_bound(100, buffer).total_cost_after(n);
            assert!(cost <= last, "B = {buffer}: {cost} > {last}");
            last = cost;
        }
        // B = 0 is batching; a generous buffer matches the unbounded server.
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 0).total_cost_after(n),
            n * 100
        );
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 50).total_cost_after(n),
            DelayGuaranteedOnline::new(100).total_cost_after(n)
        );
    }

    #[test]
    fn bounded_buffer_online_never_beats_theorem16_offline() {
        let cf = ClosedForm::new();
        for buffer in [2u64, 5, 12] {
            let alg = DelayGuaranteedOnline::with_buffer_bound(40, buffer);
            for n in [10u64, 55, 160] {
                let online = alg.total_cost_after(n);
                let (_, offline) = sm_offline::forest::optimal_s_bounded_buffer(&cf, 40, n, buffer);
                assert!(
                    online >= offline,
                    "B = {buffer}, n = {n}: {online} < {offline}"
                );
            }
        }
    }
}
