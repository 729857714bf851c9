//! Hierarchical stream merging à la Eager–Vernon–Zahorjan \[16\] — the
//! greedy on-line policy family the paper's §4.2 comparison study \[4\]
//! benchmarked alongside the dyadic algorithm.
//!
//! On each arrival the policy picks a *merge target* among the streams that
//! are still broadcasting. In the merge-tree model a new arrival can only
//! attach along the **right spine** of the current tree (anything else would
//! violate the preorder property optimal forests satisfy), so the candidate
//! set is the spine and the policies differ in which spine node they pick:
//!
//! * [`MergePolicy::EarliestReachable`] (**ERMT**): the deepest spine node
//!   the client can still catch — the stream it stops needing soonest
//!   (catch-up completes at `2x − y`, so deeper is sooner). A spine node `y`
//!   is *reachable* iff the client catches it before `y`'s **currently
//!   scheduled** termination (`end(y) = 2·z(y) − p(y) ≥ 2x − y`): ERMT
//!   honors the merge schedule already committed, and that restraint is
//!   precisely what keeps it from degenerating into long chains whose
//!   streams every later arrival would have to extend. The target must also
//!   keep every affected stream within the media
//!   (`ℓ(a) = 2x − a − p(a) ≤ L` for each non-root ancestor `a` on the
//!   would-be path).
//! * [`MergePolicy::DirectToRoot`]: always merge to the root — which is
//!   exactly patching, and the tests pin the equivalence with
//!   [`crate::patching::PatchingMerger`] as a cross-validation of both
//!   implementations.
//!
//! A new full stream starts when the gap to the current root exceeds the
//! `cutoff` (the β-style knob every on-line merging algorithm carries; the
//! dyadic algorithm's β plays the same role).

use sm_core::{merge_cost, MergeForest, MergeTree};

/// Which spine node a new arrival merges to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// ERMT: deepest reachable spine node (Eager–Vernon–Zahorjan).
    EarliestReachable,
    /// Always the root — the patching policy, for cross-validation.
    DirectToRoot,
}

/// On-line hierarchical merger over continuous arrival times.
///
/// ```
/// use sm_online::hierarchical::{HierarchicalMerger, MergePolicy};
///
/// let mut m = HierarchicalMerger::new(MergePolicy::EarliestReachable, 100.0, 50.0);
/// m.on_arrival(0.0);
/// m.on_arrival(1.0);
/// m.on_arrival(1.5); // catches the stream of 1.0 before it terminates
/// let (forest, _) = m.forest();
/// assert_eq!(forest.trees()[0].parent(2), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalMerger {
    policy: MergePolicy,
    media_len: f64,
    /// New root when `x − root > cutoff`.
    cutoff: f64,
    times: Vec<f64>,
    parents: Vec<Option<usize>>,
    tree_starts: Vec<usize>,
    /// Right spine of the current tree (global indices, root first).
    spine: Vec<usize>,
    last_time: f64,
}

impl HierarchicalMerger {
    /// Creates a merger. `cutoff` is in time units and must lie in
    /// `[0, media_len − 1]` (a client further than `L−1` from the root
    /// cannot be served by its stream).
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn new(policy: MergePolicy, media_len: f64, cutoff: f64) -> Self {
        assert!(media_len > 0.0);
        assert!(
            (0.0..=media_len - 1.0).contains(&cutoff),
            "cutoff must lie in [0, L-1], got {cutoff}"
        );
        Self {
            policy,
            media_len,
            cutoff,
            times: Vec::new(),
            parents: Vec::new(),
            tree_starts: Vec::new(),
            spine: Vec::new(),
            last_time: f64::NEG_INFINITY,
        }
    }

    /// ERMT with the dyadic-style cutoff β = 1/2. Note that unlike the
    /// dyadic algorithm, ERMT keeps *extending* streams inside its window,
    /// so a wide window is expensive under dense arrivals — prefer
    /// [`ermt_tuned_cost`] when the arrival rate is known.
    pub fn ermt(media_len: f64) -> Self {
        Self::new(
            MergePolicy::EarliestReachable,
            media_len,
            0.5 * (media_len - 1.0),
        )
    }

    /// ERMT with the window tuned to the arrival rate: the cutoff is the
    /// classical patching renewal threshold
    /// [`crate::patching::optimal_threshold`] — the same "when does a fresh
    /// full stream beat merging" tradeoff governs both policies, and inside
    /// the window ERMT's trees strictly improve on patching's stars (the
    /// tests check this dominance).
    fn ermt_tuned(media_len: f64, rate: f64) -> Self {
        let cutoff = crate::patching::optimal_threshold(media_len, rate);
        Self::new(MergePolicy::EarliestReachable, media_len, cutoff)
    }

    /// Number of arrivals processed.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` before any arrival.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of full (root) streams started.
    pub fn roots(&self) -> usize {
        self.tree_starts.len()
    }

    /// Whether attaching `x` under spine depth `d` keeps every non-root
    /// stream on the path within the media length.
    fn path_feasible(&self, d: usize, x: f64) -> bool {
        self.spine[1..=d].iter().all(|&a| {
            let pa = self.parents[a].expect("non-root spine node has a parent");
            2.0 * x - self.times[a] - self.times[pa] <= self.media_len
        })
    }

    /// Whether a client arriving at `x` catches the stream of the spine
    /// node at depth `d` before its currently scheduled termination
    /// (`2·z − p`, with `z =` the last arrival so far for spine nodes).
    /// Roots are always reachable: they broadcast the full media and the
    /// cutoff check bounds the span.
    fn reachable(&self, d: usize, x: f64) -> bool {
        if d == 0 {
            return true;
        }
        let y = self.spine[d];
        let p = self.parents[y].expect("non-root spine node has a parent");
        2.0 * self.last_time - self.times[p] >= 2.0 * x - self.times[y]
    }

    /// Processes an arrival at time `t`; returns the global node index.
    ///
    /// # Panics
    /// Panics if `t` does not exceed the previous arrival time.
    pub fn on_arrival(&mut self, t: f64) -> usize {
        assert!(
            t > self.last_time,
            "arrivals must be fed in strictly increasing order ({t} after {})",
            self.last_time
        );
        let node = self.times.len();
        let new_root = match self.spine.first() {
            None => true,
            Some(&r) => t - self.times[r] > self.cutoff,
        };
        if new_root {
            self.parents.push(None);
            self.tree_starts.push(node);
            self.spine.clear();
            self.spine.push(node);
        } else {
            let depth = match self.policy {
                MergePolicy::DirectToRoot => 0,
                MergePolicy::EarliestReachable => (0..self.spine.len())
                    .rev()
                    .find(|&d| self.reachable(d, t) && self.path_feasible(d, t))
                    .expect("the root is always reachable and feasible"),
            };
            self.parents.push(Some(self.spine[depth]));
            self.spine.truncate(depth + 1);
            self.spine.push(node);
        }
        self.times.push(t);
        self.last_time = t;
        node
    }

    /// The committed merge forest and the global arrival times.
    pub fn forest(&self) -> (MergeForest, Vec<f64>) {
        assert!(!self.times.is_empty(), "no arrivals processed");
        let mut trees = Vec::with_capacity(self.tree_starts.len());
        for (idx, &s) in self.tree_starts.iter().enumerate() {
            let e = self
                .tree_starts
                .get(idx + 1)
                .copied()
                .unwrap_or(self.times.len());
            let local: Vec<Option<usize>> =
                (s..e).map(|g| self.parents[g].map(|p| p - s)).collect();
            trees.push(MergeTree::from_parents(&local).expect("spine attach is valid"));
        }
        (
            MergeForest::from_trees(trees).expect("at least one tree"),
            self.times.clone(),
        )
    }

    /// Total server bandwidth committed so far, in slot-units.
    pub fn total_cost(&self) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        let (forest, times) = self.forest();
        let mut total = 0.0;
        for (range, tree) in forest.iter_with_ranges() {
            total += self.media_len + merge_cost(tree, &times[range]);
        }
        total
    }
}

/// Runs rate-tuned ERMT over a whole arrival sequence; returns total
/// bandwidth.
pub fn ermt_tuned_cost(media_len: f64, rate: f64, arrivals: &[f64]) -> f64 {
    let mut m = HierarchicalMerger::ermt_tuned(media_len, rate);
    for &t in arrivals {
        m.on_arrival(t);
    }
    m.total_cost()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patching::PatchingMerger;
    use sm_core::{validate_forest, ValidationOptions};

    fn feed(policy: MergePolicy, media: f64, cutoff: f64, ts: &[f64]) -> HierarchicalMerger {
        let mut m = HierarchicalMerger::new(policy, media, cutoff);
        for &t in ts {
            m.on_arrival(t);
        }
        m
    }

    #[test]
    fn single_arrival_is_one_root() {
        let m = feed(MergePolicy::EarliestReachable, 10.0, 5.0, &[0.0]);
        assert_eq!(m.roots(), 1);
        assert_eq!(m.total_cost(), 10.0);
    }

    #[test]
    fn past_cutoff_starts_new_root() {
        let m = feed(MergePolicy::EarliestReachable, 10.0, 5.0, &[0.0, 6.0]);
        assert_eq!(m.roots(), 2);
        assert_eq!(m.total_cost(), 20.0);
    }

    #[test]
    fn ermt_attaches_to_deepest_reachable_stream() {
        // Arrivals 0, 1, 1.5: stream of 1 is scheduled to end at
        // 2·1 − 0 = 2 and the client at 1.5 catches it at 2·1.5 − 1 = 2 ⇒
        // reachable, attaches under 1.
        let m = feed(
            MergePolicy::EarliestReachable,
            100.0,
            99.0,
            &[0.0, 1.0, 1.5],
        );
        let (forest, _) = m.forest();
        let t = &forest.trees()[0];
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(2), Some(1));
    }

    #[test]
    fn scheduled_terminations_are_honored() {
        // Arrivals 0, 1, 2: the stream of 1 ends at 2, but the client at 2
        // would catch it only at 2·2 − 1 = 3 ⇒ unreachable, goes to root.
        let m = feed(
            MergePolicy::EarliestReachable,
            100.0,
            99.0,
            &[0.0, 1.0, 2.0],
        );
        let (forest, _) = m.forest();
        let t = &forest.trees()[0];
        assert_eq!(t.parent(2), Some(0));
        // Same for a long-dead stream.
        let m = feed(
            MergePolicy::EarliestReachable,
            100.0,
            99.0,
            &[0.0, 1.0, 4.0],
        );
        assert_eq!(m.forest().0.trees()[0].parent(2), Some(0));
    }

    #[test]
    fn media_length_cap_forces_shallower_attach() {
        // L = 10, arrivals 0, 4, 5.9: attaching 5.9 under 4 needs
        // ℓ(4) = 2·5.9 − 4 − 0 = 7.8 ≤ 10 — fine. With L = 7.5 it is not,
        // so 5.9 climbs to the root (ℓ constraint involves only non-roots).
        let deep = feed(MergePolicy::EarliestReachable, 10.0, 9.0, &[0.0, 4.0, 5.9]);
        assert_eq!(deep.forest().0.trees()[0].parent(2), Some(1));
        let shallow = feed(MergePolicy::EarliestReachable, 7.5, 6.5, &[0.0, 4.0, 5.9]);
        assert_eq!(shallow.forest().0.trees()[0].parent(2), Some(0));
    }

    #[test]
    fn direct_to_root_is_patching() {
        let ts = [0.0, 0.7, 2.3, 5.5, 9.1, 9.2, 14.0, 20.0, 21.5];
        let media = 12.0;
        let cutoff = 8.0;
        let h = feed(MergePolicy::DirectToRoot, media, cutoff, &ts);
        let mut p = PatchingMerger::new(media, cutoff);
        for &t in &ts {
            p.on_arrival(t);
        }
        assert_eq!(h.roots(), p.roots());
        assert!((h.total_cost() - p.total_cost()).abs() < 1e-9);
        let (hf, _) = h.forest();
        let (pf, _) = p.forest();
        assert_eq!(
            hf.trees()
                .iter()
                .map(|t| t.to_parents())
                .collect::<Vec<_>>(),
            pf.trees()
                .iter()
                .map(|t| t.to_parents())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn forests_validate_and_have_preorder_property() {
        let ts: Vec<f64> = (0..400).map(|i| i as f64 * 0.31).collect();
        let m = feed(MergePolicy::EarliestReachable, 20.0, 9.5, &ts);
        let (forest, times) = m.forest();
        for (range, tree) in forest.iter_with_ranges() {
            assert!(tree.has_preorder_property());
            let _ = &times[range];
        }
        validate_forest(&forest, &times, 20, ValidationOptions::default()).unwrap();
    }

    #[test]
    fn ermt_beats_patching_under_dense_arrivals() {
        // Dense constant-rate arrivals: tree-shaped merging amortizes far
        // better than depth-one patches, at the same renewal window.
        let ts: Vec<f64> = (0..1000).map(|i| i as f64 * 0.1).collect();
        let media = 50.0;
        let rate = 10.0;
        let tau = crate::patching::optimal_threshold(media, rate);
        let ermt = ermt_tuned_cost(media, rate, &ts);
        let patching = crate::patching::patching_total_cost(media, tau, &ts);
        assert!(
            ermt < patching,
            "ERMT {ermt} should beat patching {patching}"
        );
    }

    #[test]
    fn ermt_dominates_patching_at_equal_windows() {
        // At the *same* cutoff, ERMT's trees can only improve on patching's
        // stars: the root merges are identical and deeper attachments are
        // chosen only when reachable.
        for cutoff in [5.0f64, 10.0, 20.0] {
            let ts: Vec<f64> = (0..2000).map(|i| i as f64 * 0.25).collect();
            let media = 60.0;
            let mut m = HierarchicalMerger::new(MergePolicy::EarliestReachable, media, cutoff);
            for &t in &ts {
                m.on_arrival(t);
            }
            let patching = crate::patching::patching_total_cost(media, cutoff, &ts);
            assert!(
                m.total_cost() <= patching + 1e-6,
                "cutoff {cutoff}: ERMT {} > patching {patching}",
                m.total_cost()
            );
        }
    }

    #[test]
    fn sparse_arrivals_degenerate_to_full_streams() {
        let ts: Vec<f64> = (0..10).map(|i| i as f64 * 100.0).collect();
        let m = feed(MergePolicy::EarliestReachable, 20.0, 9.5, &ts);
        assert_eq!(m.roots(), 10);
        assert_eq!(m.total_cost(), 200.0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_arrivals_panic() {
        let mut m = HierarchicalMerger::ermt(10.0);
        m.on_arrival(1.0);
        m.on_arrival(0.5);
    }
}
