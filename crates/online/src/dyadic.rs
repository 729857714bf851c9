//! The (α,β)-dyadic stream-merging algorithm of Coffman, Jelenković and
//! Momčilović \[9\] — the representative on-line comparison algorithm of §4.2.
//!
//! A root stream started at time `x` accepts merges from arrivals in
//! `(x, x + β·L]`. That window is split into geometrically shrinking
//! sub-intervals accumulating towards its right end: sub-interval `i ≥ 1` is
//!
//! ```text
//! I_i = ( x + w·(1 − α^{1−i}),  x + w·(1 − α^{−i}) ]      w = window width
//! ```
//!
//! (for α = 2 these are the dyadic halves `(x, x+w/2], (x+w/2, x+3w/4], …`).
//! The earliest arrival inside a sub-interval becomes a child of the root
//! and the procedure recurses inside that sub-interval. Processing arrivals
//! in strictly increasing time order makes this a stack algorithm: each
//! arrival pops expired frames, attaches under the surviving top, and
//! pushes its own frame. No decision reads a closed tree, so the merger
//! holds only the open tree and a running cost; [`dyadic_forest`] folds
//! the decisions into the whole forest.
//!
//! The paper's §4.2 variant uses α = φ, with β = 0.5 for Poisson arrivals
//! and `β = F_h / L` for constant-rate arrivals.

use sm_core::MergeForest;

use crate::incremental::{DecisionError, ForestBuilder, MergeDecision};

/// Parameters of the (α,β)-dyadic algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DyadicConfig {
    /// Geometric interval ratio (`> 1`). \[9\] uses 2; §4.2 uses φ.
    pub alpha: f64,
    /// Merge-window size as a fraction of the stream length (`0 < β ≤ 1`).
    pub beta: f64,
}

impl DyadicConfig {
    /// The original parameters of \[9\]: α = 2, β = 0.5.
    pub fn classic() -> Self {
        Self {
            alpha: 2.0,
            beta: 0.5,
        }
    }

    /// The paper's golden-ratio variant for Poisson arrivals: α = φ, β = 0.5.
    pub fn golden_poisson() -> Self {
        Self {
            alpha: sm_fib::PHI,
            beta: 0.5,
        }
    }

    /// The paper's constant-rate variant: α = φ, β = F_h/L.
    pub fn golden_constant_rate(media_len: u64) -> Self {
        let table = sm_fib::FibTable::new();
        let h = table.theorem12_h(media_len);
        Self {
            alpha: sm_fib::PHI,
            beta: table.get(h) as f64 / media_len as f64,
        }
    }
}

/// Deepest geometric sub-interval level the merger resolves: beyond it
/// the sub-interval is numerically empty, and an arrival sits at its own
/// point interval.
const MAX_LEVEL: usize = 60;

#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Local index of the frame's node in the open tree.
    node: usize,
    start: f64,
    end: f64,
}

/// On-line (α,β)-dyadic merger over continuous arrival times.
///
/// Feed arrivals in strictly increasing time order with
/// [`DyadicMerger::on_arrival`]. The merger holds only its frame stack and
/// the open tree, so its memory is bounded by the largest tree rather than
/// the run; [`total_cost`](DyadicMerger::total_cost) is available at any
/// time, and [`dyadic_forest`] rebuilds the committed merge forest of a
/// whole arrival sequence.
#[derive(Debug, Clone)]
pub struct DyadicMerger {
    cfg: DyadicConfig,
    media_len: f64,
    /// `ln α`, computed once: every decision divides by it.
    ln_alpha: f64,
    /// `α^-i` at index `i - 1`, for every level `i ∈ 1..=MAX_LEVEL`.
    inv_powers: [f64; MAX_LEVEL],
    stack: Vec<Frame>,
    /// Local parent of each open-tree node; entry 0 (the root) is unused.
    parents: Vec<usize>,
    /// Arrival time of each open-tree node.
    times: Vec<f64>,
    /// Reverse-pass scratch: `z(x)`, the last arrival of `x`'s subtree.
    last: Vec<usize>,
    /// `L + Mcost` of every closed tree, summed in closing order.
    closed_cost: f64,
    /// Global arrival index of the open tree's root.
    base: usize,
    roots: usize,
}

impl DyadicMerger {
    /// Creates a merger for media length `media_len` (in slots / time units).
    ///
    /// # Panics
    /// Panics unless `alpha > 1`, `0 < beta ≤ 1` and `media_len > 0`.
    pub fn new(cfg: DyadicConfig, media_len: f64) -> Self {
        assert!(cfg.alpha > 1.0, "alpha must exceed 1");
        assert!(
            cfg.beta > 0.0 && cfg.beta <= 1.0,
            "beta must lie in (0, 1], got {}",
            cfg.beta
        );
        assert!(media_len > 0.0);
        Self {
            cfg,
            media_len,
            ln_alpha: cfg.alpha.ln(),
            inv_powers: std::array::from_fn(|k| cfg.alpha.powf(-((k + 1) as f64))),
            stack: Vec::new(),
            parents: Vec::new(),
            times: Vec::new(),
            last: Vec::new(),
            closed_cost: 0.0,
            base: 0,
            roots: 0,
        }
    }

    /// Number of arrivals processed.
    pub fn len(&self) -> usize {
        self.base + self.times.len()
    }

    /// `true` before any arrival.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Processes an arrival at time `t` and returns its merge decision.
    /// A root closes the open tree, whose `L + Mcost` joins the running
    /// cost; the tree's columns are then reused for the new one.
    ///
    /// # Panics
    /// Panics unless `t` is strictly later than every earlier arrival, so a
    /// tie panics too (batch co-arrivals into one arrival first).
    pub fn on_arrival(&mut self, t: f64) -> MergeDecision {
        let last_time = self.times.last().copied().unwrap_or(f64::NEG_INFINITY);
        assert!(
            t > last_time,
            "arrivals must be fed in strictly increasing order ({t} after {last_time})"
        );
        let node = self.len();
        // Expire frames whose merge window closed before t. The root frame
        // expiring means t starts a new tree.
        while let Some(top) = self.stack.last() {
            if t > top.end {
                self.stack.pop();
            } else {
                break;
            }
        }
        let parent = match self.stack.last().copied() {
            None => {
                if !self.times.is_empty() {
                    self.closed_cost += self.media_len
                        + tree_merge_cost(&self.parents, &self.times, &mut self.last);
                }
                self.parents.clear();
                self.times.clear();
                self.base = node;
                self.roots += 1;
                self.parents.push(0);
                self.stack.push(Frame {
                    node: 0,
                    start: t,
                    end: t + self.cfg.beta * self.media_len,
                });
                None
            }
            Some(frame) => {
                self.parents.push(frame.node);
                let end = self.sub_interval_end(frame.start, frame.end, t);
                self.stack.push(Frame {
                    node: self.times.len(),
                    start: t,
                    end,
                });
                Some(self.base + frame.node)
            }
        };
        self.times.push(t);
        MergeDecision {
            node,
            tree: self.roots - 1,
            parent,
        }
    }

    /// Right endpoint of the geometric sub-interval of `(start, end]`
    /// containing `t`.
    fn sub_interval_end(&self, start: f64, end: f64, t: f64) -> f64 {
        let w = end - start;
        debug_assert!(w > 0.0 && t > start && t <= end);
        let frac = (t - start) / w;
        // Need the smallest i >= 1 with frac <= 1 - alpha^{-i}, i.e.
        // alpha^{-i} <= 1 - frac  =>  i >= log_alpha(1/(1-frac)).
        let i = if frac >= 1.0 {
            f64::INFINITY
        } else {
            ((1.0 / (1.0 - frac)).ln() / self.ln_alpha).ceil().max(1.0)
        };
        // Clamp: beyond MAX_LEVEL levels the sub-interval is numerically
        // empty; treat t as sitting at its own point interval.
        if i > MAX_LEVEL as f64 {
            return t.max(start);
        }
        // `i` is a whole number in 1..=MAX_LEVEL here (`max` maps NaN to 1).
        let sub_end = start + w * (1.0 - self.inv_powers[i as usize - 1]);
        sub_end.max(t)
    }

    /// Total server bandwidth committed so far, in slot-units: `L` per root
    /// plus receive-two merge costs. The closed trees' share is the running
    /// total; only the open tree is costed here.
    pub fn total_cost(&self) -> f64 {
        if self.times.is_empty() {
            return 0.0;
        }
        let open = tree_merge_cost(&self.parents, &self.times, &mut Vec::new());
        self.closed_cost + (self.media_len + open)
    }

    /// Number of full (root) streams started.
    pub fn roots(&self) -> usize {
        self.roots
    }
}

/// `Mcost` of one tree from its local parent and time columns, folded term
/// for term as `sm_core::merge_cost` folds it: `(t_z − t_x) + (t_z − t_p)`
/// over nodes `1..n` in index order, from `0.0`. One reverse pass over the
/// parents finds each `z(x)`, as `MergeTree::from_parents` does.
fn tree_merge_cost(parents: &[usize], times: &[f64], last: &mut Vec<usize>) -> f64 {
    last.clear();
    last.extend(0..times.len());
    for x in (1..times.len()).rev() {
        let p = parents[x];
        last[p] = last[p].max(last[x]);
    }
    let mut cost = 0.0;
    for x in 1..times.len() {
        let z = times[last[x]];
        cost += (z - times[x]) + (z - times[parents[x]]);
    }
    cost
}

/// Runs the dyadic algorithm over a whole arrival sequence (immediate
/// service: one stream per arrival time). Returns total cost in slot-units.
pub fn dyadic_total_cost(cfg: DyadicConfig, media_len: f64, arrivals: &[f64]) -> f64 {
    let mut m = DyadicMerger::new(cfg, media_len);
    for &t in arrivals {
        m.on_arrival(t);
    }
    m.total_cost()
}

/// The merge forest the dyadic algorithm commits over a whole arrival
/// sequence: its decisions folded through a [`ForestBuilder`], so the batch
/// view is exactly what the arrival-at-a-time decisions built. The forest's
/// times are `arrivals` themselves.
///
/// # Errors
/// Only on empty input, as [`ForestBuilder::finish`] (a forest needs at
/// least one tree).
///
/// # Panics
/// As [`DyadicMerger::new`] and [`DyadicMerger::on_arrival`]: on bad
/// parameters, or times that do not strictly increase.
pub fn dyadic_forest(
    cfg: DyadicConfig,
    media_len: f64,
    arrivals: &[f64],
) -> Result<MergeForest, DecisionError> {
    let mut m = DyadicMerger::new(cfg, media_len);
    let mut builder = ForestBuilder::new();
    for &t in arrivals {
        builder.apply(&m.on_arrival(t))?;
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sm_core::{merge_cost, validate_forest, ValidationOptions};

    fn feed(cfg: DyadicConfig, media: f64, ts: &[f64]) -> DyadicMerger {
        let mut m = DyadicMerger::new(cfg, media);
        for &t in ts {
            m.on_arrival(t);
        }
        m
    }

    #[test]
    fn single_arrival_is_one_root() {
        let m = feed(DyadicConfig::classic(), 10.0, &[0.0]);
        assert_eq!(m.roots(), 1);
        assert_eq!(m.total_cost(), 10.0);
    }

    #[test]
    fn arrival_past_window_starts_new_root() {
        // beta*L = 5: arrival at 6 is outside (0, 5].
        let m = feed(DyadicConfig::classic(), 10.0, &[0.0, 6.0]);
        assert_eq!(m.roots(), 2);
        assert_eq!(m.total_cost(), 20.0);
    }

    #[test]
    fn classic_dyadic_halving_structure() {
        // Window (0, 5]: I_1 = (0, 2.5], I_2 = (2.5, 3.75], ...
        // Arrivals 1.0 and 2.0 share I_1: 2.0 merges under 1.0.
        let forest = dyadic_forest(DyadicConfig::classic(), 10.0, &[0.0, 1.0, 2.0]).unwrap();
        assert_eq!(forest.num_trees(), 1);
        let tree = &forest.trees()[0];
        assert_eq!(tree.parent(1), Some(0));
        assert_eq!(tree.parent(2), Some(1));
        // 3.0 falls in I_2 of the root: child of the root, not of 1.0.
        let forest = dyadic_forest(DyadicConfig::classic(), 10.0, &[0.0, 1.0, 3.0]).unwrap();
        assert_eq!(forest.trees()[0].parent(2), Some(0));
    }

    #[test]
    fn recursion_applies_inside_subintervals() {
        // Inside I_1 = (0, 2.5] of the root, the child at 0.5 re-splits
        // (0.5, 2.5]: its I_1 is (0.5, 1.5]. Arrival 1.2 goes under 0.5;
        // arrival 2.0 (in (1.5, 2.5]) also under 0.5; arrival 2.6 under root.
        let ts = [0.0, 0.5, 1.2, 2.0, 2.6];
        let forest = dyadic_forest(DyadicConfig::classic(), 10.0, &ts).unwrap();
        let t = &forest.trees()[0];
        assert_eq!(t.parent(1), Some(0)); // 0.5 under root
        assert_eq!(t.parent(2), Some(1)); // 1.2 under 0.5
        assert_eq!(t.parent(3), Some(1)); // 2.0 under 0.5 (its I_2)
        assert_eq!(t.parent(4), Some(0)); // 2.6 under root (root's I_2)
    }

    #[test]
    fn trees_always_have_preorder_property() {
        let ts: Vec<f64> = (0..200).map(|i| i as f64 * 0.37).collect();
        for cfg in [
            DyadicConfig::classic(),
            DyadicConfig::golden_poisson(),
            DyadicConfig::golden_constant_rate(100),
        ] {
            let forest = dyadic_forest(cfg, 100.0, &ts).unwrap();
            for tree in forest.trees() {
                assert!(tree.has_preorder_property());
            }
        }
    }

    #[test]
    fn forests_are_feasible_for_beta_half() {
        // β ≤ 1/2 keeps every stream within the media:
        // ℓ(x) ≤ 2·span ≤ 2βL ≤ L.
        let ts: Vec<f64> = (0..300).map(|i| i as f64 * 0.23).collect();
        let forest = dyadic_forest(DyadicConfig::golden_poisson(), 20.0, &ts).unwrap();
        validate_forest(&forest, &ts, 20, ValidationOptions::default()).unwrap();
    }

    /// Total cost recomputed from the committed forest: `L + merge_cost`
    /// added tree by tree from `0.0`, the order the running cost must
    /// reproduce bit for bit.
    fn forest_cost(forest: &MergeForest, times: &[f64], media: f64) -> f64 {
        let mut total = 0.0;
        for (range, tree) in forest.iter_with_ranges() {
            total += media + merge_cost(tree, &times[range]);
        }
        total
    }

    #[test]
    fn cost_decomposes_over_trees() {
        let ts = [0.0, 1.0, 2.0, 30.0, 31.5];
        let m = feed(DyadicConfig::classic(), 20.0, &ts);
        assert_eq!(m.roots(), 2);
        let forest = dyadic_forest(DyadicConfig::classic(), 20.0, &ts).unwrap();
        assert_eq!(
            m.total_cost().to_bits(),
            forest_cost(&forest, &ts, 20.0).to_bits()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn running_cost_is_bit_identical_to_the_committed_forest(
            // Gaps log-uniform on [1e-3, 20]: dense bursts and lone roots.
            gap_exponents in proptest::collection::vec(-3.0f64..=20f64.log10(), 1..=400),
            cfg_case in 0usize..4,
            media_case in 0usize..4,
        ) {
            let media = [7.0, 40.0, 100.0, 333.3][media_case];
            let cfg = match cfg_case {
                0 => DyadicConfig::classic(),
                1 => DyadicConfig::golden_poisson(),
                2 => DyadicConfig::golden_constant_rate(media as u64),
                _ => DyadicConfig {
                    alpha: 1.05,
                    beta: 1.0,
                },
            };
            let mut t = 0.0;
            let times: Vec<f64> = gap_exponents
                .iter()
                .map(|&e| {
                    t += 10f64.powf(e);
                    t
                })
                .collect();
            let mut m = DyadicMerger::new(cfg, media);
            for (k, &t) in times.iter().enumerate() {
                m.on_arrival(t);
                let n = k + 1;
                if n % 37 == 0 || n == times.len() {
                    let prefix = &times[..n];
                    let forest = dyadic_forest(cfg, media, prefix).unwrap();
                    prop_assert_eq!(
                        m.total_cost().to_bits(),
                        forest_cost(&forest, prefix, media).to_bits(),
                        "{:?}, L = {}, after {} arrivals",
                        cfg,
                        media,
                        n
                    );
                    prop_assert_eq!(m.roots(), forest.num_trees());
                    prop_assert_eq!(m.len(), n);
                }
            }
        }
    }

    #[test]
    fn empty_input_has_no_forest() {
        assert!(dyadic_forest(DyadicConfig::classic(), 10.0, &[]).is_err());
        assert_eq!(dyadic_total_cost(DyadicConfig::classic(), 10.0, &[]), 0.0);
    }

    #[test]
    fn denser_arrivals_cost_more_total_but_less_per_client() {
        let cfg = DyadicConfig::golden_poisson();
        let sparse: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let dense: Vec<f64> = (0..500).map(|i| i as f64 * 0.1).collect();
        let c_sparse = dyadic_total_cost(cfg, 25.0, &sparse);
        let c_dense = dyadic_total_cost(cfg, 25.0, &dense);
        assert!(c_dense > c_sparse);
        assert!(c_dense / 500.0 < c_sparse / 50.0);
    }

    /// The sub-interval formula with `ln α` and `α^-i` computed inline —
    /// the reference the merger's cached tables must reproduce bit for
    /// bit.
    fn sub_interval_end_inline(alpha: f64, start: f64, end: f64, t: f64) -> f64 {
        let w = end - start;
        let frac = (t - start) / w;
        let i = if frac >= 1.0 {
            f64::INFINITY
        } else {
            ((1.0 / (1.0 - frac)).ln() / alpha.ln()).ceil().max(1.0)
        };
        if i > 60.0 {
            return t.max(start);
        }
        let sub_end = start + w * (1.0 - alpha.powf(-i));
        sub_end.max(t)
    }

    #[test]
    fn cached_sub_interval_ends_match_the_inline_formula() {
        // Uniform fractions plus fractions 1 − 2^-j that walk every level
        // up to and past the clamp.
        let mut fracs: Vec<f64> = (1..=2000).map(|k| f64::from(k) / 2000.0).collect();
        fracs.extend((1..=64).map(|j| 1.0 - 2f64.powi(-j)));
        for cfg in [
            DyadicConfig::golden_poisson(),
            DyadicConfig::classic(),
            DyadicConfig {
                alpha: 2.0,
                beta: 1.0,
            },
            DyadicConfig {
                alpha: 1.05,
                beta: 0.5,
            },
        ] {
            let m = DyadicMerger::new(cfg, 100.0);
            for (start, end) in [(0.0, 50.0), (17.25, 23.5), (1e6, 1e6 + 72.0)] {
                for &frac in &fracs {
                    let t = start + frac * (end - start);
                    if !(t > start && t <= end) {
                        continue;
                    }
                    let got = m.sub_interval_end(start, end, t);
                    let want = sub_interval_end_inline(cfg.alpha, start, end, t);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "α = {}, window ({start}, {end}], frac = {frac}",
                        cfg.alpha
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn out_of_order_arrivals_panic() {
        let mut m = DyadicMerger::new(DyadicConfig::classic(), 10.0);
        m.on_arrival(1.0);
        m.on_arrival(0.5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn tied_arrivals_panic() {
        let mut m = DyadicMerger::new(DyadicConfig::classic(), 10.0);
        m.on_arrival(1.0);
        m.on_arrival(1.0);
    }

    #[test]
    #[should_panic]
    fn bad_alpha_rejected() {
        let _ = DyadicMerger::new(
            DyadicConfig {
                alpha: 1.0,
                beta: 0.5,
            },
            10.0,
        );
    }
}
