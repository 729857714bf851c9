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
//! in time order makes this a stack algorithm: each arrival pops expired
//! frames, attaches under the surviving top, and pushes its own frame.
//!
//! The paper's §4.2 variant uses α = φ, with β = 0.5 for Poisson arrivals
//! and `β = F_h / L` for constant-rate arrivals.

use sm_core::{merge_cost, MergeForest};

use crate::incremental::{ForestBuilder, MergeDecision};

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
    node: usize,
    start: f64,
    end: f64,
}

/// On-line (α,β)-dyadic merger over continuous arrival times.
///
/// Feed arrivals in nondecreasing time order with [`DyadicMerger::on_arrival`];
/// extract the committed merge forest and its bandwidth cost at any time.
#[derive(Debug, Clone)]
pub struct DyadicMerger {
    cfg: DyadicConfig,
    media_len: f64,
    /// `ln α`, computed once: every decision divides by it.
    ln_alpha: f64,
    /// `α^-i` at index `i - 1`, for every level `i ∈ 1..=MAX_LEVEL`.
    inv_powers: [f64; MAX_LEVEL],
    stack: Vec<Frame>,
    times: Vec<f64>,
    parents: Vec<Option<usize>>,
    /// Index into `times` where each tree starts.
    tree_starts: Vec<usize>,
    last_time: f64,
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
            times: Vec::new(),
            parents: Vec::new(),
            tree_starts: Vec::new(),
            last_time: f64::NEG_INFINITY,
        }
    }

    /// Number of arrivals processed.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` before any arrival.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Processes an arrival at time `t`; returns the node index assigned.
    ///
    /// # Panics
    /// Panics if `t` precedes an earlier arrival (feed in order; ties are
    /// allowed only logically — use strictly increasing times, e.g. batch
    /// co-arrivals first).
    pub fn on_arrival(&mut self, t: f64) -> usize {
        assert!(
            t > self.last_time,
            "arrivals must be fed in strictly increasing order ({t} after {})",
            self.last_time
        );
        self.last_time = t;
        let node = self.times.len();
        self.times.push(t);
        // Expire frames whose merge window closed before t. The root frame
        // expiring means t starts a new tree.
        while let Some(top) = self.stack.last() {
            if t > top.end {
                self.stack.pop();
            } else {
                break;
            }
        }
        match self.stack.last().copied() {
            None => {
                self.parents.push(None);
                self.tree_starts.push(node);
                self.stack.clear();
                self.stack.push(Frame {
                    node,
                    start: t,
                    end: t + self.cfg.beta * self.media_len,
                });
            }
            Some(parent) => {
                self.parents.push(Some(parent.node));
                let end = self.sub_interval_end(parent.start, parent.end, t);
                self.stack.push(Frame {
                    node,
                    start: t,
                    end,
                });
            }
        }
        node
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

    /// Parent (global arrival index) committed for `node`; `None` for tree
    /// roots. The decision read-back behind the crate's
    /// [`IncrementalPolicy`](crate::incremental::IncrementalPolicy) impl.
    pub fn parent_of(&self, node: usize) -> Option<usize> {
        self.parents[node]
    }

    /// The committed merge forest (so far) and the global arrival times —
    /// a fold of the recorded decision stream through a [`ForestBuilder`],
    /// so the batch view is exactly what the arrival-at-a-time decisions
    /// built.
    pub fn forest(&self) -> (MergeForest, Vec<f64>) {
        assert!(!self.times.is_empty(), "no arrivals processed");
        let mut builder = ForestBuilder::new();
        for (node, &parent) in self.parents.iter().enumerate() {
            let tree = builder.trees() - usize::from(parent.is_some());
            builder
                .apply(&MergeDecision { node, tree, parent })
                .expect("dyadic decisions are structurally valid");
        }
        (
            builder.finish().expect("at least one tree"),
            self.times.clone(),
        )
    }

    /// Total server bandwidth committed so far, in slot-units: `L` per root
    /// plus receive-two merge costs.
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

    /// Number of full (root) streams started.
    pub fn roots(&self) -> usize {
        self.tree_starts.len()
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{validate_forest, ValidationOptions};

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
        let m = feed(DyadicConfig::classic(), 10.0, &[0.0, 1.0, 2.0]);
        let (forest, _) = m.forest();
        assert_eq!(forest.num_trees(), 1);
        let tree = &forest.trees()[0];
        assert_eq!(tree.parent(1), Some(0));
        assert_eq!(tree.parent(2), Some(1));
        // 3.0 falls in I_2 of the root: child of the root, not of 1.0.
        let m = feed(DyadicConfig::classic(), 10.0, &[0.0, 1.0, 3.0]);
        let (forest, _) = m.forest();
        assert_eq!(forest.trees()[0].parent(2), Some(0));
    }

    #[test]
    fn recursion_applies_inside_subintervals() {
        // Inside I_1 = (0, 2.5] of the root, the child at 0.5 re-splits
        // (0.5, 2.5]: its I_1 is (0.5, 1.5]. Arrival 1.2 goes under 0.5;
        // arrival 2.0 (in (1.5, 2.5]) also under 0.5; arrival 2.6 under root.
        let m = feed(DyadicConfig::classic(), 10.0, &[0.0, 0.5, 1.2, 2.0, 2.6]);
        let (forest, _) = m.forest();
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
            let m = feed(cfg, 100.0, &ts);
            let (forest, times) = m.forest();
            for (range, tree) in forest.iter_with_ranges() {
                assert!(tree.has_preorder_property());
                let _ = &times[range];
            }
        }
    }

    #[test]
    fn forests_are_feasible_for_beta_half() {
        // β ≤ 1/2 keeps every stream within the media:
        // ℓ(x) ≤ 2·span ≤ 2βL ≤ L.
        let ts: Vec<f64> = (0..300).map(|i| i as f64 * 0.23).collect();
        let m = feed(DyadicConfig::golden_poisson(), 20.0, &ts);
        let (forest, times) = m.forest();
        validate_forest(&forest, &times, 20, ValidationOptions::default()).unwrap();
    }

    #[test]
    fn cost_decomposes_over_trees() {
        let ts = [0.0, 1.0, 2.0, 30.0, 31.5];
        let m = feed(DyadicConfig::classic(), 20.0, &ts);
        assert_eq!(m.roots(), 2);
        let direct = m.total_cost();
        let (forest, times) = m.forest();
        let mut sum = 0.0;
        for (range, tree) in forest.iter_with_ranges() {
            sum += 20.0 + merge_cost(tree, &times[range]);
        }
        assert!((direct - sum).abs() < 1e-9);
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
