//! Merge trees (§2 of the paper).
//!
//! A merge tree over `n` arrivals is an ordered labeled tree on local indices
//! `0..n`, rooted at 0, in which every non-root merges to an *earlier*
//! arrival and children are ordered by arrival. Optimal trees additionally
//! satisfy the preorder-traversal property (preorder visits labels in
//! increasing order) — a fact from \[6\] the paper reuses; [`MergeTree`]
//! validates the former on construction and exposes the latter as a check.
//!
//! A [`MergeTree`] is a shared, immutable shape: its columns sit behind one
//! [`Arc`], so cloning a tree is `O(1)` and a forest that repeats a shape
//! (Theorem 10's `p`/`p+1` trees, a tiling of one template) stores the
//! shape once plus one handle per tree. [`MergeTree::push_arrival`], the
//! only mutator, copies the columns first if another handle shares them.

use std::sync::Arc;

use crate::error::ModelError;

/// An ordered labeled merge tree over local arrival indices `0..n`.
///
/// The tree is structural only: arrival *times* are supplied separately to
/// the cost functions, so one tree shape can be priced against any time axis
/// (consecutive slots for the delay-guaranteed model, real timestamps for the
/// dyadic algorithm).
///
/// Clones share the columns: `clone` bumps a reference count, and equality
/// between clones is a pointer check. [`Self::push_arrival`] copies on
/// write, so growing a clone never changes the tree it was cloned from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeTree {
    cols: Arc<Columns>,
}

/// The per-node columns one or more [`MergeTree`] handles share.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Columns {
    /// `parent[i]` for non-root `i`; `parent[0]` is unused (stored as 0).
    parent: Vec<u32>,
    /// Children of each node, in increasing (arrival) order.
    children: Vec<Vec<u32>>,
    /// `z[i]`: the largest label in the subtree rooted at `i` (the paper's
    /// `z(x)`, the last arrival that still needs stream `i`).
    last_descendant: Vec<u32>,
}

/// Packs a node label into the `u32` the tree stores (halving the memory of
/// the three per-node columns). Labels are dense arrival indices, so 2^32
/// nodes would mean four billion arrivals in one merge group — far beyond
/// any workload the engines generate; debug builds still check.
fn label(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "node label {i} overflows u32");
    // sm-lint: allow(narrowing-cast) — debug-asserted in range above; labels are dense arrival indices ≪ 2^32
    i as u32
}

impl MergeTree {
    /// Builds a tree from a parent array. `parents[0]` must be `None`; every
    /// other entry must name an earlier arrival.
    pub fn from_parents(parents: &[Option<usize>]) -> Result<Self, ModelError> {
        if parents.is_empty() {
            return Err(ModelError::EmptyTree);
        }
        if parents[0].is_some() {
            return Err(ModelError::RootHasParent);
        }
        let n = parents.len();
        let mut parent = vec![0u32; n];
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, p) in parents.iter().enumerate().skip(1) {
            let p = p.ok_or(ModelError::MissingParent { node: i })?;
            if p >= i {
                return Err(ModelError::ParentNotEarlier { node: i, parent: p });
            }
            parent[i] = label(p);
            children[p].push(label(i));
        }
        // Children were inserted in increasing label order, so sibling order
        // is automatically the arrival order the paper requires.
        let mut last_descendant: Vec<u32> = (0..label(n)).collect();
        for i in (1..n).rev() {
            let p = parent[i] as usize;
            if last_descendant[i] > last_descendant[p] {
                last_descendant[p] = last_descendant[i];
            }
        }
        Ok(Self {
            cols: Arc::new(Columns {
                parent,
                children,
                last_descendant,
            }),
        })
    }

    /// The tree with a single arrival.
    pub fn singleton() -> Self {
        Self::from_parents(&[None]).expect("singleton is always valid")
    }

    /// A chain: every arrival merges to its immediate predecessor.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn chain(n: usize) -> Self {
        assert!(n >= 1);
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        Self::from_parents(&parents).expect("chain is always valid")
    }

    /// A star: every arrival merges directly to the root.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn star(n: usize) -> Self {
        assert!(n >= 1);
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| if i == 0 { None } else { Some(0) })
            .collect();
        Self::from_parents(&parents).expect("star is always valid")
    }

    /// Number of arrivals (nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.cols.parent.len()
    }

    /// `true` iff the tree is a single arrival.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // a MergeTree always has >= 1 node
    }

    /// Parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: usize) -> Option<usize> {
        (node != 0).then(|| self.cols.parent[node] as usize)
    }

    /// Ordered children of `node`.
    #[inline]
    pub fn children(&self, node: usize) -> &[u32] {
        &self.cols.children[node]
    }

    /// The paper's `z(x)`: the largest arrival in the subtree of `node`
    /// (equals `node` for leaves).
    #[inline]
    pub fn last_descendant(&self, node: usize) -> usize {
        self.cols.last_descendant[node] as usize
    }

    /// The last arrival served by this tree, `z(root)`.
    #[inline]
    pub fn last_arrival(&self) -> usize {
        self.cols.last_descendant[0] as usize
    }

    /// The path of local indices from the root to `node`, inclusive — the
    /// client's *receiving program* skeleton (`x_0 < x_1 < … < x_k`).
    pub fn path_from_root(&self, node: usize) -> Vec<usize> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Depth of `node` (root has depth 0).
    pub fn depth(&self, node: usize) -> usize {
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Maximum depth over all nodes (the longest receiving program minus 1).
    pub fn height(&self) -> usize {
        (0..self.len()).map(|i| self.depth(i)).max().unwrap_or(0)
    }

    /// Preorder traversal of the node labels.
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![0usize];
        while let Some(node) = stack.pop() {
            out.push(node);
            // Push children in reverse so the leftmost is visited first.
            for &c in self.children(node).iter().rev() {
                stack.push(c as usize);
            }
        }
        out
    }

    /// Checks the preorder-traversal property: preorder visits `0, 1, …, n−1`
    /// in order. Optimal merge trees always satisfy it (§2, citing \[6\]).
    pub fn has_preorder_property(&self) -> bool {
        self.preorder().iter().copied().eq(0..self.len())
    }

    /// Like [`Self::has_preorder_property`] but reports the first violation.
    pub fn check_preorder_property(&self) -> Result<(), ModelError> {
        for (expected, found) in self.preorder().into_iter().enumerate() {
            if expected != found {
                return Err(ModelError::PreorderViolation { expected, found });
            }
        }
        Ok(())
    }

    /// The parent array (index 0 maps to `None`), the inverse of
    /// [`Self::from_parents`]. Useful for snapshots and serialization.
    pub fn to_parents(&self) -> Vec<Option<usize>> {
        (0..self.len()).map(|i| self.parent(i)).collect()
    }

    /// Appends the next arrival (label [`Self::len`]) as the new *last
    /// child* of `parent`, maintaining sibling order and last-descendant
    /// labels incrementally — the arrival-at-a-time mirror of
    /// [`Self::from_parents`], in `O(depth(parent))` instead of `O(n)`.
    ///
    /// The new node carries the largest label, so it becomes `z(x)` for
    /// every ancestor `x` — the fact the incremental engine's one reverse
    /// pass over a closing tree rests on when it computes stream lengths.
    ///
    /// Copy on write: if a clone shares this tree's columns, they are
    /// copied first (`O(n)`, once), so the clone is left unchanged.
    pub fn push_arrival(&mut self, parent: usize) -> Result<usize, ModelError> {
        let node = self.len();
        if parent >= node {
            return Err(ModelError::ParentNotEarlier { node, parent });
        }
        let cols = Arc::make_mut(&mut self.cols);
        cols.parent.push(label(parent));
        cols.children.push(Vec::new());
        cols.children[parent].push(label(node));
        cols.last_descendant.push(label(node));
        let mut cur = parent;
        loop {
            cols.last_descendant[cur] = label(node);
            if cur == 0 {
                break;
            }
            cur = cols.parent[cur] as usize;
        }
        Ok(node)
    }

    /// Compact single-line rendering, e.g. `(0 (1) (2 (3)))`.
    pub fn to_sexpr(&self) -> String {
        fn go(tree: &MergeTree, node: usize, out: &mut String) {
            use std::fmt::Write;
            let _ = write!(out, "({node}");
            for &c in tree.children(node) {
                out.push(' ');
                go(tree, c as usize, out);
            }
            out.push(')');
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 4: the optimal merge tree for n = 8, merge cost 21.
    /// Root A=0 with children B=1, C=2, D=3, F=5; E=4 merges to D; G=6 and
    /// H=7 merge to F: `(0 (1) (2) (3 (4)) (5 (6) (7)))`.
    pub(crate) fn fig4_tree() -> MergeTree {
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
    fn from_parents_rejects_bad_shapes() {
        assert_eq!(
            MergeTree::from_parents(&[]).unwrap_err(),
            ModelError::EmptyTree
        );
        assert_eq!(
            MergeTree::from_parents(&[Some(0)]).unwrap_err(),
            ModelError::RootHasParent
        );
        assert_eq!(
            MergeTree::from_parents(&[None, None]).unwrap_err(),
            ModelError::MissingParent { node: 1 }
        );
        assert_eq!(
            MergeTree::from_parents(&[None, Some(1)]).unwrap_err(),
            ModelError::ParentNotEarlier { node: 1, parent: 1 }
        );
        assert_eq!(
            MergeTree::from_parents(&[None, Some(2), Some(1)]).unwrap_err(),
            ModelError::ParentNotEarlier { node: 1, parent: 2 }
        );
    }

    #[test]
    fn fig4_structure() {
        let t = fig4_tree();
        assert_eq!(t.len(), 8);
        assert_eq!(t.children(0), &[1, 2, 3, 5]);
        assert_eq!(t.children(3), &[4]);
        assert_eq!(t.children(5), &[6, 7]);
        assert!(t.has_preorder_property());
        assert_eq!(t.last_arrival(), 7);
    }

    #[test]
    fn fig4_last_descendants() {
        let t = fig4_tree();
        // z(A)=H, z(D)=E, z(F)=H, z(leaf)=leaf.
        assert_eq!(t.last_descendant(0), 7);
        assert_eq!(t.last_descendant(3), 4);
        assert_eq!(t.last_descendant(5), 7);
        assert_eq!(t.last_descendant(2), 2);
        assert_eq!(t.last_descendant(7), 7);
    }

    #[test]
    fn fig4_paths() {
        let t = fig4_tree();
        // Client H arrives at 7; the paper's example: x0=0, x1=5, x2=7.
        assert_eq!(t.path_from_root(7), vec![0, 5, 7]);
        assert_eq!(t.path_from_root(0), vec![0]);
        assert_eq!(t.path_from_root(4), vec![0, 3, 4]);
    }

    #[test]
    fn preorder_property_detects_violation() {
        // 0 -> {1, 2}, but 3 hangs under 1: preorder = 0,1,3,2.
        let t = MergeTree::from_parents(&[None, Some(0), Some(0), Some(1)]).unwrap();
        assert!(!t.has_preorder_property());
        assert_eq!(
            t.check_preorder_property().unwrap_err(),
            ModelError::PreorderViolation {
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn chain_and_star_shapes() {
        let chain = MergeTree::chain(4);
        assert_eq!(chain.to_parents(), vec![None, Some(0), Some(1), Some(2)]);
        assert_eq!(chain.height(), 3);
        assert!(chain.has_preorder_property());

        let star = MergeTree::star(4);
        assert_eq!(star.to_parents(), vec![None, Some(0), Some(0), Some(0)]);
        assert_eq!(star.height(), 1);
        assert!(star.has_preorder_property());

        let single = MergeTree::singleton();
        assert_eq!(single.len(), 1);
        assert_eq!(single.height(), 0);
    }

    #[test]
    fn sexpr_rendering() {
        assert_eq!(fig4_tree().to_sexpr(), "(0 (1) (2) (3 (4)) (5 (6) (7)))");
        assert_eq!(MergeTree::singleton().to_sexpr(), "(0)");
    }

    #[test]
    fn roundtrip_parents() {
        let t = fig4_tree();
        let t2 = MergeTree::from_parents(&t.to_parents()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn depths() {
        let t = fig4_tree();
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(1), 1);
        assert_eq!(t.depth(4), 2);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn push_arrival_grows_fig4_incrementally() {
        let mut t = MergeTree::singleton();
        for p in [0usize, 0, 0, 3, 0, 5, 5] {
            t.push_arrival(p).unwrap();
        }
        assert_eq!(t, fig4_tree());
        // Every intermediate prefix is the truncated batch tree.
        let parents = fig4_tree().to_parents();
        let mut grown = MergeTree::singleton();
        for i in 1..parents.len() {
            grown.push_arrival(parents[i].unwrap()).unwrap();
            assert_eq!(grown, MergeTree::from_parents(&parents[..=i]).unwrap());
        }
    }

    #[test]
    fn clones_share_columns_until_one_grows() {
        // Forests cross threads in `parallel_map` and the server's memo.
        fn send_sync<T: Send + Sync>() {}
        send_sync::<MergeTree>();

        let original = fig4_tree();
        let mut grown = original.clone();
        assert_eq!(grown, original);
        assert!(Arc::ptr_eq(&grown.cols, &original.cols));

        let parents = original.to_parents();
        let children: Vec<Vec<u32>> = (0..8).map(|i| original.children(i).to_vec()).collect();
        let last: Vec<usize> = (0..8).map(|i| original.last_descendant(i)).collect();
        assert_eq!(grown.push_arrival(5).unwrap(), 8);
        assert!(!Arc::ptr_eq(&grown.cols, &original.cols));

        // Copy on write: the original keeps every column it had.
        assert_eq!(original.to_parents(), parents);
        for i in 0..8 {
            assert_eq!(original.children(i), children[i].as_slice(), "node {i}");
            assert_eq!(original.last_descendant(i), last[i], "node {i}");
        }
        assert_eq!(original, fig4_tree());

        // The grown clone is the batch tree of the extended parent list.
        let mut extended = parents;
        extended.push(Some(5));
        assert_eq!(grown, MergeTree::from_parents(&extended).unwrap());
    }

    #[test]
    fn push_arrival_rejects_future_parents() {
        let mut t = MergeTree::singleton();
        assert_eq!(
            t.push_arrival(1).unwrap_err(),
            ModelError::ParentNotEarlier { node: 1, parent: 1 }
        );
        assert_eq!(
            t.push_arrival(7).unwrap_err(),
            ModelError::ParentNotEarlier { node: 1, parent: 7 }
        );
        // The tree is unchanged after a rejected push.
        assert_eq!(t, MergeTree::singleton());
    }
}
