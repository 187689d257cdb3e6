//! Properly nested interval trees.
//!
//! LagAlyzer represents the activity of each thread as a tree of nested
//! intervals (paper §II-A). Intervals of a given thread are guaranteed to be
//! properly nested — they either nest or do not overlap at all — because all
//! interval types except GC correspond to method calls and returns, and GC
//! is stop-the-world. [`IntervalTreeBuilder`] enforces that invariant while
//! consuming enter/exit events; [`IntervalTree`] is the immutable result.
//!
//! The tree is stored in a flat arena indexed by [`NodeId`]. Nodes appear in
//! the arena in *pre-order* (enter order), which makes pre-order traversal —
//! the traversal the paper's trigger classification (§IV-C) relies on — a
//! simple linear scan.

use std::fmt;

use crate::error::ModelError;
use crate::ids::NodeId;
use crate::interval::{Interval, IntervalKind};
use crate::symbols::{MethodRef, SymbolTable};
use crate::time::{DurationNs, TimeNs};

/// One node of an interval tree.
///
/// Children are not stored per node: nodes live in a pre-order arena with
/// parent pointers, so each node's children are exactly the later nodes
/// that point back at it, in arena order. [`IntervalTree`] derives that
/// relation once into a shared children arena (see
/// [`IntervalTree::children`]) — keeping the node itself flat is what lets
/// a decoded episode materialize its whole tree with two child-table
/// allocations instead of one `Vec` per node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalNode {
    /// The interval at this node.
    pub interval: Interval,
    /// Parent node; `None` for the root.
    pub parent: Option<NodeId>,
    /// Depth of this node; the root has depth 0.
    pub depth: u32,
}

/// An immutable, properly nested interval tree.
///
/// ```
/// use lagalyzer_model::prelude::*;
/// # fn main() -> Result<(), ModelError> {
/// let mut b = IntervalTreeBuilder::new();
/// b.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(0))?;
/// b.enter(IntervalKind::Listener, None, TimeNs::from_millis(1))?;
/// b.exit(TimeNs::from_millis(4))?;
/// b.enter(IntervalKind::Paint, None, TimeNs::from_millis(5))?;
/// b.exit(TimeNs::from_millis(9))?;
/// b.exit(TimeNs::from_millis(10))?;
/// let tree = b.finish()?;
/// assert_eq!(tree.len(), 3);
/// assert_eq!(tree.children(tree.root()).len(), 2);
/// assert_eq!(tree.max_depth(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalTree {
    nodes: Vec<IntervalNode>,
    /// Children arena in CSR layout: node `n`'s children are
    /// `child_ids[child_start[n] as usize..child_start[n + 1] as usize]`,
    /// in arena (= start-time) order. Derived from the parent pointers —
    /// two allocations for the whole tree instead of one list per node.
    child_ids: Vec<NodeId>,
    child_start: Vec<u32>,
}

/// Derives the CSR children table from parent pointers via a counting
/// sort: nodes are visited in arena order, so each parent's children land
/// in arena order too. Parent ids outside the arena are ignored (possible
/// only through [`IntervalTree::from_nodes_unchecked`]).
fn derive_children(nodes: &[IntervalNode]) -> (Vec<NodeId>, Vec<u32>) {
    let n = nodes.len();
    let mut child_start = vec![0u32; n + 1];
    let in_range = |p: NodeId| p.index() < n;
    for node in nodes {
        if let Some(p) = node.parent.filter(|&p| in_range(p)) {
            child_start[p.index() + 1] += 1;
        }
    }
    for i in 0..n {
        child_start[i + 1] += child_start[i];
    }
    let mut child_ids = vec![NodeId::from_raw(0); child_start[n] as usize];
    // Fill buckets front to back, using `child_start[p]` as the write
    // cursor; afterwards each slot holds its bucket's *end*, so shift the
    // table right by one to restore the starts.
    for (i, node) in nodes.iter().enumerate() {
        if let Some(p) = node.parent.filter(|&p| in_range(p)) {
            let cursor = &mut child_start[p.index()];
            child_ids[*cursor as usize] =
                NodeId::from_raw(u32::try_from(i).expect("node index overflows u32"));
            *cursor += 1;
        }
    }
    for i in (1..=n).rev() {
        child_start[i] = child_start[i - 1];
    }
    child_start[0] = 0;
    (child_ids, child_start)
}

impl IntervalTree {
    /// Assembles a tree directly from nodes, **without** validating the
    /// nesting, ordering, or parent/child invariants that
    /// [`IntervalTreeBuilder`] enforces. Children are derived from the
    /// parent pointers (each node's children are the nodes pointing back
    /// at it, in arena order); parent ids outside the arena are treated as
    /// parentless.
    ///
    /// This exists for tooling that must *represent* invalid data rather
    /// than reject it — most importantly the `lagalyzer-check` semantic
    /// checker, whose rules need trees that violate proper nesting,
    /// sibling ordering, or episode bounds in order to diagnose them.
    /// Analyses assume builder-validated trees; do not feed unchecked
    /// trees into them.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty (even invalid trees have a root).
    pub fn from_nodes_unchecked(nodes: Vec<IntervalNode>) -> IntervalTree {
        assert!(!nodes.is_empty(), "an interval tree must have a root node");
        let (child_ids, child_start) = derive_children(&nodes);
        IntervalTree {
            nodes,
            child_ids,
            child_start,
        }
    }

    /// The tree over a finished builder's arena, which already holds
    /// every invariant [`validate`](Self::validate) checks.
    fn from_built_nodes(nodes: Vec<IntervalNode>) -> IntervalTree {
        let tree = IntervalTree::from_nodes_unchecked(nodes);
        debug_assert!(tree.validate().is_ok());
        tree
    }

    /// The root node id.
    ///
    /// Every finished tree has exactly one root at index 0.
    pub fn root(&self) -> NodeId {
        NodeId::from_raw(0)
    }

    /// The root interval (for episode trees, the dispatch interval).
    pub fn root_interval(&self) -> &Interval {
        &self.nodes[0].interval
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Trees are never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn node(&self, id: NodeId) -> &IntervalNode {
        &self.nodes[id.index()]
    }

    /// Borrow a node, returning `None` for foreign ids.
    pub fn get(&self, id: NodeId) -> Option<&IntervalNode> {
        self.nodes.get(id.index())
    }

    /// All nodes in **preorder**: index `i` is `NodeId::from_raw(i)`,
    /// every subtree occupies a contiguous range, and siblings appear in
    /// start-time order. This is a builder invariant — nodes are pushed
    /// on `enter`, and enters arrive in start-time order — that linear
    /// traversals (e.g. shape-token emission) rely on to avoid chasing
    /// per-node child lists.
    pub fn nodes(&self) -> &[IntervalNode] {
        &self.nodes
    }

    /// The interval at `id`.
    pub fn interval(&self, id: NodeId) -> &Interval {
        &self.node(id).interval
    }

    /// Children of `id`, in start-time order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.child_ids[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// Parent of `id`, `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: NodeId) -> u32 {
        self.node(id).depth
    }

    /// Number of descendants of `id` (excluding `id` itself).
    ///
    /// The paper's Table III "Descs" column is `descendant_count(root)`.
    ///
    /// Preorder makes this a contiguous-run length, not a traversal: the
    /// descendants of `id` are exactly the nodes that follow it while
    /// their depth stays greater (the root owns everything).
    pub fn descendant_count(&self, id: NodeId) -> usize {
        let index = id.index();
        let depth = self.nodes[index].depth;
        if depth == 0 {
            return self.nodes.len() - 1;
        }
        self.nodes[index + 1..]
            .iter()
            .take_while(|n| n.depth > depth)
            .count()
    }

    /// Maximum node depth in the tree. The paper's Table III "Depth" column
    /// is `max_depth()` of an episode's tree.
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Iterates node ids in pre-order (enter order) over the whole tree.
    ///
    /// The builder appends nodes in enter order, so whole-tree pre-order
    /// is simply arena order — no traversal stack needed (the
    /// `pre_order_matches_arena_order` property test pins this invariant).
    pub fn pre_order(&self) -> PreOrder<'_> {
        PreOrder {
            tree: self,
            stack: Vec::new(),
            linear: Some(0..u32::try_from(self.nodes.len()).expect("node count fits u32")),
        }
    }

    /// Iterates node ids in pre-order over the subtree rooted at `id`.
    pub fn pre_order_from(&self, id: NodeId) -> PreOrder<'_> {
        PreOrder {
            tree: self,
            stack: vec![id],
            linear: None,
        }
    }

    /// Iterates all nodes as `(id, &node)` in arena (= pre-order) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &IntervalNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| {
            (
                NodeId::from_raw(u32::try_from(i).expect("node index overflows u32")),
                n,
            )
        })
    }

    /// Sum of durations of all nodes of the given `kind` that have no
    /// ancestor of the same `kind` (so nested same-kind time is not double
    /// counted). Used for the GC and native fractions of the paper's Fig 6.
    pub fn outermost_kind_time(&self, kind: IntervalKind) -> DurationNs {
        let mut total = DurationNs::ZERO;
        let mut stack: Vec<NodeId> = vec![self.root()];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if node.interval.kind == kind {
                total += node.interval.duration();
                // Do not descend: nested same-kind intervals are covered.
                continue;
            }
            stack.extend(self.children(id).iter().copied());
        }
        total
    }

    /// The deepest node whose interval contains instant `t`, if any.
    pub fn deepest_at(&self, t: TimeNs) -> Option<NodeId> {
        if !self.root_interval().contains(t) {
            return None;
        }
        let mut id = self.root();
        'descend: loop {
            for &child in self.children(id) {
                if self.interval(child).contains(t) {
                    id = child;
                    continue 'descend;
                }
            }
            return Some(id);
        }
    }

    /// True if any node in the tree has the given kind.
    pub fn contains_kind(&self, kind: IntervalKind) -> bool {
        self.nodes.iter().any(|n| n.interval.kind == kind)
    }

    /// Checks the proper-nesting invariant over the whole tree. Builders
    /// maintain it; this is a validation hook for decoded or hand-built
    /// trees and for property tests.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                let parent = &self.nodes[p.index()];
                if !parent.interval.encloses(&node.interval) {
                    return Err(ModelError::NonMonotonicTime {
                        previous: parent.interval.end,
                        at: node.interval.end,
                    });
                }
            } else if i != 0 {
                return Err(ModelError::MultipleRoots {
                    at: node.interval.start,
                });
            }
            let id = NodeId::from_raw(u32::try_from(i).expect("node index overflows u32"));
            for pair in self.children(id).windows(2) {
                let a = &self.nodes[pair[0].index()].interval;
                let b = &self.nodes[pair[1].index()].interval;
                if a.overlaps(b) || b.start < a.start {
                    return Err(ModelError::NonMonotonicTime {
                        previous: a.end,
                        at: b.start,
                    });
                }
            }
        }
        if self.nodes.is_empty() {
            return Err(ModelError::MissingRoot);
        }
        Ok(())
    }

    /// Renders an indented textual outline of the tree, resolving symbols
    /// through `symbols`. Useful in tests and the CLI.
    pub fn outline(&self, symbols: &SymbolTable) -> String {
        let mut out = String::new();
        for id in self.pre_order() {
            let node = self.node(id);
            for _ in 0..node.depth {
                out.push_str("  ");
            }
            out.push_str(node.interval.kind.name());
            if let Some(sym) = node.interval.symbol {
                out.push(' ');
                out.push_str(&symbols.render(sym));
            }
            out.push_str(&format!(" ({})\n", node.interval.duration()));
        }
        out
    }
}

/// Pre-order traversal over an [`IntervalTree`], produced by
/// [`IntervalTree::pre_order`].
#[derive(Clone, Debug)]
pub struct PreOrder<'a> {
    tree: &'a IntervalTree,
    stack: Vec<NodeId>,
    /// Whole-tree traversals walk the arena directly (arena order is
    /// pre-order by construction); subtree traversals use the stack.
    linear: Option<std::ops::Range<u32>>,
}

impl<'a> Iterator for PreOrder<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if let Some(range) = &mut self.linear {
            return range.next().map(NodeId::from_raw);
        }
        let id = self.stack.pop()?;
        // Push children reversed so the leftmost child pops first.
        let children = self.tree.children(id);
        self.stack.extend(children.iter().rev().copied());
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.linear {
            Some(range) => {
                let n = range.len();
                (n, Some(n))
            }
            None => (self.stack.len(), Some(self.tree.len())),
        }
    }
}

/// Incremental builder consuming enter/exit events in time order and
/// enforcing proper nesting.
///
/// See [`IntervalTree`] for an end-to-end example.
#[derive(Clone, Debug, Default)]
pub struct IntervalTreeBuilder {
    nodes: Vec<IntervalNode>,
    /// Stack of currently open nodes.
    open: Vec<NodeId>,
    last_event: Option<TimeNs>,
    root_closed: bool,
}

impl IntervalTreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        IntervalTreeBuilder::default()
    }

    /// Discards all building state, retaining allocations.
    ///
    /// A reused builder that hit a mid-episode error (a malformed exit, an
    /// unclosed interval) still holds the broken episode's nodes and open
    /// stack; `reset` returns it to a pristine state so the next episode
    /// cannot observe the failed one.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.open.clear();
        self.last_event = None;
        self.root_closed = false;
    }

    /// True if no interval is currently open.
    pub fn is_quiescent(&self) -> bool {
        self.open.is_empty()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    #[inline]
    fn check_monotone(&mut self, at: TimeNs) -> Result<(), ModelError> {
        if let Some(prev) = self.last_event {
            if at < prev {
                return Err(ModelError::NonMonotonicTime { previous: prev, at });
            }
        }
        self.last_event = Some(at);
        Ok(())
    }

    /// Opens a new interval of `kind` at time `at`.
    ///
    /// # Errors
    ///
    /// Fails if `at` precedes the previous event or if a second root is
    /// opened after the first root closed.
    #[inline]
    pub fn enter(
        &mut self,
        kind: IntervalKind,
        symbol: Option<MethodRef>,
        at: TimeNs,
    ) -> Result<NodeId, ModelError> {
        self.check_monotone(at)?;
        if self.open.is_empty() && self.root_closed {
            return Err(ModelError::MultipleRoots { at });
        }
        let parent = self.open.last().copied();
        // The open stack holds exactly the new node's proper ancestors, so
        // its length *is* the depth — no need to load the parent node.
        let depth = u32::try_from(self.open.len()).expect("more than u32::MAX open intervals");
        let id = NodeId::from_raw(
            u32::try_from(self.nodes.len()).expect("more than u32::MAX tree nodes"),
        );
        self.nodes.push(IntervalNode {
            // End is provisional until `exit`; start==end keeps the
            // invariant that intervals never invert.
            interval: Interval::new(kind, symbol, at, at),
            parent,
            depth,
        });
        self.open.push(id);
        Ok(id)
    }

    /// Closes the innermost open interval at time `at`.
    ///
    /// # Errors
    ///
    /// Fails if no interval is open or `at` precedes the previous event.
    #[inline]
    pub fn exit(&mut self, at: TimeNs) -> Result<NodeId, ModelError> {
        self.check_monotone(at)?;
        let id = self.open.pop().ok_or(ModelError::ExitWithoutEnter { at })?;
        self.nodes[id.index()].interval.end = at;
        if self.open.is_empty() {
            self.root_closed = true;
        }
        Ok(id)
    }

    /// Convenience: records a complete leaf interval `[start, end)` under
    /// the currently open interval.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`enter`](Self::enter) and
    /// [`exit`](Self::exit).
    pub fn leaf(
        &mut self,
        kind: IntervalKind,
        symbol: Option<MethodRef>,
        start: TimeNs,
        end: TimeNs,
    ) -> Result<NodeId, ModelError> {
        let id = self.enter(kind, symbol, start)?;
        self.exit(end)?;
        Ok(id)
    }

    /// Finishes the tree.
    ///
    /// # Errors
    ///
    /// Fails if intervals are still open or no root was recorded.
    pub fn finish(self) -> Result<IntervalTree, ModelError> {
        self.check_finished()?;
        Ok(IntervalTree::from_built_nodes(self.nodes))
    }

    /// Finishes the tree and resets the builder for the next one.
    ///
    /// This is the streaming-decode variant of
    /// [`finish`](Self::finish): decoders assembling thousands of
    /// episodes keep one builder alive and call this per episode. The
    /// tree gets an exact-size copy of the node arena, and the builder
    /// keeps the arena and the open-interval stack with their capacity,
    /// so after the largest episode so far neither grows again. On error
    /// the builder state is left untouched, so a lenient caller may keep
    /// feeding events.
    ///
    /// # Errors
    ///
    /// Fails if intervals are still open or no root was recorded.
    pub fn finish_reset(&mut self) -> Result<IntervalTree, ModelError> {
        self.check_finished()?;
        let tree = IntervalTree::from_built_nodes(self.nodes.clone());
        self.reset();
        Ok(tree)
    }

    fn check_finished(&self) -> Result<(), ModelError> {
        if !self.open.is_empty() {
            return Err(ModelError::UnclosedIntervals {
                open: self.open.len(),
            });
        }
        if self.nodes.is_empty() {
            return Err(ModelError::MissingRoot);
        }
        Ok(())
    }
}

impl fmt::Display for IntervalTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IntervalTree({} nodes, root {})",
            self.len(),
            self.root_interval()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    /// Builds the Fig 1 episode skeleton from the paper: a 1705 ms dispatch
    /// whose whole duration is a paint chain ending in a native DrawLine
    /// call that has a GC nested inside.
    fn figure1_tree() -> IntervalTree {
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        b.enter(IntervalKind::Paint, None, ms(2)).unwrap(); // JFrame.paint
        b.enter(IntervalKind::Paint, None, ms(40)).unwrap(); // JLayeredPane.paint
        b.enter(IntervalKind::Paint, None, ms(120)).unwrap(); // JToolBar.paint
        b.enter(IntervalKind::Native, None, ms(430)).unwrap(); // DrawLine
        b.leaf(IntervalKind::Gc, None, ms(600), ms(1066)).unwrap();
        b.exit(ms(1273)).unwrap(); // native ends
        b.exit(ms(1467)).unwrap(); // toolbar
        b.exit(ms(1573)).unwrap(); // layered pane
        b.exit(ms(1700)).unwrap(); // frame
        b.exit(ms(1705)).unwrap(); // dispatch
        b.finish().unwrap()
    }

    #[test]
    fn figure1_shape() {
        let t = figure1_tree();
        assert_eq!(t.len(), 6);
        assert_eq!(t.max_depth(), 5);
        assert_eq!(t.descendant_count(t.root()), 5);
        assert_eq!(t.root_interval().duration(), DurationNs::from_millis(1705));
        assert!(t.contains_kind(IntervalKind::Gc));
        assert!(!t.contains_kind(IntervalKind::Listener));
    }

    #[test]
    fn pre_order_is_enter_order() {
        let t = figure1_tree();
        let kinds: Vec<IntervalKind> = t.pre_order().map(|id| t.interval(id).kind).collect();
        assert_eq!(
            kinds,
            vec![
                IntervalKind::Dispatch,
                IntervalKind::Paint,
                IntervalKind::Paint,
                IntervalKind::Paint,
                IntervalKind::Native,
                IntervalKind::Gc,
            ]
        );
    }

    #[test]
    fn pre_order_visits_siblings_left_to_right() {
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        b.leaf(IntervalKind::Listener, None, ms(1), ms(2)).unwrap();
        b.leaf(IntervalKind::Paint, None, ms(3), ms(4)).unwrap();
        b.leaf(IntervalKind::Async, None, ms(5), ms(6)).unwrap();
        b.exit(ms(7)).unwrap();
        let t = b.finish().unwrap();
        let kinds: Vec<IntervalKind> = t.pre_order().map(|id| t.interval(id).kind).collect();
        assert_eq!(
            kinds,
            vec![
                IntervalKind::Dispatch,
                IntervalKind::Listener,
                IntervalKind::Paint,
                IntervalKind::Async,
            ]
        );
    }

    #[test]
    fn deepest_at_descends_to_leaf() {
        let t = figure1_tree();
        let gc = t.deepest_at(ms(700)).unwrap();
        assert_eq!(t.interval(gc).kind, IntervalKind::Gc);
        let native = t.deepest_at(ms(1100)).unwrap();
        assert_eq!(t.interval(native).kind, IntervalKind::Native);
        let dispatch = t.deepest_at(ms(1)).unwrap();
        assert_eq!(t.interval(dispatch).kind, IntervalKind::Dispatch);
        assert_eq!(t.deepest_at(ms(3000)), None);
    }

    #[test]
    fn outermost_kind_time_ignores_nesting() {
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        b.enter(IntervalKind::Native, None, ms(10)).unwrap();
        // A native call nested in another native call must not double count.
        b.leaf(IntervalKind::Native, None, ms(20), ms(30)).unwrap();
        b.exit(ms(50)).unwrap();
        b.leaf(IntervalKind::Native, None, ms(60), ms(70)).unwrap();
        b.exit(ms(100)).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(
            t.outermost_kind_time(IntervalKind::Native),
            DurationNs::from_millis(50)
        );
        assert_eq!(t.outermost_kind_time(IntervalKind::Gc), DurationNs::ZERO);
    }

    #[test]
    fn finish_reset_reuses_builder_across_trees() {
        let mut b = IntervalTreeBuilder::new();
        // Times restart per episode, exactly as a decoder feeds them.
        for round in 0..3u64 {
            b.enter(IntervalKind::Dispatch, None, ms(round * 10))
                .unwrap();
            b.leaf(
                IntervalKind::Paint,
                None,
                ms(round * 10 + 1),
                ms(round * 10 + 2),
            )
            .unwrap();
            b.exit(ms(round * 10 + 5)).unwrap();
            let t = b.finish_reset().unwrap();
            assert_eq!(t.len(), 2);
            assert_eq!(t.root_interval().start, ms(round * 10));
            assert!(b.is_empty(), "reset must leave the builder empty");
            assert!(b.is_quiescent());
        }
        // A reset builder accepts a fresh root even though the previous
        // one closed.
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        b.exit(ms(1)).unwrap();
        assert!(b.finish_reset().is_ok());
    }

    #[test]
    fn finish_reset_errors_leave_state_intact() {
        let mut b = IntervalTreeBuilder::new();
        assert_eq!(b.finish_reset(), Err(ModelError::MissingRoot));
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        assert_eq!(
            b.finish_reset(),
            Err(ModelError::UnclosedIntervals { open: 1 })
        );
        // The open interval survives the failed finish and can be closed.
        b.exit(ms(5)).unwrap();
        assert_eq!(b.finish_reset().unwrap().len(), 1);
    }

    #[test]
    fn exit_without_enter_fails() {
        let mut b = IntervalTreeBuilder::new();
        assert_eq!(
            b.exit(ms(1)),
            Err(ModelError::ExitWithoutEnter { at: ms(1) })
        );
    }

    #[test]
    fn non_monotonic_time_fails() {
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(10)).unwrap();
        assert!(matches!(
            b.enter(IntervalKind::Paint, None, ms(5)),
            Err(ModelError::NonMonotonicTime { .. })
        ));
    }

    #[test]
    fn unclosed_intervals_fail_finish() {
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        assert_eq!(b.finish(), Err(ModelError::UnclosedIntervals { open: 1 }));
    }

    #[test]
    fn empty_builder_fails_finish() {
        assert_eq!(
            IntervalTreeBuilder::new().finish(),
            Err(ModelError::MissingRoot)
        );
    }

    #[test]
    fn second_root_fails() {
        let mut b = IntervalTreeBuilder::new();
        b.leaf(IntervalKind::Dispatch, None, ms(0), ms(1)).unwrap();
        assert_eq!(
            b.enter(IntervalKind::Dispatch, None, ms(2)),
            Err(ModelError::MultipleRoots { at: ms(2) })
        );
    }

    #[test]
    fn equal_timestamps_allowed() {
        // Zero-length intervals occur for instantaneous native calls.
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        b.leaf(IntervalKind::Native, None, ms(1), ms(1)).unwrap();
        b.exit(ms(1)).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_accepts_builder_output() {
        assert!(figure1_tree().validate().is_ok());
    }

    #[test]
    fn outline_renders_symbols_and_indentation() {
        let mut symbols = SymbolTable::new();
        let paint = symbols.method("javax.swing.JFrame", "paint");
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        b.leaf(IntervalKind::Paint, Some(paint), ms(1), ms(141))
            .unwrap();
        b.exit(ms(142)).unwrap();
        let t = b.finish().unwrap();
        let outline = t.outline(&symbols);
        assert!(outline.contains("Dispatch (142ms)"));
        assert!(outline.contains("  Paint javax.swing.JFrame.paint (140ms)"));
    }

    #[test]
    fn quiescence_tracking() {
        let mut b = IntervalTreeBuilder::new();
        assert!(b.is_quiescent());
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        assert!(!b.is_quiescent());
        b.exit(ms(1)).unwrap();
        assert!(b.is_quiescent());
    }
}
