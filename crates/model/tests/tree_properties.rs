//! Property-based tests for interval-tree invariants.

use lagalyzer_model::prelude::*;
use proptest::prelude::*;

/// A random well-formed event script: a root dispatch enclosing a random
/// sequence of properly nested enters/exits with monotone times.
#[derive(Clone, Debug)]
enum Ev {
    Enter(IntervalKind),
    Exit,
}

fn kind_strategy() -> impl Strategy<Value = IntervalKind> {
    prop_oneof![
        Just(IntervalKind::Listener),
        Just(IntervalKind::Paint),
        Just(IntervalKind::Native),
        Just(IntervalKind::Async),
        Just(IntervalKind::Gc),
    ]
}

fn script_strategy() -> impl Strategy<Value = Vec<Ev>> {
    proptest::collection::vec(
        prop_oneof![3 => kind_strategy().prop_map(Ev::Enter), 2 => Just(Ev::Exit)],
        0..60,
    )
}

/// Replays a script inside a dispatch root, ignoring exits that would
/// escape the root and closing whatever remains open at the end. Also
/// returns the node count for cross-checking.
fn build_tree(script: &[Ev]) -> IntervalTree {
    let mut b = IntervalTreeBuilder::new();
    let mut t = 0u64;
    let mut depth = 0usize;
    b.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(t))
        .unwrap();
    for ev in script {
        t += 1;
        match ev {
            Ev::Enter(kind) => {
                b.enter(*kind, None, TimeNs::from_millis(t)).unwrap();
                depth += 1;
            }
            Ev::Exit => {
                if depth > 0 {
                    b.exit(TimeNs::from_millis(t)).unwrap();
                    depth -= 1;
                }
            }
        }
    }
    while depth > 0 {
        t += 1;
        b.exit(TimeNs::from_millis(t)).unwrap();
        depth -= 1;
    }
    t += 1;
    b.exit(TimeNs::from_millis(t)).unwrap();
    b.finish().unwrap()
}

proptest! {
    /// Any tree produced by the builder passes the structural validator.
    #[test]
    fn builder_output_validates(script in script_strategy()) {
        let tree = build_tree(&script);
        prop_assert!(tree.validate().is_ok());
    }

    /// Children are enclosed by parents and siblings do not overlap.
    #[test]
    fn proper_nesting_holds(script in script_strategy()) {
        let tree = build_tree(&script);
        for (id, node) in tree.iter() {
            if let Some(p) = node.parent {
                prop_assert!(tree.interval(p).encloses(&node.interval));
                prop_assert!(tree.depth(id) == tree.depth(p) + 1);
            }
            let children = tree.children(id);
            for pair in children.windows(2) {
                let a = tree.interval(pair[0]);
                let b = tree.interval(pair[1]);
                prop_assert!(!a.overlaps(b));
                prop_assert!(a.start <= b.start);
            }
        }
    }

    /// Pre-order traversal visits every node exactly once and starts at the
    /// root.
    #[test]
    fn pre_order_is_a_permutation(script in script_strategy()) {
        let tree = build_tree(&script);
        let visited: Vec<NodeId> = tree.pre_order().collect();
        prop_assert_eq!(visited.len(), tree.len());
        prop_assert_eq!(visited[0], tree.root());
        let mut sorted = visited.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), tree.len());
    }

    /// Pre-order equals arena order (the builder appends in enter order).
    #[test]
    fn pre_order_matches_arena_order(script in script_strategy()) {
        let tree = build_tree(&script);
        let visited: Vec<u32> = tree.pre_order().map(lagalyzer_model::NodeId::as_raw).collect();
        let expected: Vec<u32> = (0..tree.len() as u32).collect();
        prop_assert_eq!(visited, expected);
    }

    /// descendant_count(root) is always len() - 1.
    #[test]
    fn descendant_count_consistent(script in script_strategy()) {
        let tree = build_tree(&script);
        prop_assert_eq!(tree.descendant_count(tree.root()), tree.len() - 1);
    }

    /// The deepest node at any instant inside the root contains that
    /// instant, and no child of it does.
    #[test]
    fn deepest_at_is_deepest(script in script_strategy(), probe in 0u64..200) {
        let tree = build_tree(&script);
        let t = TimeNs::from_millis(probe);
        match tree.deepest_at(t) {
            None => prop_assert!(!tree.root_interval().contains(t)),
            Some(id) => {
                prop_assert!(tree.interval(id).contains(t));
                for &c in tree.children(id) {
                    prop_assert!(!tree.interval(c).contains(t));
                }
            }
        }
    }

    /// outermost_kind_time never exceeds the root duration for any kind.
    #[test]
    fn kind_time_bounded_by_root(script in script_strategy()) {
        let tree = build_tree(&script);
        let root = tree.root_interval().duration();
        for kind in IntervalKind::ALL {
            prop_assert!(tree.outermost_kind_time(kind) <= root);
        }
    }

    /// max_depth is the maximum over per-node depths and consistent with
    /// parent chains.
    #[test]
    fn max_depth_consistent(script in script_strategy()) {
        let tree = build_tree(&script);
        let mut observed = 0;
        for (id, _) in tree.iter() {
            // Walk the parent chain to recompute depth independently.
            let mut d = 0;
            let mut cur = id;
            while let Some(p) = tree.parent(cur) {
                d += 1;
                cur = p;
            }
            prop_assert_eq!(d, tree.depth(id));
            observed = observed.max(d);
        }
        prop_assert_eq!(observed, tree.max_depth());
    }
}

proptest! {
    /// Episodes accept only in-window samples regardless of sample order.
    #[test]
    fn episode_samples_sorted_and_bounded(
        times in proptest::collection::vec(0u64..500, 0..20)
    ) {
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(0)).unwrap();
        b.exit(TimeNs::from_millis(500)).unwrap();
        let mut eb = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(b.finish().unwrap());
        for t in &times {
            eb = eb.sample(SampleSnapshot::new(TimeNs::from_millis(*t), vec![]));
        }
        let e = eb.build().unwrap();
        prop_assert_eq!(e.samples().len(), times.len());
        for (a, b) in e.samples().iter().zip(e.samples().iter().skip(1)) {
            prop_assert!(a.time <= b.time);
        }
    }
}
