//! Episode templates — the pattern library of a simulated application.
//!
//! Real GUI applications handle the same kinds of requests again and again,
//! which is why LagAlyzer's pattern mining condenses thousands of episodes
//! into a few hundred patterns. The simulator builds that redundancy in
//! explicitly: each application owns a library of [`EpisodeTemplate`]s, and
//! every traced episode is an execution of one template with freshly drawn
//! timing. Templates therefore map one-to-one onto the patterns the
//! analyses should rediscover.

use lagalyzer_model::{IntervalKind, MethodRef, SymbolTable};

use crate::names::NamePool;
use crate::profile::AppProfile;
use crate::rng::{apportion, zipf_weights, SimRng};

/// What triggers episodes of a template (generation-side ground truth for
/// the paper's Fig 5 classification).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TriggerClass {
    /// A listener handling user input.
    Input,
    /// A paint request producing output.
    Output,
    /// A background-thread notification.
    Asynchronous,
    /// Nothing above the tracer filter.
    Unspecified,
}

impl TriggerClass {
    /// All classes in Fig 5 order.
    pub const ALL: [TriggerClass; 4] = [
        TriggerClass::Input,
        TriggerClass::Output,
        TriggerClass::Asynchronous,
        TriggerClass::Unspecified,
    ];
}

/// How often episodes of a template are perceptibly slow (generation-side
/// ground truth for the paper's Fig 4 classes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OccurrenceClass {
    /// Every episode is perceptible.
    Always,
    /// A fraction of episodes is perceptible.
    Sometimes,
    /// Only the first episode is perceptible (initialization effects).
    Once,
    /// No episode is perceptible.
    Never,
}

/// One node of a template's tree structure. Children occupy consecutive
/// sub-spans of their parent; `span` is the fraction of the parent's
/// duration this node covers.
#[derive(Clone, Debug)]
pub struct ScriptNode {
    /// Interval type this node materializes as.
    pub kind: IntervalKind,
    /// Symbolic information attached to the interval.
    pub symbol: Option<MethodRef>,
    /// Fraction of the parent's duration (0, 1].
    pub span: f64,
    /// Child nodes, executed in order within this node's span.
    pub children: Vec<ScriptNode>,
}

impl ScriptNode {
    /// A leaf node.
    pub fn leaf(kind: IntervalKind, symbol: Option<MethodRef>, span: f64) -> Self {
        ScriptNode {
            kind,
            symbol,
            span,
            children: Vec::new(),
        }
    }

    /// Number of nodes in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ScriptNode::size).sum::<usize>()
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> u32 {
        1 + self
            .children
            .iter()
            .map(ScriptNode::depth)
            .max()
            .unwrap_or(0)
    }
}

/// How the GUI thread behaves while episodes of a template execute —
/// drives sampled thread states (Fig 8) and stack origins (Fig 6).
#[derive(Clone, Copy, Debug)]
pub struct GuiBehavior {
    /// Per-sample probability of the blocked state.
    pub blocked: f64,
    /// Per-sample probability of the waiting state.
    pub waiting: f64,
    /// Per-sample probability of the sleeping state (Apple combo-box
    /// blink).
    pub sleeping: f64,
    /// Probability that a runnable sample's top frame is runtime-library
    /// code rather than application code.
    pub library: f64,
}

/// One episode template.
#[derive(Clone, Debug)]
pub struct EpisodeTemplate {
    /// Template index within the application's library.
    pub index: usize,
    /// Trigger ground truth.
    pub trigger: TriggerClass,
    /// Occurrence ground truth.
    pub occurrence: OccurrenceClass,
    /// How many episodes of this template one session contains.
    pub episodes_per_session: u64,
    /// For [`OccurrenceClass::Sometimes`]: fraction of episodes that are
    /// perceptible.
    pub slow_fraction: f64,
    /// Children of the dispatch root (empty for structureless episodes).
    pub structure: Vec<ScriptNode>,
    /// GUI-thread behaviour during perceptible episodes.
    pub behavior_slow: GuiBehavior,
    /// GUI-thread behaviour during fast episodes.
    pub behavior_fast: GuiBehavior,
    /// Median duration of perceptible episodes (ms).
    pub slow_median_ms: u64,
    /// Median duration of fast episodes (ms).
    pub fast_median_ms: u64,
    /// True if episodes call `System.gc()` (a major collection occupies
    /// most of the episode).
    pub explicit_major_gc: bool,
    /// GUI-thread allocation rate in bytes per second of episode time.
    pub alloc_rate: u64,
}

impl EpisodeTemplate {
    /// Number of dispatch descendants this template's episodes will have
    /// (the paper's "Descs" per-pattern statistic).
    pub fn tree_size(&self) -> usize {
        self.structure.iter().map(ScriptNode::size).sum()
    }

    /// Interval-tree depth of this template's episodes (root dispatch at
    /// depth 0).
    pub fn tree_depth(&self) -> u32 {
        self.structure
            .iter()
            .map(ScriptNode::depth)
            .max()
            .unwrap_or(0)
    }

    /// Expected number of perceptible episodes per session.
    pub fn expected_perceptible(&self) -> u64 {
        match self.occurrence {
            OccurrenceClass::Always => self.episodes_per_session,
            OccurrenceClass::Once => 1.min(self.episodes_per_session),
            OccurrenceClass::Sometimes => {
                ((self.episodes_per_session as f64) * self.slow_fraction).round() as u64
            }
            OccurrenceClass::Never => 0,
        }
    }
}

/// Builds the full template library for an application profile.
///
/// The construction follows the calibration targets in order:
/// 1. split templates into singletons and recurring ones (Table III
///    "One-Ep" and "Dist");
/// 2. apportion episode counts over recurring templates with Zipf weights
///    (Fig 3's Pareto shape);
/// 3. assign triggers by the profile's mixes (Fig 5);
/// 4. assign occurrence classes, giving "always" preferentially to small
///    templates so the perceptible-episode total lands near Table III's
///    "≥ 100ms" (Fig 4);
/// 5. grow tree structures per trigger with the profile's size/depth
///    targets (Table III "Descs"/"Depth");
/// 6. derive behaviour mixes per template around the profile's time mixes
///    (Figs 6 and 8).
pub fn build_library(
    profile: &AppProfile,
    symbols: &mut SymbolTable,
    rng: &mut SimRng,
) -> Vec<EpisodeTemplate> {
    let pool = NamePool::new(&profile.package);
    let scale = &profile.scale;
    let n = scale.distinct_patterns.max(1) as usize;
    let n_singleton = ((n as f64) * scale.singleton_fraction).round() as usize;
    let n_recurring = n - n_singleton;

    // --- episode counts -------------------------------------------------
    // Structured (in-pattern) episodes: the paper's "#Eps". The remainder
    // of traced episodes is structureless filler generated by the runner.
    let structured_total = scale.structured_episodes.min(scale.traced_episodes);
    let recurring_total = structured_total.saturating_sub(n_singleton as u64);
    let weights = zipf_weights(n_recurring.max(1), 1.0);
    let recurring_counts = apportion(recurring_total, &weights, 2);

    // --- trigger assignment ---------------------------------------------
    let trig_weights = profile.trigger_perceptible.weights();

    // --- occurrence assignment ------------------------------------------
    // Counts of each class over all templates.
    let occ = &profile.occurrence;
    let n_always = ((n as f64) * occ.always).round() as usize;
    let n_once = ((n as f64) * occ.once).round() as usize;
    let n_sometimes = ((n as f64) * occ.sometimes).round() as usize;

    // Build the size list: recurring templates first (largest first), then
    // singletons. "Always" goes to the smallest templates (singletons
    // first), mirroring the paper's observation that singleton patterns
    // drive the "always" class.
    let mut sizes: Vec<u64> = recurring_counts.clone();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes.extend(std::iter::repeat(1).take(n_singleton));

    // Class assignment over the size-sorted list (largest first):
    // "sometimes" takes the biggest templates (a frequent pattern that is
    // occasionally slow, like JMol's molecule rendering), "always" and
    // "once" take the tail (singletons), "never" fills the middle.
    let mut classes: Vec<OccurrenceClass> = Vec::with_capacity(n);
    for i in 0..n {
        let from_end = n - 1 - i;
        let class = if i < n_sometimes {
            OccurrenceClass::Sometimes
        } else if from_end < n_always {
            OccurrenceClass::Always
        } else if from_end < n_always + n_once {
            OccurrenceClass::Once
        } else {
            OccurrenceClass::Never
        };
        classes.push(class);
    }

    // Solve the slow fraction of "sometimes" templates so total perceptible
    // episodes land on target.
    let always_eps: u64 = sizes
        .iter()
        .zip(&classes)
        .filter(|(_, c)| **c == OccurrenceClass::Always)
        .map(|(s, _)| *s)
        .sum();
    let once_eps = classes
        .iter()
        .filter(|c| **c == OccurrenceClass::Once)
        .count() as u64;
    let sometimes_eps: u64 = sizes
        .iter()
        .zip(&classes)
        .filter(|(_, c)| **c == OccurrenceClass::Sometimes)
        .map(|(s, _)| *s)
        .sum();
    let remaining = scale
        .perceptible_episodes
        .saturating_sub(always_eps)
        .saturating_sub(once_eps);
    let slow_fraction = if sometimes_eps == 0 {
        0.0
    } else {
        (remaining as f64 / sometimes_eps as f64).clamp(0.01, 0.95)
    };

    // --- materialize templates ------------------------------------------
    let gc_fraction = profile.time_perceptible.gc;
    let gc_cfg = crate::gc::GcConfig::macbook_2009();
    // Explicit-GC apps put their GC inside dedicated templates rather than
    // spreading allocation everywhere.
    // Collections get clamped to the enclosing interval's remaining
    // self-time and defer when segments are too small, which loses ~25% of
    // the demanded GC time; over-provision the allocation rate to land on
    // the profile's target fraction after those losses.
    let alloc_rate = if profile.explicit_major_gc {
        gc_cfg.alloc_rate_for_gc_fraction(gc_fraction * 0.25)
    } else {
        gc_cfg.alloc_rate_for_gc_fraction((gc_fraction * 1.35).min(0.9))
    };

    let mut templates = Vec::with_capacity(n);
    for (index, (&count, &occurrence)) in sizes.iter().zip(&classes).enumerate() {
        let mut trng = rng.fork(index as u64);
        let trigger = if profile.explicit_major_gc
            && occurrence == OccurrenceClass::Always
            && trng.chance(0.75)
        {
            // Arabeske's System.gc() episodes have no trigger child.
            TriggerClass::Unspecified
        } else {
            // Trigger-less structures all collapse to the same signature
            // after GC exclusion, so spreading "unspecified" over many
            // templates would silently merge them and undershoot the
            // distinct-pattern count; concentrate that mass instead.
            let mut w = trig_weights;
            w[3] *= 0.05;
            TriggerClass::ALL[trng.weighted_index(&w)]
        };
        let explicit_major_gc = profile.explicit_major_gc && trigger == TriggerClass::Unspecified;
        let structure = grow_structure(
            profile,
            trigger,
            explicit_major_gc,
            index,
            symbols,
            &pool,
            &mut trng,
        );
        let behavior_slow = behavior(profile, true, &mut trng);
        let behavior_fast = behavior(profile, false, &mut trng);
        let slow_median_ms = trng
            .log_normal(profile.perceptible_median_ms as f64, 0.35)
            .clamp(110.0, 4000.0) as u64;
        templates.push(EpisodeTemplate {
            index,
            trigger,
            occurrence,
            episodes_per_session: count.max(1),
            slow_fraction,
            structure,
            behavior_slow,
            behavior_fast,
            slow_median_ms,
            fast_median_ms: 8,
            explicit_major_gc,
            alloc_rate,
        });
    }

    // Explicit-GC templates all collapse into one mined pattern (their
    // only child is a GC interval, which signatures exclude), so the
    // distinct-pattern count would undershoot by their number. Compensate
    // with never-class input singletons so "Dist" and "One-Ep" stay on
    // target while the collapsed GC pattern keeps its episode mass.
    let collapsed = templates
        .iter()
        .filter(|t| t.explicit_major_gc)
        .count()
        .saturating_sub(1);
    for extra in 0..collapsed {
        let index = templates.len();
        let mut trng = rng.fork(0x5eed_0000 + index as u64);
        let structure = grow_structure(
            profile,
            TriggerClass::Input,
            false,
            index,
            symbols,
            &pool,
            &mut trng,
        );
        let behavior_slow = behavior(profile, true, &mut trng);
        let behavior_fast = behavior(profile, false, &mut trng);
        templates.push(EpisodeTemplate {
            index,
            trigger: TriggerClass::Input,
            occurrence: OccurrenceClass::Never,
            episodes_per_session: 1,
            slow_fraction: 0.0,
            structure,
            behavior_slow,
            behavior_fast,
            slow_median_ms: profile.perceptible_median_ms,
            fast_median_ms: 8,
            explicit_major_gc: false,
            alloc_rate,
        });
        let _ = extra;
    }
    templates
}

/// Draws a per-template behaviour around the profile's time mixes.
fn behavior(profile: &AppProfile, slow: bool, rng: &mut SimRng) -> GuiBehavior {
    let mix = if slow {
        &profile.time_perceptible
    } else {
        &profile.time_all
    };
    let jitter = |v: f64, rng: &mut SimRng| (v * (0.7 + 0.6 * rng.unit())).clamp(0.0, 0.9);
    let blocked = jitter(mix.blocked, rng);
    let waiting = jitter(mix.waiting, rng);
    let sleeping = jitter(mix.sleeping, rng);
    // Blocked/waiting/sleeping samples always show runtime-library frames
    // (monitors, event queues, Apple's blink animation), so the
    // runnable-conditional library probability must be solved from the
    // overall target: overall = nonrun + runnable * p.
    let nonrun = (blocked + waiting + sleeping).min(0.95);
    let library = ((mix.library - nonrun) / (1.0 - nonrun)).clamp(0.0, 1.0);
    GuiBehavior {
        blocked,
        waiting,
        sleeping,
        library,
    }
}

/// Grows the dispatch children for one template.
fn grow_structure(
    profile: &AppProfile,
    trigger: TriggerClass,
    explicit_major_gc: bool,
    index: usize,
    symbols: &mut SymbolTable,
    pool: &NamePool,
    rng: &mut SimRng,
) -> Vec<ScriptNode> {
    if explicit_major_gc {
        // A System.gc() episode: the dispatch contains one long GC.
        return vec![ScriptNode::leaf(IntervalKind::Gc, None, 0.85)];
    }
    let target_size = (profile.scale.tree_size as f64 * rng.log_normal(1.0, 0.4))
        .round()
        .clamp(1.0, 60.0) as usize;
    let target_depth = (profile.scale.tree_depth as f64 * rng.log_normal(1.0, 0.25))
        .round()
        .clamp(1.0, 16.0) as u32;
    let native_share = profile.time_perceptible.native;

    match trigger {
        TriggerClass::Input => {
            let listener = pool.listener(symbols, rng, index);
            let mut root = ScriptNode {
                kind: IntervalKind::Listener,
                symbol: Some(listener),
                span: 0.92,
                children: Vec::new(),
            };
            fill_work(
                &mut root,
                target_size.saturating_sub(1),
                target_depth.saturating_sub(1),
                native_share,
                index,
                symbols,
                pool,
                rng,
            );
            vec![root]
        }
        TriggerClass::Output => {
            let chain_len = target_depth.max(1);
            let mut node = paint_chain(chain_len, target_size, native_share, symbols, pool, rng);
            if rng.chance(profile.repaint_manager_fraction) {
                // Swing repaint manager: async interval wrapping the paint.
                node = ScriptNode {
                    kind: IntervalKind::Async,
                    symbol: None,
                    span: 0.95,
                    children: vec![node],
                };
            }
            vec![node]
        }
        TriggerClass::Asynchronous => {
            let mut root = ScriptNode {
                kind: IntervalKind::Async,
                symbol: None,
                span: 0.92,
                children: Vec::new(),
            };
            // Async work must not contain paint (the analysis would
            // reclassify it as output); use listener-free work instead.
            fill_work(
                &mut root,
                target_size.saturating_sub(1),
                target_depth.saturating_sub(1),
                native_share,
                index,
                symbols,
                pool,
                rng,
            );
            vec![root]
        }
        TriggerClass::Unspecified => {
            // No trigger child: either completely bare or a native-only
            // dispatch.
            if rng.chance(0.5) {
                Vec::new()
            } else {
                vec![ScriptNode::leaf(
                    IntervalKind::Native,
                    Some(pool.native(symbols, rng)),
                    0.7,
                )]
            }
        }
    }
}

/// Builds a nested paint chain (GanttProject-style recursive component
/// painting), distributing any extra size budget as sibling paints.
fn paint_chain(
    depth: u32,
    size_budget: usize,
    native_share: f64,
    symbols: &mut SymbolTable,
    pool: &NamePool,
    rng: &mut SimRng,
) -> ScriptNode {
    let mut node = ScriptNode {
        kind: IntervalKind::Paint,
        symbol: Some(pool.paint(symbols, rng)),
        span: 0.93,
        children: Vec::new(),
    };
    if depth > 1 {
        let child = paint_chain(
            depth - 1,
            size_budget.saturating_sub(1),
            native_share,
            symbols,
            pool,
            rng,
        );
        node.children.push(child);
        // Spend leftover size budget on sibling paints at this level.
        let extra = size_budget.saturating_sub(depth as usize);
        let siblings = (extra / depth.max(1) as usize).min(3);
        for _ in 0..siblings {
            node.children.push(ScriptNode::leaf(
                IntervalKind::Paint,
                Some(pool.paint(symbols, rng)),
                0.12,
            ));
        }
        normalize_spans(&mut node.children, 0.95);
    } else if rng.chance(native_share * 4.0) {
        // Rendering bottoms out in a native call (JFreeChart-style). The
        // leaf's span is a fraction of the *bottom* paint node, which is
        // itself ~0.93^depth of the episode, so over-provision to land on
        // the profile's episode-level native fraction.
        node.children.push(ScriptNode::leaf(
            IntervalKind::Native,
            Some(pool.native(symbols, rng)),
            (native_share * 1.6).clamp(0.05, 0.7),
        ));
    }
    node
}

/// Fills a work subtree under `root` with nested listener/native calls.
#[allow(clippy::too_many_arguments)]
fn fill_work(
    root: &mut ScriptNode,
    size_budget: usize,
    depth_budget: u32,
    native_share: f64,
    index: usize,
    symbols: &mut SymbolTable,
    pool: &NamePool,
    rng: &mut SimRng,
) {
    if size_budget == 0 || depth_budget == 0 {
        return;
    }
    let n_children = rng.range_u64(1, 3.min(size_budget as u64)) as usize;
    for c in 0..n_children {
        // The first child continues the call chain with the bulk of the
        // size budget (real handler stacks are chains with small fan-out),
        // so trees actually reach the profile's target depth.
        let child_budget = if c == 0 {
            size_budget.saturating_sub(n_children)
        } else {
            0
        };
        let mut child = if rng.chance(native_share * 2.0) {
            ScriptNode::leaf(IntervalKind::Native, Some(pool.native(symbols, rng)), 0.3)
        } else {
            ScriptNode {
                kind: IntervalKind::Listener,
                symbol: Some(pool.app_method(symbols, rng, index * 7 + c)),
                span: 0.3,
                children: Vec::new(),
            }
        };
        if child.kind != IntervalKind::Native {
            fill_work(
                &mut child,
                child_budget,
                depth_budget - 1,
                native_share,
                index,
                symbols,
                pool,
                rng,
            );
        }
        root.children.push(child);
    }
    normalize_spans(&mut root.children, 0.9);
}

/// Rescales sibling spans so they sum to at most `budget` of the parent.
fn normalize_spans(children: &mut [ScriptNode], budget: f64) {
    let total: f64 = children.iter().map(|c| c.span).sum();
    if total > budget {
        let scale = budget / total;
        for c in children {
            c.span *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    fn library_for(profile: &AppProfile, seed: u64) -> Vec<EpisodeTemplate> {
        let mut symbols = SymbolTable::new();
        let mut rng = SimRng::new(seed);
        build_library(profile, &mut symbols, &mut rng)
    }

    #[test]
    fn library_size_matches_profile() {
        let p = apps::gantt_project();
        let lib = library_for(&p, 1);
        assert_eq!(lib.len(), p.scale.distinct_patterns as usize);
    }

    #[test]
    fn explicit_gc_apps_get_compensation_singletons() {
        let p = apps::arabeske();
        let lib = library_for(&p, 1);
        let gc_templates = lib.iter().filter(|t| t.explicit_major_gc).count();
        assert!(gc_templates > 1);
        // One extra never-singleton per collapsing GC template (minus the
        // one surviving merged pattern).
        assert_eq!(
            lib.len(),
            p.scale.distinct_patterns as usize + gc_templates - 1
        );
    }

    #[test]
    fn singleton_fraction_respected() {
        let p = apps::net_beans();
        let lib = library_for(&p, 2);
        let singletons = lib.iter().filter(|t| t.episodes_per_session == 1).count();
        let expected = (p.scale.distinct_patterns as f64 * p.scale.singleton_fraction) as usize;
        // Recurring templates can degenerate to 1 episode too, so we only
        // check a lower bound and a sane ceiling.
        assert!(singletons >= expected, "{singletons} < {expected}");
        assert!(singletons <= lib.len());
    }

    #[test]
    fn episode_totals_are_close_to_target() {
        let p = apps::argo_uml();
        let lib = library_for(&p, 3);
        let total: u64 = lib.iter().map(|t| t.episodes_per_session).sum();
        let target = p.scale.structured_episodes;
        let ratio = total as f64 / target as f64;
        assert!((0.9..1.1).contains(&ratio), "total {total} target {target}");
    }

    #[test]
    fn perceptible_totals_are_close_to_target() {
        for p in [apps::jmol(), apps::free_mind(), apps::gantt_project()] {
            let lib = library_for(&p, 4);
            let perceptible: u64 = lib
                .iter()
                .map(super::EpisodeTemplate::expected_perceptible)
                .sum();
            let target = p.scale.perceptible_episodes;
            let ratio = perceptible as f64 / target.max(1) as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: perceptible {perceptible} target {target}",
                p.name
            );
        }
    }

    #[test]
    fn occurrence_mix_roughly_matches() {
        let p = apps::free_mind(); // 92% never in the paper
        let lib = library_for(&p, 5);
        let never = lib
            .iter()
            .filter(|t| t.occurrence == OccurrenceClass::Never)
            .count();
        let frac = never as f64 / lib.len() as f64;
        assert!(frac > 0.8, "never fraction {frac}");
    }

    #[test]
    fn async_templates_have_no_paint_descendants() {
        fn has_paint(nodes: &[ScriptNode]) -> bool {
            nodes
                .iter()
                .any(|n| n.kind == IntervalKind::Paint || has_paint(&n.children))
        }
        for p in [apps::find_bugs(), apps::net_beans()] {
            let lib = library_for(&p, 6);
            for t in &lib {
                if t.trigger == TriggerClass::Asynchronous {
                    assert!(
                        !has_paint(&t.structure),
                        "async template {} contains paint",
                        t.index
                    );
                }
            }
        }
    }

    #[test]
    fn unspecified_templates_have_no_trigger_children() {
        let p = apps::arabeske();
        let lib = library_for(&p, 7);
        let mut saw_unspecified = false;
        for t in &lib {
            if t.trigger == TriggerClass::Unspecified {
                saw_unspecified = true;
                for child in &t.structure {
                    assert!(
                        !child.kind.is_trigger_kind(),
                        "unspecified template has trigger child {:?}",
                        child.kind
                    );
                }
            }
        }
        assert!(
            saw_unspecified,
            "Arabeske should have unspecified templates"
        );
    }

    #[test]
    fn arabeske_has_explicit_gc_templates() {
        let p = apps::arabeske();
        let lib = library_for(&p, 8);
        let gc_templates = lib.iter().filter(|t| t.explicit_major_gc).count();
        assert!(gc_templates > 0);
    }

    #[test]
    fn gantt_trees_are_deep() {
        let p = apps::gantt_project();
        let lib = library_for(&p, 9);
        let avg_depth: f64 =
            lib.iter().map(|t| t.tree_depth() as f64).sum::<f64>() / lib.len() as f64;
        // Paper: depth 12 (root at 0 => structure depth ~11); allow slack.
        assert!(avg_depth > 6.0, "avg depth {avg_depth}");
    }

    #[test]
    fn spans_are_normalized() {
        fn check(nodes: &[ScriptNode]) {
            let total: f64 = nodes.iter().map(|n| n.span).sum();
            assert!(total <= 1.0 + 1e-9, "span sum {total}");
            for n in nodes {
                check(&n.children);
            }
        }
        for p in apps::standard_suite() {
            let lib = library_for(&p, 10);
            for t in &lib {
                check(&t.structure);
            }
        }
    }

    #[test]
    fn library_is_deterministic() {
        let p = apps::jedit();
        let a = library_for(&p, 11);
        let b = library_for(&p, 11);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trigger, y.trigger);
            assert_eq!(x.occurrence, y.occurrence);
            assert_eq!(x.episodes_per_session, y.episodes_per_session);
            assert_eq!(x.tree_size(), y.tree_size());
        }
    }

    #[test]
    fn script_node_metrics() {
        let tree = ScriptNode {
            kind: IntervalKind::Listener,
            symbol: None,
            span: 0.9,
            children: vec![
                ScriptNode::leaf(IntervalKind::Native, None, 0.2),
                ScriptNode {
                    kind: IntervalKind::Paint,
                    symbol: None,
                    span: 0.3,
                    children: vec![ScriptNode::leaf(IntervalKind::Paint, None, 0.5)],
                },
            ],
        };
        assert_eq!(tree.size(), 4);
        assert_eq!(tree.depth(), 3);
    }

    #[test]
    fn expected_perceptible_by_class() {
        let mut t = EpisodeTemplate {
            index: 0,
            trigger: TriggerClass::Input,
            occurrence: OccurrenceClass::Always,
            episodes_per_session: 10,
            slow_fraction: 0.3,
            structure: Vec::new(),
            behavior_slow: GuiBehavior {
                blocked: 0.0,
                waiting: 0.0,
                sleeping: 0.0,
                library: 0.5,
            },
            behavior_fast: GuiBehavior {
                blocked: 0.0,
                waiting: 0.0,
                sleeping: 0.0,
                library: 0.5,
            },
            slow_median_ms: 200,
            fast_median_ms: 8,
            explicit_major_gc: false,
            alloc_rate: 0,
        };
        assert_eq!(t.expected_perceptible(), 10);
        t.occurrence = OccurrenceClass::Once;
        assert_eq!(t.expected_perceptible(), 1);
        t.occurrence = OccurrenceClass::Sometimes;
        assert_eq!(t.expected_perceptible(), 3);
        t.occurrence = OccurrenceClass::Never;
        assert_eq!(t.expected_perceptible(), 0);
    }
}
