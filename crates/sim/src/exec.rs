//! Template execution: turning an [`EpisodeTemplate`] into a concrete
//! [`Episode`] with drawn timing, allocation-driven garbage collections,
//! and sampled thread states.

use lagalyzer_model::prelude::*;

use crate::gc::{GcDemand, GcModel};
use crate::names::NamePool;
use crate::profile::BackgroundThreads;
use crate::rng::SimRng;
use crate::template::{EpisodeTemplate, ScriptNode};

/// Shared mutable state threaded through one session's episode executions.
pub struct ExecContext<'a> {
    /// Symbol table of the session under construction.
    pub symbols: &'a mut SymbolTable,
    /// The session heap.
    pub gc: &'a mut GcModel,
    /// The session's random stream.
    pub rng: &'a mut SimRng,
    /// Name generator for stack frames.
    pub pool: &'a NamePool,
    /// The GUI thread id.
    pub gui_thread: ThreadId,
    /// Background-thread behaviour.
    pub background: BackgroundThreads,
    /// Stack-sampler cadence.
    pub sample_period: DurationNs,
    /// Extra plumbing frames drawn beneath each sampled stack (see
    /// [`crate::AppProfile::extra_stack_frames`]). Zero leaves the random
    /// stream untouched, so default-profile sessions are bit-identical to
    /// those generated before the knob existed.
    pub extra_stack_frames: u64,
    /// Instrumentation cost the tracer adds per recorded interval event
    /// (enter or exit). Zero models LagAlyzer's idealized tracer; nonzero
    /// values drive the perturbation study the paper defers to future
    /// work (§V: "We plan to study the perturbation of LiLa").
    pub tracer_overhead_per_event: DurationNs,
}

/// Executes `template` as one episode dispatched at `start`.
///
/// `slow` selects the perceptible duration model (the caller implements the
/// occurrence classes by deciding which executions are slow).
pub fn execute_template(
    template: &EpisodeTemplate,
    id: EpisodeId,
    start: TimeNs,
    slow: bool,
    ctx: &mut ExecContext<'_>,
) -> Episode {
    let mut duration = draw_duration(template, slow, ctx.rng);
    // Tracer perturbation: every interval produces an enter and an exit
    // record, each costing the instrumentation overhead, which stretches
    // the episode the user experiences.
    let events = 2 * (template.tree_size() as u64 + 1);
    duration += ctx.tracer_overhead_per_event * events;
    let end = start + duration;

    // --- build the interval tree, inserting GCs at allocation pressure ---
    let mut builder = IntervalTreeBuilder::new();
    let mut gc_windows: Vec<GcEvent> = Vec::new();
    builder
        .enter(IntervalKind::Dispatch, None, start)
        .expect("fresh builder accepts a root");
    build_children(
        &mut builder,
        &template.structure,
        start,
        end,
        template,
        ctx,
        &mut gc_windows,
    );
    builder.exit(end).expect("dispatch closes after children");
    let tree = builder.finish().expect("template trees are well-formed");

    // --- sample the threads through the episode ---
    let samples = sample_episode(&tree, template, slow, &gc_windows, ctx);

    EpisodeBuilder::new(id, ctx.gui_thread)
        .tree(tree)
        .samples(samples)
        .build()
        .expect("generated samples lie within the episode")
}

/// Draws an episode duration from the template's slow or fast model.
fn draw_duration(template: &EpisodeTemplate, slow: bool, rng: &mut SimRng) -> DurationNs {
    let ms = if slow {
        rng.log_normal(template.slow_median_ms as f64, 0.4)
            .clamp(105.0, 8_000.0)
    } else {
        rng.log_normal(template.fast_median_ms as f64, 0.7)
            .clamp(3.2, 90.0)
    };
    DurationNs::from_nanos((ms * 1e6) as u64)
}

/// Recursively materializes script children inside the window `[s, e)`,
/// running self-time (allocation, GC insertion) in the gaps.
fn build_children(
    builder: &mut IntervalTreeBuilder,
    children: &[ScriptNode],
    s: TimeNs,
    e: TimeNs,
    template: &EpisodeTemplate,
    ctx: &mut ExecContext<'_>,
    gc_windows: &mut Vec<GcEvent>,
) {
    let window = e - s;
    if children.is_empty() {
        self_time(builder, s, e, template, ctx, gc_windows);
        return;
    }
    let child_total: f64 = children.iter().map(|c| c.span).sum();
    let gap_total = (1.0 - child_total.min(1.0)).max(0.0);
    let gap = window.mul_f64(gap_total / (children.len() + 1) as f64);

    let mut cursor = s;
    for child in children {
        let child_start = (cursor + gap).min(e);
        let child_end = (child_start + window.mul_f64(child.span)).min(e);
        if child_end <= child_start {
            continue;
        }
        self_time(builder, cursor, child_start, template, ctx, gc_windows);
        build_node(
            builder,
            child,
            child_start,
            child_end,
            template,
            ctx,
            gc_windows,
        );
        cursor = child_end;
    }
    self_time(builder, cursor, e, template, ctx, gc_windows);
}

/// Materializes one script node over `[s, e)`.
fn build_node(
    builder: &mut IntervalTreeBuilder,
    node: &ScriptNode,
    s: TimeNs,
    e: TimeNs,
    template: &EpisodeTemplate,
    ctx: &mut ExecContext<'_>,
    gc_windows: &mut Vec<GcEvent>,
) {
    if node.kind == IntervalKind::Gc {
        // Explicit GC in the script (System.gc()): a major collection.
        let event = ctx.gc.record_explicit_major(s, e);
        gc_windows.push(event);
        builder
            .enter(IntervalKind::Gc, None, s)
            .expect("nested enter");
        builder.exit(e).expect("nested exit");
        return;
    }
    builder
        .enter(node.kind, node.symbol, s)
        .expect("nested enter");
    build_children(builder, &node.children, s, e, template, ctx, gc_windows);
    builder.exit(e).expect("nested exit");
}

/// Runs GUI-thread self-time over `[s, e)`: allocates at the template's
/// rate and inserts minor/major collections when the heap demands them and
/// the segment has room.
fn self_time(
    builder: &mut IntervalTreeBuilder,
    s: TimeNs,
    e: TimeNs,
    template: &EpisodeTemplate,
    ctx: &mut ExecContext<'_>,
    gc_windows: &mut Vec<GcEvent>,
) {
    if e <= s || template.alloc_rate == 0 {
        return;
    }
    let mut cursor = s;
    // Advance in sampler-period steps so collections land mid-segment.
    while cursor < e {
        let step_end = (cursor + ctx.sample_period).min(e);
        let step = step_end - cursor;
        let bytes = (template.alloc_rate as f64 * step.as_secs_f64()) as u64;
        let demand = ctx.gc.allocate(bytes);
        if demand != GcDemand::None {
            let room = e - step_end;
            let event = match demand {
                GcDemand::Minor => ctx.gc.run_minor_within(step_end, e, ctx.rng),
                GcDemand::Major => ctx.gc.run_major_within(step_end, e, ctx.rng),
                GcDemand::None => unreachable!(),
            };
            if let Some(event) = event {
                builder
                    .enter(IntervalKind::Gc, None, event.start)
                    .expect("gc enter");
                builder.exit(event.end).expect("gc exit");
                gc_windows.push(event);
                cursor = event.end;
                continue;
            }
            // No room for even a minimal pause: the collection happens at
            // the next opportunity (possibly outside this episode).
            let _ = room;
        }
        cursor = step_end;
    }
}

/// Samples all threads through the episode at the configured cadence,
/// honoring JVMTI-style suppression inside (and shortly before) GCs.
fn sample_episode(
    tree: &IntervalTree,
    template: &EpisodeTemplate,
    slow: bool,
    gc_windows: &[GcEvent],
    ctx: &mut ExecContext<'_>,
) -> Vec<SampleSnapshot> {
    let behavior = if slow {
        &template.behavior_slow
    } else {
        &template.behavior_fast
    };
    let start = tree.root_interval().start;
    let end = tree.root_interval().end;
    let mut samples = Vec::new();
    // The sampler ticks on a session-global grid, so even sub-period
    // episodes usually catch one sample (as a real periodic sampler would).
    let period = ctx.sample_period.as_nanos().max(1);
    let mut t = TimeNs::from_nanos((start.as_nanos() / period + 1) * period);
    while t < end {
        if suppressed(t, gc_windows) {
            t += ctx.sample_period;
            continue;
        }
        let mut threads = Vec::with_capacity(1 + ctx.background.count as usize);
        threads.push(gui_sample(tree, t, behavior, template, ctx));
        let bg_runnable_p = if slow {
            ctx.background.runnable_perceptible
        } else {
            ctx.background.runnable_all
        };
        for j in 0..ctx.background.count {
            threads.push(background_sample(
                ThreadId::from_raw(ctx.gui_thread.as_raw() + 1 + j),
                bg_runnable_p,
                ctx,
            ));
        }
        samples.push(SampleSnapshot::new(t, threads));
        t += ctx.sample_period;
    }
    samples
}

/// True if the sampler is suppressed at `t`: inside a stop-the-world
/// window, or in the run-up to one (threads already heading to the safe
/// point — the effect the paper observes around Fig 1's GC).
fn suppressed(t: TimeNs, gc_windows: &[GcEvent]) -> bool {
    gc_windows.iter().any(|gc| {
        let margin = gc.duration() / 3;
        let lead_start = if gc.start.as_nanos() >= margin.as_nanos() {
            gc.start - margin
        } else {
            TimeNs::ZERO
        };
        lead_start <= t && t < gc.end
    })
}

/// Draws the GUI thread's sample at `t`.
fn gui_sample(
    tree: &IntervalTree,
    t: TimeNs,
    behavior: &crate::template::GuiBehavior,
    template: &EpisodeTemplate,
    ctx: &mut ExecContext<'_>,
) -> ThreadSample {
    let u = ctx.rng.unit();
    let (state, top) = if u < behavior.blocked {
        (
            ThreadState::Blocked,
            StackFrame::java(ctx.pool.contention_frame(ctx.symbols, ctx.rng)),
        )
    } else if u < behavior.blocked + behavior.waiting {
        (
            ThreadState::Waiting,
            StackFrame::java(ctx.symbols.method("java.awt.EventQueue", "getNextEvent")),
        )
    } else if u < behavior.blocked + behavior.waiting + behavior.sleeping {
        (
            ThreadState::Sleeping,
            StackFrame::java(ctx.pool.apple_blink(ctx.symbols)),
        )
    } else {
        // Runnable: the executing frame depends on where the episode is.
        let deepest = tree.deepest_at(t);
        let native = deepest.is_some_and(|id| tree.interval(id).kind == IntervalKind::Native);
        let top = if native {
            let sym = deepest
                .and_then(|id| tree.interval(id).symbol)
                .unwrap_or_else(|| ctx.pool.native(ctx.symbols, ctx.rng));
            StackFrame::native(sym)
        } else if ctx.rng.chance(behavior.library) {
            StackFrame::java(ctx.pool.library_frame(ctx.symbols, ctx.rng))
        } else {
            StackFrame::java(
                ctx.pool
                    .app_method(ctx.symbols, ctx.rng, template.index * 3),
            )
        };
        (ThreadState::Runnable, top)
    };
    let mut stack = vec![top];
    for depth in 0..ctx.rng.range_u64(2, 5) {
        // Deeper frames alternate between library plumbing and app code.
        let frame = if depth % 2 == 0 {
            StackFrame::java(ctx.pool.library_frame(ctx.symbols, ctx.rng))
        } else {
            StackFrame::java(ctx.pool.app_method(
                ctx.symbols,
                ctx.rng,
                template.index * 3 + depth as usize,
            ))
        };
        stack.push(frame);
    }
    push_plumbing_frames(&mut stack, ctx);
    ThreadSample::new(ctx.gui_thread, state, stack)
}

/// Appends the deep event-pump / layout plumbing below the sampled frames
/// when the profile asks for realistic stack depth. Draws nothing from the
/// random stream when the knob is zero.
fn push_plumbing_frames(stack: &mut Vec<StackFrame>, ctx: &mut ExecContext<'_>) {
    if ctx.extra_stack_frames == 0 {
        return;
    }
    let lo = ctx.extra_stack_frames / 2;
    let n = ctx.rng.range_u64(lo, ctx.extra_stack_frames);
    stack.reserve(n as usize);
    for depth in 0..n {
        let frame = if depth % 3 == 2 {
            StackFrame::java(ctx.pool.app_method(ctx.symbols, ctx.rng, depth as usize))
        } else {
            StackFrame::java(ctx.pool.library_frame(ctx.symbols, ctx.rng))
        };
        stack.push(frame);
    }
}

/// Draws a background thread's sample.
fn background_sample(thread: ThreadId, runnable_p: f64, ctx: &mut ExecContext<'_>) -> ThreadSample {
    if ctx.rng.chance(runnable_p) {
        let mut stack = vec![
            StackFrame::java(ctx.pool.app_method(ctx.symbols, ctx.rng, thread.index())),
            StackFrame::java(ctx.pool.library_frame(ctx.symbols, ctx.rng)),
        ];
        push_plumbing_frames(&mut stack, ctx);
        ThreadSample::new(thread, ThreadState::Runnable, stack)
    } else {
        let stack = vec![StackFrame::java(
            ctx.symbols.method("java.lang.Object", "wait"),
        )];
        ThreadSample::new(thread, ThreadState::Waiting, stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::gc::GcConfig;
    use crate::template::build_library;

    fn run_one(app: crate::AppProfile, slow: bool, seed: u64) -> (Episode, Vec<GcEvent>) {
        let mut symbols = SymbolTable::new();
        let mut rng = SimRng::new(seed);
        let lib = build_library(&app, &mut symbols, &mut rng);
        let template = lib
            .iter()
            .find(|t| !t.structure.is_empty())
            .expect("library has structured templates");
        let mut gc = GcModel::new(GcConfig::macbook_2009());
        let pool = NamePool::new(&app.package);
        let mut ctx = ExecContext {
            symbols: &mut symbols,
            gc: &mut gc,
            rng: &mut rng,
            pool: &pool,
            gui_thread: ThreadId::from_raw(0),
            background: app.background,
            sample_period: app.sample_period,
            extra_stack_frames: app.extra_stack_frames,
            tracer_overhead_per_event: DurationNs::ZERO,
        };
        let episode = execute_template(
            template,
            EpisodeId::from_raw(0),
            TimeNs::from_secs(1),
            slow,
            &mut ctx,
        );
        (episode, gc.into_events())
    }

    #[test]
    fn slow_executions_are_perceptible() {
        for seed in 0..20 {
            let (e, _) = run_one(apps::jmol(), true, seed);
            assert!(
                e.duration() >= DurationNs::from_millis(100),
                "{}",
                e.duration()
            );
            assert!(e.tree().validate().is_ok());
        }
    }

    #[test]
    fn fast_executions_are_imperceptible_but_traced() {
        for seed in 0..20 {
            let (e, _) = run_one(apps::jedit(), false, seed);
            assert!(e.duration() < DurationNs::from_millis(100));
            assert!(e.duration() >= DurationNs::from_millis(3));
        }
    }

    #[test]
    fn samples_lie_within_episode_and_have_all_threads() {
        let app = apps::net_beans();
        let expected_threads = 1 + app.background.count as usize;
        let (e, _) = run_one(app, true, 3);
        assert!(!e.samples().is_empty(), "perceptible episode has samples");
        for s in e.samples() {
            assert!(s.time >= e.start() && s.time <= e.end());
            assert_eq!(s.threads().len(), expected_threads);
        }
    }

    #[test]
    fn samples_are_suppressed_during_gc() {
        // Arabeske's explicit System.gc() episodes must have no samples
        // inside the collection.
        let mut found_gc_episode = false;
        for seed in 0..40 {
            let app = apps::arabeske();
            let mut symbols = SymbolTable::new();
            let mut rng = SimRng::new(seed);
            let lib = build_library(&app, &mut symbols, &mut rng);
            let Some(template) = lib.iter().find(|t| t.explicit_major_gc) else {
                continue;
            };
            let mut gc = GcModel::new(GcConfig::macbook_2009());
            let pool = NamePool::new(&app.package);
            let mut ctx = ExecContext {
                symbols: &mut symbols,
                gc: &mut gc,
                rng: &mut rng,
                pool: &pool,
                gui_thread: ThreadId::from_raw(0),
                background: app.background,
                sample_period: app.sample_period,
                extra_stack_frames: app.extra_stack_frames,
                tracer_overhead_per_event: DurationNs::ZERO,
            };
            let episode = execute_template(
                template,
                EpisodeId::from_raw(0),
                TimeNs::ZERO,
                true,
                &mut ctx,
            );
            found_gc_episode = true;
            let events = gc.into_events();
            assert!(!events.is_empty());
            for s in episode.samples() {
                for gc_event in &events {
                    assert!(
                        s.time < gc_event.start || s.time >= gc_event.end,
                        "sample at {} inside GC [{}, {}]",
                        s.time,
                        gc_event.start,
                        gc_event.end
                    );
                }
            }
        }
        assert!(found_gc_episode);
    }

    #[test]
    fn explicit_gc_episode_contains_major_gc_interval() {
        let app = apps::arabeske();
        let mut symbols = SymbolTable::new();
        let mut rng = SimRng::new(1);
        let lib = build_library(&app, &mut symbols, &mut rng);
        let template = lib
            .iter()
            .find(|t| t.explicit_major_gc)
            .expect("Arabeske has System.gc templates");
        let mut gc = GcModel::new(GcConfig::macbook_2009());
        let pool = NamePool::new(&app.package);
        let mut ctx = ExecContext {
            symbols: &mut symbols,
            gc: &mut gc,
            rng: &mut rng,
            pool: &pool,
            gui_thread: ThreadId::from_raw(0),
            background: app.background,
            sample_period: app.sample_period,
            extra_stack_frames: app.extra_stack_frames,
            tracer_overhead_per_event: DurationNs::ZERO,
        };
        let e = execute_template(
            template,
            EpisodeId::from_raw(0),
            TimeNs::ZERO,
            true,
            &mut ctx,
        );
        let tree = e.tree();
        assert!(tree.contains_kind(IntervalKind::Gc));
        let gc_time = tree.outermost_kind_time(IntervalKind::Gc);
        let frac = gc_time.fraction_of(e.duration());
        assert!(frac > 0.5, "gc fraction {frac}");
        assert!(gc.events().iter().any(|ev| ev.major));
    }

    #[test]
    fn allocation_pressure_inserts_minor_gcs() {
        // ArgoUML's allocation rate should produce GC intervals inside long
        // episodes.
        let mut saw_gc = false;
        for seed in 0..30 {
            let (e, events) = run_one(apps::argo_uml(), true, seed);
            if e.tree().contains_kind(IntervalKind::Gc) {
                saw_gc = true;
                assert!(!events.is_empty());
                break;
            }
        }
        assert!(saw_gc, "no GC materialized under allocation pressure");
    }

    #[test]
    fn episode_structure_matches_template() {
        let app = apps::gantt_project();
        let mut symbols = SymbolTable::new();
        let mut rng = SimRng::new(5);
        let lib = build_library(&app, &mut symbols, &mut rng);
        let template = lib
            .iter()
            .filter(|t| !t.structure.is_empty() && t.alloc_rate == 0)
            .max_by_key(|t| t.tree_size())
            .unwrap_or(&lib[0]);
        let mut gc = GcModel::new(GcConfig::macbook_2009());
        let pool = NamePool::new(&app.package);
        let mut ctx = ExecContext {
            symbols: &mut symbols,
            gc: &mut gc,
            rng: &mut rng,
            pool: &pool,
            gui_thread: ThreadId::from_raw(0),
            background: app.background,
            sample_period: app.sample_period,
            extra_stack_frames: app.extra_stack_frames,
            tracer_overhead_per_event: DurationNs::ZERO,
        };
        let e = execute_template(
            template,
            EpisodeId::from_raw(0),
            TimeNs::ZERO,
            true,
            &mut ctx,
        );
        // Without allocation, the tree is exactly the template structure
        // (plus the dispatch root).
        if template.alloc_rate == 0 {
            assert_eq!(e.tree().len(), template.tree_size() + 1);
            assert_eq!(e.tree().max_depth(), template.tree_depth());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, _) = run_one(apps::free_mind(), true, 9);
        let (b, _) = run_one(apps::free_mind(), true, 9);
        assert_eq!(a, b);
    }
}
