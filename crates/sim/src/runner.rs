//! Session assembly: scheduling template executions over a virtual
//! session, feeding them through the tracer-side filter, and packaging the
//! result as a [`SessionTrace`].

use lagalyzer_model::prelude::*;
use lagalyzer_trace::TraceFilter;

use crate::exec::{execute_template, ExecContext};
use crate::gc::{GcConfig, GcDemand, GcModel};
use crate::names::NamePool;
use crate::profile::AppProfile;
use crate::rng::SimRng;
use crate::template::{build_library, EpisodeTemplate, OccurrenceClass};

/// One simulated application: its profile and the recorded sessions.
#[derive(Clone, Debug)]
pub struct SimulatedApp {
    /// The profile the sessions were synthesized from.
    pub profile: AppProfile,
    /// One trace per session (the paper records four per application).
    pub sessions: Vec<SessionTrace>,
}

/// How many genuinely executed sub-threshold episodes each session feeds
/// through the tracer filter; the (much larger) remainder is accounted for
/// in bulk, exactly as a real tracer would only report a count.
const REAL_SHORT_EPISODES: u64 = 200;

/// Simulates one interactive session of `profile`.
///
/// Sessions are deterministic in `(profile, session_index, seed)`.
pub fn simulate_session(profile: &AppProfile, session_index: u32, seed: u64) -> SessionTrace {
    simulate_session_perturbed(profile, session_index, seed, DurationNs::ZERO)
}

/// Like [`simulate_session`], but with a per-event tracer instrumentation
/// overhead — the knob of the perturbation study the paper leaves to
/// future work (§V). Overhead stretches every episode in proportion to
/// its interval-tree size, exactly as enter/exit instrumentation would.
pub fn simulate_session_perturbed(
    profile: &AppProfile,
    session_index: u32,
    seed: u64,
    tracer_overhead_per_event: DurationNs,
) -> SessionTrace {
    // The template library depends on the application and study seed only:
    // all sessions of one application share their patterns, exactly as the
    // paper's four sessions per application do. Scheduling and execution
    // then vary per session.
    let mut library_rng = session_rng(profile, u32::MAX, seed);
    // Library construction interns a handful of names per distinct
    // pattern (listener, paint chain, natives); pre-sizing from the
    // pattern target avoids rehashing the table while it grows.
    let mut symbols = SymbolTable::with_capacity(profile.scale.distinct_patterns as usize * 4 + 64);
    let library = build_library(profile, &mut symbols, &mut library_rng);
    let mut rng = session_rng(profile, session_index, seed);
    let pool = NamePool::new(&profile.package);
    let mut gc = GcModel::new(GcConfig::macbook_2009());
    let gui_thread = ThreadId::from_raw(0);

    // --- plan the episode schedule ---------------------------------------
    let plan = plan_schedule(profile, &library, &mut rng);

    // --- execute ----------------------------------------------------------
    let e2e = DurationNs::from_secs(profile.scale.e2e_secs);
    let budget = profile.in_episode_budget();
    let think_total = e2e.saturating_sub(budget);
    // log_normal takes a median; divide out exp(sigma^2/2) so the *mean*
    // think time lands on budget (otherwise sessions overshoot E2E by the
    // log-normal mean/median ratio).
    const GAP_SIGMA: f64 = 0.9;
    let gap_mean_ns = think_total.as_nanos() as f64 / (plan.len().max(1) as f64);
    let gap_median_ns = gap_mean_ns * (-GAP_SIGMA * GAP_SIGMA / 2.0).exp();
    let bg_alloc_rate = library.first().map_or(0, |t| t.alloc_rate / 5);

    let mut filter = TraceFilter::new(DurationNs::TRACE_FILTER_DEFAULT);
    let mut episodes = Vec::new();
    let mut cursor = TimeNs::from_millis(50);
    for (next_id, item) in plan.iter().enumerate() {
        let next_id = next_id as u32;
        // Think time before the episode; background threads keep
        // allocating, so collections also happen between episodes.
        let gap =
            DurationNs::from_nanos(rng.log_normal(gap_median_ns, GAP_SIGMA).max(100_000.0) as u64);
        if bg_alloc_rate > 0 {
            let bytes = (bg_alloc_rate as f64 * gap.as_secs_f64()) as u64;
            if gc.allocate(bytes) != GcDemand::None {
                let at = cursor + gap / 2;
                let _ = gc.run_minor_within(at, at + gap / 4, &mut rng);
            }
        }
        cursor += gap;

        let mut ctx = ExecContext {
            symbols: &mut symbols,
            gc: &mut gc,
            rng: &mut rng,
            pool: &pool,
            gui_thread,
            background: profile.background,
            sample_period: profile.sample_period,
            extra_stack_frames: profile.extra_stack_frames,
            tracer_overhead_per_event,
        };
        let episode = match item {
            PlanItem::Template { index, slow } => execute_template(
                &library[*index],
                EpisodeId::from_raw(next_id),
                cursor,
                *slow,
                &mut ctx,
            ),
            PlanItem::Filler => filler_episode(EpisodeId::from_raw(next_id), cursor, &mut ctx),
            PlanItem::Short => short_episode(EpisodeId::from_raw(next_id), cursor, &mut ctx),
        };
        cursor = episode.end();
        if let Some(kept) = filter.admit(episode) {
            episodes.push(kept);
        }
    }

    // --- package ----------------------------------------------------------
    let end_to_end = e2e.max(cursor.saturating_since(TimeNs::ZERO) + DurationNs::from_secs(1));
    let meta = SessionMeta {
        application: profile.name.clone(),
        session: SessionId::from_raw(session_index),
        gui_thread,
        end_to_end,
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut builder = SessionTraceBuilder::new(meta, symbols);
    let traced_time: DurationNs = episodes.iter().map(Episode::duration).sum();
    for episode in episodes {
        builder
            .push_episode(episode)
            .expect("schedule is time-ordered");
    }
    // Real filtered episodes, plus the bulk remainder with its share of the
    // in-episode budget.
    let (real_short, real_short_time) = filter.take_dropped();
    let bulk_short = profile.scale.short_episodes.saturating_sub(real_short);
    let bulk_time = budget
        .saturating_sub(traced_time)
        .saturating_sub(real_short_time)
        .max(DurationNs::from_micros(20) * bulk_short);
    builder.add_short_episodes(real_short + bulk_short, real_short_time + bulk_time);
    for event in gc.into_events() {
        builder.push_gc(event);
    }
    builder.finish()
}

/// Simulates the full 14-application suite, four sessions each.
pub fn simulate_suite(profiles: &[AppProfile], seed: u64) -> Vec<SimulatedApp> {
    profiles
        .iter()
        .map(|profile| SimulatedApp {
            profile: profile.clone(),
            sessions: (0..AppProfile::SESSIONS_PER_APP)
                .map(|i| simulate_session(profile, i, seed))
                .collect(),
        })
        .collect()
}

/// Simulates a multi-session corpus of one application: `sessions`
/// consecutive session indices, deterministic in `(profile, seed)` —
/// the generation path behind `simulate --sessions N`, whose output the
/// CLI packs into one `.lgzc`.
pub fn simulate_corpus(profile: &AppProfile, sessions: u32, seed: u64) -> Vec<SessionTrace> {
    (0..sessions)
        .map(|i| simulate_session(profile, i, seed))
        .collect()
}

/// One planned episode execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PlanItem {
    /// Execute template `index`; `slow` selects the perceptible model.
    Template { index: usize, slow: bool },
    /// A structureless traced episode (bare dispatch).
    Filler,
    /// A sub-threshold episode that the tracer filter will drop.
    Short,
}

/// Expands the template library into a shuffled session schedule that
/// realizes each template's occurrence class.
fn plan_schedule(
    profile: &AppProfile,
    library: &[EpisodeTemplate],
    rng: &mut SimRng,
) -> Vec<PlanItem> {
    let mut plan = Vec::new();
    for (index, template) in library.iter().enumerate() {
        let n = template.episodes_per_session;
        let slow_count = match template.occurrence {
            OccurrenceClass::Always => n,
            OccurrenceClass::Never => 0,
            OccurrenceClass::Once => 1.min(n),
            // A rounded-to-zero count simply means this template never
            // gets slow in this session (it will classify as "never").
            OccurrenceClass::Sometimes => ((n as f64) * template.slow_fraction).round() as u64,
        };
        for k in 0..n {
            plan.push(PlanItem::Template {
                index,
                slow: k < slow_count,
            });
        }
    }
    let filler = profile
        .scale
        .traced_episodes
        .saturating_sub(plan.len() as u64);
    plan.extend(std::iter::repeat(PlanItem::Filler).take(filler as usize));
    plan.extend(
        std::iter::repeat(PlanItem::Short)
            .take(REAL_SHORT_EPISODES.min(profile.scale.short_episodes) as usize),
    );

    // Fisher–Yates shuffle.
    for i in (1..plan.len()).rev() {
        let j = rng.index(i + 1);
        plan.swap(i, j);
    }

    // "Once" templates must run their slow execution first.
    ensure_once_slow_first(library, &mut plan);
    plan
}

/// Moves each "once" template's slow execution to that template's first
/// scheduled slot (initialization happens on first use).
fn ensure_once_slow_first(library: &[EpisodeTemplate], plan: &mut [PlanItem]) {
    for (index, template) in library.iter().enumerate() {
        if template.occurrence != OccurrenceClass::Once {
            continue;
        }
        let mut first_slot = None;
        let mut slow_slot = None;
        for (pos, item) in plan.iter().enumerate() {
            if let PlanItem::Template { index: i, slow } = item {
                if *i == index {
                    if first_slot.is_none() {
                        first_slot = Some(pos);
                    }
                    if *slow {
                        slow_slot = Some(pos);
                    }
                }
            }
        }
        if let (Some(first), Some(slow)) = (first_slot, slow_slot) {
            plan.swap(first, slow);
        }
    }
}

/// A structureless traced episode: a dispatch with no children, fast.
fn filler_episode(id: EpisodeId, start: TimeNs, ctx: &mut ExecContext<'_>) -> Episode {
    let ms = ctx.rng.log_normal(6.0, 0.6).clamp(3.2, 60.0);
    let end = start + DurationNs::from_nanos((ms * 1e6) as u64);
    let mut b = IntervalTreeBuilder::new();
    b.enter(IntervalKind::Dispatch, None, start)
        .expect("fresh builder");
    b.exit(end).expect("root exit");
    EpisodeBuilder::new(id, ctx.gui_thread)
        .tree(b.finish().expect("bare dispatch"))
        .build()
        .expect("no samples to violate the window")
}

/// A sub-threshold episode destined for the tracer filter.
fn short_episode(id: EpisodeId, start: TimeNs, ctx: &mut ExecContext<'_>) -> Episode {
    let us = ctx.rng.log_normal(250.0, 0.8).clamp(20.0, 2_800.0);
    let end = start + DurationNs::from_nanos((us * 1e3) as u64);
    let mut b = IntervalTreeBuilder::new();
    b.enter(IntervalKind::Dispatch, None, start)
        .expect("fresh builder");
    b.exit(end).expect("root exit");
    EpisodeBuilder::new(id, ctx.gui_thread)
        .tree(b.finish().expect("bare dispatch"))
        .build()
        .expect("no samples to violate the window")
}

/// Mixes the profile name, session index, and user seed into one RNG seed.
fn session_rng(profile: &AppProfile, session_index: u32, seed: u64) -> SimRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in profile.name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SimRng::new(
        h ^ seed.rotate_left(17)
            ^ (u64::from(session_index) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use lagalyzer_trace::binary;

    #[test]
    fn session_is_deterministic() {
        let p = apps::crossword_sage();
        let a = simulate_session(&p, 0, 7);
        let b = simulate_session(&p, 0, 7);
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        binary::write(&a, &mut ba).unwrap();
        binary::write(&b, &mut bb).unwrap();
        assert_eq!(ba, bb, "same seed must give identical trace bytes");
    }

    #[test]
    fn different_sessions_differ() {
        let p = apps::crossword_sage();
        let a = simulate_session(&p, 0, 7);
        let b = simulate_session(&p, 1, 7);
        assert_ne!(a.episodes().len(), 0);
        let da: Vec<u64> = a
            .episodes()
            .iter()
            .map(|e| e.duration().as_nanos())
            .collect();
        let db: Vec<u64> = b
            .episodes()
            .iter()
            .map(|e| e.duration().as_nanos())
            .collect();
        assert_ne!(da, db);
    }

    #[test]
    fn extra_stack_frames_deepen_stacks_and_zero_is_the_status_quo() {
        fn max_depth(trace: &SessionTrace) -> usize {
            trace
                .episodes()
                .iter()
                .flat_map(lagalyzer_model::Episode::samples)
                .flat_map(|snap| snap.threads())
                .map(|t| t.stack().len())
                .max()
                .unwrap_or(0)
        }
        fn bytes(trace: &SessionTrace) -> Vec<u8> {
            let mut out = Vec::new();
            binary::write(trace, &mut out).unwrap();
            out
        }

        let base = apps::crossword_sage();
        assert_eq!(
            base.extra_stack_frames, 0,
            "calibrated profiles stay shallow"
        );
        let mut deep = base.clone();
        deep.extra_stack_frames = 24;

        let shallow = simulate_session(&base, 0, 7);
        let deepened = simulate_session(&deep, 0, 7);
        assert!(
            max_depth(&deepened) > max_depth(&shallow) + 8,
            "24 plumbing frames must visibly deepen stacks: {} vs {}",
            max_depth(&deepened),
            max_depth(&shallow)
        );

        // Zero draws nothing from the random stream, so a profile with the
        // knob explicitly at zero reproduces the default bit-for-bit.
        let mut zeroed = deep;
        zeroed.extra_stack_frames = 0;
        assert_eq!(bytes(&simulate_session(&zeroed, 0, 7)), bytes(&shallow));
    }

    #[test]
    fn traced_count_near_target() {
        let p = apps::jedit();
        let trace = simulate_session(&p, 0, 1);
        let target = p.scale.traced_episodes as f64;
        let actual = trace.episodes().len() as f64;
        assert!(
            (actual / target - 1.0).abs() < 0.1,
            "traced {actual} target {target}"
        );
    }

    #[test]
    fn perceptible_count_near_target() {
        for p in [apps::jmol(), apps::gantt_project(), apps::jedit()] {
            let trace = simulate_session(&p, 0, 1);
            let threshold = DurationNs::PERCEPTIBLE_DEFAULT;
            let actual = trace.perceptible_episodes(threshold).count() as f64;
            let target = p.scale.perceptible_episodes as f64;
            assert!(
                (0.5..1.6).contains(&(actual / target)),
                "{}: perceptible {actual} target {target}",
                p.name
            );
        }
    }

    #[test]
    fn short_count_matches_table3_exactly() {
        let p = apps::laoe();
        let trace = simulate_session(&p, 0, 1);
        assert_eq!(trace.short_episode_count(), p.scale.short_episodes);
    }

    #[test]
    fn in_episode_fraction_near_target() {
        for p in [apps::laoe(), apps::euclide(), apps::crossword_sage()] {
            let trace = simulate_session(&p, 2, 3);
            let actual = trace.in_episode_fraction();
            let target = p.scale.in_episode_fraction;
            assert!(
                (actual - target).abs() < 0.12,
                "{}: in-eps {actual:.3} target {target}",
                p.name
            );
        }
    }

    #[test]
    fn episodes_are_time_ordered_and_disjoint() {
        let trace = simulate_session(&apps::free_mind(), 0, 5);
        for pair in trace.episodes().windows(2) {
            assert!(pair[0].end() <= pair[1].start());
        }
    }

    #[test]
    fn traces_round_trip_through_codec() {
        let trace = simulate_session(&apps::swing_set(), 0, 2);
        let mut buf = Vec::new();
        binary::write(&trace, &mut buf).unwrap();
        let back = binary::read(&mut buf.as_slice()).unwrap();
        assert_eq!(back.episodes().len(), trace.episodes().len());
        assert_eq!(back.short_episode_count(), trace.short_episode_count());
    }

    #[test]
    fn suite_covers_all_profiles_and_sessions() {
        // Two small apps to keep the test quick.
        let profiles = vec![apps::crossword_sage(), apps::jfree_chart()];
        let suite = simulate_suite(&profiles, 11);
        assert_eq!(suite.len(), 2);
        for app in &suite {
            assert_eq!(app.sessions.len(), AppProfile::SESSIONS_PER_APP as usize);
            for s in &app.sessions {
                assert_eq!(s.meta().application, app.profile.name);
                assert!(!s.episodes().is_empty());
            }
        }
    }

    #[test]
    fn gc_events_recorded_for_allocating_apps() {
        let trace = simulate_session(&apps::argo_uml(), 0, 3);
        assert!(
            !trace.gc_events().is_empty(),
            "ArgoUML's allocation rate must trigger collections"
        );
    }
}
