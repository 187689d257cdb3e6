//! Session trace timelines (the LiLa Viewer visualization LagAlyzer's
//! episode sketches extend, paper §VI).
//!
//! A timeline shows the whole session along one time axis: each traced
//! episode is a block whose color encodes its trigger class and whose
//! height encodes perceptibility; session-level GC events appear as marks
//! under the axis. It is the "where do I even look" view a developer opens
//! before drilling into a single episode's sketch.
//!
//! A [`Timeline`] needs one [`TimelineRow`] per episode and the session's
//! facts, never the episodes themselves, so a caller can fold the rows
//! ([`TimelineRows`]) as the episodes decode. A decoded
//! [`AnalysisSession`] converts into one.

use lagalyzer_core::analysis::{fold_episodes, Analysis, Scope};
use lagalyzer_core::session::AnalysisSession;
use lagalyzer_core::summary::SessionFacts;
use lagalyzer_core::trigger::Trigger;
use lagalyzer_model::{DurationNs, Episode, EpisodeId, TimeNs};

use crate::scale::TimeScale;
use crate::svg::SvgDoc;

/// Rendering options for [`render_timeline`].
#[derive(Clone, Debug)]
pub struct TimelineOptions {
    /// Total image width in pixels.
    pub width: f64,
    /// Height of a perceptible episode's block.
    pub tall: f64,
    /// Height of an imperceptible episode's block.
    pub short: f64,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            width: 1200.0,
            tall: 46.0,
            short: 14.0,
        }
    }
}

/// What the timeline draws of one episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineRow {
    /// The episode's trace id.
    pub id: EpisodeId,
    /// Dispatch start.
    pub start: TimeNs,
    /// Dispatch end.
    pub end: TimeNs,
    /// The episode's lag.
    pub duration: DurationNs,
    /// Its Fig 5 trigger class.
    pub trigger: Trigger,
}

impl TimelineRow {
    /// The row of a decoded episode.
    pub fn of_episode(episode: &Episode) -> TimelineRow {
        TimelineRow {
            id: episode.id(),
            start: episode.start(),
            end: episode.end(),
            duration: episode.duration(),
            trigger: Trigger::of_episode(episode),
        }
    }
}

/// The timeline rows of a session's episodes, in order, as an
/// [`Analysis`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TimelineRows;

impl Analysis for TimelineRows {
    type Shard = Vec<TimelineRow>;
    type Output = Vec<TimelineRow>;

    fn shard(&self, _: Scope<'_>) -> Vec<TimelineRow> {
        Vec::new()
    }

    fn push(&self, _: Scope<'_>, rows: &mut Vec<TimelineRow>, _: usize, episode: &Episode) {
        rows.push(TimelineRow::of_episode(episode));
    }

    fn finish(&self, _: Scope<'_>, shards: Vec<Vec<TimelineRow>>) -> Vec<TimelineRow> {
        shards.concat()
    }
}

/// A session as the timeline draws it: one row per traced episode, in
/// dispatch order, and the session's metadata, GC events, short-episode
/// count and perceptibility threshold.
#[derive(Clone, Debug)]
pub struct Timeline<'a> {
    /// The session the rows belong to.
    pub facts: SessionFacts<'a>,
    /// One row per episode drawn.
    pub rows: Vec<TimelineRow>,
}

impl<'a> From<&'a AnalysisSession> for Timeline<'a> {
    fn from(session: &'a AnalysisSession) -> Timeline<'a> {
        Timeline {
            facts: SessionFacts::of_trace(session.trace(), *session.config()),
            rows: fold_episodes(
                &TimelineRows,
                Scope::of_trace(session.trace()),
                session.episodes(),
                1,
            ),
        }
    }
}

/// The fill color of a trigger class on the timeline.
pub fn trigger_color(trigger: Trigger) -> &'static str {
    match trigger {
        Trigger::Input => "#4c78a8",
        Trigger::Output => "#59a14f",
        Trigger::Asynchronous => "#b07aa1",
        Trigger::Unspecified => "#9c9c9c",
    }
}

/// Renders the whole session as an SVG timeline.
pub fn render_timeline<'a>(timeline: impl Into<Timeline<'a>>, opts: &TimelineOptions) -> String {
    let Timeline { facts, rows } = timeline.into();
    let threshold = facts.config.perceptible_threshold;
    let end = TimeNs::ZERO + facts.meta.end_to_end;
    let margin = 10.0;
    let band_top = 40.0;
    let axis_y = band_top + opts.tall + 8.0;
    let height = axis_y + 46.0;
    let mut doc = SvgDoc::new(opts.width, height);
    let scale = TimeScale::new(TimeNs::ZERO, end, margin, opts.width - margin);

    doc.text(
        margin,
        18.0,
        12.0,
        &format!(
            "{} — {} traced episodes, {} perceptible, {} filtered",
            facts.meta.application,
            rows.len(),
            rows.iter().filter(|row| row.duration >= threshold).count(),
            facts.short_count
        ),
    );

    // Legend.
    let mut lx = margin;
    for trigger in Trigger::ALL {
        doc.rect(lx, 24.0, 9.0, 9.0, trigger_color(trigger), None);
        doc.text(lx + 12.0, 32.0, 9.0, trigger.label());
        lx += 12.0 + 7.0 * trigger.label().len() as f64 + 14.0;
    }

    // Episode blocks, perceptible ones taller and labeled via tooltip.
    for row in &rows {
        let x0 = scale.x(row.start);
        let x1 = scale.x(row.end);
        let perceptible = row.duration >= threshold;
        let h = if perceptible { opts.tall } else { opts.short };
        doc.rect(
            x0,
            band_top + opts.tall - h,
            (x1 - x0).max(0.8),
            h,
            trigger_color(row.trigger),
            Some(&format!(
                "{} {} ({}, {})",
                row.id,
                row.duration,
                row.trigger,
                if perceptible { "perceptible" } else { "ok" }
            )),
        );
    }

    // Time axis with ticks.
    doc.line(margin, axis_y, opts.width - margin, axis_y, "#333333");
    for tick in scale.ticks(10) {
        let x = scale.x(tick);
        doc.line(x, axis_y, x, axis_y + 4.0, "#333333");
        doc.text_anchored(x, axis_y + 15.0, 9.0, "middle", &tick.to_string());
    }

    // GC marks under the axis, in start order as a decoded trace keeps
    // them (the sort is stable, like the trace builder's).
    let mut gc_events = facts.gc_events.to_vec();
    gc_events.sort_by_key(|gc| gc.start);
    for gc in &gc_events {
        let x0 = scale.x(gc.start);
        let x1 = scale.x(gc.end);
        doc.rect(
            x0,
            axis_y + 20.0,
            (x1 - x0).max(0.8),
            8.0,
            if gc.major { "#e15759" } else { "#f1a1a2" },
            Some(&format!(
                "{} GC {} ({})",
                if gc.major { "major" } else { "minor" },
                gc.start,
                gc.duration()
            )),
        );
    }
    doc.text(margin, axis_y + 42.0, 9.0, "GC events");
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagalyzer_core::session::AnalysisConfig;
    use lagalyzer_model::prelude::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn session() -> AnalysisSession {
        let meta = SessionMeta {
            application: "TimelineApp".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(2),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let paint = b.symbols_mut().method("javax.swing.JPanel", "paint");
        // One fast input episode, one perceptible output episode.
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(100)).unwrap();
        t.leaf(IntervalKind::Listener, Some(paint), ms(101), ms(119))
            .unwrap();
        t.exit(ms(120)).unwrap();
        b.push_episode(
            EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(500)).unwrap();
        t.leaf(IntervalKind::Paint, Some(paint), ms(501), ms(799))
            .unwrap();
        t.exit(ms(800)).unwrap();
        b.push_episode(
            EpisodeBuilder::new(EpisodeId::from_raw(1), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .build()
                .unwrap(),
        )
        .unwrap();
        b.push_gc(GcEvent {
            start: ms(300),
            end: ms(340),
            major: true,
        });
        AnalysisSession::new(b.finish(), AnalysisConfig::default())
    }

    #[test]
    fn timeline_contains_episodes_axis_and_gc() {
        let s = session();
        let svg = render_timeline(&s, &TimelineOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("TimelineApp"));
        // 2 episode rects + 1 GC rect + 4 legend rects + background.
        assert_eq!(svg.matches("<rect").count(), 8);
        assert!(svg.contains("perceptible"));
        assert!(svg.contains("major GC"));
    }

    #[test]
    fn blocks_colored_by_trigger() {
        let s = session();
        let svg = render_timeline(&s, &TimelineOptions::default());
        assert!(svg.contains(trigger_color(Trigger::Input)));
        assert!(svg.contains(trigger_color(Trigger::Output)));
    }

    #[test]
    fn trigger_colors_are_distinct() {
        let colors: std::collections::HashSet<&str> =
            Trigger::ALL.iter().map(|t| trigger_color(*t)).collect();
        assert_eq!(colors.len(), 4);
    }

    #[test]
    fn legend_lists_all_triggers() {
        let s = session();
        let svg = render_timeline(&s, &TimelineOptions::default());
        for t in Trigger::ALL {
            assert!(svg.contains(t.label()), "{}", t.label());
        }
    }
}
