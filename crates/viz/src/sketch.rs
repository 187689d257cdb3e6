//! Episode sketches (the paper's Fig 1 / Fig 2).
//!
//! A sketch has three parts, bottom to top:
//!
//! 1. a **time axis** with tick labels in session time;
//! 2. the **interval tree**, one row per depth with the dispatch interval
//!    at the bottom, each interval a bar colored by type and carrying a
//!    tooltip (`Kind Class.method (duration)`);
//! 3. the GUI thread's **stack samples** as dots along the top edge,
//!    colored by thread state, each with the full stack trace as tooltip.

use lagalyzer_model::{Episode, SymbolTable, ThreadView};

use crate::color::{interval_color, state_color};
use crate::scale::TimeScale;
use crate::svg::SvgDoc;

/// Rendering options for [`render_sketch`].
#[derive(Clone, Debug)]
pub struct SketchOptions {
    /// Total image width in pixels.
    pub width: f64,
    /// Height of one interval row.
    pub row_height: f64,
    /// Radius of a sample dot.
    pub dot_radius: f64,
    /// Maximum stack frames included in a dot tooltip.
    pub tooltip_frames: usize,
}

impl Default for SketchOptions {
    fn default() -> Self {
        SketchOptions {
            width: 900.0,
            row_height: 18.0,
            dot_radius: 3.0,
            tooltip_frames: 8,
        }
    }
}

/// Renders one episode as an SVG episode sketch.
pub fn render_sketch(episode: &Episode, symbols: &SymbolTable, opts: &SketchOptions) -> String {
    use lagalyzer_model::{IntervalKind, ThreadState};

    let tree = episode.tree();
    let depth_rows = tree.max_depth() + 1;
    let margin = 40.0;
    let samples_band = 16.0;
    let axis_band = 28.0;
    let legend_band = 18.0;
    let tree_band = depth_rows as f64 * opts.row_height;
    let height = samples_band + tree_band + axis_band + legend_band + 24.0;
    let mut doc = SvgDoc::new(opts.width, height);
    let scale = TimeScale::new(episode.start(), episode.end(), margin, opts.width - 15.0);

    // --- interval tree: depth 0 (dispatch) at the bottom ------------------
    let tree_top = samples_band + 10.0;
    for (id, node) in tree.iter() {
        let interval = tree.interval(id);
        let x0 = scale.x(interval.start);
        let x1 = scale.x(interval.end);
        // Deeper intervals sit higher; the dispatch row is at the bottom.
        let row = depth_rows - 1 - node.depth;
        let y = tree_top + row as f64 * opts.row_height;
        let label = match interval.symbol {
            Some(sym) => format!(
                "{} {} ({})",
                interval.kind.name(),
                symbols.render(sym),
                interval.duration()
            ),
            None => format!("{} ({})", interval.kind.name(), interval.duration()),
        };
        doc.rect(
            x0,
            y,
            (x1 - x0).max(1.0),
            opts.row_height - 2.0,
            interval_color(interval.kind),
            Some(&label),
        );
    }

    // --- sample dots along the top edge -----------------------------------
    let gui = episode.thread();
    for snap in episode.samples() {
        let Some(ts) = snap.thread(gui) else { continue };
        doc.circle(
            scale.x(snap.time),
            samples_band / 2.0,
            opts.dot_radius,
            state_color(ts.state),
            Some(&sample_tooltip(ts, symbols, opts.tooltip_frames)),
        );
    }

    // --- time axis ---------------------------------------------------------
    let axis_y = tree_top + tree_band + 6.0;
    doc.line(margin, axis_y, opts.width - 15.0, axis_y, "#333333");
    for tick in scale.ticks(8) {
        let x = scale.x(tick);
        doc.line(x, axis_y, x, axis_y + 4.0, "#333333");
        doc.text_anchored(x, axis_y + 16.0, 9.0, "middle", &tick.to_string());
    }

    // --- legend: interval kinds present in this episode + thread states ---
    let legend_y = axis_y + 24.0;
    let mut lx = margin;
    for kind in IntervalKind::ALL {
        if !tree.contains_kind(kind) {
            continue;
        }
        doc.rect(lx, legend_y, 9.0, 9.0, interval_color(kind), None);
        doc.text(lx + 12.0, legend_y + 8.0, 9.0, kind.name());
        lx += 12.0 + 6.5 * kind.name().len() as f64 + 12.0;
    }
    if !episode.samples().is_empty() {
        for state in ThreadState::ALL {
            doc.circle(lx + 4.0, legend_y + 4.5, 3.0, state_color(state), None);
            doc.text(lx + 11.0, legend_y + 8.0, 9.0, state.name());
            lx += 11.0 + 6.5 * state.name().len() as f64 + 12.0;
        }
    }
    doc.finish()
}

/// Builds the hover text for one sample dot: state plus the stack trace.
fn sample_tooltip(ts: ThreadView<'_>, symbols: &SymbolTable, max_frames: usize) -> String {
    let mut out = format!("{} [{}]", ts.thread, ts.state);
    let stack = ts.stack();
    for frame in stack.iter().take(max_frames) {
        out.push('\n');
        out.push_str("  at ");
        out.push_str(&symbols.render(frame.method));
        if frame.native {
            out.push_str(" (native)");
        }
    }
    if stack.len() > max_frames {
        out.push_str(&format!("\n  … {} more", stack.len() - max_frames));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagalyzer_model::prelude::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn sketch_fixture() -> (Episode, SymbolTable) {
        let mut symbols = SymbolTable::new();
        let paint = symbols.method("javax.swing.JFrame", "paint");
        let native = symbols.method("sun.java2d.loops.DrawLine", "DrawLine");
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        b.enter(IntervalKind::Paint, Some(paint), ms(10)).unwrap();
        b.leaf(IntervalKind::Native, Some(native), ms(100), ms(800))
            .unwrap();
        b.exit(ms(1500)).unwrap();
        b.exit(ms(1705)).unwrap();
        let episode = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(b.finish().unwrap())
            .sample(SampleSnapshot::new(
                ms(50),
                vec![ThreadSample::new(
                    ThreadId::from_raw(0),
                    ThreadState::Runnable,
                    vec![StackFrame::java(paint)],
                )],
            ))
            .sample(SampleSnapshot::new(
                ms(900),
                vec![ThreadSample::new(
                    ThreadId::from_raw(0),
                    ThreadState::Sleeping,
                    vec![StackFrame::native(native), StackFrame::java(paint)],
                )],
            ))
            .build()
            .unwrap();
        (episode, symbols)
    }

    #[test]
    fn sketch_contains_all_parts() {
        let (episode, symbols) = sketch_fixture();
        let svg = render_sketch(&episode, &symbols, &SketchOptions::default());
        assert!(svg.starts_with("<svg"));
        // One rect per interval (3), the background, and the legend
        // swatches for the three kinds present.
        assert_eq!(svg.matches("<rect").count(), 7);
        // One dot per sample plus the four state legend dots.
        assert_eq!(svg.matches("<circle").count(), 6);
        // Legend names the kinds present.
        assert!(svg.contains(">Native<"));
        // Interval tooltips name the methods and durations.
        assert!(svg.contains("javax.swing.JFrame.paint"));
        assert!(svg.contains("DrawLine"));
        assert!(svg.contains("1.71s") || svg.contains("1705"));
        // Axis ticks rendered.
        assert!(svg.matches("<line").count() >= 9);
    }

    #[test]
    fn sample_dots_colored_by_state() {
        let (episode, symbols) = sketch_fixture();
        let svg = render_sketch(&episode, &symbols, &SketchOptions::default());
        assert!(svg.contains(crate::color::state_color(ThreadState::Runnable)));
        assert!(svg.contains(crate::color::state_color(ThreadState::Sleeping)));
    }

    #[test]
    fn tooltip_includes_stack_and_native_marker() {
        let (episode, symbols) = sketch_fixture();
        let ts = episode
            .samples()
            .iter()
            .nth(1)
            .unwrap()
            .threads()
            .next()
            .unwrap();
        let tip = sample_tooltip(ts, &symbols, 8);
        assert!(tip.contains("sleeping"));
        assert!(tip.contains("at sun.java2d.loops.DrawLine.DrawLine (native)"));
        assert!(tip.contains("at javax.swing.JFrame.paint"));
    }

    #[test]
    fn tooltip_truncates_deep_stacks() {
        let mut symbols = SymbolTable::new();
        let m = symbols.method("a.B", "c");
        let mut samples = Samples::new();
        samples.push(&SampleSnapshot::new(
            ms(0),
            vec![ThreadSample::new(
                ThreadId::from_raw(0),
                ThreadState::Runnable,
                vec![StackFrame::java(m); 12],
            )],
        ));
        let ts = samples.iter().next().unwrap().threads().next().unwrap();
        let tip = sample_tooltip(ts, &symbols, 3);
        assert!(tip.contains("… 9 more"));
    }

    #[test]
    fn figure_scenarios_render() {
        for scenario in [
            lagalyzer_sim::scenarios::figure1(),
            lagalyzer_sim::scenarios::figure2(),
        ] {
            let svg = render_sketch(
                &scenario.episode,
                &scenario.symbols,
                &SketchOptions::default(),
            );
            assert!(svg.len() > 500, "{} rendered too little", scenario.title);
        }
    }
}

/// Renders a pattern's episodes as a vertical gallery of mini-sketches —
/// the paper's §II-E browsing flow ("browse through the sketches of all
/// episodes in the pattern to get a quick grasp of the timing variations
/// between episodes"). Episodes share one duration scale so their timing
/// variation is visible at a glance.
pub fn render_pattern_gallery(
    episodes: &[&Episode],
    symbols: &SymbolTable,
    opts: &SketchOptions,
) -> String {
    use crate::scale::TimeScale;

    let max_dur = episodes
        .iter()
        .map(|e| e.duration())
        .max()
        .unwrap_or(lagalyzer_model::DurationNs::from_millis(1));
    let rows = episodes.len().max(1);
    let max_depth = episodes
        .iter()
        .map(|e| e.tree().max_depth())
        .max()
        .unwrap_or(0) as f64;
    let mini_row = (opts.row_height * 0.45).max(4.0);
    let band = (max_depth + 1.0) * mini_row + 18.0;
    let margin = 70.0;
    let height = 30.0 + rows as f64 * band + 20.0;
    let mut doc = SvgDoc::new(opts.width, height);
    doc.text(
        10.0,
        16.0,
        11.0,
        &format!("{} episodes, common scale 0 .. {max_dur}", episodes.len()),
    );
    for (i, episode) in episodes.iter().enumerate() {
        let top = 26.0 + i as f64 * band;
        doc.text(6.0, top + band / 2.0, 9.0, &episode.duration().to_string());
        // Per-episode scale anchored at episode start but spanning the
        // common maximum duration, so shorter episodes render shorter.
        let scale = TimeScale::new(
            episode.start(),
            episode.start() + max_dur,
            margin,
            opts.width - 15.0,
        );
        let depth_rows = episode.tree().max_depth() + 1;
        for (id, node) in episode.tree().iter() {
            let interval = episode.tree().interval(id);
            let row = depth_rows - 1 - node.depth;
            let y = top + row as f64 * mini_row;
            doc.rect(
                scale.x(interval.start),
                y,
                (scale.x(interval.end) - scale.x(interval.start)).max(0.8),
                mini_row - 1.0,
                interval_color(interval.kind),
                Some(&format!(
                    "{} ({})",
                    interval.kind.name(),
                    interval.duration()
                )),
            );
        }
        // Sample dots in a thin band above the bars.
        let gui = episode.thread();
        for snap in episode.samples() {
            if snap.time > episode.start() + max_dur {
                continue;
            }
            if let Some(ts) = snap.thread(gui) {
                doc.circle(
                    scale.x(snap.time),
                    top + depth_rows as f64 * mini_row + 4.0,
                    1.8,
                    state_color(ts.state),
                    Some(&sample_tooltip(ts, symbols, opts.tooltip_frames)),
                );
            }
        }
    }
    doc.finish()
}

#[cfg(test)]
mod gallery_tests {
    use super::*;
    use lagalyzer_model::prelude::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn episode(id: u32, start: u64, dur: u64) -> Episode {
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(start)).unwrap();
        b.leaf(
            IntervalKind::Paint,
            None,
            ms(start + 1),
            ms(start + dur - 1),
        )
        .unwrap();
        b.exit(ms(start + dur)).unwrap();
        EpisodeBuilder::new(EpisodeId::from_raw(id), ThreadId::from_raw(0))
            .tree(b.finish().unwrap())
            .sample(SampleSnapshot::new(
                ms(start + dur / 2),
                vec![ThreadSample::new(
                    ThreadId::from_raw(0),
                    ThreadState::Runnable,
                    vec![],
                )],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn gallery_stacks_all_episodes() {
        let symbols = SymbolTable::new();
        let e1 = episode(0, 0, 100);
        let e2 = episode(1, 500, 400);
        let e3 = episode(2, 2000, 50);
        let episodes = vec![&e1, &e2, &e3];
        let svg = render_pattern_gallery(&episodes, &symbols, &SketchOptions::default());
        assert!(svg.starts_with("<svg"));
        // 2 rects per episode (dispatch + paint) + background.
        assert_eq!(svg.matches("<rect").count(), 7);
        assert_eq!(svg.matches("<circle").count(), 3);
        assert!(svg.contains("3 episodes"));
        // Common scale is the longest episode.
        assert!(svg.contains("400ms"));
    }

    #[test]
    fn empty_gallery_renders() {
        let symbols = SymbolTable::new();
        let svg = render_pattern_gallery(&[], &symbols, &SketchOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("0 episodes"));
    }
}
