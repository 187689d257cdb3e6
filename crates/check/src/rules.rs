//! The shipped rules, `LA001`…`LA014`.
//!
//! Every rule checks one invariant the analyses otherwise assume, each
//! grounded in the paper or in the trace format:
//!
//! | code  | name                    | default  | invariant |
//! |-------|-------------------------|----------|-----------|
//! | LA001 | improper-nesting        | error    | intervals of a thread are properly nested (paper §II-A) |
//! | LA002 | overlapping-siblings    | error    | sibling intervals nest or do not overlap at all (§II-A) |
//! | LA003 | interval-out-of-bounds  | error    | every interval lies inside its episode's dispatch window (§II) |
//! | LA004 | non-monotonic-time      | error    | event timestamps never run backwards |
//! | LA005 | sample-during-gc        | warning  | sampling is suppressed during stop-the-world GC (§IV-B) |
//! | LA006 | dangling-symbol         | error    | every `SymbolId` resolves in the dense symbol table |
//! | LA007 | sub-floor-episode       | warning  | episodes under the 3 ms tracer floor are counted, not recorded (§IV-A) |
//! | LA008 | missing-dispatch-root   | error    | every episode tree is rooted at a dispatch interval (§II) |
//! | LA009 | extent-mismatch         | warning  | the extent footer agrees with the decoded payloads |
//! | LA010 | duplicate-episode-id    | error    | episode ids are unique within a session |
//! | LA011 | salvage-skip            | warning  | explains every region salvage decoding skipped |
//! | LA012 | checksum-mismatch       | error    | the trailer checksum (FNV-1a or four-lane, by version) verifies |
//! | LA013 | index-degraded          | note     | the episode index came from the footer, not a fallback scan |
//! | LA014 | stale-rollup            | note     | the persisted rollup section matches the episode payload it summarizes |
//! | LA020 | lock-order-inversion    | error    | no held-while-acquiring cycle in the session lock graph (hazards) |
//! | LA021 | lock-held-across-io     | warning  | no contended lock is held while its holder runs blocking IO (hazards) |
//! | LA022 | lock-held-across-pause  | warning  | no contended lock is held across Thread.sleep or a GC pause (hazards) |
//! | LA023 | lock-starvation         | warning  | no waiter starves on one lock while holders churn (hazards) |
//! | LA024 | self-wait               | warning  | no thread blocks entering a lock its own stack already holds (hazards) |
//! | LA025 | corpus-lock-inversion   | error    | no lock-order cycle closes only across corpus sessions (hazards) |
//!
//! `LA020`–`LA025` are the concurrency-hazard family over the
//! session-wide lock graph; see [`crate::hazards`].

use std::collections::HashSet;

use lagalyzer_model::{GcEvent, Interval, IntervalKind, MethodRef, SymbolTable, TimeNs};
use lagalyzer_trace::{IndexHealth, RollupHealth, SkipAt};

use crate::diag::ByteSpan;
use crate::engine::{describe, EpisodeCtx, Finding, Rule, SessionCtx, Sink};

/// All shipped rules, in code order.
pub fn standard_rules() -> Vec<Box<dyn Rule>> {
    let mut rules: Vec<Box<dyn Rule>> = vec![
        Box::new(ImproperNesting),
        Box::new(OverlappingSiblings),
        Box::new(IntervalOutOfBounds),
        Box::new(NonMonotonicTime),
        Box::new(SampleDuringGc::default()),
        Box::new(DanglingSymbol),
        Box::new(SubFloorEpisode),
        Box::new(MissingDispatchRoot),
        Box::new(ExtentMismatch::default()),
        Box::new(DuplicateEpisodeId::default()),
        Box::new(SalvageSkipRule),
        Box::new(ChecksumMismatch),
        Box::new(IndexDegraded),
        Box::new(StaleRollup),
        Box::new(crate::hazards::LockOrderInversion::default()),
    ];
    rules.extend(crate::hazards::PerWait::all().map(|rule| Box::new(rule) as Box<dyn Rule>));
    rules.push(Box::new(crate::hazards::CorpusLockInversion));
    rules
}

/// Renders a time instant as milliseconds with microsecond precision —
/// deterministic (pure integer math) and in the unit the paper uses.
fn fmt_time(t: TimeNs) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

fn fmt_window(i: &Interval) -> String {
    format!("[{}..{}]", fmt_time(i.start), fmt_time(i.end))
}

/// LA001: a child interval must lie within its parent.
struct ImproperNesting;

impl Rule for ImproperNesting {
    describe! { "LA001", "improper-nesting", Error,
    "child interval escapes its parent (intervals must be properly nested)" }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        let tree = ctx.episode.tree();
        for node in tree.nodes() {
            let Some(parent) = node.parent else { continue };
            let parent = tree.interval(parent);
            if !parent.encloses(&node.interval) {
                sink.emit(
                    Finding::new(format!(
                        "{} interval {} escapes its parent {} interval {}",
                        node.interval.kind,
                        fmt_window(&node.interval),
                        parent.kind,
                        fmt_window(parent)
                    ))
                    .episode(ctx.episode.id())
                    .span(ctx.byte_span()),
                );
            }
        }
    }
}

/// LA002: siblings either nest or are disjoint — they never overlap.
struct OverlappingSiblings;

impl Rule for OverlappingSiblings {
    describe! { "LA002", "overlapping-siblings", Error,
    "sibling intervals overlap (method calls on one thread cannot interleave)" }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        let tree = ctx.episode.tree();
        for (id, _) in tree.iter() {
            let children = tree.children(id);
            for (i, &a) in children.iter().enumerate() {
                for &b in &children[i + 1..] {
                    let (a, b) = (tree.interval(a), tree.interval(b));
                    if a.overlaps(b) {
                        sink.emit(
                            Finding::new(format!(
                                "sibling intervals overlap: {} {} and {} {}",
                                a.kind,
                                fmt_window(a),
                                b.kind,
                                fmt_window(b)
                            ))
                            .episode(ctx.episode.id())
                            .span(ctx.byte_span()),
                        );
                    }
                }
            }
        }
    }
}

/// LA003: no interval may extend past the episode's dispatch window.
struct IntervalOutOfBounds;

impl Rule for IntervalOutOfBounds {
    describe! { "LA003", "interval-out-of-bounds", Error,
    "interval extends outside the episode's dispatch window" }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        let tree = ctx.episode.tree();
        let root = tree.root_interval();
        for node in tree.nodes().iter().skip(1) {
            if !root.encloses(&node.interval) {
                sink.emit(
                    Finding::new(format!(
                        "{} interval {} extends outside the episode window {}",
                        node.interval.kind,
                        fmt_window(&node.interval),
                        fmt_window(root)
                    ))
                    .episode(ctx.episode.id())
                    .span(ctx.byte_span()),
                );
            }
        }
    }
}

/// LA004: timestamps are monotone — intervals do not end before they
/// start, preorder (enter-order) start times never regress, and samples
/// are in time order.
struct NonMonotonicTime;

impl Rule for NonMonotonicTime {
    describe! { "LA004", "non-monotonic-time", Error,
    "timestamps run backwards (inverted interval, preorder regress, unsorted samples)" }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        let tree = ctx.episode.tree();
        let nodes = tree.nodes();
        for node in nodes {
            if node.interval.end < node.interval.start {
                sink.emit(
                    Finding::new(format!(
                        "{} interval ends at {} before it starts at {}",
                        node.interval.kind,
                        fmt_time(node.interval.end),
                        fmt_time(node.interval.start)
                    ))
                    .episode(ctx.episode.id())
                    .span(ctx.byte_span()),
                );
            }
        }
        for pair in nodes.windows(2) {
            if pair[1].interval.start < pair[0].interval.start {
                sink.emit(
                    Finding::new(format!(
                        "enter-order timestamps regress: {} interval at {} follows {} interval at {}",
                        pair[1].interval.kind,
                        fmt_time(pair[1].interval.start),
                        pair[0].interval.kind,
                        fmt_time(pair[0].interval.start)
                    ))
                    .episode(ctx.episode.id())
                    .span(ctx.byte_span()),
                );
            }
        }
        let mut prev: Option<TimeNs> = None;
        for sample in ctx.episode.samples() {
            if let Some(earlier) = prev.filter(|&p| sample.time < p) {
                sink.emit(
                    Finding::new(format!(
                        "samples out of time order: {} follows {}",
                        fmt_time(sample.time),
                        fmt_time(earlier)
                    ))
                    .episode(ctx.episode.id())
                    .span(ctx.byte_span()),
                );
            }
            prev = Some(sample.time);
        }
    }
}

/// LA005: the sampler pauses during stop-the-world GC, so no sample may
/// fall inside a GC interval or a session-level GC event.
#[derive(Default)]
struct SampleDuringGc {
    /// Running maximum of the session GC events' ends:
    /// `max_end[i]` is the latest end among events `0..=i`.
    max_end: Vec<TimeNs>,
}

/// The running maximum of `events`' ends, in list order.
fn running_max_end(events: &[GcEvent]) -> Vec<TimeNs> {
    let mut latest = TimeNs::ZERO;
    events
        .iter()
        .map(|gc| {
            latest = latest.max(gc.end);
            latest
        })
        .collect()
}

/// The first GC event, in list order, whose window `[start, end)` holds
/// `t`. `events` is sorted by start and `max_end` is their running
/// maximum end, so the events started by `t` are a prefix, and the first
/// of them still running at `t` is the first whose running maximum end
/// passes `t` — two binary searches, even where windows overlap.
fn first_gc_containing<'e>(
    events: &'e [GcEvent],
    max_end: &[TimeNs],
    t: TimeNs,
) -> Option<&'e GcEvent> {
    let started = events.partition_point(|gc| gc.start <= t);
    let first = max_end[..started].partition_point(|&end| end <= t);
    events[..started].get(first)
}

impl Rule for SampleDuringGc {
    describe! { "LA005", "sample-during-gc", Warning,
    "sample taken inside a stop-the-world GC pause (sampling should be suppressed)" }

    fn begin(&mut self, session: &SessionCtx<'_>, _sink: &mut Sink<'_>) {
        // `SessionTraceBuilder::finish` sorts GC events by start.
        self.max_end = running_max_end(session.gc_events);
    }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        let tree = ctx.episode.tree();
        let gc_windows: Vec<&Interval> = tree
            .nodes()
            .iter()
            .map(|n| &n.interval)
            .filter(|i| i.kind == IntervalKind::Gc)
            .collect();
        for sample in ctx.episode.samples() {
            let in_tree = gc_windows.iter().find(|gc| gc.contains(sample.time));
            let in_session = first_gc_containing(ctx.session.gc_events, &self.max_end, sample.time);
            let window = in_tree
                .map(|gc| (gc.start, gc.end))
                .or(in_session.map(|gc| (gc.start, gc.end)));
            if let Some((start, end)) = window {
                sink.emit(
                    Finding::new(format!(
                        "sample at {} falls inside a stop-the-world GC pause [{}..{}]",
                        fmt_time(sample.time),
                        fmt_time(start),
                        fmt_time(end)
                    ))
                    .episode(ctx.episode.id())
                    .span(ctx.byte_span()),
                );
            }
        }
    }
}

/// LA006: every symbol reference resolves in the dense symbol table.
struct DanglingSymbol;

impl DanglingSymbol {
    fn dangling(symbols: &SymbolTable, m: MethodRef) -> Option<u32> {
        if m.class.index() >= symbols.len() {
            Some(m.class.as_raw())
        } else if m.method.index() >= symbols.len() {
            Some(m.method.as_raw())
        } else {
            None
        }
    }
}

impl Rule for DanglingSymbol {
    describe! { "LA006", "dangling-symbol", Error,
    "SymbolId reference does not resolve in the symbol table" }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        let symbols = ctx.session.symbols;
        for node in ctx.episode.tree().nodes() {
            let Some(m) = node.interval.symbol else {
                continue;
            };
            if let Some(raw) = Self::dangling(symbols, m) {
                sink.emit(
                    Finding::new(format!(
                        "{} interval {} references symbol id {} outside the {}-entry symbol table",
                        node.interval.kind,
                        fmt_window(&node.interval),
                        raw,
                        symbols.len()
                    ))
                    .episode(ctx.episode.id())
                    .span(ctx.byte_span()),
                );
            }
        }
        for sample in ctx.episode.samples() {
            for thread in sample.threads() {
                for frame in thread.stack() {
                    if let Some(raw) = Self::dangling(symbols, frame.method) {
                        sink.emit(
                            Finding::new(format!(
                                "stack frame in sample at {} references symbol id {} outside the {}-entry symbol table",
                                fmt_time(sample.time),
                                raw,
                                symbols.len()
                            ))
                            .episode(ctx.episode.id())
                            .span(ctx.byte_span()),
                        );
                    }
                }
            }
        }
    }
}

/// LA007: the tracer drops episodes under the filter floor (3 ms by
/// default) and only counts them; one appearing as a full record means
/// the tracer-side filter misbehaved.
struct SubFloorEpisode;

impl Rule for SubFloorEpisode {
    describe! { "LA007", "sub-floor-episode", Warning,
    "episode below the tracer's filter floor recorded in full" }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        let floor = ctx.session.meta.filter_threshold;
        if floor.as_nanos() == 0 {
            return;
        }
        let duration = ctx.episode.duration();
        if duration < floor {
            sink.emit(
                Finding::new(format!(
                    "episode lasted {duration}, below the tracer's {floor} filter floor; it should only appear in the short-episode count"
                ))
                .episode(ctx.episode.id())
                .span(ctx.byte_span()),
            );
        }
    }
}

/// LA008: every episode tree is rooted at a dispatch interval.
struct MissingDispatchRoot;

impl Rule for MissingDispatchRoot {
    describe! { "LA008", "missing-dispatch-root", Error,
    "episode tree not rooted at a dispatch interval" }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        let root = ctx.episode.tree().root_interval();
        if root.kind != IntervalKind::Dispatch {
            sink.emit(
                Finding::new(format!(
                    "episode is rooted at a {} interval; every episode starts with a dispatch",
                    root.kind
                ))
                .episode(ctx.episode.id())
                .span(ctx.byte_span()),
            );
        }
    }
}

/// LA009: the extent footer's per-episode summary must agree with what
/// the payload actually decodes to.
#[derive(Default)]
struct ExtentMismatch {
    decoded: usize,
}

impl Rule for ExtentMismatch {
    describe! { "LA009", "extent-mismatch", Warning,
    "extent-footer entry disagrees with the decoded episode" }

    fn begin(&mut self, _session: &SessionCtx<'_>, _sink: &mut Sink<'_>) {
        self.decoded = 0;
    }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        self.decoded += 1;
        let Some(extent) = ctx.extent else { return };
        let sat = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        let mut disagreements = Vec::new();
        if extent.id != ctx.episode.id() {
            disagreements.push(format!("id {} vs decoded {}", extent.id, ctx.episode.id()));
        }
        if extent.start != ctx.episode.start() || extent.end != ctx.episode.end() {
            disagreements.push(format!(
                "window [{}..{}] vs decoded [{}..{}]",
                fmt_time(extent.start),
                fmt_time(extent.end),
                fmt_time(ctx.episode.start()),
                fmt_time(ctx.episode.end())
            ));
        }
        if extent.intervals != sat(ctx.episode.tree().len()) {
            disagreements.push(format!(
                "{} intervals vs decoded {}",
                extent.intervals,
                ctx.episode.tree().len()
            ));
        }
        if extent.samples != sat(ctx.episode.samples().len()) {
            disagreements.push(format!(
                "{} samples vs decoded {}",
                extent.samples,
                ctx.episode.samples().len()
            ));
        }
        if !disagreements.is_empty() {
            sink.emit(
                Finding::new(format!(
                    "extent index disagrees with the decoded episode: {}",
                    disagreements.join("; ")
                ))
                .episode(ctx.episode.id())
                .span(ctx.byte_span()),
            );
        }
    }

    fn finish(&mut self, session: &SessionCtx<'_>, sink: &mut Sink<'_>) {
        if let Some(extents) = session.extents {
            if extents.len() != self.decoded {
                sink.emit(Finding::new(format!(
                    "extent index lists {} episode(s) but {} decoded",
                    extents.len(),
                    self.decoded
                )));
            }
        }
    }
}

/// LA010: episode ids are unique within a session.
#[derive(Default)]
struct DuplicateEpisodeId {
    seen: HashSet<u32>,
}

impl Rule for DuplicateEpisodeId {
    describe! { "LA010", "duplicate-episode-id", Error,
    "episode id already used by an earlier episode" }

    fn begin(&mut self, _session: &SessionCtx<'_>, _sink: &mut Sink<'_>) {
        self.seen.clear();
    }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        if !self.seen.insert(ctx.episode.id().as_raw()) {
            sink.emit(
                Finding::new(format!(
                    "episode id {} already used by an earlier episode (records duplicated?)",
                    ctx.episode.id()
                ))
                .episode(ctx.episode.id())
                .span(ctx.byte_span()),
            );
        }
    }
}

/// LA011: surfaces every region the salvage decoder skipped, with the
/// byte offset where resynchronization happened — this is the rule that
/// explains *why* records are missing from a salvaged trace.
struct SalvageSkipRule;

impl Rule for SalvageSkipRule {
    describe! { "LA011", "salvage-skip", Warning,
    "salvage decoding skipped damaged input here" }

    fn begin(&mut self, session: &SessionCtx<'_>, sink: &mut Sink<'_>) {
        let Some(report) = session.salvage else {
            return;
        };
        for skip in &report.skips {
            let span = match skip.at {
                SkipAt::Byte(off) => Some(ByteSpan::new(off, off + 1)),
                SkipAt::Line(_) => None,
            };
            let mut finding = Finding::new(format!(
                "decoder skipped input at {}: {}: {}",
                skip.at, skip.context, skip.detail
            ))
            .span(span);
            if skip.episodes_lost > 0 {
                finding = finding.related(
                    format!("{} episode(s) lost to this skip", skip.episodes_lost),
                    None,
                );
            }
            sink.emit(finding);
        }
    }
}

/// LA012: the trailer checksum must verify, with the hash the format
/// version selects (FNV-1a through v2, four-lane from v3).
struct ChecksumMismatch;

impl Rule for ChecksumMismatch {
    describe! { "LA012", "checksum-mismatch", Error,
    "trailer checksum does not verify: bytes differ from what the tracer wrote" }

    fn begin(&mut self, session: &SessionCtx<'_>, sink: &mut Sink<'_>) {
        let Some(report) = session.salvage else {
            return;
        };
        if report.checksum_ok == Some(false) {
            let span = session
                .file_len
                .filter(|&len| len >= 8)
                .map(|len| ByteSpan::new(len - 8, len));
            sink.emit(
                Finding::new(
                    "trailer checksum mismatch: the bytes differ from what the tracer wrote \
                     (damage may extend beyond the regions reported by other diagnostics)",
                )
                .span(span),
            );
        }
    }
}

/// LA013: notes when the episode index had to be reconstructed instead
/// of read from a valid extent footer.
struct IndexDegraded;

impl Rule for IndexDegraded {
    describe! { "LA013", "index-degraded", Note,
    "episode index reconstructed by scan instead of read from the footer" }

    fn begin(&mut self, session: &SessionCtx<'_>, sink: &mut Sink<'_>) {
        let Some(health) = session.health else { return };
        let message = match health {
            IndexHealth::FooterValid => return,
            IndexHealth::FooterAbsent => {
                "no extent footer (legacy v1 trace): episode index reconstructed by a record scan"
                    .to_owned()
            }
            IndexHealth::FooterInvalid(reason) => format!(
                "extent footer unusable ({reason}): episode index reconstructed by a record scan"
            ),
            IndexHealth::SalvageScan => {
                "episode index rebuilt by a salvage scan of a damaged trace".to_owned()
            }
        };
        sink.emit(Finding::new(message));
    }
}

/// LA014: notes when a persisted rollup section no longer matches the
/// episode payload it summarizes, so warm analysis silently falls back
/// to the cold decode path.
struct StaleRollup;

impl Rule for StaleRollup {
    describe! { "LA014", "stale-rollup", Note,
    "persisted rollup section matches the episode payload it summarizes" }

    fn begin(&mut self, session: &SessionCtx<'_>, sink: &mut Sink<'_>) {
        let Some(RollupHealth::Stale {
            reason,
            section_bytes,
        }) = session.rollup
        else {
            return;
        };
        sink.emit(Finding::new(format!(
            "rollup section is stale ({reason}): {section_bytes} byte(s) ignored; \
             warm analysis falls back to a cold episode decode"
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::engine::{CheckSubject, RuleSet};
    use lagalyzer_model::prelude::*;
    use lagalyzer_model::tree::IntervalNode;
    use lagalyzer_trace::{EpisodeExtent, SalvageReport, SalvageSkip};

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn meta() -> SessionMeta {
        SessionMeta {
            application: "Check".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(10),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        }
    }

    /// A raw interval; struct literal so tests can express inverted ones.
    fn iv(kind: IntervalKind, start: TimeNs, end: TimeNs) -> Interval {
        Interval {
            kind,
            symbol: None,
            start,
            end,
        }
    }

    fn node(interval: Interval, parent: Option<u32>, depth: u32) -> IntervalNode {
        IntervalNode {
            interval,
            parent: parent.map(NodeId::from_raw),
            depth,
        }
    }

    fn episode_from_nodes(id: u32, nodes: Vec<IntervalNode>) -> Episode {
        Episode::from_parts_unchecked(
            EpisodeId::from_raw(id),
            ThreadId::from_raw(0),
            IntervalTree::from_nodes_unchecked(nodes),
            Vec::new(),
        )
    }

    fn trace_of(episodes: Vec<Episode>) -> SessionTrace {
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        for e in episodes {
            b.push_episode(e).expect("episodes pushed in start order");
        }
        b.finish()
    }

    fn codes(trace: &SessionTrace) -> Vec<&'static str> {
        RuleSet::standard()
            .run(&CheckSubject::of_trace(trace))
            .diagnostics()
            .iter()
            .map(|d| d.code)
            .collect()
    }

    /// A fully valid builder-checked episode used as the negative case.
    fn valid_episode(id: u32, start_ms: u64) -> Episode {
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(start_ms)).unwrap();
        t.leaf(
            IntervalKind::Listener,
            None,
            ms(start_ms + 2),
            ms(start_ms + 30),
        )
        .unwrap();
        t.leaf(
            IntervalKind::Paint,
            None,
            ms(start_ms + 30),
            ms(start_ms + 60),
        )
        .unwrap();
        t.exit(ms(start_ms + 80)).unwrap();
        EpisodeBuilder::new(EpisodeId::from_raw(id), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn valid_trace_is_clean() {
        let trace = trace_of(vec![valid_episode(0, 0), valid_episode(1, 100)]);
        assert_eq!(codes(&trace), Vec::<&str>::new());
    }

    #[test]
    fn la001_child_escaping_parent_fires() {
        let nodes = vec![
            node(iv(IntervalKind::Dispatch, ms(0), ms(100)), None, 0),
            node(iv(IntervalKind::Listener, ms(50), ms(150)), Some(0), 1),
        ];
        let trace = trace_of(vec![episode_from_nodes(0, nodes)]);
        assert!(codes(&trace).contains(&"LA001"));
    }

    #[test]
    fn la001_proper_nesting_is_silent() {
        let trace = trace_of(vec![valid_episode(0, 0)]);
        assert!(!codes(&trace).contains(&"LA001"));
    }

    #[test]
    fn la002_overlapping_siblings_fire() {
        let nodes = vec![
            node(iv(IntervalKind::Dispatch, ms(0), ms(100)), None, 0),
            node(iv(IntervalKind::Listener, ms(10), ms(60)), Some(0), 1),
            node(iv(IntervalKind::Paint, ms(50), ms(90)), Some(0), 1),
        ];
        let trace = trace_of(vec![episode_from_nodes(0, nodes)]);
        let codes = codes(&trace);
        assert!(codes.contains(&"LA002"));
        // Both children are properly enclosed, so nesting is not at fault.
        assert!(!codes.contains(&"LA001"));
    }

    #[test]
    fn la002_touching_siblings_are_silent() {
        // valid_episode has listener [2,30] touching paint [30,60].
        let trace = trace_of(vec![valid_episode(0, 0)]);
        assert!(!codes(&trace).contains(&"LA002"));
    }

    #[test]
    fn la003_interval_outside_episode_window_fires() {
        let nodes = vec![
            node(iv(IntervalKind::Dispatch, ms(0), ms(100)), None, 0),
            node(iv(IntervalKind::Native, ms(20), ms(110)), Some(0), 1),
        ];
        let trace = trace_of(vec![episode_from_nodes(0, nodes)]);
        assert!(codes(&trace).contains(&"LA003"));
    }

    #[test]
    fn la003_enclosed_intervals_are_silent() {
        let trace = trace_of(vec![valid_episode(0, 0)]);
        assert!(!codes(&trace).contains(&"LA003"));
    }

    #[test]
    fn la004_preorder_regress_fires() {
        let nodes = vec![
            node(iv(IntervalKind::Dispatch, ms(0), ms(100)), None, 0),
            node(iv(IntervalKind::Listener, ms(50), ms(60)), Some(0), 1),
            node(iv(IntervalKind::Paint, ms(10), ms(20)), Some(0), 1),
        ];
        let trace = trace_of(vec![episode_from_nodes(0, nodes)]);
        assert!(codes(&trace).contains(&"LA004"));
    }

    #[test]
    fn la004_inverted_interval_fires() {
        let nodes = vec![
            node(iv(IntervalKind::Dispatch, ms(0), ms(100)), None, 0),
            node(iv(IntervalKind::Listener, ms(50), ms(40)), Some(0), 1),
        ];
        let trace = trace_of(vec![episode_from_nodes(0, nodes)]);
        assert!(codes(&trace).contains(&"LA004"));
    }

    #[test]
    fn la004_monotone_times_are_silent() {
        let trace = trace_of(vec![valid_episode(0, 0)]);
        assert!(!codes(&trace).contains(&"LA004"));
    }

    fn snap(at: TimeNs) -> SampleSnapshot {
        SampleSnapshot::new(
            at,
            vec![ThreadSample::new(
                ThreadId::from_raw(0),
                ThreadState::Runnable,
                vec![],
            )],
        )
    }

    /// The unchecked constructor keeps its input order in the flat
    /// sample layout, so LA004 still sees samples that run backwards.
    #[test]
    fn la004_unsorted_samples_fire() {
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.exit(ms(100)).unwrap();
        let episode = Episode::from_parts_unchecked(
            EpisodeId::from_raw(0),
            ThreadId::from_raw(0),
            t.finish().unwrap(),
            vec![snap(ms(10)), snap(ms(70)), snap(ms(30))],
        );
        let trace = trace_of(vec![episode]);
        let report = RuleSet::standard().run(&CheckSubject::of_trace(&trace));
        let la004: Vec<&str> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "LA004")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(la004.len(), 1, "{la004:?}");
        assert!(
            la004[0].starts_with("samples out of time order:"),
            "{}",
            la004[0]
        );
    }

    fn episode_with_gc_and_sample(sample_ms: u64) -> Episode {
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.leaf(IntervalKind::Gc, None, ms(40), ms(60)).unwrap();
        t.exit(ms(100)).unwrap();
        EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .sample(snap(ms(sample_ms)))
            .build()
            .unwrap()
    }

    #[test]
    fn la005_sample_inside_tree_gc_fires() {
        let trace = trace_of(vec![episode_with_gc_and_sample(50)]);
        assert!(codes(&trace).contains(&"LA005"));
    }

    #[test]
    fn la005_sample_inside_session_gc_event_fires() {
        let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
        let episode = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree({
                let mut t = IntervalTreeBuilder::new();
                t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
                t.exit(ms(100)).unwrap();
                t.finish().unwrap()
            })
            .sample(snap(ms(50)))
            .build()
            .unwrap();
        b.push_episode(episode).unwrap();
        b.push_gc(GcEvent {
            start: ms(45),
            end: ms(55),
            major: false,
        });
        let trace = b.finish();
        assert!(codes(&trace).contains(&"LA005"));
    }

    proptest::proptest! {
        /// The two binary searches pick the event the linear scan picks:
        /// the first in list order, with overlapping windows, equal
        /// starts and empty windows.
        #[test]
        fn la005_gc_lookup_matches_linear_scan(
            windows in proptest::collection::vec((0u64..40, 0u64..25), 0..12),
            probes in proptest::collection::vec(0u64..70, 1..24),
        ) {
            let mut b = SessionTraceBuilder::new(meta(), SymbolTable::new());
            for (i, &(start, len)) in windows.iter().enumerate() {
                b.push_gc(GcEvent {
                    start: ms(start),
                    end: ms(start + len),
                    major: i % 2 == 0,
                });
            }
            let trace = b.finish();
            let events = trace.gc_events();
            let max_end = running_max_end(events);
            for &t in &probes {
                let t = ms(t);
                let fast = first_gc_containing(events, &max_end, t);
                let linear = events.iter().find(|gc| gc.start <= t && t < gc.end);
                proptest::prop_assert!(
                    fast.map(|gc| gc as *const GcEvent) == linear.map(|gc| gc as *const GcEvent),
                    "{:?} vs {:?} at {:?} in {:?}",
                    fast,
                    linear,
                    t,
                    events
                );
            }
        }
    }

    #[test]
    fn la005_sample_outside_gc_is_silent() {
        let trace = trace_of(vec![episode_with_gc_and_sample(70)]);
        assert!(!codes(&trace).contains(&"LA005"));
    }

    #[test]
    fn la006_dangling_interval_symbol_fires() {
        let dangling = MethodRef {
            class: SymbolId::from_raw(40),
            method: SymbolId::from_raw(41),
        };
        let nodes = vec![
            node(iv(IntervalKind::Dispatch, ms(0), ms(100)), None, 0),
            node(
                Interval {
                    kind: IntervalKind::Listener,
                    symbol: Some(dangling),
                    start: ms(10),
                    end: ms(20),
                },
                Some(0),
                1,
            ),
        ];
        let trace = trace_of(vec![episode_from_nodes(0, nodes)]);
        assert!(codes(&trace).contains(&"LA006"));
    }

    #[test]
    fn la006_dangling_frame_symbol_fires() {
        let mut symbols = SymbolTable::new();
        let good = symbols.method("app.Main", "run");
        let bad = MethodRef {
            class: good.class,
            method: SymbolId::from_raw(99),
        };
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.exit(ms(100)).unwrap();
        let episode = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .sample(SampleSnapshot::new(
                ms(50),
                vec![ThreadSample::new(
                    ThreadId::from_raw(0),
                    ThreadState::Runnable,
                    vec![StackFrame::java(bad)],
                )],
            ))
            .build()
            .unwrap();
        let mut b = SessionTraceBuilder::new(meta(), symbols);
        b.push_episode(episode).unwrap();
        let trace = b.finish();
        assert!(codes(&trace).contains(&"LA006"));
    }

    #[test]
    fn la006_resolving_symbols_are_silent() {
        let mut symbols = SymbolTable::new();
        let m = symbols.method("app.Main", "run");
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.leaf(IntervalKind::Listener, Some(m), ms(10), ms(20))
            .unwrap();
        t.exit(ms(100)).unwrap();
        let episode = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .build()
            .unwrap();
        let mut b = SessionTraceBuilder::new(meta(), symbols);
        b.push_episode(episode).unwrap();
        assert!(!codes(&b.finish()).contains(&"LA006"));
    }

    fn bare_episode(id: u32, start_ms: u64, end_ms: u64) -> Episode {
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(start_ms)).unwrap();
        t.exit(ms(end_ms)).unwrap();
        EpisodeBuilder::new(EpisodeId::from_raw(id), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn la007_sub_floor_episode_fires() {
        // 2 ms < the 3 ms default floor carried in the metadata.
        let trace = trace_of(vec![bare_episode(0, 0, 2)]);
        assert!(codes(&trace).contains(&"LA007"));
    }

    #[test]
    fn la007_at_floor_is_silent() {
        let trace = trace_of(vec![bare_episode(0, 0, 3)]);
        assert!(!codes(&trace).contains(&"LA007"));
    }

    #[test]
    fn la008_non_dispatch_root_fires() {
        let nodes = vec![node(iv(IntervalKind::Listener, ms(0), ms(100)), None, 0)];
        let trace = trace_of(vec![episode_from_nodes(0, nodes)]);
        assert!(codes(&trace).contains(&"LA008"));
    }

    #[test]
    fn la008_dispatch_root_is_silent() {
        let trace = trace_of(vec![valid_episode(0, 0)]);
        assert!(!codes(&trace).contains(&"LA008"));
    }

    fn extent_for(e: &Episode, offset: u64, len: u64) -> EpisodeExtent {
        EpisodeExtent {
            offset,
            len,
            id: e.id(),
            start: e.start(),
            end: e.end(),
            intervals: u32::try_from(e.tree().len()).unwrap(),
            samples: u32::try_from(e.samples().len()).unwrap(),
            skips: 0,
        }
    }

    #[test]
    fn la009_extent_disagreement_fires_with_span() {
        let trace = trace_of(vec![valid_episode(0, 0)]);
        let mut extent = extent_for(&trace.episodes()[0], 16, 64);
        extent.intervals += 2;
        let extents = vec![extent];
        let subject = CheckSubject {
            trace: &trace,
            extents: Some(&extents),
            health: None,
            salvage: None,
            file_len: Some(128),
            rollup: None,
        };
        let report = RuleSet::standard().run(&subject);
        let la009: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "LA009")
            .collect();
        assert_eq!(la009.len(), 1);
        assert_eq!(la009[0].byte_span, Some(ByteSpan::new(16, 80)));
    }

    #[test]
    fn la009_extent_count_mismatch_fires() {
        let trace = trace_of(vec![valid_episode(0, 0)]);
        let e = extent_for(&trace.episodes()[0], 16, 64);
        let extents = vec![e, e];
        let subject = CheckSubject {
            trace: &trace,
            extents: Some(&extents),
            health: None,
            salvage: None,
            file_len: None,
            rollup: None,
        };
        let report = RuleSet::standard().run(&subject);
        assert!(report.diagnostics().iter().any(|d| d.code == "LA009"));
    }

    #[test]
    fn la009_agreeing_extents_are_silent() {
        let trace = trace_of(vec![valid_episode(0, 0)]);
        let extents = vec![extent_for(&trace.episodes()[0], 16, 64)];
        let subject = CheckSubject {
            trace: &trace,
            extents: Some(&extents),
            health: None,
            salvage: None,
            file_len: Some(128),
            rollup: None,
        };
        let report = RuleSet::standard().run(&subject);
        assert!(report.diagnostics().iter().all(|d| d.code != "LA009"));
    }

    #[test]
    fn la010_duplicate_episode_id_fires() {
        let trace = trace_of(vec![bare_episode(7, 0, 50), bare_episode(7, 100, 150)]);
        assert!(codes(&trace).contains(&"LA010"));
    }

    #[test]
    fn la010_unique_ids_are_silent_and_state_resets() {
        let trace = trace_of(vec![bare_episode(0, 0, 50), bare_episode(1, 100, 150)]);
        let mut rules = RuleSet::standard();
        // Two consecutive runs over the same trace must agree (per-run
        // state like the id seen-set resets in `begin`).
        let first = rules.run(&CheckSubject::of_trace(&trace));
        let second = rules.run(&CheckSubject::of_trace(&trace));
        assert_eq!(first, second);
        assert!(first.diagnostics().iter().all(|d| d.code != "LA010"));
    }

    #[test]
    fn la011_salvage_skip_fires_with_byte_span() {
        let trace = trace_of(vec![]);
        let report = SalvageReport {
            skips: vec![SalvageSkip {
                at: SkipAt::Byte(42),
                context: "enter record",
                detail: "bad kind tag".into(),
                episodes_lost: 1,
            }],
            episodes_lost: 1,
            checksum_ok: Some(true),
            ..SalvageReport::default()
        };
        let subject = CheckSubject {
            trace: &trace,
            extents: None,
            health: None,
            salvage: Some(&report),
            file_len: Some(100),
            rollup: None,
        };
        let out = RuleSet::standard().run(&subject);
        let skips: Vec<_> = out
            .diagnostics()
            .iter()
            .filter(|d| d.code == "LA011")
            .collect();
        assert_eq!(skips.len(), 1);
        assert_eq!(skips[0].byte_span, Some(ByteSpan::new(42, 43)));
        assert_eq!(skips[0].related.len(), 1);
    }

    #[test]
    fn la011_clean_report_is_silent() {
        let trace = trace_of(vec![]);
        let report = SalvageReport {
            checksum_ok: Some(true),
            ..SalvageReport::default()
        };
        let subject = CheckSubject {
            trace: &trace,
            extents: None,
            health: None,
            salvage: Some(&report),
            file_len: Some(100),
            rollup: None,
        };
        let out = RuleSet::standard().run(&subject);
        assert!(out.is_clean());
    }

    #[test]
    fn la012_checksum_mismatch_fires_with_trailer_span() {
        let trace = trace_of(vec![]);
        let report = SalvageReport {
            checksum_ok: Some(false),
            ..SalvageReport::default()
        };
        let subject = CheckSubject {
            trace: &trace,
            extents: None,
            health: None,
            salvage: Some(&report),
            file_len: Some(100),
            rollup: None,
        };
        let out = RuleSet::standard().run(&subject);
        let hits: Vec<_> = out
            .diagnostics()
            .iter()
            .filter(|d| d.code == "LA012")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
        assert_eq!(hits[0].byte_span, Some(ByteSpan::new(92, 100)));
    }

    #[test]
    fn la012_verified_checksum_is_silent() {
        let trace = trace_of(vec![]);
        let report = SalvageReport {
            checksum_ok: Some(true),
            ..SalvageReport::default()
        };
        let subject = CheckSubject {
            trace: &trace,
            extents: None,
            health: None,
            salvage: Some(&report),
            file_len: Some(100),
            rollup: None,
        };
        assert!(RuleSet::standard().run(&subject).is_clean());
    }

    #[test]
    fn la013_degraded_index_notes() {
        let trace = trace_of(vec![]);
        for health in [
            IndexHealth::FooterAbsent,
            IndexHealth::FooterInvalid("extent checksum mismatch".into()),
            IndexHealth::SalvageScan,
        ] {
            let subject = CheckSubject {
                trace: &trace,
                extents: None,
                health: Some(&health),
                salvage: None,
                file_len: None,
                rollup: None,
            };
            let out = RuleSet::standard().run(&subject);
            let hits: Vec<_> = out
                .diagnostics()
                .iter()
                .filter(|d| d.code == "LA013")
                .collect();
            assert_eq!(hits.len(), 1, "{health:?}");
            assert_eq!(hits[0].severity, Severity::Note);
        }
    }

    #[test]
    fn la013_valid_footer_is_silent() {
        let trace = trace_of(vec![]);
        let health = IndexHealth::FooterValid;
        let subject = CheckSubject {
            trace: &trace,
            extents: None,
            health: Some(&health),
            salvage: None,
            file_len: None,
            rollup: None,
        };
        assert!(RuleSet::standard().run(&subject).is_clean());
    }

    #[test]
    fn la014_stale_rollup_notes() {
        let trace = trace_of(vec![]);
        let health = RollupHealth::Stale {
            reason: "content checksum mismatch".into(),
            section_bytes: 512,
        };
        let subject = CheckSubject {
            trace: &trace,
            extents: None,
            health: None,
            salvage: None,
            file_len: None,
            rollup: Some(&health),
        };
        let out = RuleSet::standard().run(&subject);
        let hits: Vec<_> = out
            .diagnostics()
            .iter()
            .filter(|d| d.code == "LA014")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Note);
        assert!(hits[0].message.contains("content checksum mismatch"));
        assert!(hits[0].message.contains("512"));
    }

    #[test]
    fn la014_valid_or_absent_rollup_is_silent() {
        let trace = trace_of(vec![]);
        for health in [None, Some(RollupHealth::Absent)] {
            let subject = CheckSubject {
                trace: &trace,
                extents: None,
                health: None,
                salvage: None,
                file_len: None,
                rollup: health.as_ref(),
            };
            assert!(RuleSet::standard().run(&subject).is_clean(), "{health:?}");
        }
        let valid = RollupHealth::Valid { section_bytes: 512 };
        let subject = CheckSubject {
            trace: &trace,
            extents: None,
            health: None,
            salvage: None,
            file_len: None,
            rollup: Some(&valid),
        };
        assert!(RuleSet::standard().run(&subject).is_clean());
    }

    #[test]
    fn la014_fires_through_check_bytes_on_a_mutated_payload() {
        // Serialize with a rollup, then flip one byte inside the episode
        // payload region: the rollup's content checksum no longer matches
        // so the section reads as stale. The trailer checksum breaks too,
        // so decode through the salvage path.
        let trace = trace_of(vec![bare_episode(0, 0, 50)]);
        let rollup = lagalyzer_core::rollup::build(&trace);
        let mut bytes = Vec::new();
        lagalyzer_trace::binary::write_with_rollup(&trace, &mut bytes, rollup).unwrap();

        let clean = crate::check_bytes(bytes.to_vec(), &mut RuleSet::standard()).unwrap();
        assert!(
            !clean.diagnostics().iter().any(|d| d.code == "LA014"),
            "intact rollup must not trip LA014"
        );

        let indexed = lagalyzer_trace::IndexedTrace::open(bytes.clone()).unwrap();
        let extent = indexed.extents()[0];
        bytes[(extent.offset + extent.len / 2) as usize] ^= 0x01;
        let report = crate::check_bytes(bytes.to_vec(), &mut RuleSet::standard()).unwrap();
        assert!(
            report.diagnostics().iter().any(|d| d.code == "LA014"),
            "mutated payload under a kept rollup section must trip LA014: {:?}",
            report.diagnostics()
        );
    }

    #[test]
    fn overrides_allow_deny_level() {
        let trace = trace_of(vec![bare_episode(0, 0, 2)]); // fires LA007 warning
        let mut rules = RuleSet::standard();
        rules.allow("LA007").unwrap();
        assert!(rules.run(&CheckSubject::of_trace(&trace)).is_clean());

        let mut rules = RuleSet::standard();
        rules.deny("sub-floor-episode").unwrap();
        let report = rules.run(&CheckSubject::of_trace(&trace));
        assert_eq!(report.errors(), 1);
        assert_eq!(report.exit_code(), 2);

        let mut rules = RuleSet::standard();
        rules.level("LA007", Severity::Note).unwrap();
        let report = rules.run(&CheckSubject::of_trace(&trace));
        assert_eq!(report.notes(), 1);
        assert_eq!(report.exit_code(), 0);

        assert!(RuleSet::standard().allow("LA999").is_err());
    }

    #[test]
    fn doc_table_agrees_with_registered_rules() {
        // Parse the `//! | LA0xx | name | severity | ... |` rows of this
        // file's module doc and assert they match the implementation, so
        // the registry in the doc comment cannot drift.
        let rows: Vec<(String, String, String)> = include_str!("rules.rs")
            .lines()
            .filter_map(|line| {
                let row = line.strip_prefix("//! | LA")?;
                let mut cols = row.split('|').map(str::trim);
                let code = format!("LA{}", cols.next()?);
                Some((code, cols.next()?.to_owned(), cols.next()?.to_owned()))
            })
            .collect();
        let descriptions = RuleSet::standard().descriptions();
        assert_eq!(
            rows.len(),
            descriptions.len(),
            "doc table lists every registered rule exactly once"
        );
        for ((code, name, severity), (dcode, dname, dsev, _)) in
            rows.iter().zip(descriptions.iter())
        {
            assert_eq!(code, dcode, "doc table order matches registration order");
            assert_eq!(name, dname, "{code}: doc-table name drifted");
            assert_eq!(severity, dsev.name(), "{code}: doc-table severity drifted");
        }
    }

    #[test]
    fn standard_rules_have_unique_stable_codes() {
        let rules = RuleSet::standard();
        let descriptions = rules.descriptions();
        assert!(descriptions.len() >= 10, "at least ten shipped rules");
        let mut codes: Vec<_> = descriptions.iter().map(|d| d.0).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), descriptions.len(), "codes must be unique");
        for (code, _, _, _) in &descriptions {
            assert!(code.starts_with("LA") && code.len() == 5, "{code}");
        }
    }
}
