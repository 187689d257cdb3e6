//! Concurrency-hazard rules (`LA020`…`LA025`) over the session-wide
//! lock graph, plus the [`HazardReport`] behind the `hazards` CLI
//! subcommand.
//!
//! Where the rules in [`crate::rules`] check *format* invariants, this
//! family performs structural analysis of the waiting-dependency graph
//! itself (DepGraph-style): every episode's Blocked/Waiting samples are
//! lifted into a [`LockGraph`] whose nodes are heuristic lock
//! identities (the hottest monitor frame of a contended wait, selected
//! exactly like `HolderProfile`) and whose edges are
//! held-while-acquiring relations. Static passes over that graph find:
//!
//! - **LA020** lock-order inversions — elementary cycles of the
//!   held-while-acquiring relation (the classic ABBA deadlock recipe);
//! - **LA021** a lock held across IO — the inferred holder of a
//!   contended lock was sampled inside `java.io`/`java.nio`/network
//!   code for the majority of the wait;
//! - **LA022** a lock held across a pause — the holder sat in
//!   `Thread.sleep`, or a stop-the-world GC overlapped a long blocked
//!   streak;
//! - **LA023** starvation — one waiter blocked on the same lock across
//!   ≥K consecutive samples while the set of runnable peers churned;
//! - **LA024** self-waits — a thread blocked entering a lock whose
//!   frame already encloses it (reentrancy confusion or a recursive
//!   `synchronized` path the JIT did not elide);
//! - **LA025** corpus-wide inversions — cycles that only close when
//!   per-session graphs are merged through the interned corpus symbol
//!   table, i.e. session A acquires `A→B` and session B `B→A`.
//!
//! All identities are sampling heuristics — see the `lockgraph` module
//! docs and DESIGN.md for the limits — so every rule gates on sample
//! counts carried in [`HazardConfig`]. `LA020`…`LA024` run as ordinary
//! [`Rule`]s inside [`crate::RuleSet::standard`]; `LA025` needs more
//! than one session and therefore only fires through
//! [`HazardReport::of_corpus`] (its registered rule exists so the
//! code appears in `--list-rules`, but it never fires single-session).

use std::collections::{BTreeSet, HashMap};

use lagalyzer_model::lockgraph::{ContendedWait, LockGraph, LockGraphs};
use lagalyzer_model::{
    fold_episodes, json_string, EpisodeId, MethodRef, Scope, SessionTrace, SymbolTable, WaitKind,
};
use lagalyzer_trace::EpisodeExtent;

use crate::diag::{
    render_diagnostic_json, render_diagnostic_text, ByteSpan, Diagnostic, Related, Severity,
};
use crate::engine::{describe, EpisodeCtx, Finding, Rule, SessionCtx, Sink};

/// Class-name prefixes treated as blocking IO for `LA021`.
const IO_PREFIXES: [&str; 5] = ["java.io.", "java.nio.", "java.net.", "sun.nio.", "sun.net."];

/// Evidence thresholds for the hazard rules. Lock identities are
/// inferred from samples, so each rule requires a minimum amount of
/// supporting evidence before it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HazardConfig {
    /// Minimum samples a contended wait needs before the per-wait rules
    /// (`LA021`/`LA022`) consider it.
    pub min_wait_samples: u64,
    /// Minimum samples on every edge of a cycle before `LA020`/`LA025`
    /// report it.
    pub min_edge_samples: u64,
    /// Consecutive blocked samples on one lock before `LA023` considers
    /// the waiter starved.
    pub starvation_streak: u64,
    /// Distinct runnable peers that must appear during that streak
    /// (holder churn) for `LA023`.
    pub starvation_holders: usize,
    /// Minimum blocked-streak length for the GC-overlap arm of `LA022`
    /// (a short wait spanning a collection is the collection's fault,
    /// not the lock's).
    pub pause_streak: u64,
}

impl Default for HazardConfig {
    fn default() -> HazardConfig {
        HazardConfig {
            min_wait_samples: 2,
            min_edge_samples: 2,
            starvation_streak: 8,
            starvation_holders: 2,
            pause_streak: 3,
        }
    }
}

/// Renders the thread list of an edge or streak as `t0, t7`.
fn thread_list(threads: &[lagalyzer_model::ThreadId]) -> String {
    threads
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// `LA021`: the inferred holder ran IO for the majority of the wait.
pub(crate) fn io_hazard(
    wait: &ContendedWait,
    symbols: &SymbolTable,
    config: &HazardConfig,
) -> Option<String> {
    pause_or_io_hazard(wait, symbols, config, |name| {
        IO_PREFIXES.iter().any(|p| name.starts_with(p))
    })
    .map(|(lock, holder, frame, seen)| {
        format!(
            "lock {lock} held across IO: inferred holder {holder} was sampled in {frame} \
             during {seen} of {} blocked sample(s)",
            wait.samples
        )
    })
}

/// `LA022`: the holder slept, or a stop-the-world collection overlapped
/// a long blocked streak.
pub(crate) fn pause_hazard(
    wait: &ContendedWait,
    symbols: &SymbolTable,
    config: &HazardConfig,
) -> Option<String> {
    let slept = pause_or_io_hazard(wait, symbols, config, |name| {
        name == "java.lang.Thread.sleep"
    });
    if let Some((lock, holder, _, seen)) = slept {
        return Some(format!(
            "lock {lock} held across sleep: inferred holder {holder} was sampled in \
             java.lang.Thread.sleep during {seen} of {} blocked sample(s)",
            wait.samples
        ));
    }
    if wait.kind == WaitKind::Monitor
        && wait.gc_overlaps > 0
        && wait.longest_streak >= config.pause_streak
    {
        return Some(format!(
            "lock {} held across GC: {} stop-the-world collection(s) overlap a \
             {}-sample blocked streak of {}",
            symbols.render(wait.lock),
            wait.gc_overlaps,
            wait.longest_streak,
            wait.thread
        ));
    }
    None
}

/// Shared gate for `LA021` and the sleep arm of `LA022`: a monitor wait
/// with enough samples whose strongest runnable peer was present for
/// the majority of the wait and whose hottest frame matches `accept`.
/// Returns `(lock, holder thread, frame, frame samples)` rendered.
fn pause_or_io_hazard(
    wait: &ContendedWait,
    symbols: &SymbolTable,
    config: &HazardConfig,
    accept: impl Fn(&str) -> bool,
) -> Option<(String, lagalyzer_model::ThreadId, String, u64)> {
    if wait.kind != WaitKind::Monitor || wait.samples < config.min_wait_samples {
        return None;
    }
    let holder = wait.holder.as_ref()?;
    if holder.samples * 2 < wait.samples {
        return None;
    }
    let (frame, seen) = holder.frame?;
    let name = symbols.render(frame);
    if !accept(&name) {
        return None;
    }
    Some((symbols.render(wait.lock), holder.thread, name, seen))
}

/// `LA023`: one waiter starved on one lock while holders churned.
pub(crate) fn starvation_hazard(
    wait: &ContendedWait,
    symbols: &SymbolTable,
    config: &HazardConfig,
) -> Option<String> {
    if wait.kind != WaitKind::Monitor
        || wait.longest_streak < config.starvation_streak
        || wait.streak_holders.len() < config.starvation_holders
    {
        return None;
    }
    Some(format!(
        "starvation: {} stayed blocked on lock {} for {} consecutive sample(s) while the \
         lock changed hands among {} runnable peer(s) ({})",
        wait.thread,
        symbols.render(wait.lock),
        wait.longest_streak,
        wait.streak_holders.len(),
        thread_list(&wait.streak_holders)
    ))
}

/// `LA024`: a thread blocked entering a lock it already appears inside.
pub(crate) fn self_wait_hazard(
    wait: &ContendedWait,
    symbols: &SymbolTable,
    config: &HazardConfig,
) -> Option<String> {
    let (held, held_samples) = wait.held?;
    if held != wait.lock || held_samples < config.min_edge_samples {
        return None;
    }
    Some(format!(
        "self-wait: {} blocked entering lock {} while its own stack already holds it \
         ({held_samples} sample(s); reentrancy confusion or a recursive synchronized path)",
        wait.thread,
        symbols.render(wait.lock)
    ))
}

/// One lock-order inversion: the canonical cycle plus a rendered
/// finding shared by the `LA020` rule and [`HazardReport`].
pub(crate) struct InversionFinding {
    /// The cycle, rotated so its smallest lock comes first.
    pub cycle: Vec<MethodRef>,
    /// The rendered primary message.
    pub message: String,
    /// The earliest episode contributing edge evidence.
    pub episode: Option<EpisodeId>,
    /// Per-edge evidence notes.
    pub related: Vec<String>,
}

/// `LA020`: enumerates the graph's inversion cycles whose every edge
/// carries at least `min_edge_samples` of evidence.
pub(crate) fn inversions(
    graph: &LockGraph,
    symbols: &SymbolTable,
    config: &HazardConfig,
) -> Vec<InversionFinding> {
    let mut out = Vec::new();
    'cycles: for cycle in graph.cycles() {
        let names: Vec<String> = cycle.iter().map(|&m| symbols.render(m)).collect();
        let mut related = Vec::new();
        let mut episode: Option<EpisodeId> = None;
        let mut samples = 0u64;
        for i in 0..cycle.len() {
            let (held, acquired) = (cycle[i], cycle[(i + 1) % cycle.len()]);
            let edge = graph
                .held_edge(held, acquired)
                .expect("cycle edges exist in the graph");
            if edge.samples < config.min_edge_samples {
                continue 'cycles;
            }
            samples += edge.samples;
            episode = match (episode, edge.episodes.first()) {
                (Some(a), Some(&b)) => Some(a.min(b)),
                (a, b) => a.or(b.copied()),
            };
            related.push(format!(
                "{} held while acquiring {}: {} sample(s), thread(s) {}",
                names[i],
                names[(i + 1) % cycle.len()],
                edge.samples,
                thread_list(&edge.threads)
            ));
        }
        let message = format!(
            "lock-order inversion: {} -> {} ({} held-while-acquiring sample(s); \
             threads can deadlock by acquiring these locks in opposite orders)",
            names.join(" -> "),
            names[0],
            samples
        );
        out.push(InversionFinding {
            cycle,
            message,
            episode,
            related,
        });
    }
    out
}

/// `LA025`: inversion cycles of the merged corpus graph that no single
/// session exhibits on its own.
pub(crate) fn corpus_inversions(
    merged: &LockGraph,
    per_session: &[LockGraph],
    symbols: &SymbolTable,
    config: &HazardConfig,
) -> Vec<InversionFinding> {
    let session_cycles: BTreeSet<Vec<MethodRef>> = per_session
        .iter()
        .flat_map(|g| g.cycles().into_iter())
        .collect();
    inversions(merged, symbols, config)
        .into_iter()
        .filter(|f| !session_cycles.contains(&f.cycle))
        .map(|f| {
            let names: Vec<String> = f.cycle.iter().map(|&m| symbols.render(m)).collect();
            let related: Vec<String> = (0..f.cycle.len())
                .map(|i| {
                    let (held, acquired) = (f.cycle[i], f.cycle[(i + 1) % f.cycle.len()]);
                    let sessions: Vec<String> = per_session
                        .iter()
                        .enumerate()
                        .filter(|(_, g)| g.held_edge(held, acquired).is_some())
                        .map(|(s, _)| format!("s{s}"))
                        .collect();
                    format!(
                        "{} held while acquiring {}: session(s) {}",
                        names[i],
                        names[(i + 1) % f.cycle.len()],
                        sessions.join(", ")
                    )
                })
                .collect();
            InversionFinding {
                message: format!(
                    "corpus-wide lock-order inversion: {} -> {} (no single session closes \
                     the cycle; sessions disagree on acquisition order)",
                    names.join(" -> "),
                    names[0]
                ),
                episode: None,
                related,
                cycle: f.cycle,
            }
        })
        .collect()
}

/// `LA020`: accumulates the session lock graph across episodes and
/// reports inversion cycles in `finish`, each at the byte span of the
/// first episode checked with the cycle's episode id.
#[derive(Default)]
pub(crate) struct LockOrderInversion {
    graph: LockGraph,
    spans: HashMap<u32, Option<ByteSpan>>,
    config: HazardConfig,
}

impl Rule for LockOrderInversion {
    describe! { "LA020", "lock-order-inversion", Error,
    "held-while-acquiring cycle in the session lock graph (ABBA deadlock recipe)" }

    fn begin(&mut self, _session: &SessionCtx<'_>, _sink: &mut Sink<'_>) {
        self.graph = LockGraph::new();
        self.spans.clear();
    }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, _sink: &mut Sink<'_>) {
        let id = ctx.episode.id().as_raw();
        self.spans.entry(id).or_insert_with(|| ctx.byte_span());
        for wait in ctx.waits() {
            self.graph.add_wait(wait.clone());
        }
    }

    fn finish(&mut self, session: &SessionCtx<'_>, sink: &mut Sink<'_>) {
        for inv in inversions(&self.graph, session.symbols, &self.config) {
            let mut finding = Finding::new(inv.message);
            if let Some(id) = inv.episode {
                let span = self.spans.get(&id.as_raw()).copied().flatten();
                finding = finding.episode(id).span(span);
            }
            for note in inv.related {
                finding = finding.related(note, None);
            }
            sink.emit(finding);
        }
    }
}

/// A per-wait detector: the finding's message for one contended wait, if
/// it is a hazard.
type Detect = fn(&ContendedWait, &SymbolTable, &HazardConfig) -> Option<String>;

/// The per-wait hazards, in code order: `(code, name, summary, detect)`.
#[rustfmt::skip]
const PER_WAIT: [(&str, &str, &str, Detect); 4] = [
    ("LA021", "lock-held-across-io",
     "contended lock's inferred holder spent the wait inside blocking IO", io_hazard),
    ("LA022", "lock-held-across-pause",
     "contended lock held across Thread.sleep or a stop-the-world GC pause", pause_hazard),
    ("LA023", "lock-starvation",
     "waiter blocked on one lock across many consecutive samples while holders churn",
     starvation_hazard),
    ("LA024", "self-wait",
     "thread blocked entering a lock its own stack already holds", self_wait_hazard),
];

/// `LA021`…`LA024`: one per-wait detector run over every contended wait
/// of every episode.
pub(crate) struct PerWait {
    about: (&'static str, &'static str, &'static str, Detect),
    config: HazardConfig,
}

impl PerWait {
    /// The four per-wait rules, in code order.
    pub(crate) fn all() -> impl Iterator<Item = PerWait> {
        PER_WAIT.into_iter().map(|about| PerWait {
            about,
            config: HazardConfig::default(),
        })
    }
}

impl Rule for PerWait {
    fn code(&self) -> &'static str {
        self.about.0
    }
    fn name(&self) -> &'static str {
        self.about.1
    }
    fn default_severity(&self) -> Severity {
        Severity::Warning
    }
    fn summary(&self) -> &'static str {
        self.about.2
    }

    fn episode(&mut self, ctx: &EpisodeCtx<'_>, sink: &mut Sink<'_>) {
        for wait in ctx.waits() {
            if let Some(message) = (self.about.3)(wait, ctx.session.symbols, &self.config) {
                sink.emit(
                    Finding::new(message)
                        .episode(ctx.episode.id())
                        .span(ctx.byte_span()),
                );
            }
        }
    }
}

/// `LA025`: corpus-wide inversion. Needs multiple sessions, so the
/// single-session engine never fires it — it is registered so the code
/// appears in `--list-rules` and severity overrides resolve; the actual
/// detection runs in [`HazardReport::of_corpus`].
pub(crate) struct CorpusLockInversion;

impl Rule for CorpusLockInversion {
    describe! { "LA025", "corpus-lock-inversion", Error,
    "lock-order cycle closed only across sessions of a corpus (hazards subcommand)" }
}

/// The `hazards` subcommand's analysis result: lock-graph shape metrics
/// plus the hazard findings, rendered deterministically as text or
/// JSON (byte-identical for any `--jobs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HazardReport {
    /// Episodes analyzed (summed over sessions in corpus mode).
    pub episodes: usize,
    /// Contended waits folded into the graph.
    pub waits: usize,
    /// Total wait samples across all inferred locks.
    pub wait_samples: u64,
    /// Distinct inferred locks.
    pub locks: usize,
    /// Held-while-acquiring edges.
    pub held_edges: usize,
    /// Number of sessions in corpus mode, `None` single-session.
    pub sessions: Option<usize>,
    /// Hazard findings in deterministic order: per-wait findings in
    /// wait (episode) order, then inversion cycles.
    pub findings: Vec<Diagnostic>,
}

impl HazardReport {
    /// Analyzes one session: folds the lock graph ([`LockGraphs`]) over
    /// `jobs` workers and runs every hazard pass. `extents`, when aligned
    /// with the decoded episodes, provides byte-span provenance.
    pub fn analyze(
        trace: &SessionTrace,
        extents: Option<&[EpisodeExtent]>,
        jobs: usize,
        config: &HazardConfig,
    ) -> HazardReport {
        let scope = Scope::of_trace(trace);
        let (graph, episodes) = fold_episodes(&LockGraphs, scope, trace.episodes(), jobs);
        HazardReport::of_graph(&graph, episodes, trace.symbols(), extents, config)
    }

    /// Runs every hazard pass over one session's lock graph, folded from
    /// its `episodes` episodes in order (by [`LockGraph::add_episode`],
    /// shard graphs [`LockGraph::merge`]d in order). `extents` provide a
    /// finding's episode its byte span only when they are aligned with the
    /// analyzed episodes: all of them analyzed, in order.
    pub fn of_graph(
        graph: &LockGraph,
        episodes: usize,
        symbols: &SymbolTable,
        extents: Option<&[EpisodeExtent]>,
        config: &HazardConfig,
    ) -> HazardReport {
        let aligned = extents.filter(|e| e.len() == episodes);
        let span_of = |id: EpisodeId| -> Option<ByteSpan> {
            let e = aligned?.iter().find(|e| e.id == id)?;
            Some(ByteSpan::new(e.offset, e.offset + e.len))
        };
        let mut findings = Vec::new();
        for wait in graph.waits() {
            for (code, message) in wait_findings(wait, symbols, config) {
                findings.push(Diagnostic {
                    code,
                    severity: severity_of(code),
                    message,
                    episode_id: Some(wait.episode),
                    byte_span: span_of(wait.episode),
                    related: Vec::new(),
                });
            }
        }
        for inv in inversions(graph, symbols, config) {
            let span = inv.episode.and_then(span_of);
            findings.push(cycle_finding("LA020", inv.episode, span, inv));
        }
        HazardReport {
            episodes,
            waits: graph.waits().len(),
            wait_samples: graph.total_wait_samples(),
            locks: graph.lock_count(),
            held_edges: graph.edge_count(),
            sessions: None,
            findings,
        }
    }

    /// Analyzes a corpus of decoded sessions: each session's lock graph is
    /// folded (over `jobs` workers) and the graphs go through
    /// [`HazardReport::of_corpus`]. The reference for a corpus folded
    /// member by member.
    pub fn analyze_corpus(
        traces: &[SessionTrace],
        symbols: &mut SymbolTable,
        jobs: usize,
        config: &HazardConfig,
    ) -> HazardReport {
        let members = traces.iter().map(|trace| {
            let scope = Scope::of_trace(trace);
            let (graph, episodes) = fold_episodes(&LockGraphs, scope, trace.episodes(), jobs);
            (graph, episodes, trace.symbols())
        });
        HazardReport::of_corpus(members, symbols, config)
    }

    /// The corpus report over each member's `(lock graph, episodes,
    /// symbol table)`, in member order. Each graph's lock identities are
    /// re-interned through `symbols` (seed it with the corpus-wide table),
    /// the member's findings are [`HazardReport::of_graph`]'s with an
    /// `s{i}: ` prefix and no byte spans, and `LA025` reports cycles only
    /// the merged graph closes.
    pub fn of_corpus<'s>(
        members: impl IntoIterator<Item = (LockGraph, usize, &'s SymbolTable)>,
        symbols: &mut SymbolTable,
        config: &HazardConfig,
    ) -> HazardReport {
        let mut merged = LockGraph::new();
        let mut graphs = Vec::new();
        let mut findings = Vec::new();
        let mut episodes = 0usize;
        for (i, (graph, count, local)) in members.into_iter().enumerate() {
            episodes += count;
            let graph = graph.remap(|m| MethodRef {
                class: symbols.intern(local.resolve(m.class).unwrap_or("?")),
                method: symbols.intern(local.resolve(m.method).unwrap_or("?")),
            });
            let member = HazardReport::of_graph(&graph, count, symbols, None, config);
            findings.extend(member.findings.into_iter().map(|mut finding| {
                finding.message = format!("s{i}: {}", finding.message);
                finding
            }));
            merged.merge(graph.clone());
            graphs.push(graph);
        }
        let cycles = corpus_inversions(&merged, &graphs, symbols, config);
        findings.extend(
            cycles
                .into_iter()
                .map(|inv| cycle_finding("LA025", None, None, inv)),
        );
        HazardReport {
            episodes,
            waits: merged.waits().len(),
            wait_samples: merged.total_wait_samples(),
            locks: merged.lock_count(),
            held_edges: merged.edge_count(),
            sessions: Some(graphs.len()),
            findings,
        }
    }

    /// Findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// One-word verdict: `errors`, `warnings`, or `clean`.
    pub fn verdict(&self) -> &'static str {
        if self.count(Severity::Error) > 0 {
            "errors"
        } else if self.count(Severity::Warning) > 0 {
            "warnings"
        } else {
            "clean"
        }
    }

    /// Renders the report as human-readable text.
    pub fn render_text(&self, source: &str) -> String {
        let mut out = String::new();
        let scope = match self.sessions {
            Some(n) => format!("corpus of {n} session(s), {} episode(s)", self.episodes),
            None => format!("{} episode(s)", self.episodes),
        };
        out.push_str(&format!(
            "hazards: {scope}: {} contended wait(s), {} wait sample(s), {} inferred lock(s), \
             {} held-while-acquiring edge(s)\n",
            self.waits, self.wait_samples, self.locks, self.held_edges
        ));
        for d in &self.findings {
            render_diagnostic_text(&mut out, d, source);
        }
        out.push_str(&format!(
            "hazards: {}: {} — {} error(s), {} warning(s), {} note(s)\n",
            source,
            self.verdict(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        ));
        out
    }

    /// Renders the report as one line of deterministic JSON.
    pub fn render_json(&self, source: &str) -> String {
        let mut out = String::with_capacity(192 + self.findings.len() * 96);
        out.push_str("{\"tool\":\"lagalyzer-hazards\",\"version\":1,\"file\":");
        out.push_str(&json_string(source));
        out.push_str(",\"verdict\":\"");
        out.push_str(self.verdict());
        out.push_str("\",\"sessions\":");
        match self.sessions {
            Some(n) => out.push_str(&n.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"summary\":{{\"episodes\":{},\"waits\":{},\"waitSamples\":{},\"locks\":{},\
             \"heldEdges\":{},\"errors\":{},\"warnings\":{},\"notes\":{}}}",
            self.episodes,
            self.waits,
            self.wait_samples,
            self.locks,
            self.held_edges,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        ));
        out.push_str(",\"findings\":[");
        for (i, d) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_diagnostic_json(&mut out, d);
        }
        out.push_str("]}");
        out
    }
}

/// Runs every per-wait detector over one wait, in code order.
fn wait_findings(
    wait: &ContendedWait,
    symbols: &SymbolTable,
    config: &HazardConfig,
) -> Vec<(&'static str, String)> {
    PER_WAIT
        .iter()
        .filter_map(|&(code, _, _, detect)| Some((code, detect(wait, symbols, config)?)))
        .collect()
}

/// An inversion cycle as an error diagnostic, its per-edge evidence notes
/// as related items.
fn cycle_finding(
    code: &'static str,
    episode_id: Option<EpisodeId>,
    byte_span: Option<ByteSpan>,
    inv: InversionFinding,
) -> Diagnostic {
    let related = inv.related.into_iter().map(|message| Related {
        message,
        byte_span: None,
    });
    Diagnostic {
        code,
        severity: Severity::Error,
        message: inv.message,
        episode_id,
        byte_span,
        related: related.collect(),
    }
}

/// Default severity of a hazard code, for report construction outside
/// the rule engine.
fn severity_of(code: &str) -> Severity {
    match code {
        "LA020" | "LA025" => Severity::Error,
        _ => Severity::Warning,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CheckSubject, RuleSet};
    use lagalyzer_model::prelude::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn tid(v: u32) -> ThreadId {
        ThreadId::from_raw(v)
    }

    fn meta() -> SessionMeta {
        SessionMeta {
            application: "Hazards".into(),
            session: SessionId::from_raw(0),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(10),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        }
    }

    fn episode_with(id: u32, start_ms: u64, samples: Vec<SampleSnapshot>) -> Episode {
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(start_ms)).unwrap();
        t.exit(ms(start_ms + 500)).unwrap();
        EpisodeBuilder::new(EpisodeId::from_raw(id), tid(0))
            .tree(t.finish().unwrap())
            .samples(samples)
            .build()
            .unwrap()
    }

    fn trace_of(symbols: SymbolTable, episodes: Vec<Episode>) -> SessionTrace {
        let mut b = SessionTraceBuilder::new(meta(), symbols);
        for e in episodes {
            b.push_episode(e).unwrap();
        }
        b.finish()
    }

    /// ABBA: t0 holds A acquiring B, t7 holds B acquiring A, 4 samples.
    fn abba_trace() -> SessionTrace {
        let mut symbols = SymbolTable::new();
        let a = symbols.method("com.app.sync.OrderA", "enter");
        let b = symbols.method("com.app.sync.OrderB", "enter");
        let samples = (0..4u64)
            .map(|i| {
                SampleSnapshot::new(
                    ms(10 + 10 * i),
                    vec![
                        ThreadSample::new(
                            tid(0),
                            ThreadState::Blocked,
                            vec![StackFrame::java(b), StackFrame::java(a)],
                        ),
                        ThreadSample::new(
                            tid(7),
                            ThreadState::Blocked,
                            vec![StackFrame::java(a), StackFrame::java(b)],
                        ),
                    ],
                )
            })
            .collect();
        trace_of(symbols, vec![episode_with(0, 0, samples)])
    }

    #[test]
    fn la020_reports_abba_with_identities_and_threads() {
        let trace = abba_trace();
        let report = RuleSet::standard().run(&CheckSubject::of_trace(&trace));
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "LA020")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
        assert!(hits[0].message.contains("com.app.sync.OrderA.enter"));
        assert!(hits[0].message.contains("com.app.sync.OrderB.enter"));
        assert_eq!(hits[0].related.len(), 2);
        let notes = format!("{:?}", hits[0].related);
        assert!(notes.contains("t0") && notes.contains("t7"));
        assert_eq!(report.exit_code(), 2);
    }

    #[test]
    fn la020_matches_hazard_report_message() {
        let trace = abba_trace();
        let check = RuleSet::standard().run(&CheckSubject::of_trace(&trace));
        let hazards = HazardReport::analyze(&trace, None, 1, &HazardConfig::default());
        let from_check = check
            .diagnostics()
            .iter()
            .find(|d| d.code == "LA020")
            .unwrap();
        let from_hazards = hazards.findings.iter().find(|d| d.code == "LA020").unwrap();
        assert_eq!(from_check.message, from_hazards.message);
        assert_eq!(from_check.related, from_hazards.related);
    }

    #[test]
    fn la021_fires_on_io_holder_majority() {
        let mut symbols = SymbolTable::new();
        let lock = symbols.method("com.app.CacheLock", "get");
        let io = symbols.method("java.io.RandomAccessFile", "readBytes");
        let samples = (0..4u64)
            .map(|i| {
                SampleSnapshot::new(
                    ms(10 + 10 * i),
                    vec![
                        ThreadSample::new(
                            tid(0),
                            ThreadState::Blocked,
                            vec![StackFrame::java(lock)],
                        ),
                        ThreadSample::new(
                            tid(9),
                            ThreadState::Runnable,
                            vec![StackFrame::java(io)],
                        ),
                    ],
                )
            })
            .collect();
        let trace = trace_of(symbols, vec![episode_with(0, 0, samples)]);
        let report = RuleSet::standard().run(&CheckSubject::of_trace(&trace));
        let hit = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "LA021")
            .expect("LA021 fires");
        assert_eq!(hit.severity, Severity::Warning);
        assert!(hit.message.contains("java.io.RandomAccessFile.readBytes"));
        assert!(hit.message.contains("t9"));
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn la021_silent_without_majority_or_io() {
        let mut symbols = SymbolTable::new();
        let lock = symbols.method("com.app.CacheLock", "get");
        let work = symbols.method("com.app.Worker", "crunch");
        let samples = (0..4u64)
            .map(|i| {
                SampleSnapshot::new(
                    ms(10 + 10 * i),
                    vec![
                        ThreadSample::new(
                            tid(0),
                            ThreadState::Blocked,
                            vec![StackFrame::java(lock)],
                        ),
                        ThreadSample::new(
                            tid(9),
                            ThreadState::Runnable,
                            vec![StackFrame::java(work)],
                        ),
                    ],
                )
            })
            .collect();
        let trace = trace_of(symbols, vec![episode_with(0, 0, samples)]);
        let report = RuleSet::standard().run(&CheckSubject::of_trace(&trace));
        assert!(report.diagnostics().iter().all(|d| d.code != "LA021"));
    }

    #[test]
    fn la022_fires_on_sleeping_holder() {
        let mut symbols = SymbolTable::new();
        let lock = symbols.method("com.app.CacheLock", "get");
        let sleep = symbols.method("java.lang.Thread", "sleep");
        let samples = (0..3u64)
            .map(|i| {
                SampleSnapshot::new(
                    ms(10 + 10 * i),
                    vec![
                        ThreadSample::new(
                            tid(0),
                            ThreadState::Blocked,
                            vec![StackFrame::java(lock)],
                        ),
                        ThreadSample::new(
                            tid(4),
                            ThreadState::Runnable,
                            vec![StackFrame::java(sleep)],
                        ),
                    ],
                )
            })
            .collect();
        let trace = trace_of(symbols, vec![episode_with(0, 0, samples)]);
        let report = RuleSet::standard().run(&CheckSubject::of_trace(&trace));
        let hit = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "LA022")
            .expect("LA022 fires");
        assert!(hit.message.contains("held across sleep"));
    }

    #[test]
    fn la023_needs_holder_churn() {
        let mut symbols = SymbolTable::new();
        let lock = symbols.method("com.app.CacheLock", "get");
        let work = symbols.method("com.app.Worker", "crunch");
        let streak = |churn: bool| {
            let samples: Vec<SampleSnapshot> = (0..9u64)
                .map(|i| {
                    let holder = if churn { 7 + (i % 3) as u32 } else { 7 };
                    SampleSnapshot::new(
                        ms(10 + 10 * i),
                        vec![
                            ThreadSample::new(
                                tid(0),
                                ThreadState::Blocked,
                                vec![StackFrame::java(lock)],
                            ),
                            ThreadSample::new(
                                tid(holder),
                                ThreadState::Runnable,
                                vec![StackFrame::java(work)],
                            ),
                        ],
                    )
                })
                .collect();
            episode_with(0, 0, samples)
        };
        let churned = trace_of(symbols.clone(), vec![streak(true)]);
        let report = RuleSet::standard().run(&CheckSubject::of_trace(&churned));
        let hit = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "LA023")
            .expect("churning holders starve the waiter");
        assert!(hit.message.contains("9 consecutive sample(s)"));
        assert!(hit.message.contains("t7, t8, t9"));

        let constant = trace_of(symbols, vec![streak(false)]);
        let report = RuleSet::standard().run(&CheckSubject::of_trace(&constant));
        assert!(
            report.diagnostics().iter().all(|d| d.code != "LA023"),
            "a constant holder is contention (LA-free), not starvation"
        );
    }

    #[test]
    fn la024_fires_on_self_wait() {
        let mut symbols = SymbolTable::new();
        let lock = symbols.method("com.app.sync.Reentrant", "enter");
        let samples = (0..3u64)
            .map(|i| {
                SampleSnapshot::new(
                    ms(10 + 10 * i),
                    vec![ThreadSample::new(
                        tid(0),
                        ThreadState::Blocked,
                        vec![StackFrame::java(lock), StackFrame::java(lock)],
                    )],
                )
            })
            .collect();
        let trace = trace_of(symbols, vec![episode_with(0, 0, samples)]);
        let report = RuleSet::standard().run(&CheckSubject::of_trace(&trace));
        let hit = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "LA024")
            .expect("LA024 fires");
        assert!(hit.message.contains("self-wait"));
        // A self edge never doubles as an LA020 cycle.
        assert!(report.diagnostics().iter().all(|d| d.code != "LA020"));
    }

    #[test]
    fn la025_fires_only_across_sessions() {
        // Session 0 acquires A then B; session 1 acquires B then A.
        // Neither alone has a cycle; the merged corpus graph does.
        let build = |first: &str, second: &str| {
            let mut symbols = SymbolTable::new();
            let top = symbols.method(first, "enter");
            let caller = symbols.method(second, "enter");
            let samples = (0..3u64)
                .map(|i| {
                    SampleSnapshot::new(
                        ms(10 + 10 * i),
                        vec![ThreadSample::new(
                            tid(0),
                            ThreadState::Blocked,
                            vec![StackFrame::java(top), StackFrame::java(caller)],
                        )],
                    )
                })
                .collect();
            trace_of(symbols, vec![episode_with(0, 0, samples)])
        };
        let s0 = build("com.app.sync.OrderB", "com.app.sync.OrderA");
        let s1 = build("com.app.sync.OrderA", "com.app.sync.OrderB");
        let mut symbols = SymbolTable::new();
        let report = HazardReport::analyze_corpus(
            &[s0.clone(), s1],
            &mut symbols,
            1,
            &HazardConfig::default(),
        );
        let la025: Vec<_> = report
            .findings
            .iter()
            .filter(|d| d.code == "LA025")
            .collect();
        assert_eq!(la025.len(), 1);
        assert!(la025[0].message.contains("com.app.sync.OrderA.enter"));
        assert!(la025[0].message.contains("com.app.sync.OrderB.enter"));
        let notes = format!("{:?}", la025[0].related);
        assert!(notes.contains("s0") && notes.contains("s1"));
        assert!(report.findings.iter().all(|d| d.code != "LA020"));
        assert_eq!(report.sessions, Some(2));

        // The same session twice: the cycle closes per-session too, so
        // it is an LA020 matter, not a corpus-only inversion... but one
        // direction alone never cycles at all.
        let solo = HazardReport::analyze_corpus(
            &[s0],
            &mut SymbolTable::new(),
            1,
            &HazardConfig::default(),
        );
        assert!(solo.findings.iter().all(|d| d.code != "LA025"));
    }

    #[test]
    fn hazard_report_renders_are_deterministic_across_jobs() {
        let trace = abba_trace();
        let config = HazardConfig::default();
        let serial = HazardReport::analyze(&trace, None, 1, &config);
        for jobs in [2, 5] {
            let sharded = HazardReport::analyze(&trace, None, jobs, &config);
            assert_eq!(
                sharded.render_text("demo.lgz"),
                serial.render_text("demo.lgz")
            );
            assert_eq!(
                sharded.render_json("demo.lgz"),
                serial.render_json("demo.lgz")
            );
        }
        let json = serial.render_json("demo.lgz");
        assert!(json.starts_with("{\"tool\":\"lagalyzer-hazards\",\"version\":1,"));
        assert!(json.contains("\"verdict\":\"errors\""));
        assert!(!json.contains('\n'));
        let text = serial.render_text("demo.lgz");
        assert!(text.contains("error[LA020]"));
        assert!(text.ends_with("error(s), 0 warning(s), 0 note(s)\n"));
    }

    #[test]
    fn clean_trace_reports_clean() {
        let trace = trace_of(SymbolTable::new(), vec![episode_with(0, 0, vec![])]);
        let report = HazardReport::analyze(&trace, None, 1, &HazardConfig::default());
        assert_eq!(report.verdict(), "clean");
        assert!(report.findings.is_empty());
        assert_eq!(report.episodes, 1);
        assert_eq!(report.waits, 0);
    }
}
