//! Per-pattern outlier detection and cause attribution.
//!
//! The paper classifies episodes into patterns but never explains why one
//! episode of a pattern runs 10x slower than its siblings. This module
//! closes that gap (ROADMAP item 3): within each mined pattern it flags
//! episodes far above the pattern's duration distribution (median + MAD,
//! robust to the heavy right skew of lag distributions), then explains
//! each outlier's *excess* as a delta against the pattern centroid —
//! following "Automated Cause Analysis of Latency Outliers Using
//! System-Level Dependency Graphs" (PAPERS.md), an outlier is explained
//! relative to its pattern baseline, not in isolation.
//!
//! The attribution pass partitions an episode's duration into stable
//! cause categories built from the trace content that already exists:
//! GC intervals, native intervals split into I/O and other native by
//! class name, the dispatch thread's sampled blocked / waiting / sleeping
//! time, and residual self time. When the dominant delta is lock or wait
//! time, a [`WaitGraph`] over the episode's snapshots names the candidate
//! culprit thread and its hottest frame.
//!
//! All arithmetic is integer nanoseconds and every tie-break is fixed, so
//! reports are byte-identical regardless of episode order or `--jobs`.

use std::fmt;

use lagalyzer_model::{
    json_string, DurationNs, Episode, EpisodeId, Interval, IntervalKind, MethodRef, SymbolTable,
    ThreadId, ThreadState, WaitGraph,
};

use crate::parallel::map_shards;
use crate::patterns::PatternSet;
use crate::session::AnalysisSession;
use crate::summary::{Summaries, Summary};

/// Tuning knobs for outlier detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutlierConfig {
    /// MAD multiplier: an episode is an outlier when it exceeds
    /// `median + mad_k * 1.4826 * MAD` (1.4826 scales MAD to the standard
    /// deviation of a normal distribution).
    pub mad_k: f64,
    /// Absolute floor on the excess over the median — keeps homogeneous
    /// patterns (MAD near zero) from flagging microsecond jitter.
    pub min_excess: DurationNs,
    /// Patterns with fewer episodes than this are skipped: a distribution
    /// needs members before "far above it" means anything.
    pub min_count: usize,
}

impl Default for OutlierConfig {
    fn default() -> Self {
        OutlierConfig {
            mad_k: 4.0,
            min_excess: DurationNs::from_millis(20),
            min_count: 4,
        }
    }
}

/// Stable cause categories an outlier's excess is attributed to.
///
/// The order is the tie-break order: when two categories explain the same
/// excess, the earlier one wins.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CauseCode {
    /// Blocked entering a contended monitor (`OC-LOCK`).
    Lock,
    /// Waiting in `Object.wait()` / `LockSupport.park()` (`OC-WAIT`).
    Wait,
    /// Voluntarily sleeping (`OC-SLEEP`).
    Sleep,
    /// Stop-the-world garbage collection (`OC-GC`).
    Gc,
    /// Native I/O calls — `java.io`, `java.nio`, `java.net` (`OC-IO`).
    Io,
    /// Other native calls (`OC-NATIVE`).
    Native,
    /// Residual dispatch-thread computation (`OC-SELF`).
    SelfTime,
}

impl CauseCode {
    /// All categories in attribution (tie-break) order.
    pub const ALL: [CauseCode; 7] = [
        CauseCode::Lock,
        CauseCode::Wait,
        CauseCode::Sleep,
        CauseCode::Gc,
        CauseCode::Io,
        CauseCode::Native,
        CauseCode::SelfTime,
    ];

    /// Stable machine-readable code (mirrors the `LAxxx` check codes).
    pub const fn code(self) -> &'static str {
        match self {
            CauseCode::Lock => "OC-LOCK",
            CauseCode::Wait => "OC-WAIT",
            CauseCode::Sleep => "OC-SLEEP",
            CauseCode::Gc => "OC-GC",
            CauseCode::Io => "OC-IO",
            CauseCode::Native => "OC-NATIVE",
            CauseCode::SelfTime => "OC-SELF",
        }
    }

    /// Human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            CauseCode::Lock => "lock contention",
            CauseCode::Wait => "long wait",
            CauseCode::Sleep => "sleeping",
            CauseCode::Gc => "GC storm",
            CauseCode::Io => "slow I/O",
            CauseCode::Native => "native call",
            CauseCode::SelfTime => "self-time inflation",
        }
    }

    /// True for the causes whose finding names a culprit thread (lock
    /// contention and long waits).
    pub(crate) const fn names_culprit(self) -> bool {
        matches!(self, CauseCode::Lock | CauseCode::Wait)
    }

    /// Looks a category up by its stable code.
    pub fn from_code(code: &str) -> Option<CauseCode> {
        CauseCode::ALL.into_iter().find(|c| c.code() == code)
    }
}

impl fmt::Display for CauseCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// An episode's duration partitioned into the cause categories.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LagBreakdown {
    /// Sampled time blocked on contended monitors.
    pub lock: DurationNs,
    /// Sampled time waiting / parked.
    pub wait: DurationNs,
    /// Sampled time sleeping.
    pub sleep: DurationNs,
    /// Outermost GC interval time.
    pub gc: DurationNs,
    /// Outermost native-I/O interval time (GC inside excluded).
    pub io: DurationNs,
    /// Other outermost native interval time (GC inside excluded).
    pub native: DurationNs,
    /// Residual: duration not covered by any category above.
    pub self_time: DurationNs,
}

/// Class-name prefixes treated as I/O when they name a native interval.
const IO_PREFIXES: [&str; 5] = ["java.io.", "java.nio.", "java.net.", "sun.nio.", "sun.net."];

impl LagBreakdown {
    /// Partitions `episode`'s duration.
    ///
    /// GC and native time come from the interval tree (outermost spans
    /// only, GC nested inside a native call counted once — as GC). The
    /// blocked / waiting / sleeping shares come from the dispatch thread's
    /// sample states, scaled to the episode duration; an episode with no
    /// samples simply contributes zero there (no NaN, no division by
    /// zero). Whatever remains is self time.
    pub fn of_episode(episode: &Episode, symbols: &SymbolTable) -> LagBreakdown {
        LagBreakdown::partition(episode, |symbol| is_io_symbol(symbol, symbols))
    }

    /// [`LagBreakdown::of_episode`] with the session's memo of which
    /// classes name I/O, so each class name is prefix-tested once per
    /// session instead of once per native interval.
    pub(crate) fn of_episode_memo(
        episode: &Episode,
        symbols: &SymbolTable,
        io: &mut IoClasses,
    ) -> LagBreakdown {
        LagBreakdown::partition(episode, |symbol| io.is_io(symbol, symbols))
    }

    /// The partition, in one allocation-free pre-order scan of the tree's
    /// arena: a node belongs to every open interval whose depth is below
    /// its own, so closing an interval needs only its depth.
    fn partition(
        episode: &Episode,
        mut is_io: impl FnMut(Option<MethodRef>) -> bool,
    ) -> LagBreakdown {
        let duration = episode.duration();
        let mut gc = DurationNs::ZERO;
        let mut io = DurationNs::ZERO;
        let mut native = DurationNs::ZERO;
        // The open outermost GC interval's depth.
        let mut open_gc: Option<u32> = None;
        // The open outermost non-root native interval, its GC time so far,
        // and the depth of the outermost GC interval open inside it.
        let mut open_native: Option<(u32, &Interval, DurationNs)> = None;
        let mut open_native_gc: Option<u32> = None;
        let mut close_native = |(_, interval, nested_gc): (u32, &Interval, DurationNs)| {
            // Nested GC is already attributed to the GC category.
            let net = interval.duration().saturating_sub(nested_gc);
            if is_io(interval.symbol) {
                io += net;
            } else {
                native += net;
            }
        };
        for (i, node) in episode.tree().nodes().iter().enumerate() {
            let depth = node.depth;
            if open_gc.is_some_and(|d| depth <= d) {
                open_gc = None;
            }
            if open_native_gc.is_some_and(|d| depth <= d) {
                open_native_gc = None;
            }
            if let Some(open) = open_native.filter(|&(d, _, _)| depth <= d) {
                close_native(open);
                open_native = None;
            }
            let interval = &node.interval;
            match interval.kind {
                IntervalKind::Gc => {
                    if open_gc.is_none() {
                        gc += interval.duration();
                        open_gc = Some(depth);
                    }
                    if let Some((_, _, nested_gc)) = &mut open_native {
                        if open_native_gc.is_none() {
                            *nested_gc += interval.duration();
                            open_native_gc = Some(depth);
                        }
                    }
                }
                IntervalKind::Native if i > 0 && open_native.is_none() => {
                    open_native = Some((depth, interval, DurationNs::ZERO));
                }
                _ => {}
            }
        }
        if let Some(open) = open_native {
            close_native(open);
        }

        // Sampled dispatch-thread states, scaled to the duration.
        let mut counts = [0u64; 3]; // blocked, waiting, sleeping
        let mut total = 0u64;
        for snap in episode.samples() {
            if let Some(ts) = snap.thread(episode.thread()) {
                total += 1;
                match ts.state {
                    ThreadState::Blocked => counts[0] += 1,
                    ThreadState::Waiting => counts[1] += 1,
                    ThreadState::Sleeping => counts[2] += 1,
                    ThreadState::Runnable => {}
                }
            }
        }
        let scale = |count: u64| -> DurationNs {
            if total == 0 {
                return DurationNs::ZERO;
            }
            let ns = u128::from(duration.as_nanos()) * u128::from(count) / u128::from(total);
            DurationNs::from_nanos(ns as u64)
        };
        let (lock, wait, sleep) = (scale(counts[0]), scale(counts[1]), scale(counts[2]));

        let covered = lock + wait + sleep + gc + io + native;
        LagBreakdown {
            lock,
            wait,
            sleep,
            gc,
            io,
            native,
            self_time: duration.saturating_sub(covered),
        }
    }

    /// The time attributed to `cause`.
    pub fn get(&self, cause: CauseCode) -> DurationNs {
        match cause {
            CauseCode::Lock => self.lock,
            CauseCode::Wait => self.wait,
            CauseCode::Sleep => self.sleep,
            CauseCode::Gc => self.gc,
            CauseCode::Io => self.io,
            CauseCode::Native => self.native,
            CauseCode::SelfTime => self.self_time,
        }
    }

    fn set(&mut self, cause: CauseCode, value: DurationNs) {
        match cause {
            CauseCode::Lock => self.lock = value,
            CauseCode::Wait => self.wait = value,
            CauseCode::Sleep => self.sleep = value,
            CauseCode::Gc => self.gc = value,
            CauseCode::Io => self.io = value,
            CauseCode::Native => self.native = value,
            CauseCode::SelfTime => self.self_time = value,
        }
    }

    /// Lowers the breakdown to nanosecond counts in [`CauseCode::ALL`]
    /// order — the representation persisted rollups use.
    pub fn to_array(&self) -> [u64; 7] {
        let mut out = [0u64; 7];
        for (slot, &cause) in out.iter_mut().zip(CauseCode::ALL.iter()) {
            *slot = self.get(cause).as_nanos();
        }
        out
    }

    /// Inverse of [`to_array`](Self::to_array).
    pub fn from_array(values: [u64; 7]) -> LagBreakdown {
        let mut out = LagBreakdown::default();
        for (&v, &cause) in values.iter().zip(CauseCode::ALL.iter()) {
            out.set(cause, DurationNs::from_nanos(v));
        }
        out
    }
}

fn is_io_symbol(symbol: Option<MethodRef>, symbols: &SymbolTable) -> bool {
    let Some(class) = symbol.and_then(|m| symbols.resolve(m.class)) else {
        return false;
    };
    IO_PREFIXES.iter().any(|p| class.starts_with(p))
}

/// One session's memo of which classes name I/O (see
/// [`LagBreakdown::of_episode_memo`]), indexed by class symbol id. Ids
/// outside the symbol table resolve to nothing and are never memoized.
#[derive(Clone, Debug, Default)]
pub(crate) struct IoClasses {
    /// Per class id: 0 not yet tested, 1 I/O, 2 not I/O.
    known: Vec<u8>,
}

impl IoClasses {
    fn is_io(&mut self, symbol: Option<MethodRef>, symbols: &SymbolTable) -> bool {
        let Some(class) = symbol.map(|m| m.class.index()) else {
            return false;
        };
        if class >= symbols.len() {
            return false;
        }
        if self.known.len() < symbols.len() {
            self.known.resize(symbols.len(), 0);
        }
        match self.known[class] {
            0 => {
                let io = is_io_symbol(symbol, symbols);
                self.known[class] = if io { 1 } else { 2 };
                io
            }
            known => known == 1,
        }
    }
}

/// The thread a lock/wait outlier most plausibly waited on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Culprit {
    /// The candidate culprit thread.
    pub thread: ThreadId,
    /// Snapshots in which it ran while the outlier's thread waited.
    pub samples: u64,
    /// Its most frequently sampled top frame during those snapshots.
    pub frame: Option<MethodRef>,
}

/// One flagged episode with its attribution.
#[derive(Clone, Debug, PartialEq)]
pub struct OutlierFinding {
    /// Index of the owning pattern in the canonical [`PatternSet`] order.
    pub pattern_index: usize,
    /// Index into `session.episodes()`.
    pub episode_index: usize,
    /// The episode's trace id.
    pub episode_id: EpisodeId,
    /// The episode's duration.
    pub duration: DurationNs,
    /// The pattern's median duration.
    pub median: DurationNs,
    /// Excess over the median — the time the attribution explains.
    pub excess: DurationNs,
    /// The category with the largest delta over the pattern baseline.
    pub cause: CauseCode,
    /// That category's delta over the baseline.
    pub cause_delta: DurationNs,
    /// The outlier's own breakdown.
    pub breakdown: LagBreakdown,
    /// The pattern centroid: per-category median over non-outlier members.
    pub baseline: LagBreakdown,
    /// Candidate culprit thread for lock/wait causes.
    pub culprit: Option<Culprit>,
    /// Byte span of the episode in the source file, when the trace came
    /// through the extent index (see [`OutlierReport::attach_spans`]).
    pub bytes: Option<(u64, u64)>,
}

impl OutlierFinding {
    /// Delta of `cause` over the pattern baseline.
    pub fn delta(&self, cause: CauseCode) -> DurationNs {
        self.breakdown
            .get(cause)
            .saturating_sub(self.baseline.get(cause))
    }
}

/// The result of an outlier analysis over one session.
#[derive(Clone, Debug, PartialEq)]
pub struct OutlierReport {
    findings: Vec<OutlierFinding>,
    /// Patterns large enough to scan (`count >= min_count`).
    pub patterns_scanned: usize,
    /// Total patterns in the set.
    pub patterns_total: usize,
    /// Episodes belonging to scanned patterns.
    pub episodes_considered: usize,
    /// True when the underlying trace was salvaged from a damaged file.
    pub salvaged: bool,
}

/// Work unit for the attribution stage: one pattern with flagged members.
struct PatternWork {
    pattern_index: usize,
    median: DurationNs,
    flagged: Vec<usize>,
    normal: Vec<usize>,
}

impl OutlierReport {
    /// Runs detection and attribution over a decoded session, sharding the
    /// attribution pass over `jobs` workers. Results are byte-identical for
    /// every jobs value.
    pub fn analyze_with_jobs(
        session: &AnalysisSession,
        patterns: &PatternSet,
        config: &OutlierConfig,
        jobs: usize,
    ) -> OutlierReport {
        // Summaries of a decoded session read culprits off its episodes,
        // so the re-decode callback is never called.
        OutlierReport::of_summaries(
            &Summaries::of_session(session),
            patterns,
            config,
            jobs,
            &|_| None,
        )
        .expect("decoded sessions need no re-decode")
    }

    /// Runs detection and attribution over a session's summaries and the
    /// pattern set mined from them — the one outlier pass, for decoded
    /// sessions and persisted rollups alike.
    ///
    /// Detection reads member durations. Attribution compares each flagged
    /// episode's lag breakdown with the pattern centroid, sharded over
    /// `jobs` workers by pattern; breakdowns are read from the rollup, or
    /// computed from the decoded episodes only for the patterns that have
    /// a flagged member. Lock/wait findings then name a wait-graph
    /// culprit: summaries of a decoded session read it off the episode,
    /// while rollup-backed summaries call `decode` once with the extent
    /// positions of those findings (ascending finding order), which must
    /// return the decoded episodes in the same order. Returns `None` when
    /// `decode` fails.
    pub fn of_summaries(
        summaries: &Summaries<'_>,
        patterns: &PatternSet,
        config: &OutlierConfig,
        jobs: usize,
        decode: &dyn Fn(&[usize]) -> Option<Vec<Episode>>,
    ) -> Option<OutlierReport> {
        let episodes = summaries.episodes();
        let mut work: Vec<PatternWork> = Vec::new();
        let mut patterns_scanned = 0usize;
        let mut episodes_considered = 0usize;
        for (pattern_index, pattern) in patterns.patterns().iter().enumerate() {
            let members = pattern.episode_indices();
            if members.len() < config.min_count {
                continue;
            }
            patterns_scanned += 1;
            episodes_considered += members.len();
            let durations: Vec<DurationNs> =
                members.iter().map(|&i| episodes[i].duration).collect();
            let flagged_local = detect(&durations, config);
            if flagged_local.is_empty() {
                continue;
            }
            let median = DurationNs::from_nanos(median_ns(
                &mut durations.iter().map(|d| d.as_nanos()).collect::<Vec<_>>(),
            ));
            let mut flagged = Vec::with_capacity(flagged_local.len());
            let mut normal = Vec::with_capacity(members.len() - flagged_local.len());
            for (slot, &episode_index) in members.iter().enumerate() {
                if flagged_local.contains(&slot) {
                    flagged.push(episode_index);
                } else {
                    normal.push(episode_index);
                }
            }
            work.push(PatternWork {
                pattern_index,
                median,
                flagged,
                normal,
            });
        }

        let shards = map_shards(work.len(), jobs, |range| {
            range
                .flat_map(|i| attribute(summaries, &work[i]))
                .collect::<Vec<OutlierFinding>>()
        });
        let mut findings: Vec<OutlierFinding> = shards.into_iter().flatten().collect();

        let waits: Vec<usize> = findings
            .iter()
            .filter(|f| f.cause.names_culprit())
            .map(|f| f.episode_index)
            .collect();
        if !waits.is_empty() {
            let found = summaries.culprits(&waits, decode)?;
            let waiting = findings.iter_mut().filter(|f| f.cause.names_culprit());
            for (finding, culprit) in waiting.zip(found) {
                finding.culprit = culprit;
            }
        }

        Some(OutlierReport {
            findings,
            patterns_scanned,
            patterns_total: patterns.len(),
            episodes_considered,
            salvaged: summaries.salvaged || patterns.salvaged(),
        })
    }

    /// The flagged episodes, ordered by pattern then episode index.
    pub fn findings(&self) -> &[OutlierFinding] {
        &self.findings
    }

    /// Number of flagged episodes.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// True when nothing was flagged.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Attaches source byte spans (from the extent index) to findings by
    /// episode id. Findings `f` gets the span `f(episode_id)` returns.
    pub fn attach_spans<F: Fn(EpisodeId) -> Option<(u64, u64)>>(&mut self, span_of: F) {
        for finding in &mut self.findings {
            finding.bytes = span_of(finding.episode_id);
        }
    }

    /// The most common top cause across findings, ties broken by category
    /// order.
    pub fn dominant_cause(&self) -> Option<CauseCode> {
        let mut counts = [0usize; CauseCode::ALL.len()];
        for f in &self.findings {
            let slot = CauseCode::ALL
                .iter()
                .position(|c| *c == f.cause)
                .expect("cause is one of ALL");
            counts[slot] += 1;
        }
        CauseCode::ALL
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| counts[i] > 0)
            .max_by(|&(ai, _), &(bi, _)| counts[ai].cmp(&counts[bi]).then(bi.cmp(&ai)))
            .map(|(_, c)| c)
    }

    /// One-line summary (no label prefix) for the `analyze` report.
    pub fn summary(&self) -> String {
        match self.dominant_cause() {
            None => format!(
                "none flagged ({} of {} patterns scanned)",
                self.patterns_scanned, self.patterns_total
            ),
            Some(cause) => format!(
                "{} flagged in {} of {} patterns; top cause {} ({})",
                self.findings.len(),
                self.flagged_pattern_count(),
                self.patterns_total,
                cause.code(),
                cause.label()
            ),
        }
    }

    fn flagged_pattern_count(&self) -> usize {
        let mut n = 0usize;
        let mut last = usize::MAX;
        for f in &self.findings {
            if f.pattern_index != last {
                n += 1;
                last = f.pattern_index;
            }
        }
        n
    }

    /// Renders the human-readable report.
    pub fn render_text(&self, symbols: &SymbolTable) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "OUTLIERS  {} flagged / {} episodes in {} of {} patterns scanned{}\n",
            self.findings.len(),
            self.episodes_considered,
            self.patterns_scanned,
            self.patterns_total,
            if self.salvaged {
                "  [salvaged trace]"
            } else {
                ""
            }
        ));
        for f in &self.findings {
            out.push_str(&format!(
                "[{}] episode {} (pattern {}): {} vs median {} (+{}); {} +{}",
                f.cause.code(),
                f.episode_id.as_raw(),
                f.pattern_index,
                fmt_ms(f.duration),
                fmt_ms(f.median),
                fmt_ms(f.excess),
                f.cause.label(),
                fmt_ms(f.cause_delta),
            ));
            if let Some(c) = &f.culprit {
                out.push_str(&format!(
                    "; culprit t{} {} ({} samples)",
                    c.thread.as_raw(),
                    c.frame
                        .map_or_else(|| "<vm>".to_string(), |m| symbols.render(m)),
                    c.samples
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the deterministic single-line JSON report (stable cause
    /// codes, integer nanoseconds; same bytes for every `--jobs` value).
    pub fn render_json(&self, symbols: &SymbolTable) -> String {
        let mut out = String::with_capacity(256 + self.findings.len() * 256);
        out.push_str("{\"tool\":\"lagalyzer-outliers\",\"version\":1,\"salvaged\":");
        out.push_str(if self.salvaged { "true" } else { "false" });
        out.push_str(&format!(
            ",\"patterns_scanned\":{},\"patterns_total\":{},\"episodes_considered\":{},\"flagged\":{}",
            self.patterns_scanned,
            self.patterns_total,
            self.episodes_considered,
            self.findings.len()
        ));
        out.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"pattern\":{},\"episode_index\":{},\"episode_id\":{},\"duration_ns\":{},\"median_ns\":{},\"excess_ns\":{},\"cause\":\"{}\",\"label\":",
                f.pattern_index,
                f.episode_index,
                f.episode_id.as_raw(),
                f.duration.as_nanos(),
                f.median.as_nanos(),
                f.excess.as_nanos(),
                f.cause.code(),
            ));
            out.push_str(&json_string(f.cause.label()));
            out.push_str(&format!(",\"delta_ns\":{}", f.cause_delta.as_nanos()));
            out.push_str(",\"breakdown\":");
            json_breakdown(&f.breakdown, &mut out);
            out.push_str(",\"baseline\":");
            json_breakdown(&f.baseline, &mut out);
            out.push_str(",\"culprit\":");
            match &f.culprit {
                None => out.push_str("null"),
                Some(c) => {
                    out.push_str(&format!(
                        "{{\"thread\":{},\"samples\":{},\"frame\":",
                        c.thread.as_raw(),
                        c.samples
                    ));
                    match c.frame {
                        None => out.push_str("null"),
                        Some(m) => out.push_str(&json_string(&symbols.render(m))),
                    }
                    out.push('}');
                }
            }
            out.push_str(",\"bytes\":");
            match f.bytes {
                None => out.push_str("null"),
                Some((start, end)) => {
                    out.push_str(&format!("{{\"start\":{start},\"end\":{end}}}"));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Flags outliers within one pattern's duration multiset.
///
/// Returns the positions (into `durations`) of flagged members. The result
/// depends only on the multiset and each position's own value, so it is
/// invariant under any sharding of the surrounding analysis; an episode is
/// flagged iff `duration > median + max(min_excess, mad_k * 1.4826 * MAD)`.
pub fn detect(durations: &[DurationNs], config: &OutlierConfig) -> Vec<usize> {
    if durations.len() < config.min_count {
        return Vec::new();
    }
    let mut ns: Vec<u64> = durations.iter().map(|d| d.as_nanos()).collect();
    let median = median_ns(&mut ns);
    let mut deviations: Vec<u64> = durations
        .iter()
        .map(|d| d.as_nanos().abs_diff(median))
        .collect();
    let mad = median_ns(&mut deviations);
    let spread = (config.mad_k * 1.4826 * mad as f64).round() as u64;
    let threshold = median.saturating_add(spread.max(config.min_excess.as_nanos()));
    durations
        .iter()
        .enumerate()
        .filter(|(_, d)| d.as_nanos() > threshold)
        .map(|(i, _)| i)
        .collect()
}

/// Lower median of `values` (sorts in place). Zero when empty.
fn median_ns(values: &mut [u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[(values.len() - 1) / 2]
}

/// Attributes every flagged member of one pattern against the pattern
/// centroid: the per-category lower median over its non-outlier members
/// (a pattern where everything was flagged, which a median-based threshold
/// rules out, gets a zero baseline). Culprits are filled in afterwards.
fn attribute(summaries: &Summaries<'_>, work: &PatternWork) -> Vec<OutlierFinding> {
    let normal: Vec<LagBreakdown> = work
        .normal
        .iter()
        .map(|&i| summaries.breakdown(i))
        .collect();
    let mut baseline = LagBreakdown::default();
    for cause in CauseCode::ALL {
        let mut values: Vec<u64> = normal.iter().map(|b| b.get(cause).as_nanos()).collect();
        baseline.set(cause, DurationNs::from_nanos(median_ns(&mut values)));
    }

    work.flagged
        .iter()
        .map(|&episode_index| {
            let Summary { id, duration, .. } = summaries.episodes()[episode_index];
            let breakdown = summaries.breakdown(episode_index);
            let mut cause = CauseCode::SelfTime;
            let mut cause_delta = DurationNs::ZERO;
            for candidate in CauseCode::ALL {
                let delta = breakdown
                    .get(candidate)
                    .saturating_sub(baseline.get(candidate));
                if delta > cause_delta {
                    cause = candidate;
                    cause_delta = delta;
                }
            }
            OutlierFinding {
                pattern_index: work.pattern_index,
                episode_index,
                episode_id: id,
                duration,
                median: work.median,
                excess: duration.saturating_sub(work.median),
                cause,
                cause_delta,
                breakdown,
                baseline,
                culprit: None,
                bytes: None,
            }
        })
        .collect()
}

/// The thread a lock/wait outlier most plausibly waited on: the top
/// holder of the episode's wait graph.
pub(crate) fn culprit_of(episode: &Episode) -> Option<Culprit> {
    WaitGraph::extract(episode).top_holder().map(|h| Culprit {
        thread: h.thread,
        samples: h.samples,
        frame: h.top_frame.map(|(m, _)| m),
    })
}

fn fmt_ms(d: DurationNs) -> String {
    format!("{}ms", d.as_nanos() / 1_000_000)
}

fn json_breakdown(b: &LagBreakdown, out: &mut String) {
    out.push_str(&format!(
        "{{\"lock_ns\":{},\"wait_ns\":{},\"sleep_ns\":{},\"gc_ns\":{},\"io_ns\":{},\"native_ns\":{},\"self_ns\":{}}}",
        b.lock.as_nanos(),
        b.wait.as_nanos(),
        b.sleep.as_nanos(),
        b.gc.as_nanos(),
        b.io.as_nanos(),
        b.native.as_nanos(),
        b.self_time.as_nanos(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ms: u64) -> DurationNs {
        DurationNs::from_millis(ms)
    }

    #[test]
    fn detect_flags_far_tail_only() {
        let config = OutlierConfig::default();
        let durations: Vec<DurationNs> = [50, 52, 54, 51, 53, 500, 55, 50]
            .iter()
            .map(|&v| d(v))
            .collect();
        assert_eq!(detect(&durations, &config), vec![5]);
    }

    #[test]
    fn detect_homogeneous_flags_nothing() {
        let config = OutlierConfig::default();
        let durations = vec![d(50); 16];
        assert!(detect(&durations, &config).is_empty());
        // Small jitter below min_excess stays quiet too.
        let jitter: Vec<DurationNs> = (0..16).map(|i| d(50 + i % 7)).collect();
        assert!(detect(&jitter, &config).is_empty());
    }

    #[test]
    fn detect_respects_min_count() {
        let config = OutlierConfig::default();
        let durations = vec![d(50), d(50), d(900)];
        assert!(detect(&durations, &config).is_empty());
    }

    #[test]
    fn detect_invariant_under_permutation() {
        let config = OutlierConfig::default();
        let a: Vec<DurationNs> = [50, 900, 52, 54, 51, 53].iter().map(|&v| d(v)).collect();
        let b: Vec<DurationNs> = [54, 53, 52, 51, 50, 900].iter().map(|&v| d(v)).collect();
        let fa: Vec<u64> = detect(&a, &config)
            .iter()
            .map(|&i| a[i].as_nanos())
            .collect();
        let fb: Vec<u64> = detect(&b, &config)
            .iter()
            .map(|&i| b[i].as_nanos())
            .collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn median_is_lower_median() {
        assert_eq!(median_ns(&mut [4, 1, 3, 2]), 2);
        assert_eq!(median_ns(&mut [5, 1, 3]), 3);
        assert_eq!(median_ns(&mut []), 0);
    }

    #[test]
    fn cause_codes_round_trip() {
        for c in CauseCode::ALL {
            assert_eq!(CauseCode::from_code(c.code()), Some(c));
            assert!(c.code().starts_with("OC-"));
        }
        assert_eq!(CauseCode::from_code("OC-NOPE"), None);
    }
}
