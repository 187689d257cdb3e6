//! The checking engine: the [`Rule`] trait, the [`RuleSet`] that
//! configures which rules run at which severity, and the one-pass driver
//! that visits a trace and collects [`Diagnostic`]s.
//!
//! A rule is a trait object with a stable code and a default severity.
//! The engine calls `begin` once, `episode` once per decoded episode (in
//! order, with the episode's byte extent when the trace came from an
//! indexed `.lgz` file), and `finish` once. Every hook reads the session
//! through a [`SessionCtx`], not a decoded trace, so the engine runs the
//! same way over a trace in memory ([`RuleSet::run`]) and over a `.lgz`
//! folded as it decodes ([`crate::check_bytes`]). Rules report through a
//! [`Sink`] which stamps the code and the *effective* severity — the
//! default, unless the rule set carries an `--allow`/`--deny`/`--level`
//! override.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;

use lagalyzer_model::lockgraph::{extract_waits, ContendedWait};
use lagalyzer_model::{Episode, GcEvent, SessionMeta, SessionTrace, SymbolTable};
use lagalyzer_trace::{EpisodeExtent, IndexHealth, RollupHealth, SalvageReport};

use crate::diag::{ByteSpan, CheckReport, Diagnostic, Related, Severity};

/// Everything the checker knows about the input being checked.
///
/// The trace itself is always present; the provenance fields are `None`
/// when the input did not come through the indexed binary path (e.g. a
/// text trace, or an in-memory trace that was never serialized).
pub struct CheckSubject<'a> {
    /// The decoded session.
    pub trace: &'a SessionTrace,
    /// Byte extents, index-aligned with `trace.episodes()` when present.
    pub extents: Option<&'a [EpisodeExtent]>,
    /// How the episode index was established.
    pub health: Option<&'a IndexHealth>,
    /// Damage report when the trace was decoded in salvage mode.
    pub salvage: Option<&'a SalvageReport>,
    /// Total length of the raw input file, for trailer spans.
    pub file_len: Option<u64>,
    /// Health of the persisted rollup section, when the input is a v2
    /// binary trace (`None` for text and legacy-v1 inputs).
    pub rollup: Option<&'a RollupHealth>,
}

impl<'a> CheckSubject<'a> {
    /// A subject with no file provenance: just a decoded trace.
    pub fn of_trace(trace: &'a SessionTrace) -> CheckSubject<'a> {
        CheckSubject {
            trace,
            extents: None,
            health: None,
            salvage: None,
            file_len: None,
            rollup: None,
        }
    }

    /// The session the rules see: the trace's metadata, symbols and GC
    /// events, with the subject's provenance.
    fn session(&self) -> SessionCtx<'a> {
        SessionCtx {
            meta: self.trace.meta(),
            symbols: self.trace.symbols(),
            gc_events: self.trace.gc_events(),
            extents: self.extents,
            health: self.health,
            salvage: self.salvage,
            file_len: self.file_len,
            rollup: self.rollup,
        }
    }
}

/// The session a rule set checks, apart from its episodes: what
/// [`Rule::begin`] and [`Rule::finish`] read, and what every
/// [`EpisodeCtx`] refers to. The provenance fields are `None` when the
/// input did not come through the indexed binary path.
pub struct SessionCtx<'a> {
    /// The session metadata.
    pub meta: &'a SessionMeta,
    /// The session's symbol table.
    pub symbols: &'a SymbolTable,
    /// Session-level GC events, sorted by start.
    pub gc_events: &'a [GcEvent],
    /// The extent index, one entry per indexed episode.
    pub extents: Option<&'a [EpisodeExtent]>,
    /// How the episode index was established.
    pub health: Option<&'a IndexHealth>,
    /// Damage report when the trace was decoded in salvage mode.
    pub salvage: Option<&'a SalvageReport>,
    /// Total length of the raw input file, for trailer spans.
    pub file_len: Option<u64>,
    /// Health of the persisted rollup section, when the input is a v2
    /// binary trace.
    pub rollup: Option<&'a RollupHealth>,
}

/// Per-episode context handed to [`Rule::episode`].
pub struct EpisodeCtx<'a> {
    /// Position of the episode among the episodes checked so far.
    pub index: usize,
    /// The episode under inspection.
    pub episode: &'a Episode,
    /// The extent it was decoded from, when the input was an indexed
    /// `.lgz` file (and, in memory, aligns with the decoded episodes).
    pub extent: Option<&'a EpisodeExtent>,
    /// The surrounding session (symbol table, GC events, metadata).
    pub session: &'a SessionCtx<'a>,
    /// The episode's contended waits, extracted on first use.
    waits: OnceCell<Vec<ContendedWait>>,
}

impl EpisodeCtx<'_> {
    /// The episode's byte range in the raw file, when known.
    pub fn byte_span(&self) -> Option<ByteSpan> {
        self.extent
            .map(|e| ByteSpan::new(e.offset, e.offset + e.len))
    }

    /// The episode's contended waits ([`extract_waits`]), extracted once
    /// however many rules ask.
    pub fn waits(&self) -> &[ContendedWait] {
        self.waits.get_or_init(|| extract_waits(self.episode))
    }
}

/// One finding under construction; [`Sink::emit`] stamps code/severity.
#[derive(Debug, Default)]
pub struct Finding {
    message: String,
    episode_id: Option<lagalyzer_model::EpisodeId>,
    byte_span: Option<ByteSpan>,
    related: Vec<Related>,
}

impl Finding {
    /// Starts a finding with its message.
    pub fn new(message: impl Into<String>) -> Finding {
        Finding {
            message: message.into(),
            ..Finding::default()
        }
    }

    /// Attaches the episode the finding concerns.
    #[must_use]
    pub fn episode(mut self, id: lagalyzer_model::EpisodeId) -> Finding {
        self.episode_id = Some(id);
        self
    }

    /// Attaches a byte range in the raw file.
    #[must_use]
    pub fn span(mut self, span: Option<ByteSpan>) -> Finding {
        self.byte_span = span;
        self
    }

    /// Adds a secondary message (optionally with its own span).
    #[must_use]
    pub fn related(mut self, message: impl Into<String>, span: Option<ByteSpan>) -> Finding {
        self.related.push(Related {
            message: message.into(),
            byte_span: span,
        });
        self
    }
}

/// Where rules report findings. Created by the engine per rule with the
/// rule's code and effective severity already resolved.
pub struct Sink<'a> {
    code: &'static str,
    severity: Severity,
    out: &'a mut Vec<Diagnostic>,
}

impl Sink<'_> {
    /// Records one finding as a [`Diagnostic`].
    pub fn emit(&mut self, finding: Finding) {
        self.out.push(Diagnostic {
            code: self.code,
            severity: self.severity,
            message: finding.message,
            episode_id: finding.episode_id,
            byte_span: finding.byte_span,
            related: finding.related,
        });
    }
}

/// A semantic check over a decoded trace.
///
/// Rules hold per-run state in `&mut self`; `begin` must reset it so a
/// `RuleSet` can be reused across inputs.
pub trait Rule {
    /// Stable diagnostic code (`"LA001"`…). Never reused or renumbered.
    fn code(&self) -> &'static str;

    /// Short kebab-case name (`"improper-nesting"`), accepted wherever a
    /// code is.
    fn name(&self) -> &'static str;

    /// Severity when no override is configured.
    fn default_severity(&self) -> Severity;

    /// One-line description for `--help` and the README rule table.
    fn summary(&self) -> &'static str;

    /// Called once before any episode; reset per-run state here.
    fn begin(&mut self, _session: &SessionCtx<'_>, _sink: &mut Sink<'_>) {}

    /// Called once per episode, in decode order.
    fn episode(&mut self, _ctx: &EpisodeCtx<'_>, _sink: &mut Sink<'_>) {}

    /// Called once after all episodes.
    fn finish(&mut self, _session: &SessionCtx<'_>, _sink: &mut Sink<'_>) {}
}

/// Implements a [`Rule`]'s four descriptive methods from its code, name,
/// default severity and summary.
macro_rules! describe {
    ($code:literal, $name:literal, $severity:ident, $summary:literal) => {
        fn code(&self) -> &'static str {
            $code
        }
        fn name(&self) -> &'static str {
            $name
        }
        fn default_severity(&self) -> $crate::Severity {
            $crate::Severity::$severity
        }
        fn summary(&self) -> &'static str {
            $summary
        }
    };
}
pub(crate) use describe;

/// How an override changes a rule: suppress it or force a severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LevelOverride {
    Allow,
    At(Severity),
}

/// A rule code that matched no registered rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownRule(pub String);

impl fmt::Display for UnknownRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown rule '{}' (expected a code like LA001)", self.0)
    }
}

impl std::error::Error for UnknownRule {}

/// An ordered collection of rules plus severity overrides.
pub struct RuleSet {
    rules: Vec<Box<dyn Rule>>,
    overrides: BTreeMap<&'static str, LevelOverride>,
}

impl RuleSet {
    /// All shipped rules (`LA001`…) at their default severities.
    pub fn standard() -> RuleSet {
        RuleSet::with_rules(crate::rules::standard_rules())
    }

    /// A rule set over an explicit list of rules.
    pub fn with_rules(rules: Vec<Box<dyn Rule>>) -> RuleSet {
        RuleSet {
            rules,
            overrides: BTreeMap::new(),
        }
    }

    /// Metadata of every registered rule: `(code, name, default severity,
    /// summary)` — drives `--help` and the README table.
    pub fn descriptions(&self) -> Vec<(&'static str, &'static str, Severity, &'static str)> {
        self.rules
            .iter()
            .map(|r| (r.code(), r.name(), r.default_severity(), r.summary()))
            .collect()
    }

    /// Resolves a user-supplied code or name to the canonical code.
    fn canon(&self, key: &str) -> Result<&'static str, UnknownRule> {
        self.rules
            .iter()
            .find(|r| r.code() == key || r.name() == key)
            .map(|r| r.code())
            .ok_or_else(|| UnknownRule(key.to_owned()))
    }

    /// Suppresses a rule entirely (`--allow`).
    ///
    /// # Errors
    ///
    /// Fails when `key` names no registered rule.
    pub fn allow(&mut self, key: &str) -> Result<(), UnknownRule> {
        let code = self.canon(key)?;
        self.overrides.insert(code, LevelOverride::Allow);
        Ok(())
    }

    /// Escalates a rule to error severity (`--deny`).
    ///
    /// # Errors
    ///
    /// Fails when `key` names no registered rule.
    pub fn deny(&mut self, key: &str) -> Result<(), UnknownRule> {
        self.level(key, Severity::Error)
    }

    /// Forces a rule to a specific severity (`--level CODE=SEV`).
    ///
    /// # Errors
    ///
    /// Fails when `key` names no registered rule.
    pub fn level(&mut self, key: &str, severity: Severity) -> Result<(), UnknownRule> {
        let code = self.canon(key)?;
        self.overrides.insert(code, LevelOverride::At(severity));
        Ok(())
    }

    /// Runs every enabled rule over `subject`, one pass over the
    /// episodes of a trace already in memory, and collects the
    /// diagnostics.
    pub fn run(&mut self, subject: &CheckSubject<'_>) -> CheckReport {
        let episodes = subject.trace.episodes();
        // Hand rules no extent rather than the wrong one when the extent
        // table does not align with the decoded episodes (LA009 reports
        // the count disagreement); a fold hands each episode its own.
        let aligned = subject.extents.filter(|e| e.len() == episodes.len());
        let session = subject.session();
        let mut checking = self.begin(&session);
        for (index, episode) in episodes.iter().enumerate() {
            checking.episode(episode, aligned.and_then(|e| e.get(index)));
        }
        checking.finish()
    }

    /// Starts a run over `session`: `begin` on every enabled rule. Feed
    /// the run the episodes in order, then finish it.
    pub(crate) fn begin<'r, 's>(&'r mut self, session: &'s SessionCtx<'s>) -> Checking<'r, 's> {
        let overrides = &self.overrides;
        let active = self.rules.iter_mut().filter_map(|rule| {
            let severity = match overrides.get(rule.code()) {
                Some(LevelOverride::Allow) => return None,
                Some(&LevelOverride::At(severity)) => severity,
                None => rule.default_severity(),
            };
            Some((rule, severity))
        });
        let mut checking = Checking {
            active: active.collect(),
            session,
            index: 0,
            out: Vec::new(),
        };
        checking.each(|rule, sink| rule.begin(session, sink));
        checking
    }
}

/// One run of a [`RuleSet`] over a session, fed one episode at a time:
/// what [`RuleSet::run`] loops over a trace in memory and
/// [`crate::check_bytes`] folds over a `.lgz` as it decodes.
pub(crate) struct Checking<'r, 's> {
    /// The enabled rules, at their effective severity.
    active: Vec<(&'r mut Box<dyn Rule>, Severity)>,
    session: &'s SessionCtx<'s>,
    /// Episodes checked so far.
    index: usize,
    out: Vec<Diagnostic>,
}

impl Checking<'_, '_> {
    /// Calls `hook` on every enabled rule, in order, with its sink.
    fn each(&mut self, mut hook: impl FnMut(&mut dyn Rule, &mut Sink<'_>)) {
        for (rule, severity) in &mut self.active {
            let (code, severity) = (rule.code(), *severity);
            let mut sink = Sink {
                code,
                severity,
                out: &mut self.out,
            };
            hook(rule.as_mut(), &mut sink);
        }
    }

    /// Checks the next episode, decoded from `extent` when known.
    pub(crate) fn episode(&mut self, episode: &Episode, extent: Option<&EpisodeExtent>) {
        let ctx = EpisodeCtx {
            index: self.index,
            episode,
            extent,
            session: self.session,
            waits: OnceCell::new(),
        };
        self.each(|rule, sink| rule.episode(&ctx, sink));
        self.index += 1;
    }

    /// `finish` on every enabled rule, and the report.
    pub(crate) fn finish(mut self) -> CheckReport {
        let session = self.session;
        self.each(|rule, sink| rule.finish(session, sink));
        CheckReport::new(self.out)
    }
}

impl fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleSet")
            .field(
                "rules",
                &self.rules.iter().map(|r| r.code()).collect::<Vec<_>>(),
            )
            .field("overrides", &self.overrides)
            .finish()
    }
}
