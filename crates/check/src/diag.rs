//! Diagnostics: what a rule reports and how a batch of them renders.
//!
//! A [`Diagnostic`] is deliberately shaped like a compiler lint: a stable
//! code (`LA001`…), a [`Severity`], a human message, and provenance — the
//! episode it concerns and, whenever the trace came from an indexed `.lgz`
//! file, a [`ByteSpan`] pointing into the raw bytes (threaded from the
//! `EpisodeExtent` table or from salvage skip offsets). A [`CheckReport`]
//! aggregates diagnostics and renders them as text or as deterministic
//! JSON for machine consumption.

use std::fmt;

use lagalyzer_model::{json_string, EpisodeId};

/// How serious a diagnostic is. Ordered: `Note < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never affects the exit code.
    Note,
    /// The trace is usable but an analysis assumption is weakened.
    Warning,
    /// An invariant the analyses rely on is violated.
    Error,
}

impl Severity {
    /// Lowercase name as used in renderers and `--level` arguments.
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a `--level` argument value.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "note" => Some(Severity::Note),
            "warning" | "warn" => Some(Severity::Warning),
            "error" | "deny" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A half-open `[start, end)` range of bytes in the checked file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByteSpan {
    /// First byte of the span.
    pub start: u64,
    /// One past the last byte of the span.
    pub end: u64,
}

impl ByteSpan {
    /// Creates a span; callers keep `start <= end`.
    pub const fn new(start: u64, end: u64) -> ByteSpan {
        ByteSpan { start, end }
    }
}

impl fmt::Display for ByteSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytes {}..{}", self.start, self.end)
    }
}

/// Secondary location or context attached to a [`Diagnostic`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Related {
    /// What this related entry adds.
    pub message: String,
    /// Optional byte range it points at.
    pub byte_span: Option<ByteSpan>,
}

/// One finding of the checker, in the style of a compiler lint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code, e.g. `"LA001"`.
    pub code: &'static str,
    /// Effective severity (after `--deny`/`--level` overrides).
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// The episode the finding concerns, when episode-scoped.
    pub episode_id: Option<EpisodeId>,
    /// Range of the raw trace file this points at, when known.
    pub byte_span: Option<ByteSpan>,
    /// Secondary locations and context.
    pub related: Vec<Related>,
}

/// The result of running a rule set over one trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Wraps an ordered batch of diagnostics.
    pub fn new(diagnostics: Vec<Diagnostic>) -> CheckReport {
        CheckReport { diagnostics }
    }

    /// All diagnostics, in emission order (file-level damage first, then
    /// per-episode findings in episode order).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Note-severity diagnostics.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    /// `true` when nothing at all was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The `check` scripting contract: 0 clean (notes allowed), 1 at
    /// least one warning, 2 at least one error. (3 — unrecoverable input
    /// — is produced by the CLI before a report exists.)
    pub fn exit_code(&self) -> u8 {
        if self.errors() > 0 {
            2
        } else if self.warnings() > 0 {
            1
        } else {
            0
        }
    }

    /// One-word verdict matching [`CheckReport::exit_code`].
    pub fn verdict(&self) -> &'static str {
        if self.errors() > 0 {
            "errors"
        } else if self.warnings() > 0 {
            "warnings"
        } else {
            "clean"
        }
    }

    /// Renders the report as human-readable text. `source` names the
    /// checked input (a path, or a label in tests).
    pub fn render_text(&self, source: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            render_diagnostic_text(&mut out, d, source);
        }
        out.push_str(&format!(
            "check: {}: {} — {} error(s), {} warning(s), {} note(s)\n",
            source,
            self.verdict(),
            self.errors(),
            self.warnings(),
            self.notes()
        ));
        out
    }

    /// Renders the report as one line of deterministic JSON (keys in
    /// fixed order, no whitespace variance) for `--format json`,
    /// `--fix-report`, and the golden corpus snapshots.
    pub fn render_json(&self, source: &str) -> String {
        let mut out = String::with_capacity(128 + self.diagnostics.len() * 96);
        out.push_str("{\"file\":");
        out.push_str(&json_string(source));
        out.push_str(&format!(
            ",\"verdict\":\"{}\",\"summary\":{{\"errors\":{},\"warnings\":{},\"notes\":{}}}",
            self.verdict(),
            self.errors(),
            self.warnings(),
            self.notes()
        ));
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_diagnostic_json(&mut out, d);
        }
        out.push_str("]}");
        out
    }
}

/// Renders one diagnostic in the compiler-lint text shape shared by
/// `check` and `hazards` reports.
pub(crate) fn render_diagnostic_text(out: &mut String, d: &Diagnostic, source: &str) {
    out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
    let mut arrow = format!("  --> {source}");
    if let Some(span) = d.byte_span {
        arrow.push_str(&format!(" {span}"));
    }
    if let Some(id) = d.episode_id {
        arrow.push_str(&format!(" (episode {id})"));
    }
    out.push_str(&arrow);
    out.push('\n');
    for rel in &d.related {
        out.push_str(&format!("  note: {}", rel.message));
        if let Some(span) = rel.byte_span {
            out.push_str(&format!(" ({span})"));
        }
        out.push('\n');
    }
}

pub(crate) fn render_diagnostic_json(out: &mut String, d: &Diagnostic) {
    out.push_str(&format!(
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":",
        d.code, d.severity
    ));
    out.push_str(&json_string(&d.message));
    out.push_str(",\"episode\":");
    match d.episode_id {
        Some(id) => out.push_str(&id.as_raw().to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"span\":");
    json_span(out, d.byte_span);
    out.push_str(",\"related\":[");
    for (i, rel) in d.related.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"message\":");
        out.push_str(&json_string(&rel.message));
        out.push_str(",\"span\":");
        json_span(out, rel.byte_span);
        out.push('}');
    }
    out.push_str("]}");
}

fn json_span(out: &mut String, span: Option<ByteSpan>) {
    match span {
        Some(s) => out.push_str(&format!("{{\"start\":{},\"end\":{}}}", s.start, s.end)),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity) -> Diagnostic {
        Diagnostic {
            code: "LA999",
            severity,
            message: "test \"quoted\"\nline".into(),
            episode_id: Some(EpisodeId::from_raw(4)),
            byte_span: Some(ByteSpan::new(10, 20)),
            related: vec![Related {
                message: "see also".into(),
                byte_span: None,
            }],
        }
    }

    #[test]
    fn exit_codes_follow_worst_severity() {
        assert_eq!(CheckReport::new(vec![]).exit_code(), 0);
        assert_eq!(CheckReport::new(vec![diag(Severity::Note)]).exit_code(), 0);
        assert_eq!(
            CheckReport::new(vec![diag(Severity::Warning)]).exit_code(),
            1
        );
        assert_eq!(
            CheckReport::new(vec![diag(Severity::Warning), diag(Severity::Error)]).exit_code(),
            2
        );
    }

    #[test]
    fn json_escapes_and_is_single_line() {
        let report = CheckReport::new(vec![diag(Severity::Error)]);
        let json = report.render_json("a\"b.lgz");
        assert!(!json.contains('\n'));
        assert!(json.contains("\\\"quoted\\\"\\nline"));
        assert!(json.contains("\"file\":\"a\\\"b.lgz\""));
        assert!(json.contains("\"span\":{\"start\":10,\"end\":20}"));
        assert!(json.contains("\"episode\":4"));
    }

    #[test]
    fn text_render_mentions_code_span_and_episode() {
        let report = CheckReport::new(vec![diag(Severity::Warning)]);
        let text = report.render_text("demo.lgz");
        assert!(text.contains("warning[LA999]"));
        assert!(text.contains("bytes 10..20"));
        assert!(text.contains("episode e4"));
        assert!(text.contains("1 warning(s)"));
    }
}
