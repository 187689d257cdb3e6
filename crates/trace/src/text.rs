//! Human-readable, line-based text codec.
//!
//! Handy for inspecting simulator output and for writing traces by hand in
//! tests. One record per line; episodes are bracketed by `episode ... end`:
//!
//! ```text
//! lagalyzer-trace v1
//! app JEdit
//! session 3
//! gui_thread 0
//! e2e_ns 502000000000
//! filter_ns 3000000
//! symbol 0 org.gjt.sp.jedit.Buffer
//! symbol 1 keyTyped
//! gc 30000000 45000000 major
//! short_episodes 117615
//! episode 0 0
//! enter D 0
//! enter L 1000000 0 1
//! exit 100000000
//! sample 10000000 0 R 0/1/j
//! exit 104000000
//! end
//! ```

use std::io::{BufRead, BufReader, Read, Write};

use lagalyzer_model::prelude::*;

use crate::error::TraceError;
use crate::record::{records_from_trace, trace_from_records, TraceRecord};

const HEADER_LINE: &str = "lagalyzer-trace v1";

/// The version-independent text signature; used by format sniffing and
/// salvage decoding.
pub(crate) const SIGNATURE_PREFIX: &str = "lagalyzer-trace";

/// Serializes a trace to the text format.
///
/// A `&mut` reference may be passed for `w` (it also implements `Write`).
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write<W: Write>(trace: &SessionTrace, mut w: W) -> Result<(), TraceError> {
    let meta = trace.meta();
    writeln!(w, "{HEADER_LINE}")?;
    writeln!(w, "app {}", meta.application)?;
    writeln!(w, "session {}", meta.session.as_raw())?;
    writeln!(w, "gui_thread {}", meta.gui_thread.as_raw())?;
    writeln!(w, "e2e_ns {}", meta.end_to_end.as_nanos())?;
    writeln!(w, "filter_ns {}", meta.filter_threshold.as_nanos())?;
    for rec in records_from_trace(trace) {
        write_record(&rec, &mut w)?;
    }
    w.flush()?;
    Ok(())
}

fn write_record<W: Write>(rec: &TraceRecord, w: &mut W) -> Result<(), TraceError> {
    match rec {
        TraceRecord::Symbol { id, name } => writeln!(w, "symbol {} {}", id.as_raw(), name)?,
        TraceRecord::Gc(gc) => writeln!(
            w,
            "gc {} {} {}",
            gc.start.as_nanos(),
            gc.end.as_nanos(),
            if gc.major { "major" } else { "minor" }
        )?,
        TraceRecord::ShortEpisodes { count, total } => {
            writeln!(w, "short_episodes {} {}", count, total.as_nanos())?;
        }
        TraceRecord::EpisodeBegin { id, thread } => {
            writeln!(w, "episode {} {}", id.as_raw(), thread.as_raw())?;
        }
        TraceRecord::Enter { kind, symbol, at } => match symbol {
            Some(m) => writeln!(
                w,
                "enter {} {} {} {}",
                kind.tag() as char,
                at.as_nanos(),
                m.class.as_raw(),
                m.method.as_raw()
            )?,
            None => writeln!(w, "enter {} {}", kind.tag() as char, at.as_nanos())?,
        },
        TraceRecord::Exit { at } => writeln!(w, "exit {}", at.as_nanos())?,
        TraceRecord::Sample(snap) => {
            write!(w, "sample {}", snap.time.as_nanos())?;
            for ts in &snap.threads {
                write!(w, " {} {}", ts.thread.as_raw(), ts.state.tag() as char)?;
                for frame in &ts.stack {
                    write!(
                        w,
                        " {}/{}/{}",
                        frame.method.class.as_raw(),
                        frame.method.method.as_raw(),
                        if frame.native { 'n' } else { 'j' }
                    )?;
                }
                write!(w, " ;")?;
            }
            writeln!(w)?;
        }
        TraceRecord::EpisodeEnd => writeln!(w, "end")?,
    }
    Ok(())
}

/// Deserializes a trace from the text format.
///
/// A `&mut` reference may be passed for `r` (it also implements `Read`).
///
/// # Errors
///
/// Fails on I/O errors, unknown directives, malformed fields, or
/// model-invariant violations.
pub fn read<R: Read>(r: R) -> Result<SessionTrace, TraceError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();

    let (_, first) = lines
        .next()
        .ok_or_else(|| TraceError::corrupt("text header", "empty input"))?;
    let first = match first {
        Ok(line) => line,
        // `BufRead::lines` folds invalid UTF-8 into a generic I/O error;
        // surface it as the corruption it is.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            return Err(TraceError::corrupt("text header", "invalid UTF-8"));
        }
        Err(e) => return Err(e.into()),
    };
    if first.trim_end() != HEADER_LINE {
        return Err(TraceError::corrupt("text header", first));
    }

    let mut app = None;
    let mut session = None;
    let mut gui_thread = None;
    let mut e2e = None;
    let mut filter = None;
    let mut records = Vec::new();

    for (lineno, line) in lines {
        let line = line?;
        match parse_line(line.trim_end(), lineno + 1)? {
            None => {}
            Some(Directive::App(v)) => app = Some(v),
            Some(Directive::Session(v)) => session = Some(v),
            Some(Directive::GuiThread(v)) => gui_thread = Some(v),
            Some(Directive::E2e(v)) => e2e = Some(v),
            Some(Directive::Filter(v)) => filter = Some(v),
            Some(Directive::Record(rec)) => records.push(rec),
        }
    }

    let meta = SessionMeta {
        application: app.ok_or_else(|| TraceError::corrupt("text header", "missing app"))?,
        session: SessionId::from_raw(
            session.ok_or_else(|| TraceError::corrupt("text header", "missing session"))?,
        ),
        gui_thread: ThreadId::from_raw(
            gui_thread.ok_or_else(|| TraceError::corrupt("text header", "missing gui_thread"))?,
        ),
        end_to_end: DurationNs::from_nanos(
            e2e.ok_or_else(|| TraceError::corrupt("text header", "missing e2e_ns"))?,
        ),
        filter_threshold: DurationNs::from_nanos(
            filter.ok_or_else(|| TraceError::corrupt("text header", "missing filter_ns"))?,
        ),
    };
    Ok(trace_from_records(meta, records)?)
}

/// One parsed line of the text format: a metadata assignment or a record.
enum Directive {
    App(String),
    Session(u32),
    GuiThread(u32),
    E2e(u64),
    Filter(u64),
    Record(TraceRecord),
}

/// Parses one (already right-trimmed) line into a [`Directive`]; `None`
/// for blank lines and `#` comments. `lineno` is 1-based, for messages.
///
/// Shared between the strict reader (which propagates the first error)
/// and the salvage reader (which turns each error into a skipped line).
fn parse_line(line: &str, lineno: usize) -> Result<Option<Directive>, TraceError> {
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (directive, rest) = line.split_once(' ').unwrap_or((line, ""));
    let parsed = match directive {
        "app" => Directive::App(rest.to_owned()),
        "session" => Directive::Session(parse_u32(rest, lineno, "session")?),
        "gui_thread" => Directive::GuiThread(parse_u32(rest, lineno, "gui_thread")?),
        "e2e_ns" => Directive::E2e(parse_u64(rest, lineno, "e2e_ns")?),
        "filter_ns" => Directive::Filter(parse_u64(rest, lineno, "filter_ns")?),
        _ => Directive::Record(parse_record_line(directive, rest, lineno)?),
    };
    Ok(Some(parsed))
}

/// Parses a record-bearing line (everything that is not metadata).
fn parse_record_line(
    directive: &str,
    rest: &str,
    lineno: usize,
) -> Result<TraceRecord, TraceError> {
    match directive {
        "symbol" => {
            let (id, name) = rest.split_once(' ').ok_or_else(|| {
                TraceError::corrupt("symbol line", format!("line {lineno}: {rest}"))
            })?;
            Ok(TraceRecord::Symbol {
                id: SymbolId::from_raw(parse_u32(id, lineno, "symbol id")?),
                name: name.to_owned(),
            })
        }
        "gc" => {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 3 {
                return Err(TraceError::corrupt(
                    "gc line",
                    format!("line {lineno}: expected 3 fields"),
                ));
            }
            let major = match fields[2] {
                "major" => true,
                "minor" => false,
                other => {
                    return Err(TraceError::corrupt(
                        "gc line",
                        format!("line {lineno}: bad kind {other}"),
                    ))
                }
            };
            Ok(TraceRecord::Gc(GcEvent {
                start: TimeNs::from_nanos(parse_u64(fields[0], lineno, "gc start")?),
                end: TimeNs::from_nanos(parse_u64(fields[1], lineno, "gc end")?),
                major,
            }))
        }
        "short_episodes" => {
            let (count, total) = rest.split_once(' ').ok_or_else(|| {
                TraceError::corrupt(
                    "short_episodes line",
                    format!("line {lineno}: expected 2 fields"),
                )
            })?;
            Ok(TraceRecord::ShortEpisodes {
                count: parse_u64(count, lineno, "short_episodes count")?,
                total: DurationNs::from_nanos(parse_u64(total, lineno, "short_episodes total")?),
            })
        }
        "episode" => {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 2 {
                return Err(TraceError::corrupt(
                    "episode line",
                    format!("line {lineno}: expected 2 fields"),
                ));
            }
            Ok(TraceRecord::EpisodeBegin {
                id: EpisodeId::from_raw(parse_u32(fields[0], lineno, "episode id")?),
                thread: ThreadId::from_raw(parse_u32(fields[1], lineno, "episode thread")?),
            })
        }
        "enter" => {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 2 && fields.len() != 4 {
                return Err(TraceError::corrupt(
                    "enter line",
                    format!("line {lineno}: expected 2 or 4 fields"),
                ));
            }
            let kind_str = fields[0].as_bytes();
            let kind = (kind_str.len() == 1)
                .then(|| IntervalKind::from_tag(kind_str[0]))
                .flatten()
                .ok_or_else(|| {
                    TraceError::corrupt(
                        "enter line",
                        format!("line {lineno}: bad kind {}", fields[0]),
                    )
                })?;
            let symbol = if fields.len() == 4 {
                Some(MethodRef {
                    class: SymbolId::from_raw(parse_u32(fields[2], lineno, "enter class")?),
                    method: SymbolId::from_raw(parse_u32(fields[3], lineno, "enter method")?),
                })
            } else {
                None
            };
            Ok(TraceRecord::Enter {
                kind,
                symbol,
                at: TimeNs::from_nanos(parse_u64(fields[1], lineno, "enter time")?),
            })
        }
        "exit" => Ok(TraceRecord::Exit {
            at: TimeNs::from_nanos(parse_u64(rest, lineno, "exit time")?),
        }),
        "sample" => parse_sample(rest, lineno),
        "end" => Ok(TraceRecord::EpisodeEnd),
        other => Err(TraceError::corrupt(
            "directive",
            format!("line {lineno}: unknown directive {other}"),
        )),
    }
}

/// Salvage-decodes a text trace: recovers every intact episode, skipping
/// malformed or non-UTF-8 lines, and reports what was lost.
///
/// On a clean input this returns exactly what [`read`] returns, plus a
/// report whose [`SalvageReport::is_clean`](crate::SalvageReport::is_clean)
/// holds (`checksum_ok` stays `None`: the text format has no checksum).
///
/// # Errors
///
/// Fails only when the input is unrecoverable: the first line does not
/// carry the `lagalyzer-trace` signature at all.
pub fn read_salvage(bytes: &[u8]) -> Result<crate::salvage::Salvaged, TraceError> {
    use crate::salvage::{build_session, Assembler, Salvaged, SkipAt};

    // Split lines by hand so invalid UTF-8 damages one line, not the file.
    let mut lines = bytes.split(|&b| b == b'\n');
    let first_raw = lines.next().unwrap_or(&[]);
    let mut assembler = Assembler::new();
    match std::str::from_utf8(first_raw) {
        Ok(first) => {
            let first = first.trim_end();
            if first != HEADER_LINE {
                if first.starts_with(SIGNATURE_PREFIX) {
                    assembler.note_skip(
                        SkipAt::Line(1),
                        "text header",
                        format!("unsupported header {first:?}, decoding as v1"),
                    );
                } else {
                    return Err(TraceError::corrupt("text header", first.to_string()));
                }
            }
        }
        // Invalid UTF-8 in the header is damage, never silently accepted:
        // if the signature bytes survive we record the skip and press on,
        // otherwise the input is unrecoverable.
        Err(_) => {
            if first_raw.starts_with(SIGNATURE_PREFIX.as_bytes()) {
                assembler.note_lines_skipped(1);
                assembler.note_skip(
                    SkipAt::Line(1),
                    "text header",
                    "header line contains invalid UTF-8, decoding as v1".into(),
                );
            } else {
                return Err(TraceError::corrupt("text header", "invalid UTF-8"));
            }
        }
    }

    let mut app = None;
    let mut session = None;
    let mut gui_thread = None;
    let mut e2e = None;
    let mut filter = None;
    let mut episodes = Vec::new();
    let mut lineno: u64 = 1;
    for raw in lines {
        lineno += 1;
        let Ok(line) = std::str::from_utf8(raw) else {
            assembler.note_lines_skipped(1);
            assembler.note_skip(SkipAt::Line(lineno), "text line", "invalid UTF-8".into());
            continue;
        };
        match parse_line(line.trim_end(), lineno as usize) {
            Ok(None) => {}
            Ok(Some(Directive::App(v))) => app = Some(v),
            Ok(Some(Directive::Session(v))) => session = Some(v),
            Ok(Some(Directive::GuiThread(v))) => gui_thread = Some(v),
            Ok(Some(Directive::E2e(v))) => e2e = Some(v),
            Ok(Some(Directive::Filter(v))) => filter = Some(v),
            Ok(Some(Directive::Record(rec))) => {
                if let Some(episode) = assembler.push(SkipAt::Line(lineno), rec) {
                    episodes.push(episode);
                }
            }
            Err(e) => {
                assembler.note_lines_skipped(1);
                let (context, detail) = match e {
                    TraceError::Corrupt { context, detail } => (context, detail),
                    other => ("text line", other.to_string()),
                };
                assembler.note_skip(SkipAt::Line(lineno), context, detail);
            }
        }
    }
    assembler.end_of_input(SkipAt::Line(lineno));

    // Missing metadata is damage, not a fatal error: report it and fall
    // back to neutral defaults so the recovered episodes survive.
    macro_rules! field {
        ($opt:expr, $what:literal, $default:expr) => {
            match $opt {
                Some(v) => v,
                None => {
                    assembler.note_skip(
                        SkipAt::Line(1),
                        "text header",
                        concat!("missing ", $what).into(),
                    );
                    $default
                }
            }
        };
    }
    let meta = SessionMeta {
        application: field!(app, "app", String::new()),
        session: SessionId::from_raw(field!(session, "session", 0)),
        gui_thread: ThreadId::from_raw(field!(gui_thread, "gui_thread", 0)),
        end_to_end: DurationNs::from_nanos(field!(e2e, "e2e_ns", 0)),
        filter_threshold: DurationNs::from_nanos(field!(filter, "filter_ns", 0)),
    };
    let (records, report) = assembler.finish();
    Ok(Salvaged {
        trace: build_session(meta, episodes, records),
        report,
    })
}

fn parse_sample(rest: &str, lineno: usize) -> Result<TraceRecord, TraceError> {
    let mut fields = rest.split_whitespace();
    let time = TimeNs::from_nanos(parse_u64(
        fields.next().unwrap_or(""),
        lineno,
        "sample time",
    )?);
    let mut threads = Vec::new();
    let mut fields = fields.peekable();
    while let Some(thread_field) = fields.next() {
        let thread = ThreadId::from_raw(parse_u32(thread_field, lineno, "sample thread")?);
        let state_field = fields.next().ok_or_else(|| {
            TraceError::corrupt("sample line", format!("line {lineno}: missing state"))
        })?;
        let state_bytes = state_field.as_bytes();
        let state = (state_bytes.len() == 1)
            .then(|| ThreadState::from_tag(state_bytes[0]))
            .flatten()
            .ok_or_else(|| {
                TraceError::corrupt(
                    "sample line",
                    format!("line {lineno}: bad state {state_field}"),
                )
            })?;
        let mut stack = Vec::new();
        for frame_field in fields.by_ref() {
            if frame_field == ";" {
                break;
            }
            let parts: Vec<&str> = frame_field.split('/').collect();
            if parts.len() != 3 {
                return Err(TraceError::corrupt(
                    "sample line",
                    format!("line {lineno}: bad frame {frame_field}"),
                ));
            }
            let native = match parts[2] {
                "n" => true,
                "j" => false,
                other => {
                    return Err(TraceError::corrupt(
                        "sample line",
                        format!("line {lineno}: bad frame flag {other}"),
                    ))
                }
            };
            stack.push(StackFrame {
                method: MethodRef {
                    class: SymbolId::from_raw(parse_u32(parts[0], lineno, "frame class")?),
                    method: SymbolId::from_raw(parse_u32(parts[1], lineno, "frame method")?),
                },
                native,
            });
        }
        threads.push(ThreadSample::new(thread, state, stack));
    }
    Ok(TraceRecord::Sample(SampleSnapshot::new(time, threads)))
}

fn parse_u64(s: &str, lineno: usize, what: &'static str) -> Result<u64, TraceError> {
    s.parse()
        .map_err(|_| TraceError::corrupt(what, format!("line {lineno}: not a number: {s:?}")))
}

fn parse_u32(s: &str, lineno: usize, what: &'static str) -> Result<u32, TraceError> {
    s.parse()
        .map_err(|_| TraceError::corrupt(what, format!("line {lineno}: not a number: {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn fixture() -> SessionTrace {
        let meta = SessionMeta {
            application: "Gantt Project".into(), // name with a space
            session: SessionId::from_raw(1),
            gui_thread: ThreadId::from_raw(0),
            end_to_end: DurationNs::from_secs(523),
            filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
        };
        let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
        let paint = b
            .symbols_mut()
            .method("net.sourceforge.ganttproject.GanttTree", "paint");
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.enter(IntervalKind::Async, None, ms(1)).unwrap();
        t.leaf(IntervalKind::Paint, Some(paint), ms(2), ms(130))
            .unwrap();
        t.exit(ms(131)).unwrap();
        t.exit(ms(132)).unwrap();
        let snap = SampleSnapshot::new(
            ms(60),
            vec![
                ThreadSample::new(
                    ThreadId::from_raw(0),
                    ThreadState::Sleeping,
                    vec![StackFrame::java(paint)],
                ),
                ThreadSample::new(ThreadId::from_raw(3), ThreadState::Blocked, vec![]),
            ],
        );
        let e = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .sample(snap)
            .build()
            .unwrap();
        b.push_episode(e).unwrap();
        b.add_short_episodes(7, DurationNs::from_millis(2));
        b.finish()
    }

    fn encode(trace: &SessionTrace) -> String {
        let mut buf = Vec::new();
        write(trace, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = fixture();
        let text = encode(&trace);
        let back = read(text.as_bytes()).unwrap();
        assert_eq!(back.meta(), trace.meta());
        assert_eq!(back.episodes(), trace.episodes());
        assert_eq!(back.short_episode_count(), 7);
        assert_eq!(back.short_episode_time(), DurationNs::from_millis(2));
    }

    #[test]
    fn app_name_with_spaces_survives() {
        let back = read(encode(&fixture()).as_bytes()).unwrap();
        assert_eq!(back.meta().application, "Gantt Project");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let trace = fixture();
        let mut text = encode(&trace);
        text.push_str("\n# trailing comment\n\n");
        let back = read(text.as_bytes()).unwrap();
        assert_eq!(back.episodes().len(), 1);
    }

    #[test]
    fn missing_header_rejected() {
        assert!(matches!(
            read("not a trace\n".as_bytes()),
            Err(TraceError::Corrupt { .. })
        ));
        assert!(matches!(
            read("".as_bytes()),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn unknown_directive_rejected() {
        let text = format!("{HEADER_LINE}\nfrobnicate 1\n");
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn missing_metadata_rejected() {
        let text = format!("{HEADER_LINE}\napp X\n");
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("session"));
    }

    #[test]
    fn bad_numbers_carry_line_numbers() {
        let text = format!("{HEADER_LINE}\napp X\nsession banana\n");
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn bad_interval_kind_rejected() {
        let text = format!(
            "{HEADER_LINE}\napp X\nsession 0\ngui_thread 0\ne2e_ns 1\nfilter_ns 1\n\
             episode 0 0\nenter Z 0\nexit 1\nend\n"
        );
        assert!(read(text.as_bytes()).is_err());
    }

    #[test]
    fn invalid_utf8_header_rejected_strictly() {
        let mut bytes = encode(&fixture()).into_bytes();
        // Damage the header line itself with a continuation byte.
        bytes[17] = 0xff;
        assert!(matches!(
            read(bytes.as_slice()),
            Err(TraceError::Corrupt {
                context: "text header",
                ..
            })
        ));
    }

    #[test]
    fn invalid_utf8_header_salvages_with_a_recorded_skip() {
        let trace = fixture();
        let mut bytes = encode(&trace).into_bytes();
        bytes[17] = 0xff; // signature prefix survives, version suffix does not
        let salvaged = read_salvage(&bytes).unwrap();
        assert!(!salvaged.report.is_clean());
        assert_eq!(salvaged.report.lines_skipped, 1);
        assert!(salvaged
            .report
            .skips
            .iter()
            .any(|s| s.detail.contains("invalid UTF-8")));
        assert_eq!(salvaged.trace.episodes(), trace.episodes());
    }

    #[test]
    fn invalid_utf8_garbage_header_is_unrecoverable() {
        let bytes = b"\xff\xfe garbage\nrest\n";
        assert!(read_salvage(bytes).is_err());
    }

    #[test]
    fn handwritten_trace_parses() {
        let text = format!(
            "{HEADER_LINE}\n\
             app Tiny\nsession 0\ngui_thread 0\ne2e_ns 1000000000\nfilter_ns 3000000\n\
             episode 0 0\n\
             enter D 0\n\
             enter P 1000000\n\
             exit 150000000\n\
             sample 50000000 0 R ;\n\
             exit 151000000\n\
             end\n"
        );
        let trace = read(text.as_bytes()).unwrap();
        assert_eq!(trace.episodes().len(), 1);
        let e = &trace.episodes()[0];
        assert_eq!(e.duration(), DurationNs::from_millis(151));
        assert_eq!(e.samples().len(), 1);
        let first = e.samples().iter().next().unwrap().threads().next().unwrap();
        assert_eq!(first.state, ThreadState::Runnable);
    }
}
