//! Property: every seeded corruption the fault injector produces either
//! renders the trace unrecoverable (surfaced by the CLI as exit 3) or
//! yields at least one diagnostic — damage never passes the checker
//! silently.

use lagalyzer_check::{check_bytes, RuleSet, Severity};
use lagalyzer_model::prelude::*;
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::binary;
use lagalyzer_trace::faults::FaultInjector;
use proptest::prelude::*;

fn base_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let profiles = apps::standard_suite();
        let trace = runner::simulate_session(&profiles[0], 0, 7);
        let mut bytes = Vec::new();
        binary::write(&trace, &mut bytes).unwrap();
        bytes
    })
}

proptest! {
    #[test]
    fn seeded_faults_always_surface(seed in any::<u64>()) {
        let bytes = base_bytes();
        let mut injector = FaultInjector::new(seed);
        let (damaged, fault) = injector.inject(bytes);
        // A handful of faults are no-ops (e.g. truncation at full
        // length, a bit flip that lands where a flip already undid it
        // is impossible here, but truncate-at-len is real): an
        // unchanged input must stay clean, everything else must
        // surface.
        if damaged == bytes {
            return Ok(());
        }
        match check_bytes(damaged.to_vec(), &mut RuleSet::standard()) {
            Err(_) => {} // unrecoverable: the CLI exits 3
            Ok(report) => prop_assert!(
                !report.is_clean(),
                "fault {fault:?} (seed {seed}) produced no diagnostics"
            ),
        }
    }
}

#[test]
fn bitflip_in_payload_yields_error_with_span_inside_file() {
    let bytes = base_bytes();
    let mut damaged = bytes.to_vec();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x10;
    let report = check_bytes(damaged.to_vec(), &mut RuleSet::standard()).unwrap();
    let error = report
        .diagnostics()
        .iter()
        .find(|d| d.severity == Severity::Error)
        .expect("a flipped payload bit must produce an error diagnostic");
    let span = error.byte_span.expect("error must carry a byte span");
    assert!(span.start < span.end && span.end <= damaged.len() as u64);
}

#[test]
fn sub_floor_episode_written_as_full_record_is_diagnosed() {
    // Forge a tracer bug: a 1 ms episode recorded in full although the
    // metadata claims the 3 ms filter was active.
    let meta = SessionMeta {
        application: "Forged".into(),
        session: SessionId::from_raw(0),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(1),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
    let mut t = IntervalTreeBuilder::new();
    t.enter(IntervalKind::Dispatch, None, TimeNs::ZERO).unwrap();
    t.exit(TimeNs::from_millis(1)).unwrap();
    b.push_episode(
        EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(t.finish().unwrap())
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut bytes = Vec::new();
    binary::write(&b.finish(), &mut bytes).unwrap();

    let report = check_bytes(bytes.to_vec(), &mut RuleSet::standard()).unwrap();
    let hit = report
        .diagnostics()
        .iter()
        .find(|d| d.code == "LA007")
        .expect("sub-floor episode must be diagnosed");
    // The span comes from the extent footer and points at the episode's
    // records inside the file.
    let span = hit.byte_span.expect("indexed trace gives episode spans");
    assert!(span.end <= bytes.len() as u64);
    assert_eq!(report.exit_code(), 1); // warning
}
