//! Acceptance: clean simulator-generated traces produce zero diagnostics.
//!
//! Every rule encodes an invariant the tracer (here: the simulator)
//! guarantees, so a false positive on any of the 14 Table II application
//! profiles is a rule bug, not an application quirk. Checked three ways:
//! the in-memory trace, the binary round-trip (exercising extents,
//! footer health, and the salvage report), and the text round-trip.

use lagalyzer_check::{check_bytes, check_trace, RuleSet};
use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::{binary, text};

#[test]
fn all_table2_apps_are_clean() {
    for profile in apps::standard_suite() {
        let trace = runner::simulate_session(&profile, 0, 42);

        let in_memory = check_trace(&trace, &mut RuleSet::standard());
        assert!(
            in_memory.is_clean(),
            "{}: in-memory diagnostics: {}",
            profile.name,
            in_memory.render_text(&profile.name)
        );

        let mut bytes = Vec::new();
        binary::write(&trace, &mut bytes).unwrap();
        let report = check_bytes(bytes.to_vec(), &mut RuleSet::standard()).unwrap();
        assert!(
            report.is_clean(),
            "{}: binary diagnostics: {}",
            profile.name,
            report.render_text(&profile.name)
        );
        assert_eq!(report.exit_code(), 0);
    }
}

#[test]
fn text_codec_round_trip_is_clean() {
    let profiles = apps::standard_suite();
    let trace = runner::simulate_session(&profiles[0], 0, 42);
    let mut bytes = Vec::new();
    text::write(&trace, &mut bytes).unwrap();
    let report = check_bytes(bytes.to_vec(), &mut RuleSet::standard()).unwrap();
    assert!(report.is_clean(), "{}", report.render_text("text"));
}

#[test]
fn json_report_is_stable_across_runs() {
    let profiles = apps::standard_suite();
    let trace = runner::simulate_session(&profiles[1], 0, 42);
    let mut bytes = Vec::new();
    binary::write(&trace, &mut bytes).unwrap();
    let a = check_bytes(bytes.to_vec(), &mut RuleSet::standard())
        .unwrap()
        .render_json("app.lgz");
    let b = check_bytes(bytes.to_vec(), &mut RuleSet::standard())
        .unwrap()
        .render_json("app.lgz");
    assert_eq!(a, b);
}
