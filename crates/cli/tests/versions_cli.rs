//! The `.lgz` v2 and v3 encodings of one session answer every analysis
//! identically, through the real binary.
//!
//! The two formats share one layout byte for byte and differ only in the
//! hash of their checksums, so `analyze`, `patterns`, `outliers`,
//! `hazards` and `check --format json` must print the same bytes for
//! both — byte offsets included — and exit with the same code, warm from
//! the rollup or cold without one.

use std::path::PathBuf;
use std::process::{Command, Output};

use lagalyzer_sim::{apps, runner};
use lagalyzer_trace::{binary, faults};
use proptest::prelude::*;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lagalyzer-versions-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn lagalyzer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lagalyzer"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Every command whose output must not depend on the format version.
const SURFACES: [&[&str]; 6] = [
    &["analyze", "--histogram"],
    &["patterns", "--sort", "total"],
    &["outliers", "--format", "json"],
    &["hazards", "--format", "json"],
    &["check", "--format", "json"],
    &["lint"],
];

/// Runs one surface on `path`: (exit code, stdout with the path masked).
fn answer(surface: &[&str], path: &str) -> (Option<i32>, String) {
    let mut args = vec![surface[0], path];
    args.extend_from_slice(&surface[1..]);
    let output = lagalyzer(&args);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    (output.status.code(), stdout.replace(path, "TRACE"))
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A simulated session, with or without a rollup, written as v3 and
    /// re-stamped as v2: every surface answers byte for byte alike.
    #[test]
    fn v2_and_v3_answer_alike(seed in any::<u64>()) {
        let profiles = [apps::crossword_sage(), apps::jedit(), apps::arabeske()];
        let trace = runner::simulate_session(&profiles[(seed % 3) as usize], 0, seed);
        let mut v3 = Vec::new();
        if seed / 3 % 2 == 0 {
            let rollup = lagalyzer_core::rollup::build(&trace);
            binary::write_with_rollup(&trace, &mut v3, rollup).unwrap();
        } else {
            binary::write(&trace, &mut v3).unwrap();
        }
        let dir = scratch_dir();
        let v3_path = dir.join(format!("{seed:016x}-v3.lgz"));
        let v2_path = dir.join(format!("{seed:016x}-v2.lgz"));
        std::fs::write(&v2_path, faults::with_version(&v3, 2)).unwrap();
        std::fs::write(&v3_path, v3).unwrap();
        let (v2_path, v3_path) = (v2_path.to_str().unwrap(), v3_path.to_str().unwrap());
        for surface in SURFACES {
            let (v2_code, v2_out) = answer(surface, v2_path);
            let (v3_code, v3_out) = answer(surface, v3_path);
            prop_assert!(matches!(v3_code, Some(0..=2)), "{:?}: exit {:?}", surface, v3_code);
            prop_assert!(v2_code == v3_code, "{:?}: exit {:?} vs {:?}", surface, v2_code, v3_code);
            prop_assert!(v2_out == v3_out, "{:?}: stdout differs", surface);
        }
        let _ = std::fs::remove_file(v2_path);
        let _ = std::fs::remove_file(v3_path);
    }
}
