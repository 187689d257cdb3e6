//! Test support shared by the trace property suites: how many cases each
//! one runs.

/// `default` cases, or `PROPTEST_CASES` when it is set. The deep CI steps
/// set it, and `ProptestConfig::with_cases` alone would ignore it.
pub fn or_env(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
