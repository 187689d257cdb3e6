//! README's four bench tables (mining, ingest, warm, corpus) quote the
//! committed `BENCH_*.json` artifacts: every row of each table is pinned
//! here to the artifact fields it shows, and every number in it must
//! equal the field's value rounded to the decimals README prints. When an
//! artifact is re-measured, this fails until README's table follows.

use lagalyzer_model::json::{self, Json};

fn workspace_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The number at a dotted path (`[i]` indexes an array) of an artifact.
fn num(doc: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(doc, |value, step| match step.split_once('[') {
            Some((key, index)) => value
                .get(key)?
                .as_arr()?
                .get(index.trim_end_matches(']').parse::<usize>().ok()?),
            None => value.get(step),
        })
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("no number at `{path}`"))
}

/// A table line's trimmed cells.
fn cells(line: &str) -> Vec<&str> {
    line.trim_matches('|').split('|').map(str::trim).collect()
}

/// The rows of the README table whose header cells are `header`, without
/// the header and separator rows.
fn table_rows<'a>(readme: &'a str, header: &[&str]) -> Vec<Vec<&'a str>> {
    let mut lines = readme
        .lines()
        .skip_while(|l| !(l.starts_with('|') && cells(l) == header));
    assert!(lines.next().is_some(), "README has no table {header:?}");
    lines
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(cells)
        .collect()
}

/// The number a cell quotes (digits and the decimal point; thousands
/// separators and units dropped), or `None` for a cell without digits.
fn quoted(cell: &str) -> Option<&str> {
    let start = cell.find(|c: char| c.is_ascii_digit())?;
    let end = cell[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == ' '))
        .map_or(cell.len(), |n| start + n);
    Some(cell[start..end].trim())
}

/// Checks one table: each row's label must be pinned, and each of its
/// number cells must round the pinned value to the decimals it prints.
fn check_table(
    readme: &str,
    header: &[&str],
    pins: &[(&str, Vec<Option<f64>>)],
    bad: &mut Vec<String>,
) {
    let rows = table_rows(readme, header);
    assert_eq!(rows.len(), pins.len(), "{header:?} rows: {rows:?}");
    for row in rows {
        let Some((_, values)) = pins.iter().find(|(label, _)| *label == row[0]) else {
            bad.push(format!("{header:?}: no pin for row `{}`", row[0]));
            continue;
        };
        assert_eq!(row.len(), values.len() + 1, "{row:?}");
        for (cell, value) in row[1..].iter().zip(values) {
            let text = quoted(cell).map(|q| q.replace(' ', ""));
            let want = value.map(|v| {
                let decimals = text
                    .as_deref()
                    .and_then(|t| t.split_once('.'))
                    .map_or(0, |(_, frac)| frac.len());
                format!("{v:.decimals$}")
            });
            if text != want {
                let want = want.as_deref().unwrap_or("no number");
                bad.push(format!(
                    "`{}`: README quotes `{cell}`, the artifact {want}",
                    row[0]
                ));
            }
        }
    }
}

#[test]
fn readme_bench_tables_quote_the_committed_artifacts() {
    let readme = workspace_file("README.md");
    let doc = |name| json::parse(&workspace_file(name)).unwrap();
    let (mining, ingest, warm, corpus) = (
        doc("BENCH_mining.json"),
        doc("BENCH_ingest.json"),
        doc("BENCH_warm.json"),
        doc("BENCH_corpus.json"),
    );
    let ms = |doc: &Json, path: &str| Some(num(doc, path) / 1e6);
    let ratio = |doc: &Json, path: &str| Some(num(doc, path));
    let baseline = Some(1.0);
    let jobs_8 = ingest
        .get("trace_ingest")
        .and_then(|s| s.get("indexed_decode_by_jobs"))
        .and_then(Json::as_arr)
        .and_then(|rows| {
            rows.iter()
                .position(|r| r.get("jobs").and_then(Json::as_num) == Some(8.0))
        })
        .expect("BENCH_ingest.json has a jobs=8 row");
    let jobs_8 = format!("trace_ingest.indexed_decode_by_jobs[{jobs_8}]");
    let jobs_8_label = format!(
        "`par_decode`, jobs=8 ({} effective)",
        num(&ingest, &format!("{jobs_8}.effective_jobs")),
    );

    let mut bad = Vec::new();
    check_table(
        &readme,
        &["miner", "per corpus", "speedup"],
        &[
            (
                "string-keyed reference (`mine_reference`)",
                vec![
                    ms(&mining, "pattern_mining.total.before_ns_per_corpus"),
                    baseline,
                ],
            ),
            (
                "summarize + shape-indexed accumulation",
                vec![
                    ms(&mining, "pattern_mining.total.after_ns_per_corpus"),
                    ratio(&mining, "pattern_mining.total.speedup"),
                ],
            ),
        ],
        &mut bad,
    );
    check_table(
        &readme,
        &["measurement", "ns/iter", "speedup vs serial read"],
        &[
            (
                "`binary::read` (serial)",
                vec![
                    ms(&ingest, "trace_ingest.serial_read_ns_per_iter"),
                    baseline,
                ],
            ),
            (
                "`IndexedTrace::open` (once)",
                vec![ms(&ingest, "trace_ingest.indexed_open_ns"), None],
            ),
            (
                "`par_decode`, jobs=1",
                vec![
                    ms(
                        &ingest,
                        "trace_ingest.indexed_decode_by_jobs[0].ns_per_iter",
                    ),
                    ratio(
                        &ingest,
                        "trace_ingest.indexed_decode_by_jobs[0].speedup_vs_serial",
                    ),
                ],
            ),
            (
                &jobs_8_label,
                vec![
                    ms(&ingest, &format!("{jobs_8}.ns_per_iter")),
                    ratio(&ingest, &format!("{jobs_8}.speedup_vs_serial")),
                ],
            ),
            (
                "filtered analysis, skip-decode",
                vec![
                    ms(
                        &ingest,
                        "trace_ingest.filtered_analysis.skip_decode_ns_per_iter",
                    ),
                    ratio(&ingest, "trace_ingest.filtered_analysis.speedup"),
                ],
            ),
        ],
        &mut bad,
    );
    check_table(
        &readme,
        &["pipeline", "ns/iter", "speedup"],
        &[
            (
                "cold: open + decode all + summarize + analyze",
                vec![
                    ms(&warm, "analysis_warm.analyze.cold_ns_per_iter"),
                    baseline,
                ],
            ),
            (
                "warm: open + rollup summaries + analyze",
                vec![
                    ms(&warm, "analysis_warm.analyze.warm_ns_per_iter"),
                    ratio(&warm, "analysis_warm.analyze.speedup"),
                ],
            ),
        ],
        &mut bad,
    );
    let pair = |key: &str| {
        vec![
            ms(
                &corpus,
                &format!("corpus_ingest.{key}.separate_files_ns_per_iter"),
            ),
            ms(&corpus, &format!("corpus_ingest.{key}.corpus_ns_per_iter")),
            ratio(&corpus, &format!("corpus_ingest.{key}.speedup")),
        ]
    };
    let (separate, packed) = (
        num(&corpus, "corpus_ingest.separate_bytes"),
        num(&corpus, "corpus_ingest.corpus_bytes"),
    );
    check_table(
        &readme,
        &[
            "pipeline",
            "16 separate `.lgz`",
            "one `.lgzc` corpus",
            "speedup",
        ],
        &[
            ("load + decode", pair("load_only")),
            ("load + decode + mine", pair("load_and_mine")),
            (
                "bytes on disk (uncompressed)",
                vec![Some(separate), Some(packed), Some(separate / packed)],
            ),
        ],
        &mut bad,
    );
    assert!(
        bad.is_empty(),
        "README drifted from the artifacts:\n{}",
        bad.join("\n")
    );
}
