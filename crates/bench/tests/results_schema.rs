//! Every committed `results/<stem>.json` is a `Report` document: one
//! schema for every driver's results, so a driver that formats and writes
//! its own document fails here. The gated files are the ones `xtask
//! results` byte-compares: a stem with no further dot (`e13_trace.json`,
//! not the gitignored `e13_trace.perfetto.json`).

use std::fs;
use std::path::Path;

use farmem_bench::Json;

/// Why `doc`, read from `results/<stem>.json`, is not a `Report`
/// document, if it is not.
fn report_schema_error(stem: &str, doc: &Json) -> Option<String> {
    if doc.get("schema_version").and_then(Json::as_u64) != Some(1) {
        return Some("schema_version is not 1".into());
    }
    if doc.get("experiment").and_then(Json::as_str) != Some(stem) {
        return Some(format!("experiment is not {stem:?}"));
    }
    let tables = match doc.get("tables").and_then(Json::as_arr) {
        Some(t) if !t.is_empty() => t,
        _ => return Some("tables is not a non-empty array".into()),
    };
    for (i, table) in tables.iter().enumerate() {
        if table.get("schema_version").and_then(Json::as_u64) != Some(1) {
            return Some(format!("table {i}: schema_version is not 1"));
        }
        if table.get("title").and_then(Json::as_str).is_none() {
            return Some(format!("table {i}: no title"));
        }
        let Some(headers) = table.get("headers").and_then(Json::as_arr) else {
            return Some(format!("table {i}: no headers"));
        };
        let Some(rows) = table.get("rows").and_then(Json::as_arr) else {
            return Some(format!("table {i}: no rows"));
        };
        for (r, row) in rows.iter().enumerate() {
            let cells = row.as_arr().map_or(0, |c| c.len());
            if cells != headers.len() {
                return Some(format!(
                    "table {i} row {r}: {cells} cells under {} headers",
                    headers.len()
                ));
            }
        }
    }
    None
}

#[test]
fn every_committed_result_is_a_report_document() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut checked = 0;
    let mut errors = Vec::new();
    for entry in fs::read_dir(&dir).expect("read results/") {
        let name = entry.expect("read results/").file_name().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".json").filter(|s| !s.contains('.')) else {
            continue;
        };
        let text = fs::read_to_string(dir.join(&name)).expect("read a results file");
        match Json::parse(&text) {
            Ok(doc) => errors.extend(report_schema_error(stem, &doc).map(|e| format!("{name}: {e}"))),
            Err(e) => errors.push(format!("{name}: not JSON: {e}")),
        }
        checked += 1;
    }
    assert!(checked > 0, "no results/*.json found under {}", dir.display());
    assert!(errors.is_empty(), "results that are not Report documents:\n{}", errors.join("\n"));
}

#[test]
fn a_hand_built_document_is_rejected() {
    let doc = Json::parse(r#"{"schema_version":1,"experiment":"e0_x","curves":[]}"#).unwrap();
    assert_eq!(report_schema_error("e0_x", &doc).as_deref(), Some("tables is not a non-empty array"));
    let doc = Json::parse(
        r#"{"schema_version":1,"experiment":"e0_x","tables":[
            {"schema_version":1,"title":"t","headers":["a","b"],"rows":[["1"]]}]}"#,
    )
    .unwrap();
    assert_eq!(
        report_schema_error("e0_x", &doc).as_deref(),
        Some("table 0 row 0: 1 cells under 2 headers")
    );
    assert!(report_schema_error("e0_y", &doc).unwrap().contains("experiment"));
}
