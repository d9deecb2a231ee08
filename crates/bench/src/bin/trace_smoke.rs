//! CI smoke test for the observability layer: run a small end-to-end
//! gSQL query with tracing forced on, export the span + metrics
//! snapshot as JSON, parse it back with the gsj-obs parsers, and assert
//! the expected pipeline stage labels are present. Exits non-zero on
//! any failure so CI catches trace regressions.

use gsj_core::config::RExtConfig;
use gsj_core::gsql::exec::Strategy;
use gsj_core::rext::Rext;
use gsj_datagen::collections;
use gsj_datagen::Scale;
use std::sync::Arc;

fn main() {
    // This binary exists to verify the trace pipeline: always collect.
    gsj_bench::init_tracing();
    gsj_obs::set_tracing(true);

    let col = collections::build(collections::ALL[0], Scale(12), 5).expect("collection");
    let rext = Rext::train(&col.graph, RExtConfig::standard()).expect("training");
    let engine = col.engine(Arc::new(rext)).expect("profile");
    let kw = &col.spec.reference_keywords()[0];
    let query = format!("select * from {} e-join G <{}> as T", col.spec.rel_name, kw);
    let rel = engine.run(&query, Strategy::Optimized).expect("query runs");
    // A per-query capture in between must leave the process-wide trace
    // as it found it: the labels asserted below were collected before it.
    let parsed = engine.parse(&query).expect("query parses");
    engine
        .explain_analyze(&parsed, Strategy::Optimized)
        .expect("explain analyze runs");
    gsj_obs::set_tracing(false);

    let spans = gsj_obs::take_spans();
    let json = gsj_bench::trace_snapshot_json("trace_smoke", &spans);
    let mut failures: Vec<String> = Vec::new();

    // 1. The JSON snapshot must parse with the bundled parser.
    let parsed = match gsj_obs::parse_json(&json) {
        Ok(v) => Some(v),
        Err(e) => {
            failures.push(format!("snapshot JSON does not parse: {e}"));
            None
        }
    };

    // 2. The parsed snapshot must contain the expected stage labels
    //    (offline profiling ran HER + RExt; the query ran an e-join).
    if let Some(v) = &parsed {
        let labels: Vec<&str> = v
            .get("spans")
            .and_then(|s| s.as_arr())
            .map(|arr| {
                arr.iter()
                    .filter_map(|s| s.get("label").and_then(|l| l.as_str()))
                    .collect()
            })
            .unwrap_or_default();
        for want in [
            "profile.build",
            "her.match",
            "rext.discover",
            "rext.extract",
            "gsql.query",
            "gsql.ejoin",
        ] {
            if !labels.contains(&want) {
                failures.push(format!("missing stage label `{want}` in trace"));
            }
        }
        if v.get("metrics").and_then(|m| m.as_arr()).is_none() {
            failures.push("snapshot has no metrics array".into());
        }
    }

    // 3. The Prometheus export must round-trip through its parser and
    //    carry at least one gsj_ metric from the run.
    let prom = gsj_obs::prometheus_text(gsj_obs::Registry::global());
    match gsj_obs::parse_prometheus_text(&prom) {
        Ok(snap) => {
            if !snap.samples.iter().any(|s| s.name.starts_with("gsj_")) {
                failures.push("no gsj_ metric in Prometheus export".into());
            }
        }
        Err(e) => failures.push(format!("Prometheus export does not parse: {e}")),
    }

    if failures.is_empty() {
        println!(
            "trace smoke ok: {} spans collected, {} result row(s), snapshot parses",
            spans.len(),
            rel.len()
        );
    } else {
        for f in &failures {
            eprintln!("trace smoke FAILED: {f}");
        }
        std::process::exit(1);
    }
}
