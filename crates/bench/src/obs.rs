//! Observability plumbing for the experiment binaries: a `--trace`
//! command-line toggle (equivalent to `GSJ_TRACE=1`) and an end-of-run
//! dump that renders the collected span tree and writes a
//! machine-readable JSON snapshot of spans plus metrics.

/// Enable span collection when `--trace` appears on the command line.
/// (`GSJ_TRACE=1` enables it too, inside gsj-obs itself.) Returns
/// whether tracing is on, so callers can skip trace-only work.
pub fn init_tracing() -> bool {
    if std::env::args().any(|a| a == "--trace") {
        gsj_obs::set_tracing(true);
    }
    gsj_obs::tracing_enabled()
}

/// When tracing is on: drain the collected spans, print the rendered
/// stage tree to stderr, and write a JSON snapshot
/// `{"tag", "spans", "metrics"}` to `$GSJ_TRACE_OUT` (or
/// `gsj-trace-<tag>.json` in the working directory). No-op otherwise.
pub fn dump_trace(tag: &str) {
    if !gsj_obs::tracing_enabled() {
        return;
    }
    let spans = gsj_obs::take_spans();
    eprintln!(
        "\n--- gsj-obs trace: {tag} ({} spans, {} dropped) ---",
        spans.len(),
        gsj_obs::dropped_spans()
    );
    eprint!("{}", gsj_obs::render_tree(&spans));
    let json = trace_snapshot_json(tag, &spans);
    let path = std::env::var("GSJ_TRACE_OUT").unwrap_or_else(|_| format!("gsj-trace-{tag}.json"));
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("trace snapshot written to {path}"),
        Err(e) => eprintln!("could not write trace snapshot to {path}: {e}"),
    }
}

/// RAII harness hook for experiment binaries: enables tracing per the
/// command line on construction and dumps the trace when dropped, so a
/// binary opts in with one line at the top of `main`:
/// `let _obs = gsj_bench::obs_scope("gsj-exp");`
pub struct TraceDump(&'static str);

impl Drop for TraceDump {
    fn drop(&mut self) {
        dump_trace(self.0);
    }
}

/// Install the observability hook for an experiment binary run.
pub fn obs_scope(tag: &'static str) -> TraceDump {
    init_tracing();
    TraceDump(tag)
}

/// The machine-readable snapshot the experiment binaries emit: the run
/// tag, every collected span, and the global metrics registry.
pub fn trace_snapshot_json(tag: &str, spans: &[gsj_obs::SpanRecord]) -> String {
    format!(
        "{{\"tag\":\"{}\",\"spans\":{},\"metrics\":{}}}",
        gsj_obs::escape_json(tag),
        gsj_obs::spans_json(spans),
        gsj_obs::metrics_json(gsj_obs::Registry::global()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_parses() {
        let spans = vec![gsj_obs::SpanRecord {
            id: 1,
            parent: None,
            label: "gsql.query".into(),
            fields: vec![("rows".into(), "3".into())],
            start_ns: 0,
            dur_ns: 10,
            thread: 0,
        }];
        let json = trace_snapshot_json("smoke", &spans);
        let v = gsj_obs::parse_json(&json).expect("snapshot must be valid JSON");
        assert_eq!(v.get("tag").unwrap().as_str(), Some("smoke"));
        let labels: Vec<&str> = v
            .get("spans")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|s| s.get("label").and_then(|l| l.as_str()))
            .collect();
        assert_eq!(labels, vec!["gsql.query"]);
        assert!(v.get("metrics").unwrap().as_arr().is_some());
    }
}
