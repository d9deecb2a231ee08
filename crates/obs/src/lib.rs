//! `gsj-obs` — observability substrate for the semantic-join engine.
//!
//! Three complementary facilities (DESIGN.md §10, §15):
//!
//! * **Spans** ([`trace`]): hierarchical wall-time measurements of the
//!   paper's pipeline stages (HER matching, RExt phases, BFS, gSQL
//!   operators). Off by default; `GSJ_TRACE` selects a runtime-
//!   overridable [`TraceMode`] — `1` (on everywhere), `sample:0.01`
//!   (probabilistic per-query sampling), or off. The disabled path is
//!   near-free — one atomic load, no allocation — so instrumentation
//!   can stay in hot code.
//! * **Metrics** ([`metrics`]): always-on cumulative counters, gauges
//!   and fixed-bucket histograms in a process-global [`Registry`],
//!   named `gsj_<crate>_<stage>_<what>[_total]`.
//! * **Flight recorder** ([`recorder`]): an always-on, bounded ring of
//!   per-query [`QueryRecord`]s — every query leaves one attributable
//!   record (strategy, governor verdict, wall time, phases, …) with a
//!   wire-propagated trace id, no env flag needed.
//!
//! Spans and metrics export as JSON and Prometheus text ([`export`]),
//! and both formats have minimal parsers so exports can be round-trip
//! verified in tests and CI; records export as JSON for the server's
//! `/debug/queries`, `/debug/slow` and `/debug/trace/<id>` endpoints.

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use export::{
    escape_json, escape_label_value, metrics_json, parse_json, parse_prometheus_text,
    prometheus_text, spans_json, unescape_label_value, Json, PromSample, PromSnapshot,
};
pub use metrics::{
    quantile_from_cumulative, Counter, Gauge, Histogram, Labels, LazyCounter, LazyGauge,
    LazyHistogram, Metric, Registry,
};
pub use recorder::{PhaseStat, QueryRecord};
pub use trace::{
    capture, dropped_spans, event, format_ns, next_span_id, now_ns, ns_since_epoch,
    parse_trace_env, render_tree, set_trace_mode, set_tracing, should_trace_query, span,
    take_spans, trace_mode, tracing_enabled, SpanGuard, SpanRecord, TraceMode,
};
