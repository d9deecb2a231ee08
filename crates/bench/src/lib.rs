//! # gsj-bench
//!
//! The experiment harness: the per-process memo of offline preparation
//! and the recover protocol ([`harness`]), every table and figure of the
//! paper's Section V as a function over that memo ([`experiments`]; see
//! DESIGN.md §3 for the index), developer diagnostics ([`diagnostics`]),
//! and criterion microbenches. One binary, `gsj-exp`, runs any of them;
//! `chaos_smoke` and `trace_smoke` are the two CI smokes.

pub mod diagnostics;
pub mod experiments;
pub mod exps;
pub mod harness;
pub mod obs;
pub mod report;

pub use exps::{result_f1, scale_from_env, timed, variants};
pub use harness::{recover_f_measure, ExpConfig, Memo, Prepared, RecoverOutcome};
pub use obs::{dump_trace, init_tracing, obs_scope, trace_snapshot_json, TraceDump};
