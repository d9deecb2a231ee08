//! CI smoke test for the fault-injection + governance layer (DESIGN.md
//! §11): run the full gSQL workload of one collection under a blanket
//! recoverable-fault spec and assert (1) no panic escapes, (2) every
//! query still answers, (3) faults actually injected, and (4) the
//! degradation counters moved. Exits non-zero on any failure so CI
//! catches chaos regressions.
//!
//! The spec comes from `GSJ_FAULTS` when set (as the CI job does), else
//! defaults to `all:p=0.05,seed=42`.

use gsj_core::config::RExtConfig;
use gsj_core::gsql::exec::Strategy;
use gsj_core::rext::Rext;
use gsj_datagen::collections;
use gsj_datagen::queries::workload;
use gsj_datagen::Scale;
use std::sync::Arc;

fn main() {
    let spec = std::env::var("GSJ_FAULTS").unwrap_or_else(|_| "all:p=0.05,seed=42".into());

    // Build the collection and engine *before* arming faults so offline
    // preparation (HER training, profile build) is deterministic.
    let col = collections::build(collections::ALL[0], Scale(12), 5).expect("collection");
    let rext = Rext::train(&col.graph, RExtConfig::standard()).expect("training");
    let engine = col.engine(Arc::new(rext)).expect("profile");

    gsj_faults::set_spec(Some(&spec)).expect("GSJ_FAULTS parses");
    let mut failures: Vec<String> = Vec::new();
    let mut ran = 0usize;
    for q in workload(&col) {
        for strategy in [Strategy::Baseline, Strategy::Optimized, Strategy::Heuristic] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.run(&q.text, strategy)
            }));
            ran += 1;
            match result {
                Ok(Ok(_)) => {}
                // Heuristic refuses queries with no relevant typed
                // relation by design; that refusal is not a chaos failure.
                Ok(Err(gsj_common::GsjError::Unsupported(_)))
                    if matches!(strategy, Strategy::Heuristic) => {}
                Ok(Err(e)) => failures.push(format!(
                    "{} [{strategy:?}] failed under `{spec}`: {e}",
                    q.name
                )),
                Err(_) => {
                    failures.push(format!("{} [{strategy:?}] PANICKED under `{spec}`", q.name))
                }
            }
        }
    }
    // Read the per-site stats before clearing the spec — set_spec resets
    // the counters. The spec must have actually injected somewhere, or
    // the run proved nothing.
    let stats = gsj_faults::sites();
    gsj_faults::set_spec(None).unwrap();
    let injected: u64 = stats.iter().map(|s| s.injected).sum();
    let hit = stats.iter().filter(|s| s.hits > 0).count();
    if injected == 0 {
        failures.push(format!("spec `{spec}` never injected a fault"));
    }

    let fallbacks = gsj_obs::Registry::global()
        .counter("gsj_core_gsql_fallback_total", &[])
        .get();

    if failures.is_empty() {
        println!(
            "chaos smoke ok: {ran} query runs green under `{spec}` \
             ({hit} sites hit, {injected} faults injected, {fallbacks} fallbacks)"
        );
    } else {
        for f in &failures {
            eprintln!("chaos smoke FAILED: {f}");
        }
        std::process::exit(1);
    }
}
