//! Tests that need a built fixture. Fixture B (80 tuples) takes about nine
//! seconds to build, so the tests share one behind a mutex; every test
//! leaves it as it found it (ΔG batches are undone by their inverses).

use crate::check::{check_queries, write_probe, Checks};
use crate::delta::{edge_list, sequence};
use crate::fixture::{self, Fixture};
use crate::run::Caller;
use crate::span::Tracer;
use crate::workload::{Action, Class, Plan, Workload, ALL, SCALE_B};
use gsj_core::gsql::exec::Strategy;
use std::sync::{Mutex, MutexGuard, OnceLock};

const SEED: u64 = 11;

/// What differs between our fixture and `gsj_server::engine_for_collection`
/// over the same collection, compared while ours is still pristine.
static RECIPE_DIFFERENCES: OnceLock<Vec<String>> = OnceLock::new();

fn recipe_differences(fx: &Fixture) -> Vec<String> {
    let theirs = gsj_server::engine_for_collection(&fx.col).expect("the server's recipe");
    let mut differences = Vec::new();
    for q in gsj_datagen::queries::workload(&fx.col) {
        let ours = fx
            .engine
            .run(&q.text, Strategy::Optimized)
            .map(|r| r.to_csv());
        let served = theirs.run(&q.text, Strategy::Optimized).map(|r| r.to_csv());
        if ours.is_err() || ours != served {
            differences.push(q.name);
        }
    }
    let dg = |e: &gsj_core::GsqlEngine| {
        let profile = e.profile(fixture::GRAPH).expect("profile");
        profile
            .extraction("celebrity")
            .expect("extraction")
            .dg
            .to_csv()
    };
    if dg(&fx.engine) != dg(&theirs) {
        differences.push("D_G".into());
    }
    differences
}

fn fixture_b() -> MutexGuard<'static, Fixture> {
    static FX: OnceLock<Mutex<Fixture>> = OnceLock::new();
    FX.get_or_init(|| {
        std::env::set_var("GSJ_THREADS", "1");
        let fx = fixture::build(SCALE_B, &mut Tracer::new(false)).expect("fixture B");
        RECIPE_DIFFERENCES.get_or_init(|| recipe_differences(&fx));
        Mutex::new(fx)
    })
    .lock()
    // A failed assertion in one test must not hide the others' results.
    .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Every operation of the first `cycles` cycles, rendered.
fn transcript(plan: &Plan, cycles: usize) -> Vec<String> {
    (0..cycles)
        .flat_map(|i| plan.cycle(i))
        .map(|op| format!("{} {:?} {:?}", op.label, op.class, op.action))
        .collect()
}

#[test]
fn cycles_read_four_body_operations_and_one_tail() {
    let fx = fixture_b();
    for w in ALL {
        let plan = Plan::new(w, &fx.col, SEED);
        for i in 0..40 {
            let ops = plan.cycle(i);
            let count = |c: Class| ops.iter().filter(|op| op.class == c).count();
            assert_eq!(ops.last().map(|op| op.class), Some(Class::Tail));
            assert_eq!(
                (count(Class::Body), count(Class::Tail)),
                (4, 1),
                "{}",
                w.name()
            );
            // Only the mixed workload writes, once a cycle, timed apart.
            let updates = usize::from(w == Workload::IncextMixed);
            assert_eq!(count(Class::Update), updates);
            assert_eq!(ops.len(), 5 + updates);
            assert_eq!(ops[0].class == Class::Update, updates == 1);
        }
    }
}

#[test]
fn the_seed_alone_decides_the_operations() {
    let fx = fixture_b();
    for w in ALL {
        let a = transcript(&Plan::new(w, &fx.col, SEED), 50);
        assert_eq!(
            a,
            transcript(&Plan::new(w, &fx.col, SEED), 50),
            "{}",
            w.name()
        );
        if w != Workload::OnlineBaseline {
            // (online_baseline has no constants to rotate.)
            assert_ne!(
                a,
                transcript(&Plan::new(w, &fx.col, SEED + 1), 50),
                "{}",
                w.name()
            );
        }
    }
    assert_eq!(sequence(fx.graph()), sequence(fx.graph()));
}

#[test]
fn rotated_constants_keep_the_templates_parseable_and_distinct() {
    let fx = fixture_b();
    let plan = Plan::new(Workload::EjoinServed, &fx.col, SEED);
    let n = fx.col.spec.entities;
    let mut q1: Vec<String> = (0..n)
        .map(|i| match &plan.cycle(i)[0].action {
            Action::Query(text) => text.clone(),
            other => panic!("q1 is a query, got {other:?}"),
        })
        .collect();
    q1.sort();
    q1.dedup();
    assert_eq!(q1.len(), n, "q1 walks through every id before repeating");
    for w in ALL {
        let plan = Plan::new(w, &fx.col, SEED);
        for op in (0..3).flat_map(|i| plan.cycle(i)) {
            if let Action::Query(text) = &op.action {
                let rows = fx.engine.run(text, Strategy::Optimized);
                assert!(
                    rows.is_ok(),
                    "{} {}: {:?}\n{text}",
                    w.name(),
                    op.label,
                    rows.err()
                );
            }
        }
    }
}

#[test]
fn a_batch_and_its_inverse_restore_the_graph_and_the_extraction() {
    let mut fx = fixture_b();
    let deltas = sequence(fx.graph());
    assert_eq!(deltas.len(), 2 * crate::workload::DELTA_BATCHES);
    assert!(deltas.iter().all(|b| !b.is_empty()));
    let pristine = edge_list(fx.graph());
    // After the batch the graph differs, after the inverse it does not.
    fx.apply(&deltas[0], &mut Tracer::new(false)).unwrap();
    assert_ne!(edge_list(fx.graph()), pristine);
    fx.apply(&deltas[1], &mut Tracer::new(false)).unwrap();
    assert_eq!(edge_list(fx.graph()), pristine);
    // The same through the benchmark's own check, which also compares D_G
    // with the pristine one and IncExt with extraction from scratch.
    let mut checks = Checks::default();
    let latencies = write_probe(&mut fx, &deltas, 3, true, &mut checks);
    assert_eq!(latencies.len(), 6);
    assert_eq!(checks.failures, Vec::<String>::new());
    assert_eq!(edge_list(fx.graph()), pristine);
}

#[test]
fn another_seed_passes_every_check() {
    let mut fx = fixture_b();
    let seed = SEED + 1;
    let deltas = sequence(fx.graph());
    let mut checks = Checks::default();
    write_probe(&mut fx, &deltas, 2, true, &mut checks);
    for w in ALL {
        let plan = Plan::new(w, &fx.col, seed);
        let mut caller = Caller {
            fx: &mut fx,
            client: None,
            strategy: w.strategy(),
            deltas: &deltas,
        };
        check_queries(&mut caller, &plan, &mut checks);
    }
    assert!(checks.run > 10);
    assert_eq!(checks.failures, Vec::<String>::new());
}

#[test]
fn the_recipe_is_the_servers_recipe() {
    let _fx = fixture_b();
    assert_eq!(RECIPE_DIFFERENCES.get(), Some(&Vec::new()));
}
