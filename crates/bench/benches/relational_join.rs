//! Criterion microbench: the relational engine's hash joins — the
//! operators the optimized semantic-join rewrite reduces to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gsj_common::{QueryGovernor, Value};
use gsj_relational::exec::natural_join;
use gsj_relational::{Relation, Schema};

fn table(name: &str, rows: usize, key_mod: usize) -> Relation {
    let mut r = Relation::empty(Schema::of(name, &["k", name]));
    for i in 0..rows {
        r.push_values(vec![
            Value::Int((i % key_mod) as i64),
            Value::str(format!("{name}-{i}")),
        ])
        .unwrap();
    }
    r
}

fn bench_join(c: &mut Criterion) {
    let gov = QueryGovernor::unlimited();
    let mut group = c.benchmark_group("natural_join");
    for &n in &[1_000usize, 10_000, 100_000] {
        let l = table("l", n, n / 2);
        let r = table("r", n, n / 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &(l, r), |b, (l, r)| {
            b.iter(|| std::hint::black_box(natural_join(l, r, &gov).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_join);
criterion_main!(benches);
