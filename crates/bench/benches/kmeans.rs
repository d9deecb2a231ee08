//! Criterion microbench: K-means clustering (the KMC step of pattern
//! discovery).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gsj_cluster::{kmeans, KmeansConfig};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn points(n: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(7);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect()
}

/// The shape pattern discovery calls K-means with (Celebrity, Scale 40,
/// one category selected): ≈ 700 vertex-path vectors of 256 + 100
/// dimensions, 12 clusters, and — paths sharing an end label and a
/// pattern embed identically — only ≈ 45 % of the vectors distinct.
fn discovery_shape() -> Vec<Vec<f32>> {
    let distinct = points(317, 356);
    let mut rng = SmallRng::seed_from_u64(8);
    (0..701)
        .map(|i| match distinct.get(i) {
            Some(p) => p.clone(),
            None => distinct[rng.random_range(0..distinct.len())].clone(),
        })
        .collect()
}

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans");
    group.bench_with_input(
        BenchmarkId::new("discovery_h12", 701),
        &discovery_shape(),
        |b, d| {
            let cfg = KmeansConfig {
                k: 12,
                ..KmeansConfig::default()
            };
            b.iter(|| kmeans(d, &cfg))
        },
    );
    for &n in &[500usize, 2000] {
        let data = points(n, 200);
        let cfg = KmeansConfig {
            k: 30,
            max_iters: 10,
            ..KmeansConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("h30", n), &data, |b, d| {
            b.iter(|| kmeans(d, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kmeans);
criterion_main!(benches);
