//! K-means as it was before the lane kernel: one `sq_dist` per
//! point × centroid, every point assigned on its own. Kept for tests
//! only, as the specification [`crate::kmeans`] must reproduce bit for
//! bit.

use crate::{Clustering, KmeansConfig};
use gsj_nn::vector::sq_dist;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn kmeanspp_reference(points: &[Vec<f32>], k: usize, rng: &mut SmallRng) -> Vec<Vec<f32>> {
    if points.is_empty() || k == 0 {
        return Vec::new();
    }
    let k = k.min(points.len());
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())].clone());
    let mut d2: Vec<f32> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().map(|&d| d as f64).sum();
        let next = if total <= 0.0 {
            rng.random_range(0..points.len())
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(points[next].clone());
        let newest = centroids.last().expect("just pushed");
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(p, newest));
        }
    }
    centroids
}

fn assign_chunk(points: &[Vec<f32>], centroids: &[Vec<f32>], out: &mut [usize]) -> f64 {
    let mut inertia = 0.0f64;
    for (p, slot) in points.iter().zip(out.iter_mut()) {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let d = sq_dist(p, centroid);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        *slot = best;
        inertia += best_d as f64;
    }
    inertia
}

/// The old `kmeans`, one point after another: every point's squared
/// distance to its centroid is added to the inertia in point order.
pub fn kmeans_reference(points: &[Vec<f32>], cfg: &KmeansConfig) -> Clustering {
    if points.is_empty() || cfg.k == 0 {
        return Clustering {
            assignments: Vec::new(),
            centroids: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
    }
    let dim = points[0].len();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut centroids = kmeanspp_reference(points, cfg.k, &mut rng);
    let mut assignments = vec![0usize; points.len()];
    let mut prev_inertia = f64::INFINITY;
    let mut iterations = 0usize;
    let mut inertia = 0.0f64;

    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        inertia = assign_chunk(points, &centroids, &mut assignments);

        let mut sums = vec![vec![0.0f32; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (p, &a) in points.iter().zip(&assignments) {
            gsj_nn::vector::add_assign(&mut sums[a], p);
            counts[a] += 1;
        }
        for (c, (sum, &count)) in sums.iter_mut().zip(&counts).enumerate() {
            if count > 0 {
                gsj_nn::vector::scale(sum, 1.0 / count as f32);
                centroids[c] = sum.clone();
            }
        }

        if prev_inertia.is_finite() {
            let improvement = (prev_inertia - inertia) / prev_inertia.max(1e-12);
            if improvement >= 0.0 && improvement < cfg.tol {
                break;
            }
        }
        prev_inertia = inertia;
    }

    Clustering {
        assignments,
        centroids,
        inertia,
        iterations,
    }
}

mod exactness {
    use super::kmeans_reference;
    use crate::{kmeans, Clustering, KmeansConfig};
    use proptest::prelude::*;

    fn assert_same_bits(new: &Clustering, old: &Clustering) {
        assert_eq!(new.assignments, old.assignments);
        assert_eq!(new.iterations, old.iterations);
        assert_eq!(new.inertia.to_bits(), old.inertia.to_bits());
        assert_eq!(new.centroids.len(), old.centroids.len());
        for (a, b) in new.centroids.iter().zip(&old.centroids) {
            let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Points are drawn *by index* from a small pool, so exact
        /// duplicates are the rule, `k` regularly exceeds the number of
        /// distinct points (k-means++ then repeats a centroid and the
        /// second copy's cluster stays empty).
        #[test]
        fn lane_kmeans_equals_sq_dist_kmeans(
            pool in prop::collection::vec(prop::collection::vec(-3.0f32..3.0, 7), 1..12),
            picks in prop::collection::vec(0usize..12, 1..40),
            dim in 0usize..8,
            k in 1usize..9,
            max_iters in 1usize..8,
            seed in 0u64..1000,
            scale in 0usize..3,
        ) {
            // Mixed magnitudes make a re-associated sum show in the bits.
            let scale = [1.0f32, 1e-3, 1e4][scale];
            let points: Vec<Vec<f32>> = picks
                .iter()
                .map(|&i| {
                    let p = &pool[i % pool.len()];
                    p[..dim].iter().enumerate().map(|(d, x)| if d % 2 == 0 { x * scale } else { *x }).collect()
                })
                .collect();
            let cfg = KmeansConfig { k, max_iters, tol: 1e-4, seed };
            assert_same_bits(&kmeans(&points, &cfg), &kmeans_reference(&points, &cfg));
        }
    }

    #[test]
    fn an_emptied_cluster_keeps_its_centroid_in_both() {
        // Two copies of one point and k = 2: the second centroid equals
        // the first, never wins the strict `<`, and stays empty.
        let points = vec![
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![5.0, 5.0],
            vec![1.0, 2.0],
        ];
        for seed in 0..20 {
            let cfg = KmeansConfig {
                k: 3,
                max_iters: 5,
                tol: 0.0,
                seed,
            };
            let new = kmeans(&points, &cfg);
            assert_same_bits(&new, &kmeans_reference(&points, &cfg));
            assert_eq!(new.centroids.len(), 3);
            let used: std::collections::BTreeSet<usize> = new.assignments.iter().copied().collect();
            assert!(
                used.len() <= 2,
                "three clusters from two distinct points: {used:?}"
            );
        }
    }
}
