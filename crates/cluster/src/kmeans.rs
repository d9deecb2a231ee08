//! Lloyd's algorithm.

use crate::init::kmeanspp_distinct;
use crate::lanes::Distinct;
use gsj_nn::lanes::LaneMatrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// K-means parameters. The paper runs KMC "with limited iterations"
/// (Section III-A), hence the explicit `max_iters`.
#[derive(Debug, Clone)]
pub struct KmeansConfig {
    /// Number of clusters `H`.
    pub k: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence tolerance on relative inertia improvement.
    pub tol: f64,
    /// Seed for k-means++ initialization.
    pub seed: u64,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        KmeansConfig {
            k: 8,
            max_iters: 20,
            tol: 1e-4,
            seed: 0xc1_05_7e,
        }
    }
}

/// The result of a K-means run.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// `assignments[i]` = cluster of point `i`.
    pub assignments: Vec<usize>,
    /// Final centroids (≤ `k`, exactly `k` when enough distinct points).
    pub centroids: Vec<Vec<f32>>,
    /// Final sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Iterations actually run.
    pub iterations: usize,
}

impl Clustering {
    /// Group point indices per cluster.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.centroids.len()];
        for (i, &c) in self.assignments.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }
}

/// Nearest centroid (first strict minimum) and its squared distance, for
/// each of `points`.
fn nearest_centroids(points: &[&[f32]], centroids: &LaneMatrix) -> Vec<(usize, f32)> {
    let mut dists = Vec::new();
    points
        .iter()
        .map(|p| {
            centroids.sq_dists(p, &mut dists);
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, &d) in dists.iter().enumerate() {
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            (best, best_d)
        })
        .collect()
}

/// Run K-means over `points`.
///
/// A function of `points` and `cfg` alone, bit for bit: the inertia —
/// which decides the stopping iteration — is summed in point order.
pub fn kmeans(points: &[Vec<f32>], cfg: &KmeansConfig) -> Clustering {
    let mut span = gsj_obs::span("cluster.kmeans");
    span.field("points", points.len()).field("k", cfg.k);
    if points.is_empty() || cfg.k == 0 {
        return Clustering {
            assignments: Vec::new(),
            centroids: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
    }
    let dim = points[0].len();
    debug_assert!(points.iter().all(|p| p.len() == dim));
    // A point's nearest centroid depends on its coordinates alone, so
    // bit-identical points (paths sharing an end label and a pattern) are
    // assigned once.
    let distinct = Distinct::of(points);
    let reps = &distinct.reps;
    span.field("distinct_points", reps.len());
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut centroids = kmeanspp_distinct(points, &distinct, cfg.k, &mut rng);
    let mut assignments = vec![0usize; points.len()];
    let mut prev_inertia = f64::INFINITY;
    let mut iterations = 0usize;
    let mut inertia = 0.0f64;

    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        // Assignment step (over the distinct points).
        let matrix = LaneMatrix::new(centroids.iter().map(Vec::as_slice), dim);
        let nearest = nearest_centroids(reps, &matrix);
        for (a, &g) in assignments.iter_mut().zip(&distinct.group_of) {
            *a = nearest[g as usize].0;
        }
        inertia = distinct
            .group_of
            .iter()
            .fold(0.0f64, |sum, &g| sum + nearest[g as usize].1 as f64);

        // Update step.
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
            // Empty clusters keep their old centroid; they may re-acquire
            // points in a later iteration.
        }

        if prev_inertia.is_finite() {
            let improvement = (prev_inertia - inertia) / prev_inertia.max(1e-12);
            if improvement >= 0.0 && improvement < cfg.tol {
                break;
            }
        }
        prev_inertia = inertia;
    }

    span.field("iterations", iterations);
    Clustering {
        assignments,
        centroids,
        inertia,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f32>> {
        let mut points = Vec::new();
        for i in 0..30 {
            let jitter = (i % 5) as f32 * 0.01;
            points.push(vec![0.0 + jitter, 0.0]);
            points.push(vec![10.0 + jitter, 10.0]);
            points.push(vec![-10.0 - jitter, 10.0]);
        }
        points
    }

    #[test]
    fn separates_clear_blobs() {
        let points = blobs();
        let c = kmeans(
            &points,
            &KmeansConfig {
                k: 3,
                ..KmeansConfig::default()
            },
        );
        // Points generated in stride-3 order: all of stride class 0 must
        // share a cluster, etc.
        for class in 0..3 {
            let first = c.assignments[class];
            for i in (class..points.len()).step_by(3) {
                assert_eq!(c.assignments[i], first, "point {i}");
            }
        }
        // And the three classes land in three distinct clusters.
        let mut distinct: Vec<usize> = c.assignments[0..3].to_vec();
        distinct.dedup();
        assert_eq!(
            {
                let mut d = c.assignments[0..3].to_vec();
                d.sort();
                d.dedup();
                d.len()
            },
            3
        );
        let _ = distinct;
    }

    #[test]
    fn inertia_is_monotone_nonincreasing_with_iterations() {
        let points = blobs();
        let one = kmeans(
            &points,
            &KmeansConfig {
                k: 3,
                max_iters: 1,
                tol: 0.0,
                ..KmeansConfig::default()
            },
        );
        let many = kmeans(
            &points,
            &KmeansConfig {
                k: 3,
                max_iters: 15,
                tol: 0.0,
                ..KmeansConfig::default()
            },
        );
        assert!(many.inertia <= one.inertia + 1e-9);
    }

    #[test]
    fn respects_iteration_cap() {
        let points = blobs();
        let c = kmeans(
            &points,
            &KmeansConfig {
                k: 3,
                max_iters: 2,
                tol: 0.0,
                ..KmeansConfig::default()
            },
        );
        assert!(c.iterations <= 2);
    }

    #[test]
    fn k_larger_than_points_is_safe() {
        let points = vec![vec![1.0], vec![2.0]];
        let c = kmeans(
            &points,
            &KmeansConfig {
                k: 9,
                ..KmeansConfig::default()
            },
        );
        assert_eq!(c.centroids.len(), 2);
        assert_eq!(c.assignments.len(), 2);
    }

    #[test]
    fn empty_input_yields_empty_clustering() {
        let c = kmeans(&[], &KmeansConfig::default());
        assert!(c.assignments.is_empty() && c.centroids.is_empty());
    }

    #[test]
    fn groups_partition_the_points() {
        let points = blobs();
        let c = kmeans(
            &points,
            &KmeansConfig {
                k: 3,
                ..KmeansConfig::default()
            },
        );
        let groups = c.groups();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, points.len());
    }
}
