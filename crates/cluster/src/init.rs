//! k-means++ centroid seeding.

use crate::lanes::Distinct;
use gsj_nn::lanes::LaneMatrix;
use rand::rngs::SmallRng;
use rand::RngExt;

/// Choose `k` initial centroids with the k-means++ D² weighting:
/// the first uniformly, each next with probability proportional to the
/// squared distance to the nearest already-chosen centroid.
///
/// Returns fewer than `k` centroids only if `points.len() < k`.
pub fn kmeanspp(points: &[Vec<f32>], k: usize, rng: &mut SmallRng) -> Vec<Vec<f32>> {
    kmeanspp_distinct(points, &Distinct::of(points), k, rng)
}

/// [`kmeanspp`] given the grouping of `points` by bit-identity: the D²
/// column is kept per group and refreshed with the lane kernel, while the
/// sampling still walks all points in order, so the draw is the same.
pub(crate) fn kmeanspp_distinct(
    points: &[Vec<f32>],
    distinct: &Distinct<'_>,
    k: usize,
    rng: &mut SmallRng,
) -> Vec<Vec<f32>> {
    if points.is_empty() || k == 0 {
        return Vec::new();
    }
    let k = k.min(points.len());
    // `(p − c)²` and `(c − p)²` are the same float, so the points can be
    // the stored side of the kernel and the newest centroid the probe.
    let reps = LaneMatrix::new(distinct.reps.iter().copied(), points[0].len());
    let d2_of = |d2: &[f32], i: usize| d2[distinct.group_of[i] as usize] as f64;
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())].clone());
    let (mut d2, mut fresh) = (Vec::new(), Vec::new());
    reps.sq_dists(&centroids[0], &mut d2);
    while centroids.len() < k {
        let total: f64 = (0..points.len()).map(|i| d2_of(&d2, i)).sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids; fall back to
            // uniform choice so we still return k centroids.
            rng.random_range(0..points.len())
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = points.len() - 1;
            for i in 0..points.len() {
                target -= d2_of(&d2, i);
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(points[next].clone());
        reps.sq_dists(&points[next], &mut fresh);
        for (d, &f) in d2.iter_mut().zip(&fresh) {
            *d = d.min(f);
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn returns_k_centroids() {
        let points: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32, 0.0]).collect();
        let c = kmeanspp(&points, 4, &mut rng());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn caps_at_point_count() {
        let points = vec![vec![0.0], vec![1.0]];
        assert_eq!(kmeanspp(&points, 10, &mut rng()).len(), 2);
    }

    #[test]
    fn spreads_over_separated_blobs() {
        // Two far-apart blobs: with D² weighting the two centroids all but
        // surely land in different blobs.
        let mut points = Vec::new();
        for i in 0..50 {
            points.push(vec![i as f32 * 0.01, 0.0]);
            points.push(vec![1000.0 + i as f32 * 0.01, 0.0]);
        }
        let c = kmeanspp(&points, 2, &mut rng());
        let near_zero = c.iter().filter(|v| v[0] < 500.0).count();
        assert_eq!(near_zero, 1, "centroids: {c:?}");
    }

    #[test]
    fn degenerate_identical_points() {
        let points = vec![vec![5.0, 5.0]; 8];
        let c = kmeanspp(&points, 3, &mut rng());
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|v| v == &vec![5.0, 5.0]));
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(kmeanspp(&[], 3, &mut rng()).is_empty());
    }
}
