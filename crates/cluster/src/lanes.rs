//! The distance kernel of K-means: squared distances from one vector to
//! many at once, and the grouping of bit-identical points.
//!
//! `sq_dist(a, b)` is one `f32` add chain as long as the dimension; the
//! next add cannot start before the previous one finished, so a
//! point × centroid loop built on it runs at the latency of an add, not
//! at the throughput of the machine. [`LaneMatrix`] stores the "many"
//! side dimension-major, so each lane of a block accumulates *its own*
//! vector's chain — `acc[l] += (x[d] − m[l][d])²` for `d = 0, 1, …` — and
//! the lanes of one dimension are independent. Per lane that is the same
//! values added in the same order as `sq_dist`, with a separate multiply
//! and add (Rust never contracts them to an FMA), so every distance has
//! the bits `sq_dist` gives it; only the interleaving across lanes
//! changed.

use gsj_common::first_occurrences;
use std::hash::{Hash, Hasher};

/// Accumulator lanes per block: enough independent add chains to cover
/// the add latency on the 4- and 8-wide vector units we run on.
const LANES: usize = 16;

/// A set of equal-length vectors laid out for [`LaneMatrix::sq_dists`]:
/// blocks of `LANES` vectors, each block dimension-major.
pub(crate) struct LaneMatrix {
    rows: usize,
    dim: usize,
    /// `data[(block * dim + d) * LANES + lane]` is coordinate `d` of
    /// vector `block * LANES + lane`; lanes past `rows` hold zeros.
    data: Vec<f32>,
}

impl LaneMatrix {
    pub(crate) fn new<'a>(vectors: impl ExactSizeIterator<Item = &'a [f32]>, dim: usize) -> Self {
        let rows = vectors.len();
        let mut data = vec![0.0f32; rows.div_ceil(LANES) * dim * LANES];
        for (r, v) in vectors.enumerate() {
            let base = (r / LANES) * dim * LANES + r % LANES;
            for (d, &x) in v.iter().enumerate() {
                data[base + d * LANES] = x;
            }
        }
        LaneMatrix { rows, dim, data }
    }

    /// `out[r] = sq_dist(x, vector r)` for every stored vector, bit for
    /// bit.
    pub(crate) fn sq_dists(&self, x: &[f32], out: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.dim);
        // What `sq_dist`'s `.sum()` starts from.
        let zero: f32 = std::iter::empty::<f32>().sum();
        out.clear();
        if self.dim == 0 {
            out.resize(self.rows, zero);
            return;
        }
        for block in self.data.chunks_exact(self.dim * LANES) {
            let mut acc = [zero; LANES];
            for (&xd, lanes) in x.iter().zip(block.chunks_exact(LANES)) {
                for (a, &m) in acc.iter_mut().zip(lanes) {
                    let diff = xd - m;
                    *a += diff * diff;
                }
            }
            out.extend_from_slice(&acc);
        }
        out.truncate(self.rows);
    }
}

/// A point compared and hashed by the bits of its coordinates.
#[derive(Clone, Copy)]
struct Bits<'a>(&'a [f32]);

impl Hash for Bits<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut pairs = self.0.chunks_exact(2);
        for p in &mut pairs {
            state.write_u64((p[0].to_bits() as u64) << 32 | p[1].to_bits() as u64);
        }
        if let [last] = pairs.remainder() {
            state.write_u32(last.to_bits());
        }
    }
}

impl PartialEq for Bits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for Bits<'_> {}

/// The points grouped by bit-identity. Everything K-means computes *per
/// point* from the point's coordinates alone — its distances, hence its
/// nearest centroid — is computed once per group.
pub(crate) struct Distinct<'a> {
    /// One point of each group, in order of first appearance.
    pub(crate) reps: Vec<&'a [f32]>,
    /// Point index → its group's position in `reps`.
    pub(crate) group_of: Vec<u32>,
}

impl<'a> Distinct<'a> {
    pub(crate) fn of(points: &'a [Vec<f32>]) -> Self {
        let (reps, group_of) = first_occurrences(points.iter().map(|p| Bits(p)));
        Distinct {
            reps: reps.into_iter().map(|bits| bits.0).collect(),
            group_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_nn::vector::sq_dist;

    #[test]
    fn lane_distances_have_sq_dist_bits() {
        // Awkward magnitudes on purpose: any re-association would show.
        let vectors: Vec<Vec<f32>> = (0..37)
            .map(|r| {
                (0..29)
                    .map(|d| ((r * 31 + d * 17) % 101) as f32 * 1e-3 + (d % 3) as f32 * 1e4)
                    .collect()
            })
            .collect();
        let x: Vec<f32> = (0..29).map(|d| (d as f32).sin() * 1e2).collect();
        let m = LaneMatrix::new(vectors.iter().map(Vec::as_slice), 29);
        let mut out = Vec::new();
        m.sq_dists(&x, &mut out);
        assert_eq!(out.len(), 37);
        for (v, d) in vectors.iter().zip(&out) {
            assert_eq!(d.to_bits(), sq_dist(&x, v).to_bits());
        }
    }

    #[test]
    fn zero_dimensions_give_the_empty_sum() {
        let vectors = [vec![], vec![]];
        let m = LaneMatrix::new(vectors.iter().map(Vec::as_slice), 0);
        let mut out = Vec::new();
        m.sq_dists(&[], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to_bits(), sq_dist(&[], &[]).to_bits());
    }

    #[test]
    fn groups_are_by_bits_in_order_of_appearance() {
        let points = vec![
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![1.0, 0.0],
            vec![1.0, -0.0], // equal as numbers, distinct as bits
            vec![2.0, 0.0],
        ];
        let d = Distinct::of(&points);
        assert_eq!(d.reps.len(), 3);
        assert!(std::ptr::eq(d.reps[2], &points[3][..]));
        assert_eq!(d.group_of, [0, 1, 0, 2, 1]);
    }
}
