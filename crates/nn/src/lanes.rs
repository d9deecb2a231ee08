//! One probe vector against many stored vectors at once: the mat-vecs of
//! the LSTM forward pass and the distance kernel of K-means.
//!
//! `dot(a, b)` and `sq_dist(a, b)` are one `f32` add chain as long as the
//! dimension; the next add cannot start before the previous one finished,
//! so a row loop built on them runs at the latency of an add, not at the
//! throughput of the machine. [`LaneMatrix`] stores the "many" side
//! dimension-major, so each lane of a block accumulates *its own*
//! vector's chain — `acc[l] += m[l][d] · x[d]` for `d = 0, 1, …` — and
//! the lanes of one dimension are independent. Per lane that is the same
//! values added in the same order as the scalar function, with a separate
//! multiply and add (Rust never contracts them to an FMA), so every
//! result has the bits the scalar function gives it; only the
//! interleaving across lanes changed.

/// Accumulator lanes per block: enough independent add chains to cover
/// the add latency on the 4- and 8-wide vector units we run on.
const LANES: usize = 16;

/// What an empty `f32` `.sum()` returns, hence the value every `dot` and
/// `sq_dist` add chain starts from; the lanes start from it too, so even
/// the sign of an empty sum agrees.
fn empty_sum() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// A set of equal-length vectors laid out for [`LaneMatrix::dots`] and
/// [`LaneMatrix::sq_dists`]: blocks of `LANES` vectors, each block
/// dimension-major.
#[derive(Debug, Clone)]
pub struct LaneMatrix {
    rows: usize,
    dim: usize,
    /// `data[(block * dim + d) * LANES + lane]` is coordinate `d` of
    /// vector `block * LANES + lane`; lanes past `rows` hold zeros.
    data: Vec<f32>,
}

impl LaneMatrix {
    /// Lay out `vectors`, each `dim` long.
    pub fn new<'a>(vectors: impl ExactSizeIterator<Item = &'a [f32]>, dim: usize) -> Self {
        let rows = vectors.len();
        let mut m = LaneMatrix {
            rows,
            dim,
            data: vec![0.0f32; rows.div_ceil(LANES) * dim * LANES],
        };
        for (r, v) in vectors.enumerate() {
            m.set_row(r, v);
        }
        m
    }

    /// Lay out a row-major `rows × dim` matrix.
    pub fn from_row_major(w: &[f32], rows: usize, dim: usize) -> Self {
        assert_eq!(w.len(), rows * dim, "lane matrix shape mismatch");
        Self::new((0..rows).map(|r| &w[r * dim..(r + 1) * dim]), dim)
    }

    /// Length of each stored vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Overwrite stored vector `r` (training re-lays each weight row as
    /// the optimizer finishes it).
    #[inline(always)]
    pub fn set_row(&mut self, r: usize, v: &[f32]) {
        assert!(r < self.rows && v.len() == self.dim, "lane matrix shape");
        let base = (r / LANES) * self.dim * LANES + r % LANES;
        let slots = self.data.iter_mut().skip(base).step_by(LANES);
        for (slot, &x) in slots.zip(v) {
            *slot = x;
        }
    }

    /// `out[r] = dot(vector r, x)` for every stored vector, bit for bit.
    #[inline(always)]
    pub fn dots(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.dim, "probe length");
        assert_eq!(out.len(), self.rows, "one output per stored vector");
        let zero = empty_sum();
        if self.dim == 0 {
            out.fill(zero);
            return;
        }
        let stride = self.dim * LANES;
        for (block, out) in self.data.chunks_exact(stride).zip(out.chunks_mut(LANES)) {
            let mut acc = [zero; LANES];
            for (&xd, lanes) in x.iter().zip(block.chunks_exact(LANES)) {
                for (a, &m) in acc.iter_mut().zip(lanes) {
                    *a += m * xd;
                }
            }
            out.copy_from_slice(&acc[..out.len()]);
        }
    }

    /// `out[r] = sq_dist(x, vector r)` for every stored vector, bit for
    /// bit.
    pub fn sq_dists(&self, x: &[f32], out: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.dim);
        let zero = empty_sum();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{dot, sq_dist};

    /// Awkward magnitudes on purpose: any re-association would show.
    fn awkward(rows: usize, dim: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let vectors = (0..rows)
            .map(|r| {
                (0..dim)
                    .map(|d| ((r * 31 + d * 17) % 101) as f32 * 1e-3 + (d % 3) as f32 * 1e4)
                    .collect()
            })
            .collect();
        let x = (0..dim).map(|d| (d as f32).sin() * 1e2).collect();
        (vectors, x)
    }

    #[test]
    fn lane_distances_have_sq_dist_bits() {
        let (vectors, x) = awkward(37, 29);
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
        let mut dots = [1.0f32; 2];
        m.dots(&[], &mut dots);
        assert_eq!(dots[0].to_bits(), dot(&[], &[]).to_bits());
        assert_eq!(dots[1].to_bits(), dot(&[], &[]).to_bits());
    }

    /// Every row count around the one- and two-block boundaries: a full
    /// pair, a lone last block, a partly filled one.
    #[test]
    fn lane_dots_have_dot_bits() {
        for rows in [1, 15, 16, 17, 31, 32, 33, 37, 48, 50] {
            let (vectors, x) = awkward(rows, 29);
            let flat: Vec<f32> = vectors.iter().flatten().copied().collect();
            let mut m = LaneMatrix::from_row_major(&vec![0.0; flat.len()], rows, 29);
            for (r, v) in vectors.iter().enumerate() {
                m.set_row(r, v);
            }
            let mut out = vec![0.0; rows];
            m.dots(&x, &mut out);
            for (v, d) in vectors.iter().zip(&out) {
                assert_eq!(d.to_bits(), dot(v, &x).to_bits(), "{rows} rows");
            }
        }
    }
}
