//! The grouping of bit-identical points: what K-means hands the distance
//! kernel ([`gsj_nn::lanes::LaneMatrix`], one probe against many stored
//! vectors with `sq_dist`'s bits) instead of every point.

use gsj_common::first_occurrences;
use std::hash::{Hash, Hasher};

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
