//! Dense `f32` vector primitives.
//!
//! Everything in RExt that touches similarity — the ranking function's
//! cosine terms, K-means distances, value selection in Algorithm 1 — funnels
//! through these few functions, so they are written to auto-vectorize
//! (slice iteration, no bounds-checked indexing in the hot loops).

/// Dot product. Panics if lengths differ (debug builds); in release the
/// zip simply truncates, so callers must pass equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity in `[-1, 1]`; zero vectors yield 0.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let (na, nb) = (l2_norm(a), l2_norm(b));
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Squared Euclidean distance (K-means' objective avoids the sqrt).
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// `a += b`.
#[inline]
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// `a += s * b` (axpy).
#[inline]
pub fn add_scaled(a: &mut [f32], s: f32, b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += s * y;
    }
}

/// `a += Σₖ sₖ · bₖ`, term by term in iteration order: element by element
/// the adds one [`add_scaled`] call per term would make, but a stretch of
/// `a` is loaded once, takes every term in registers, and is stored once,
/// instead of making the round trip through memory per term. Stretches
/// are 32 wide (four 8-wide or eight 4-wide accumulators), then as wide
/// as what is left allows.
#[inline(always)]
pub fn add_scaled_terms<'a>(a: &mut [f32], terms: impl Iterator<Item = (f32, &'a [f32])> + Clone) {
    let done = add_scaled_terms_by::<32>(a, 0, &terms);
    let done = add_scaled_terms_by::<8>(a, done, &terms);
    let done = add_scaled_terms_by::<4>(a, done, &terms);
    add_scaled_terms_by::<1>(a, done, &terms);
}

/// [`add_scaled_terms`] over the whole `W`-wide stretches of `a[from..]`;
/// returns where they end.
#[inline(always)]
fn add_scaled_terms_by<'a, const W: usize>(
    a: &mut [f32],
    mut from: usize,
    terms: &(impl Iterator<Item = (f32, &'a [f32])> + Clone),
) -> usize {
    for stretch in a[from..].chunks_exact_mut(W) {
        let mut acc: [f32; W] = (&*stretch).try_into().expect("a whole stretch");
        for (s, b) in terms.clone() {
            let b: &[f32; W] = b[from..from + W].try_into().expect("a whole stretch");
            for j in 0..W {
                acc[j] += s * b[j];
            }
        }
        stretch.copy_from_slice(&acc);
        from += W;
    }
    from
}

/// `a *= s`.
#[inline]
pub fn scale(a: &mut [f32], s: f32) {
    for x in a {
        *x *= s;
    }
}

/// Normalize `a` to unit L2 norm in place; leaves zero vectors untouched.
///
/// The paper performs "L2 normalization before vector concatenation" so
/// neither half of the 200-dim vertex-path feature dominates clustering.
#[inline]
pub fn l2_normalize(a: &mut [f32]) {
    let n = l2_norm(a);
    if n > 0.0 {
        scale(a, 1.0 / n);
    }
}

/// Numerically-stable softmax in place.
#[inline]
pub fn softmax(a: &mut [f32]) {
    if a.is_empty() {
        return;
    }
    let max = a.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in a.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        scale(a, 1.0 / sum);
    }
}

/// Concatenate two vectors.
pub fn concat(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norm_basics() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_bounds_and_degenerates() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut a = vec![1.0, 2.0, 3.0];
        softmax(&mut a);
        let sum: f32 = a.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(a[2] > a[1] && a[1] > a[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut a = vec![1000.0, 1000.0];
        softmax(&mut a);
        assert!((a[0] - 0.5).abs() < 1e-5);
        assert!(a.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut a = vec![3.0, 4.0];
        l2_normalize(&mut a);
        assert!((l2_norm(&a) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        l2_normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn axpy_and_concat() {
        let mut a = vec![1.0, 1.0];
        add_scaled(&mut a, 2.0, &[1.0, 2.0]);
        assert_eq!(a, vec![3.0, 5.0]);
        assert_eq!(concat(&[1.0], &[2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    proptest! {
        #[test]
        fn cosine_is_symmetric(
            a in prop::collection::vec(-10.0f32..10.0, 4),
            b in prop::collection::vec(-10.0f32..10.0, 4),
        ) {
            prop_assert!((cosine(&a, &b) - cosine(&b, &a)).abs() < 1e-5);
        }

        #[test]
        fn cosine_is_scale_invariant(
            a in prop::collection::vec(0.1f32..10.0, 4),
            s in 0.1f32..5.0,
        ) {
            let scaled: Vec<f32> = a.iter().map(|x| x * s).collect();
            prop_assert!((cosine(&a, &scaled) - 1.0).abs() < 1e-4);
        }

        #[test]
        fn sq_dist_zero_iff_equal(a in prop::collection::vec(-5.0f32..5.0, 3)) {
            prop_assert!(sq_dist(&a, &a) < 1e-10);
        }
    }
}
