//! Parameter tensors with gradient buffers and an Adam optimizer.
//!
//! The LSTM language model has six parameter tensors (embedding, Wx, Wh,
//! gate bias, output projection + bias). Each is a [`Param`] that owns its
//! gradient and Adam moment buffers. The training kernel fills a weight
//! matrix's gradient once per sentence ([`Param::add_outer_products`]) and
//! applies one update per sentence ([`Param::adam_update`] /
//! [`Param::adam_update_rows`], which clear the gradient).

use crate::lanes::LaneMatrix;
use crate::vector::{add_scaled_terms, dot};

/// A learnable parameter tensor (flat storage; shape is the owner's
/// concern) with its gradient and Adam state.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub w: Vec<f32>,
    /// Gradient accumulator (same layout as `w`).
    pub g: Vec<f32>,
    pub(crate) m: Vec<f32>,
    pub(crate) v: Vec<f32>,
}

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// Gradient-norm clip applied per tensor (0 disables).
    pub clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: 5.0,
        }
    }
}

impl AdamConfig {
    /// The bias corrections `(1 − β₁ᵗ, 1 − β₂ᵗ)` at timestep `t`
    /// (1-based).
    pub(crate) fn bias_corrections(&self, t: usize) -> (f32, f32) {
        let t = t.max(1) as i32;
        (1.0 - self.beta1.powi(t), 1.0 - self.beta2.powi(t))
    }
}

impl Param {
    /// Wrap existing weights.
    pub fn new(w: Vec<f32>) -> Self {
        let n = w.len();
        Param {
            w,
            g: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Number of scalars.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True when the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// `g[r] += Σₜ coefs[t][r] · vec_of(t)` for every row `r` of a
    /// `cols`-wide weight gradient, `t` from the last step to the first:
    /// element by element the adds one outer product per step, last step
    /// first, would make. `coefs` is `steps × rows`, step-major.
    #[inline(always)]
    pub(crate) fn add_outer_products<'a>(
        &mut self,
        cols: usize,
        coefs: &[f32],
        vec_of: impl Fn(usize) -> &'a [f32],
    ) {
        if cols == 0 {
            return;
        }
        let rows = self.g.len() / cols;
        let steps = coefs.len() / rows;
        for (r, row) in self.g.chunks_exact_mut(cols).enumerate() {
            let terms = (0..steps).rev().map(|t| (coefs[t * rows + r], vec_of(t)));
            add_scaled_terms(row, terms);
        }
    }

    /// One Adam update, then clears the gradient. `bias` is
    /// [`AdamConfig::bias_corrections`] at this timestep.
    #[inline(always)]
    pub(crate) fn adam_update(&mut self, cfg: &AdamConfig, bias: (f32, f32)) {
        let clip_scale = clip_scale(cfg, &self.g);
        adam_elements(
            cfg,
            bias,
            clip_scale,
            (&mut self.w, &mut self.g, &mut self.m, &mut self.v),
        );
    }

    /// [`Param::adam_update`] for a weight matrix that is also held
    /// lane-blocked: each updated row is copied into `lanes` while it is
    /// still in cache and the divider, not the load/store ports, is what
    /// the update waits for.
    #[inline(always)]
    pub(crate) fn adam_update_rows(
        &mut self,
        cfg: &AdamConfig,
        bias: (f32, f32),
        lanes: &mut LaneMatrix,
    ) {
        let cols = lanes.dim();
        if cols == 0 {
            return;
        }
        let clip_scale = clip_scale(cfg, &self.g);
        let rows = (self.w.chunks_exact_mut(cols))
            .zip(self.g.chunks_exact_mut(cols))
            .zip(self.m.chunks_exact_mut(cols))
            .zip(self.v.chunks_exact_mut(cols));
        for (r, (((w, g), m), v)) in rows.enumerate() {
            adam_elements(cfg, bias, clip_scale, (&mut *w, g, m, v));
            lanes.set_row(r, w);
        }
    }
}

/// What the per-tensor clip multiplies the gradient `g` by: `clip/‖g‖`
/// when `‖g‖ = √dot(g, g)` exceeds `clip`, else `1.0` (and `g · 1.0` is
/// `g` bit for bit).
///
/// `dot(g, g)` is one add chain as long as the tensor — 52 µs for the
/// serving model's 78 k parameters, every sentence — and all the update
/// needs from it, unless the clip fires, is that it does not. So the same
/// squares are first summed eight chains abreast. Both sums are `n − 1`
/// rounded adds of the same non-negative terms, so each is within
/// `γ = (n−1)u / (1 − (n−1)u)` (`u = 2⁻²⁴`) of the true sum, whatever the
/// order; hence `dot(g, g) ≤ loose · (1+γ)/(1−γ) ≤ loose · (1 + 8nu)`
/// while `nu ≤ ¼`. When even that bound is below `clip²`, `√dot(g, g)`
/// cannot exceed `clip` and the chain need not run; otherwise it does
/// (`loose` being NaN or infinite included), and decides as it always
/// did.
#[inline(always)]
fn clip_scale(cfg: &AdamConfig, g: &[f32]) -> f32 {
    if cfg.clip > 0.0 {
        let mut sums = [0.0f32; 8];
        let mut eights = g.chunks_exact(8);
        for x in &mut eights {
            for j in 0..8 {
                sums[j] += x[j] * x[j];
            }
        }
        for (s, &x) in sums.iter_mut().zip(eights.remainder()) {
            *s += x * x;
        }
        let loose: f32 = sums.iter().sum();
        let slack = 1.0 + 8.0 * g.len() as f32 * (f32::EPSILON / 2.0);
        if slack <= 3.0 && loose * slack < cfg.clip * cfg.clip {
            return 1.0;
        }
        let norm = dot(g, g).sqrt();
        if norm > cfg.clip {
            return cfg.clip / norm;
        }
    }
    1.0
}

/// The Adam update of `(w, g, m, v)`, element by element.
#[inline(always)]
fn adam_elements(
    cfg: &AdamConfig,
    (bc1, bc2): (f32, f32),
    clip_scale: f32,
    (w, g, m, v): (&mut [f32], &mut [f32], &mut [f32], &mut [f32]),
) {
    for (((w, g), m), v) in w.iter_mut().zip(g).zip(m).zip(v) {
        let grad = *g * clip_scale;
        *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * grad;
        *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * grad * grad;
        let mhat = *m / bc1;
        let vhat = *v / bc2;
        *w -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
        *g = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(p: &mut Param, cfg: &AdamConfig, t: usize) {
        p.adam_update(cfg, cfg.bias_corrections(t));
    }

    /// Adam on f(w) = w² should converge to 0.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut p = Param::new(vec![5.0]);
        let cfg = AdamConfig {
            lr: 0.1,
            ..AdamConfig::default()
        };
        for t in 1..=500 {
            p.g[0] = 2.0 * p.w[0];
            step(&mut p, &cfg, t);
        }
        assert!(p.w[0].abs() < 0.05, "w = {}", p.w[0]);
    }

    #[test]
    fn step_clears_gradient() {
        let mut p = Param::new(vec![1.0, 2.0]);
        p.g = vec![0.5, -0.5];
        step(&mut p, &AdamConfig::default(), 1);
        assert_eq!(p.g, vec![0.0, 0.0]);
    }

    #[test]
    fn clipping_bounds_the_update() {
        let mut p = Param::new(vec![0.0]);
        p.g = vec![1e6];
        let cfg = AdamConfig {
            lr: 0.1,
            clip: 1.0,
            ..AdamConfig::default()
        };
        step(&mut p, &cfg, 1);
        // With clip the effective gradient is 1.0 → first-step Adam update
        // is ≈ lr (bias-corrected), never the unclipped magnitude.
        assert!(p.w[0].abs() < 0.2, "w = {}", p.w[0]);
    }
}
