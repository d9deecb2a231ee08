//! Parameter tensors with gradient buffers and an Adam optimizer.
//!
//! The LSTM language model has five parameter tensors (embedding, Wx, Wh,
//! gate bias, output projection + bias). Each is a [`Param`] that owns its
//! gradient and Adam moment buffers; [`Param::adam_step`] applies one
//! update and zeroes the gradient.

/// A learnable parameter tensor (flat storage; shape is the owner's
/// concern) with its gradient and Adam state.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub w: Vec<f32>,
    /// Gradient accumulator (same layout as `w`).
    pub g: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
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

    /// Zero the gradient buffer.
    pub fn zero_grad(&mut self) {
        self.g.iter_mut().for_each(|x| *x = 0.0);
    }

    /// One Adam update with bias correction at timestep `t` (1-based),
    /// then clears the gradient.
    pub fn adam_step(&mut self, cfg: &AdamConfig, t: usize) {
        if cfg.clip > 0.0 {
            let norm = crate::vector::l2_norm(&self.g);
            if norm > cfg.clip {
                crate::vector::scale(&mut self.g, cfg.clip / norm);
            }
        }
        let t = t.max(1) as i32;
        let bc1 = 1.0 - cfg.beta1.powi(t);
        let bc2 = 1.0 - cfg.beta2.powi(t);
        for i in 0..self.w.len() {
            let g = self.g[i];
            self.m[i] = cfg.beta1 * self.m[i] + (1.0 - cfg.beta1) * g;
            self.v[i] = cfg.beta2 * self.v[i] + (1.0 - cfg.beta2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            self.w[i] -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
        }
        self.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            p.adam_step(&cfg, t);
        }
        assert!(p.w[0].abs() < 0.05, "w = {}", p.w[0]);
    }

    #[test]
    fn step_clears_gradient() {
        let mut p = Param::new(vec![1.0, 2.0]);
        p.g = vec![0.5, -0.5];
        p.adam_step(&AdamConfig::default(), 1);
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
        p.adam_step(&cfg, 1);
        // With clip the effective gradient is 1.0 → first-step Adam update
        // is ≈ lr (bias-corrected), never the unclipped magnitude.
        assert!(p.w[0].abs() < 0.2, "w = {}", p.w[0]);
    }
}
