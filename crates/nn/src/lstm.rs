//! A single-layer LSTM cell: one forward step function, shared by
//! inference and training, and the backward pieces of the training kernel.
//!
//! The paper adopts LSTM for `Mρ` because it is "effective and efficient in
//! modeling the semantics of labels on paths in knowledge graphs" while
//! BERT-class models cost more for little gain (Section III). This is a
//! textbook LSTM: gates `i, f, g, o` packed in that order into one `4h`
//! pre-activation vector.
//!
//! The weights are held twice: row-major in the [`Param`]s, which the
//! backward pass and the optimizer walk row by row, and lane-blocked
//! ([`LaneMatrix`]) for the two forward mat-vecs. [`LstmCell::adam_update`]
//! is the only place the weights change, and it re-lays the lane copy.

use crate::lanes::LaneMatrix;
use crate::tensor::{AdamConfig, Param};
use crate::vector::{add_assign, add_scaled_terms};

/// `out += Wᵀ · y` for a flat row-major weight slice `cols` wide: each
/// `out[j]` takes its terms in row order.
#[inline(always)]
pub(crate) fn matvec_t_add(w: &[f32], cols: usize, y: &[f32], out: &mut [f32]) {
    debug_assert_eq!(w.len(), y.len() * cols);
    debug_assert_eq!(out.len(), cols);
    if cols > 0 {
        add_scaled_terms(out, y.iter().copied().zip(w.chunks_exact(cols)));
    }
}

#[inline(always)]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The LSTM parameters: `Wx (4h × in)`, `Wh (4h × h)`, bias `b (4h)`.
#[derive(Debug, Clone)]
pub struct LstmCell {
    input_dim: usize,
    hidden: usize,
    /// Input weights.
    pub(crate) wx: Param,
    /// Recurrent weights.
    pub(crate) wh: Param,
    /// Gate bias. The forget-gate quarter is initialized to 1.0 (the
    /// standard trick to keep memory open early in training).
    pub(crate) b: Param,
    /// `wx.w` / `wh.w` as the forward mat-vecs read them.
    wx_lanes: LaneMatrix,
    wh_lanes: LaneMatrix,
}

/// The recurrent state of one sequence, with the scratch a step needs.
#[derive(Debug, Clone)]
pub(crate) struct LstmState {
    /// Hidden output of the last step (zeros before the first).
    pub(crate) h: Vec<f32>,
    c: Vec<f32>,
    rec: Vec<f32>,
    act: Vec<f32>,
}

impl LstmCell {
    /// Create a cell with Xavier-initialized weights (deterministic per
    /// seed).
    pub fn new(input_dim: usize, hidden: usize, seed: u64) -> Self {
        use crate::matrix::Matrix;
        let wx = Matrix::xavier(4 * hidden, input_dim, seed ^ 0xa1).into_data();
        let wh = Matrix::xavier(4 * hidden, hidden, seed ^ 0xb2).into_data();
        let mut b = vec![0.0f32; 4 * hidden];
        // Forget gate bias = 1.
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        LstmCell {
            input_dim,
            hidden,
            wx_lanes: LaneMatrix::from_row_major(&wx, 4 * hidden, input_dim),
            wh_lanes: LaneMatrix::from_row_major(&wh, 4 * hidden, hidden),
            wx: Param::new(wx),
            wh: Param::new(wh),
            b: Param::new(b),
        }
    }

    /// Hidden size `h`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input size.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The all-zero state a sequence starts from.
    pub(crate) fn zero_state(&self) -> LstmState {
        LstmState {
            h: vec![0.0; self.hidden],
            c: vec![0.0; self.hidden],
            rec: vec![0.0; 4 * self.hidden],
            act: vec![0.0; 5 * self.hidden],
        }
    }

    /// Advance `state` by one input.
    pub(crate) fn advance(&self, state: &mut LstmState, x: &[f32]) {
        let LstmState { h, c, rec, act } = state;
        self.step(x, h, c, rec, act);
    }

    /// One forward step, in place: `h` and `c` hold the previous step's
    /// outputs on entry and this step's on return. `rec` (`4h`) is
    /// scratch; `act` (`5h`) receives what the backward pass needs, the
    /// post-activation gates `[i | f | g | o]` followed by `tanh(c)`.
    #[inline(always)]
    pub(crate) fn step(
        &self,
        x: &[f32],
        h: &mut [f32],
        c: &mut [f32],
        rec: &mut [f32],
        act: &mut [f32],
    ) {
        let hid = self.hidden;
        let (gates, tanh_c) = act.split_at_mut(4 * hid);
        self.wx_lanes.dots(x, gates);
        self.wh_lanes.dots(h, rec);
        for ((g, &r), &b) in gates.iter_mut().zip(rec.iter()).zip(&self.b.w) {
            *g = *g + r + b;
        }
        let (i_g, rest) = gates.split_at_mut(hid);
        let (f_g, rest) = rest.split_at_mut(hid);
        let (g_g, o_g) = rest.split_at_mut(hid);
        for j in 0..hid {
            i_g[j] = sigmoid(i_g[j]);
            f_g[j] = sigmoid(f_g[j]);
            g_g[j] = g_g[j].tanh();
            o_g[j] = sigmoid(o_g[j]);
        }
        for j in 0..hid {
            c[j] = f_g[j] * c[j] + i_g[j] * g_g[j];
            tanh_c[j] = c[j].tanh();
            h[j] = o_g[j] * tanh_c[j];
        }
    }

    /// One backward step, given the step's `act` (as [`LstmCell::step`]
    /// left it), the cell state `c_prev` it started from and the gradient
    /// `dh` w.r.t. its hidden output. `dc` carries the cell-state
    /// gradient: w.r.t. this step's `c` on entry, w.r.t. `c_prev` on
    /// return. Writes the pre-activation gate gradients to `dgates`, the
    /// input gradient to `dx` and — unless this is the first step of the
    /// sequence, which has nothing before it — the gradient w.r.t. the
    /// previous hidden output to `dh_prev`; adds `dgates` to the bias
    /// gradient. The weight gradients wait for
    /// [`LstmCell::add_weight_grads`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn backward_step(
        &mut self,
        act: &[f32],
        c_prev: &[f32],
        dh: &[f32],
        dc: &mut [f32],
        dgates: &mut [f32],
        dx: &mut [f32],
        dh_prev: Option<&mut [f32]>,
    ) {
        let h = self.hidden;
        let tanh_c = &act[4 * h..];
        for j in 0..h {
            let (i_g, f_g, g_g, o_g) = (act[j], act[h + j], act[2 * h + j], act[3 * h + j]);
            let do_ = dh[j] * tanh_c[j];
            let dc_j = dc[j] + dh[j] * o_g * (1.0 - tanh_c[j] * tanh_c[j]);
            let di = dc_j * g_g;
            let dg = dc_j * i_g;
            let df = dc_j * c_prev[j];
            dc[j] = dc_j * f_g;
            dgates[j] = di * i_g * (1.0 - i_g);
            dgates[h + j] = df * f_g * (1.0 - f_g);
            dgates[2 * h + j] = dg * (1.0 - g_g * g_g);
            dgates[3 * h + j] = do_ * o_g * (1.0 - o_g);
        }
        add_assign(&mut self.b.g, dgates);
        dx.fill(0.0);
        matvec_t_add(&self.wx.w, self.input_dim, dgates, dx);
        if let Some(dh_prev) = dh_prev {
            dh_prev.fill(0.0);
            matvec_t_add(&self.wh.w, h, dgates, dh_prev);
        }
    }

    /// The weight gradients of a whole sequence: `dgates` is what
    /// [`LstmCell::backward_step`] wrote for steps `0..T` (step-major),
    /// `x_of(t)` / `h_prev_of(t)` the input and previous hidden output of
    /// step `t`.
    #[inline(always)]
    pub(crate) fn add_weight_grads<'a>(
        &mut self,
        dgates: &[f32],
        x_of: impl Fn(usize) -> &'a [f32],
        h_prev_of: impl Fn(usize) -> &'a [f32],
    ) {
        self.wx.add_outer_products(self.input_dim, dgates, x_of);
        self.wh.add_outer_products(self.hidden, dgates, h_prev_of);
    }

    /// One Adam update of the three tensors.
    #[inline(always)]
    pub(crate) fn adam_update(&mut self, cfg: &AdamConfig, bias: (f32, f32)) {
        self.wx.adam_update_rows(cfg, bias, &mut self.wx_lanes);
        self.wh.adam_update_rows(cfg, bias, &mut self.wh_lanes);
        self.b.adam_update(cfg, bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step from `(h0, c0)`: the state after it.
    fn step_from(cell: &LstmCell, x: &[f32], h0: &[f32], c0: &[f32]) -> LstmState {
        let mut state = cell.zero_state();
        state.h.copy_from_slice(h0);
        state.c.copy_from_slice(c0);
        cell.advance(&mut state, x);
        state
    }

    /// The backward step for `L = Σ h` after one step from `(h0, c0)`:
    /// `(dgates, dx)`.
    fn backward_of_sum(
        cell: &mut LstmCell,
        x: &[f32],
        h0: &[f32],
        c0: &[f32],
    ) -> (Vec<f32>, Vec<f32>) {
        let state = step_from(cell, x, h0, c0);
        let hid = cell.hidden();
        let (mut dgates, mut dx) = (vec![0.0; 4 * hid], vec![0.0; x.len()]);
        let (mut dc, mut dh_prev) = (vec![0.0; hid], vec![0.0; hid]);
        cell.backward_step(
            &state.act,
            c0,
            &vec![1.0; hid],
            &mut dc,
            &mut dgates,
            &mut dx,
            Some(&mut dh_prev),
        );
        (dgates, dx)
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let cell = LstmCell::new(3, 4, 1);
        let state = step_from(&cell, &[0.5, -0.5, 1.0], &[0.0; 4], &[0.0; 4]);
        assert_eq!(state.h.len(), 4);
        // h = o * tanh(c) is in (-1, 1).
        assert!(state.h.iter().all(|x| x.abs() < 1.0));
    }

    #[test]
    fn zero_input_zero_state_gives_small_output() {
        let cell = LstmCell::new(2, 3, 2);
        let state = step_from(&cell, &[0.0, 0.0], &[0.0; 3], &[0.0; 3]);
        assert!(state.h.iter().all(|x| x.abs() < 0.5));
    }

    /// Numerical gradient check: the analytic dx must match finite
    /// differences of a scalar loss L = Σ h.
    #[test]
    fn gradient_check_input() {
        let mut cell = LstmCell::new(3, 2, 3);
        let x = vec![0.3, -0.2, 0.7];
        let h0 = vec![0.1, -0.1];
        let c0 = vec![0.05, 0.2];
        let loss =
            |cell: &LstmCell, x: &[f32]| -> f32 { step_from(cell, x, &h0, &c0).h.iter().sum() };
        let (_, dx) = backward_of_sum(&mut cell, &x, &h0, &c0);
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&cell, &xp) - loss(&cell, &xm)) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() < 1e-2,
                "dx[{i}]: analytic {} vs numeric {num}",
                dx[i]
            );
        }
    }

    /// Numerical gradient check on the recurrent weights.
    #[test]
    fn gradient_check_weights() {
        let mut cell = LstmCell::new(2, 2, 4);
        let x = vec![0.5, -0.3];
        let h0 = vec![0.2, 0.1];
        let c0 = vec![-0.1, 0.3];
        let (dgates, _) = backward_of_sum(&mut cell, &x, &h0, &c0);
        cell.add_weight_grads(&dgates, |_| &x, |_| &h0);
        let analytic = cell.wh.g.clone();
        let eps = 1e-3;
        for idx in [0usize, 3, 5, 7] {
            let orig = cell.wh.w[idx];
            let mut loss_at = |w: f32| -> f32 {
                cell.wh.w[idx] = w;
                let row = idx / cell.hidden;
                cell.wh_lanes
                    .set_row(row, &cell.wh.w[row * cell.hidden..][..cell.hidden]);
                step_from(&cell, &x, &h0, &c0).h.iter().sum()
            };
            let lp = loss_at(orig + eps);
            let lm = loss_at(orig - eps);
            loss_at(orig);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic[idx]).abs() < 1e-2,
                "wh[{idx}]: analytic {} vs numeric {num}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn forget_bias_defaults_to_one() {
        let cell = LstmCell::new(2, 3, 5);
        assert!(cell.b.w[3..6].iter().all(|&v| v == 1.0));
        assert!(cell.b.w[0..3].iter().all(|&v| v == 0.0));
    }
}
