//! `Mρ` training as it was before the training kernel: one `dot` per
//! output row, seven `Vec`s per forward step, one outer product per
//! backward step, and per tensor a dense `l2_norm` followed by an indexed
//! Adam loop. Kept for tests only, as the specification
//! [`LanguageModel::fit`] must reproduce bit for bit.

use crate::lm::{LanguageModel, TokenId, EOS};
use crate::lstm::LstmCell;
use crate::tensor::{AdamConfig, Param};
use crate::vector::{add_assign, add_scaled, dot, l2_norm, scale, softmax};
use gsj_common::Symbol;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// `out = W · x` for a flat row-major `rows × cols` weight slice.
fn matvec(w: &[f32], rows: usize, cols: usize, x: &[f32], out: &mut [f32]) {
    for r in 0..rows {
        out[r] = dot(&w[r * cols..(r + 1) * cols], x);
    }
}

/// `out += Wᵀ · y`.
fn matvec_t_add(w: &[f32], cols: usize, y: &[f32], out: &mut [f32]) {
    for (r, &yr) in y.iter().enumerate() {
        add_scaled(out, yr, &w[r * cols..(r + 1) * cols]);
    }
}

/// `W += y ⊗ x` into a flat gradient slice.
fn outer_add(w: &mut [f32], cols: usize, y: &[f32], x: &[f32]) {
    for (r, &yr) in y.iter().enumerate() {
        add_scaled(&mut w[r * cols..(r + 1) * cols], yr, x);
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Everything the backward pass needs from one forward step.
pub(crate) struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    /// Post-activation gates `[i | f | g | o]`.
    gates: Vec<f32>,
    c: Vec<f32>,
    tanh_c: Vec<f32>,
    /// The step's hidden output.
    pub(crate) h: Vec<f32>,
}

impl LstmCell {
    /// One forward step, over the row-major weights.
    pub(crate) fn forward(&self, x: &[f32], h_prev: &[f32], c_prev: &[f32]) -> StepCache {
        let h = self.hidden();
        let mut gates = vec![0.0f32; 4 * h];
        matvec(&self.wx.w, 4 * h, self.input_dim(), x, &mut gates);
        let mut rec = vec![0.0f32; 4 * h];
        matvec(&self.wh.w, 4 * h, h, h_prev, &mut rec);
        add_assign(&mut gates, &rec);
        add_assign(&mut gates, &self.b.w);
        for j in 0..h {
            gates[j] = sigmoid(gates[j]); // i
            gates[h + j] = sigmoid(gates[h + j]); // f
            gates[2 * h + j] = gates[2 * h + j].tanh(); // g
            gates[3 * h + j] = sigmoid(gates[3 * h + j]); // o
        }
        let mut c = vec![0.0f32; h];
        let mut hh = vec![0.0f32; h];
        let mut tanh_c = vec![0.0f32; h];
        for j in 0..h {
            c[j] = gates[h + j] * c_prev[j] + gates[j] * gates[2 * h + j];
            tanh_c[j] = c[j].tanh();
            hh[j] = gates[3 * h + j] * tanh_c[j];
        }
        StepCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            gates,
            c,
            tanh_c,
            h: hh,
        }
    }

    /// One backward step. `dh`/`dc_in` are gradients w.r.t. this step's
    /// outputs; returns `(dx, dh_prev, dc_prev)` and accumulates weight
    /// gradients into the cell's `Param`s.
    pub(crate) fn backward(
        &mut self,
        cache: &StepCache,
        dh: &[f32],
        dc_in: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let h = self.hidden();
        let g = &cache.gates;
        let mut dgates = vec![0.0f32; 4 * h];
        let mut dc_prev = vec![0.0f32; h];
        for j in 0..h {
            let (i_g, f_g, g_g, o_g) = (g[j], g[h + j], g[2 * h + j], g[3 * h + j]);
            let do_ = dh[j] * cache.tanh_c[j];
            let dc = dc_in[j] + dh[j] * o_g * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]);
            let di = dc * g_g;
            let dg = dc * i_g;
            let df = dc * cache.c_prev[j];
            dc_prev[j] = dc * f_g;
            dgates[j] = di * i_g * (1.0 - i_g);
            dgates[h + j] = df * f_g * (1.0 - f_g);
            dgates[2 * h + j] = dg * (1.0 - g_g * g_g);
            dgates[3 * h + j] = do_ * o_g * (1.0 - o_g);
        }
        let input_dim = self.input_dim();
        outer_add(&mut self.wx.g, input_dim, &dgates, &cache.x);
        outer_add(&mut self.wh.g, h, &dgates, &cache.h_prev);
        add_assign(&mut self.b.g, &dgates);
        let mut dx = vec![0.0f32; input_dim];
        matvec_t_add(&self.wx.w, input_dim, &dgates, &mut dx);
        let mut dh_prev = vec![0.0f32; h];
        matvec_t_add(&self.wh.w, h, &dgates, &mut dh_prev);
        (dx, dh_prev, dc_prev)
    }
}

impl Param {
    /// One Adam update with bias correction at timestep `t` (1-based),
    /// then clears the gradient.
    pub(crate) fn adam_step(&mut self, cfg: &AdamConfig, t: usize) {
        if cfg.clip > 0.0 {
            let norm = l2_norm(&self.g);
            if norm > cfg.clip {
                scale(&mut self.g, cfg.clip / norm);
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
        self.g.iter_mut().for_each(|x| *x = 0.0);
    }
}

impl LanguageModel {
    /// The old `fit`: every sentence re-tokenized every epoch.
    pub(crate) fn fit_reference(&mut self, corpus: &[Vec<Symbol>]) {
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0x44);
        let mut indices: Vec<usize> = (0..corpus.len()).collect();
        indices.shuffle(&mut rng);
        if self.cfg.max_sentences > 0 {
            indices.truncate(self.cfg.max_sentences);
        }
        let adam = self.cfg.adam;
        for _ in 0..self.cfg.epochs {
            indices.shuffle(&mut rng);
            for &i in &indices {
                let tokens = self.tokenize(&corpus[i]);
                if tokens.is_empty() {
                    continue;
                }
                self.train_sentence_reference(&tokens, &adam);
            }
        }
    }

    fn logits_reference(&self, h: &[f32], out: &mut [f32]) {
        let hid = self.cfg.hidden;
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(&self.why.w[r * hid..(r + 1) * hid], h) + self.by.w[r];
        }
    }

    /// The old `train_sentence`. Leaves the lane-blocked weight copies
    /// stale: only the six `Param`s are the reference's output.
    pub(crate) fn train_sentence_reference(&mut self, tokens: &[TokenId], adam: &AdamConfig) {
        let v = self.vocab_size();
        let hid = self.cfg.hidden;
        let e = self.cfg.embed_dim;
        let t_len = tokens.len();
        // Forward.
        let mut caches = Vec::with_capacity(t_len);
        let mut probs_all = Vec::with_capacity(t_len);
        let mut h = vec![0.0f32; hid];
        let mut c = vec![0.0f32; hid];
        for &tok in tokens {
            let x = self.embed.w[tok * e..(tok + 1) * e].to_vec();
            let cache = self.cell.forward(&x, &h, &c);
            h = cache.h.clone();
            c = cache.c.clone();
            let mut p = vec![0.0f32; v];
            self.logits_reference(&h, &mut p);
            softmax(&mut p);
            probs_all.push(p);
            caches.push(cache);
        }
        // Backward.
        let mut dh_next = vec![0.0f32; hid];
        let mut dc_next = vec![0.0f32; hid];
        for t in (0..t_len).rev() {
            let target = if t + 1 < t_len { tokens[t + 1] } else { EOS };
            let mut dlogits = probs_all[t].clone();
            dlogits[target] -= 1.0;
            // dWhy += dlogits ⊗ h ; dh = Whyᵀ dlogits (+ carry).
            let h_t = &caches[t].h;
            for (r, &dl) in dlogits.iter().enumerate() {
                add_scaled(&mut self.why.g[r * hid..(r + 1) * hid], dl, h_t);
                self.by.g[r] += dl;
            }
            let mut dh = dh_next.clone();
            for (r, &dl) in dlogits.iter().enumerate() {
                add_scaled(&mut dh, dl, &self.why.w[r * hid..(r + 1) * hid]);
            }
            let (dx, dh_prev, dc_prev) = self.cell.backward(&caches[t], &dh, &dc_next);
            // Embedding gradient.
            let tok = tokens[t];
            add_assign(&mut self.embed.g[tok * e..(tok + 1) * e], &dx);
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        self.adam_t += 1;
        let t = self.adam_t;
        self.embed.adam_step(adam, t);
        self.why.adam_step(adam, t);
        self.by.adam_step(adam, t);
        self.cell.wx.adam_step(adam, t);
        self.cell.wh.adam_step(adam, t);
        self.cell.b.adam_step(adam, t);
    }
}

mod exactness {
    use crate::lm::{LanguageModel, LmConfig, TokenId};
    use crate::tensor::{AdamConfig, Param};
    use gsj_common::{Symbol, SymbolTable};
    use proptest::prelude::*;

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_param(new: &Param, old: &Param, what: &str) {
        assert_eq!(bits(&new.w), bits(&old.w), "{what}: weights");
        assert_eq!(bits(&new.m), bits(&old.m), "{what}: first moments");
        assert_eq!(bits(&new.v), bits(&old.v), "{what}: second moments");
        assert_eq!(bits(&new.g), bits(&old.g), "{what}: cleared gradient");
    }

    /// All six tensors with their Adam state, and the timestep.
    fn assert_same_model(new: &LanguageModel, old: &LanguageModel) {
        assert_same_param(&new.embed, &old.embed, "embed");
        assert_same_param(&new.cell.wx, &old.cell.wx, "Wx");
        assert_same_param(&new.cell.wh, &old.cell.wh, "Wh");
        assert_same_param(&new.cell.b, &old.cell.b, "b");
        assert_same_param(&new.why, &old.why, "Why");
        assert_same_param(&new.by, &old.by, "by");
        assert_eq!(new.adam_t, old.adam_t);
    }

    /// `fit` against `fit_reference` from one `untrained` model, `rounds`
    /// times over (a second round fine-tunes: `m`, `v` and the timestep
    /// carry over).
    fn assert_fit_exact(corpus: &[Vec<Symbol>], table: &SymbolTable, cfg: LmConfig, rounds: usize) {
        let mut new = LanguageModel::untrained(corpus, table, cfg);
        let mut old = new.clone();
        for _ in 0..rounds {
            new.fit(corpus);
            old.fit_reference(corpus);
            assert_same_model(&new, &old);
        }
        // The lane-blocked copies follow the weights: inference on the
        // new model is the reference forward pass on the same weights.
        for s in corpus.iter().take(8) {
            let (mut h, mut c) = (vec![0.0; new.hidden_dim()], vec![0.0; new.hidden_dim()]);
            for tok in new.tokenize(s) {
                let e = new.cfg.embed_dim;
                let cache = new
                    .cell
                    .forward(&new.embed.w[tok * e..(tok + 1) * e], &h, &c);
                (h, c) = (cache.h.clone(), cache.c);
            }
            assert_eq!(bits(&new.embed_sequence(s)), bits(&h));
        }
    }

    /// A deterministic toy corpus: A always followed by x, B by y.
    fn toy_corpus(table: &SymbolTable) -> Vec<Vec<Symbol>> {
        let [a, b, x, y, c] = ["A", "B", "x", "y", "C"].map(|l| table.intern(l));
        (0..40)
            .flat_map(|_| [vec![a, x, c], vec![b, y, c]])
            .collect()
    }

    fn tiny_cfg() -> LmConfig {
        LmConfig {
            embed_dim: 8,
            hidden: 12,
            epochs: 3,
            max_sentences: 0,
            seed: 7,
            ..LmConfig::default()
        }
    }

    #[test]
    fn toy_corpus_weights_are_bit_identical() {
        let table = SymbolTable::new();
        assert_fit_exact(&toy_corpus(&table), &table, tiny_cfg(), 1);
    }

    #[test]
    fn fine_tuning_keeps_the_adam_state() {
        let table = SymbolTable::new();
        assert_fit_exact(&toy_corpus(&table), &table, tiny_cfg(), 2);
    }

    /// The serving shape in small: more rows than one lane block in every
    /// matrix, `max_sentences` below the corpus size.
    #[test]
    fn sampled_corpus_with_several_lane_blocks() {
        let table = SymbolTable::new();
        let labels: Vec<Symbol> = (0..40u8)
            .map(|i| {
                table.intern(&format!(
                    "{}{}",
                    (b'a' + i / 26) as char,
                    (b'a' + i % 26) as char
                ))
            })
            .collect();
        let corpus: Vec<Vec<Symbol>> = (0..120)
            .map(|i| {
                (0..3 + i % 7)
                    .map(|j| labels[(i * 7 + j * 3) % labels.len()])
                    .collect()
            })
            .collect();
        let cfg = LmConfig {
            embed_dim: 32,
            hidden: 100,
            epochs: 2,
            max_sentences: 50,
            ..LmConfig::default()
        };
        assert_fit_exact(&corpus, &table, cfg, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Shapes the lanes and stretches must not get wrong: `4h` not a
        /// multiple of the lane count, a vocabulary below one lane block,
        /// odd `embed_dim`, sentences of 1…20 tokens with repeats, labels
        /// too rare for the vocabulary (`<unk>`), no clip, a clip that
        /// fires on every step and clips the gradient norms straddle.
        #[test]
        fn fit_equals_fit_reference(
            sentences in prop::collection::vec(prop::collection::vec(0usize..30, 1..21), 1..12),
            hidden in 0usize..3,
            embed_dim in 0usize..4,
            clip in 0usize..5,
            epochs in 1usize..3,
            max_sentences in 0usize..6,
            seed in 0u64..1000,
        ) {
            let table = SymbolTable::new();
            // Labels a‥g recur; h and i are each one draw in thirty, so
            // they stay under `min_count` more often than not.
            let labels: Vec<Symbol> = "abcdefghi".chars().map(|l| table.intern(&l.to_string())).collect();
            let label = |draw: usize| labels[if draw < 28 { draw % 7 } else { draw - 21 }];
            let corpus: Vec<Vec<Symbol>> = sentences
                .iter()
                .map(|s| s.iter().map(|&draw| label(draw)).collect())
                .collect();
            let cfg = LmConfig {
                embed_dim: [1, 5, 8, 9][embed_dim],
                hidden: [3, 12, 50][hidden],
                min_count: 3,
                epochs,
                max_sentences,
                adam: AdamConfig { clip: [0.0, 1e-3, 0.3, 1.0, 5.0][clip], ..AdamConfig::default() },
                seed,
                ..LmConfig::default()
            };
            assert_fit_exact(&corpus, &table, cfg, 1);
        }

        /// The clip decision right at the threshold, where the order-free
        /// sum of squares cannot settle it and the chain has to: gradients
        /// whose norm is `clip` give or take a few ulps.
        #[test]
        fn adam_update_equals_adam_step_around_the_clip(
            g in prop::collection::vec(-1.0f32..1.0, 1..300),
            ulps in -40i32..40,
            t in 1usize..50,
        ) {
            let cfg = AdamConfig::default();
            let norm = crate::vector::l2_norm(&g);
            let aim = f32::from_bits((cfg.clip.to_bits() as i32 + ulps) as u32);
            let mut new = Param::new(vec![0.5; g.len()]);
            new.g = g.iter().map(|x| x * (aim / norm)).collect();
            let mut old = new.clone();
            for t in t..t + 2 {
                new.adam_update(&cfg, cfg.bias_corrections(t));
                old.adam_step(&cfg, t);
                assert_same_param(&new, &old, "around the clip");
                new.g.clone_from(&g);
                old.g.clone_from(&g);
            }
        }
    }

    /// The portable compile of the sentence kernel against the AVX2 one,
    /// each called directly (skipped on a CPU without AVX2).
    #[test]
    fn avx2_kernel_equals_portable_kernel() {
        let table = SymbolTable::new();
        let corpus = toy_corpus(&table);
        let cfg = LmConfig {
            hidden: 50,
            embed_dim: 9,
            ..tiny_cfg()
        };
        let mut portable = LanguageModel::untrained(&corpus, &table, cfg);
        let mut avx2 = portable.clone();
        let sentences: Vec<Vec<TokenId>> = corpus.iter().map(|s| portable.tokenize(s)).collect();
        let (mut ws_p, mut ws_a) = (portable.workspace(3), avx2.workspace(3));
        for tokens in sentences.iter().cycle().take(200) {
            if !avx2.train_sentence_avx2(&mut ws_a, tokens) {
                eprintln!("no AVX2 on this CPU: nothing to compare");
                return;
            }
            portable.train_sentence_portable(&mut ws_p, tokens);
        }
        assert_same_model(&avx2, &portable);
    }
}
