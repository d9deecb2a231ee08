//! The path language model `Mρ`: embedding layer + LSTM + softmax.
//!
//! Trained unsupervised on random-walk label sentences with the perplexity
//! (cross-entropy) loss, as in Section III-A ("we train Mρ on the corpus
//! driven by the perplexity loss"). It serves two roles downstream:
//!
//! 1. **Path selection**: a stateful [`LmSession`] is fed the labels seen
//!    so far and returns the next-token distribution, from which path
//!    selection picks the most probable incident edge label (or stops on
//!    `<eos>`).
//! 2. **Path embedding**: [`LanguageModel::embed_sequence`] runs a label
//!    sequence through the LSTM and returns the last hidden state — the
//!    `xρ` sequence embedding of step (2) of pattern discovery.

use crate::lanes::LaneMatrix;
use crate::lstm::{matvec_t_add, LstmCell, LstmState};
use crate::tensor::{AdamConfig, Param};
use crate::vector::{add_assign, softmax};
use gsj_common::{FxHashMap, Symbol, SymbolTable};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::RwLock;
use std::time::Instant;

/// Normalize a label for LM tokenization: lower-case and strip digits, so
/// instance labels of one class (`Author12`, `Author7`, blank nodes
/// `n123`) pool into a single class token whose continuation statistics
/// are learnable. Labels that normalize to nothing become `"#"`.
pub fn normalize_label(s: &str) -> String {
    let out: String = s
        .chars()
        .filter(|c| !c.is_ascii_digit())
        .flat_map(|c| c.to_lowercase())
        .collect();
    let trimmed = out.trim();
    if trimmed.is_empty() {
        "#".to_string()
    } else {
        trimmed.to_string()
    }
}

/// Index into the LM vocabulary.
pub type TokenId = usize;

/// Out-of-vocabulary token.
pub const UNK: TokenId = 0;
/// End-of-sentence token (the paper's `<eos>` stop signal).
pub const EOS: TokenId = 1;
const SPECIALS: usize = 2;

/// Language-model hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LmConfig {
    /// Token embedding width.
    pub embed_dim: usize,
    /// LSTM hidden width (100 in the paper; 50 for `RExtShortSeq`).
    pub hidden: usize,
    /// Vocabulary cap: the most frequent tokens are kept, the rest map to
    /// `<unk>`.
    pub max_vocab: usize,
    /// Minimum corpus frequency for a token to enter the vocabulary.
    pub min_count: usize,
    /// Training epochs over the (possibly sampled) corpus.
    pub epochs: usize,
    /// Cap on the number of training sentences (sampled uniformly);
    /// `0` = use all.
    pub max_sentences: usize,
    /// Optimizer settings.
    pub adam: AdamConfig,
    /// Seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig {
            embed_dim: 32,
            hidden: 100,
            max_vocab: 2000,
            min_count: 1,
            epochs: 5,
            max_sentences: 4000,
            adam: AdamConfig::default(),
            seed: 42,
        }
    }
}

impl LmConfig {
    /// The narrower 50-wide hidden layer used by the `RExtShortSeq`
    /// baseline.
    pub fn short() -> Self {
        LmConfig {
            hidden: 50,
            ..LmConfig::default()
        }
    }
}

/// Anything that embeds a label sequence into a fixed vector — the LSTM LM
/// by default, the attention encoder for the `RExtBertSeq` baseline.
pub trait SequenceEmbedder: Send + Sync {
    /// Output dimensionality.
    fn dim(&self) -> usize;
    /// Embed an (edge-)label sequence.
    fn embed_symbols(&self, syms: &[Symbol]) -> Vec<f32>;
}

/// The trained language model.
#[derive(Debug)]
pub struct LanguageModel {
    pub(crate) cfg: LmConfig,
    symbols: SymbolTable,
    by_norm: FxHashMap<String, TokenId>,
    sym_cache: RwLock<FxHashMap<Symbol, TokenId>>,
    pub(crate) embed: Param,
    pub(crate) cell: LstmCell,
    pub(crate) why: Param,
    pub(crate) by: Param,
    /// `why.w` as the logits mat-vec reads it.
    why_lanes: LaneMatrix,
    pub(crate) adam_t: usize,
}

impl Clone for LanguageModel {
    fn clone(&self) -> Self {
        LanguageModel {
            cfg: self.cfg.clone(),
            symbols: self.symbols.clone(),
            by_norm: self.by_norm.clone(),
            sym_cache: RwLock::new(self.sym_cache.read().expect("cache lock").clone()),
            embed: self.embed.clone(),
            cell: self.cell.clone(),
            why: self.why.clone(),
            by: self.by.clone(),
            why_lanes: self.why_lanes.clone(),
            adam_t: self.adam_t,
        }
    }
}

/// The buffers of one [`LanguageModel::fit`] call, sized for its longest
/// sentence, so that a training step allocates nothing. Step `t` of the
/// current sentence owns row `t` of every per-step buffer.
pub(crate) struct Workspace {
    /// Hidden outputs, `(T + 1) × hidden`: row `t + 1` is step `t`'s
    /// output, row 0 the zero state.
    h: Vec<f32>,
    /// Cell states, laid out like `h`.
    c: Vec<f32>,
    /// What each step's backward needs, `T × 5·hidden` (see
    /// [`LstmCell::step`]).
    act: Vec<f32>,
    /// `T × vocab`: each step's next-token distribution, turned into its
    /// logit gradient by the backward pass.
    dlogits: Vec<f32>,
    /// Pre-activation gate gradients, `T × 4·hidden`.
    dgates: Vec<f32>,
    rec: Vec<f32>,
    dh: Vec<f32>,
    dh_next: Vec<f32>,
    dc: Vec<f32>,
    dx: Vec<f32>,
    /// Where the previous phase ended.
    mark: Instant,
    /// Time spent so far in forward / backward / update.
    phase_ns: [u64; 3],
}

impl Workspace {
    /// Close the phase that has been running since the last call.
    fn end_phase(&mut self, phase: usize) {
        let now = Instant::now();
        self.phase_ns[phase] += (now - self.mark).as_nanos() as u64;
        self.mark = now;
    }
}

impl LanguageModel {
    /// Build the vocabulary from `corpus` and train by truncated BPTT.
    ///
    /// The corpus is the random-walk sentence set from
    /// `gsj_graph::random_walk::build_corpus`; `symbols` is the graph's
    /// symbol table (labels are normalized through [`normalize_label`]
    /// before tokenization). Training is unsupervised.
    pub fn train(corpus: &[Vec<Symbol>], symbols: &SymbolTable, cfg: LmConfig) -> Self {
        let mut model = Self::untrained(corpus, symbols, cfg);
        model.fit(corpus);
        model
    }

    /// Build vocabulary and random weights without fitting (useful for
    /// perplexity baselines and tests).
    pub fn untrained(corpus: &[Vec<Symbol>], symbols: &SymbolTable, cfg: LmConfig) -> Self {
        // Frequency-ranked vocabulary over normalized labels, with
        // <unk>/<eos> reserved.
        let mut counts: FxHashMap<String, usize> = FxHashMap::default();
        for s in corpus {
            for &sym in s {
                let norm = normalize_label(&symbols.resolve(sym));
                *counts.entry(norm).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(String, usize)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= cfg.min_count)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(cfg.max_vocab.saturating_sub(SPECIALS));
        let by_norm: FxHashMap<String, TokenId> = ranked
            .into_iter()
            .enumerate()
            .map(|(i, (s, _))| (s, i + SPECIALS))
            .collect();
        let v = by_norm.len() + SPECIALS;

        use crate::matrix::Matrix;
        let embed = Param::new(Matrix::xavier(v, cfg.embed_dim, cfg.seed ^ 0x11).into_data());
        let cell = LstmCell::new(cfg.embed_dim, cfg.hidden, cfg.seed ^ 0x22);
        let why = Param::new(Matrix::xavier(v, cfg.hidden, cfg.seed ^ 0x33).into_data());
        let by = Param::new(vec![0.0; v]);
        LanguageModel {
            symbols: symbols.clone(),
            by_norm,
            sym_cache: RwLock::new(FxHashMap::default()),
            embed,
            cell,
            why_lanes: LaneMatrix::from_row_major(&why.w, v, cfg.hidden),
            why,
            by,
            adam_t: 0,
            cfg,
        }
    }

    /// Run the training loop (callable again for fine-tuning): one SGD
    /// step per sentence, `epochs` passes over the sampled sentences.
    pub fn fit(&mut self, corpus: &[Vec<Symbol>]) {
        let mut span = gsj_obs::span("nn.lm_train");
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0x44);
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        order.shuffle(&mut rng);
        if self.cfg.max_sentences > 0 {
            order.truncate(self.cfg.max_sentences);
        }
        // Tokenize the sampled sentences once. From here on `order` holds
        // positions in `sentences`; a shuffle's draws depend on the length
        // alone, so the epochs visit the corpus in the order they always
        // did.
        let sentences: Vec<Vec<TokenId>> =
            order.iter().map(|&i| self.tokenize(&corpus[i])).collect();
        let mut order: Vec<usize> = (0..sentences.len()).collect();
        let longest = sentences.iter().map(Vec::len).max().unwrap_or(0);
        let mut ws = self.workspace(longest);
        let mut steps = 0usize;
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for &k in &order {
                if !sentences[k].is_empty() {
                    self.train_sentence(&mut ws, &sentences[k]);
                    steps += 1;
                }
            }
        }
        let cell = &self.cell;
        let params = self.embed.len() + self.why.len() + self.by.len();
        let params = params + cell.wx.len() + cell.wh.len() + cell.b.len();
        span.field("sentences", corpus.len())
            .field("vocab", self.vocab_size())
            .field("epochs", self.cfg.epochs)
            .field("steps", steps)
            .field("params", params)
            .field("forward_ns", ws.phase_ns[0])
            .field("backward_ns", ws.phase_ns[1])
            .field("update_ns", ws.phase_ns[2]);
    }

    /// The buffers for training on sentences up to `longest` tokens.
    pub(crate) fn workspace(&self, longest: usize) -> Workspace {
        let (v, hid, e) = (self.vocab_size(), self.cfg.hidden, self.cfg.embed_dim);
        Workspace {
            h: vec![0.0; (longest + 1) * hid],
            c: vec![0.0; (longest + 1) * hid],
            act: vec![0.0; longest * 5 * hid],
            dlogits: vec![0.0; longest * v],
            dgates: vec![0.0; longest * 4 * hid],
            rec: vec![0.0; 4 * hid],
            dh: vec![0.0; hid],
            dh_next: vec![0.0; hid],
            dc: vec![0.0; hid],
            dx: vec![0.0; e],
            mark: Instant::now(),
            phase_ns: [0; 3],
        }
    }

    pub(crate) fn tokenize(&self, sentence: &[Symbol]) -> Vec<TokenId> {
        sentence.iter().map(|s| self.token_of(*s)).collect()
    }

    /// Map a symbol to its token id (`<unk>` when out of vocabulary).
    /// Normalization results are memoized per symbol.
    pub fn token_of(&self, sym: Symbol) -> TokenId {
        if let Some(&t) = self.sym_cache.read().expect("cache lock").get(&sym) {
            return t;
        }
        let norm = normalize_label(&self.symbols.resolve(sym));
        let t = self.by_norm.get(&norm).copied().unwrap_or(UNK);
        self.sym_cache.write().expect("cache lock").insert(sym, t);
        t
    }

    /// Vocabulary size including `<unk>`/`<eos>`.
    pub fn vocab_size(&self) -> usize {
        self.by_norm.len() + SPECIALS
    }

    /// LSTM hidden width (= the path-embedding dimensionality).
    pub fn hidden_dim(&self) -> usize {
        self.cfg.hidden
    }

    #[inline(always)]
    fn embed_row(&self, tok: TokenId) -> &[f32] {
        let e = self.cfg.embed_dim;
        &self.embed.w[tok * e..(tok + 1) * e]
    }

    /// The next-token distribution after hidden output `h`.
    #[inline(always)]
    fn next_token_probs(&self, h: &[f32], out: &mut [f32]) {
        self.why_lanes.dots(h, out);
        add_assign(out, &self.by.w);
        softmax(out);
    }

    /// One SGD step on one sentence: predict token `t+1` from tokens
    /// `..=t`, final target `<eos>`; cross-entropy loss.
    fn train_sentence(&mut self, ws: &mut Workspace, tokens: &[TokenId]) {
        if !self.train_sentence_avx2(ws, tokens) {
            self.train_sentence_portable(ws, tokens);
        }
    }

    /// [`LanguageModel::train_sentence_portable`] compiled for AVX2, if
    /// this CPU has it (`false`: it does not, nothing was done). The
    /// kernel is the same IEEE operations on vectors twice as wide; with
    /// no `fma` enabled there is no contraction to change a rounding.
    pub(crate) fn train_sentence_avx2(&mut self, ws: &mut Workspace, tokens: &[TokenId]) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "avx2")]
            fn kernel(model: &mut LanguageModel, ws: &mut Workspace, tokens: &[TokenId]) {
                model.train_sentence_portable(ws, tokens);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `kernel` requires a CPU with AVX2, which the
                // line above has just detected; it has no other
                // precondition (its body is safe code).
                unsafe { kernel(self, ws, tokens) };
                return true;
            }
        }
        false
    }

    /// The training step as plain code; [`LanguageModel::train_sentence`]
    /// runs it through the widest compile the CPU supports.
    ///
    /// Gradients are summed per token, NOT averaged per sentence:
    /// averaging would weight tokens of short sentences more, and since
    /// short sentences are exactly the <eos>-heavy ones, it skews the
    /// model toward premature stops (miscalibrating path selection).
    #[inline(always)]
    pub(crate) fn train_sentence_portable(&mut self, ws: &mut Workspace, tokens: &[TokenId]) {
        let v = self.vocab_size();
        let hid = self.cfg.hidden;
        let e = self.cfg.embed_dim;
        let t_len = tokens.len();
        let target = |t: usize| if t + 1 < t_len { tokens[t + 1] } else { EOS };

        // Forward.
        for (t, &tok) in tokens.iter().enumerate() {
            let (h_prev, h) = ws.h[t * hid..(t + 2) * hid].split_at_mut(hid);
            let (c_prev, c) = ws.c[t * hid..(t + 2) * hid].split_at_mut(hid);
            h.copy_from_slice(h_prev);
            c.copy_from_slice(c_prev);
            let act = &mut ws.act[t * 5 * hid..(t + 1) * 5 * hid];
            self.cell.step(self.embed_row(tok), h, c, &mut ws.rec, act);
            self.next_token_probs(h, &mut ws.dlogits[t * v..(t + 1) * v]);
        }
        ws.end_phase(0);

        // Backward (full BPTT over the sentence — sentences are short).
        ws.dh_next.fill(0.0);
        ws.dc.fill(0.0);
        for t in (0..t_len).rev() {
            let dlogits = &mut ws.dlogits[t * v..(t + 1) * v];
            dlogits[target(t)] -= 1.0;
            add_assign(&mut self.by.g, dlogits);
            // dh = Whyᵀ dlogits (+ carry).
            ws.dh.copy_from_slice(&ws.dh_next);
            matvec_t_add(&self.why.w, hid, dlogits, &mut ws.dh);
            self.cell.backward_step(
                &ws.act[t * 5 * hid..(t + 1) * 5 * hid],
                &ws.c[t * hid..(t + 1) * hid],
                &ws.dh,
                &mut ws.dc,
                &mut ws.dgates[t * 4 * hid..(t + 1) * 4 * hid],
                &mut ws.dx,
                (t > 0).then_some(&mut ws.dh_next[..]),
            );
            // Embedding gradient.
            add_assign(
                &mut self.embed.g[tokens[t] * e..(tokens[t] + 1) * e],
                &ws.dx,
            );
        }
        // dWhy += dlogits ⊗ h, dWx += dgates ⊗ x, dWh += dgates ⊗ h_prev,
        // once for the whole sentence.
        let h = &ws.h;
        self.why
            .add_outer_products(hid, &ws.dlogits[..t_len * v], |t| {
                &h[(t + 1) * hid..(t + 2) * hid]
            });
        let embed = &self.embed.w;
        self.cell.add_weight_grads(
            &ws.dgates[..t_len * 4 * hid],
            |t| &embed[tokens[t] * e..(tokens[t] + 1) * e],
            |t| &h[t * hid..(t + 1) * hid],
        );
        ws.end_phase(1);

        // Update.
        self.adam_t += 1;
        let adam = &self.cfg.adam;
        let bias = adam.bias_corrections(self.adam_t);
        self.embed.adam_update(adam, bias);
        self.why.adam_update_rows(adam, bias, &mut self.why_lanes);
        self.by.adam_update(adam, bias);
        self.cell.adam_update(adam, bias);
        ws.end_phase(2);
    }

    /// Corpus perplexity `exp(mean CE)` — the training loss the paper
    /// optimizes.
    pub fn perplexity(&self, corpus: &[Vec<Symbol>]) -> f32 {
        let mut p = vec![0.0f32; self.vocab_size()];
        let mut total = 0.0f64;
        let mut count = 0usize;
        for s in corpus {
            let tokens = self.tokenize(s);
            let mut state = self.cell.zero_state();
            for (t, &tok) in tokens.iter().enumerate() {
                self.cell.advance(&mut state, self.embed_row(tok));
                self.next_token_probs(&state.h, &mut p);
                let target = if t + 1 < tokens.len() {
                    tokens[t + 1]
                } else {
                    EOS
                };
                total -= (p[target].max(1e-12) as f64).ln();
                count += 1;
            }
        }
        if count == 0 {
            f32::INFINITY
        } else {
            ((total / count as f64).exp()) as f32
        }
    }

    /// Start a stateful prediction session (used by path selection).
    pub fn session(&self) -> LmSession<'_> {
        LmSession {
            model: self,
            state: self.cell.zero_state(),
        }
    }

    /// Embed a label sequence: run it through the LSTM and return the last
    /// hidden state (`xρ` of pattern discovery step 2). The empty sequence
    /// embeds to the zero vector.
    pub fn embed_sequence(&self, syms: &[Symbol]) -> Vec<f32> {
        let mut state = self.cell.zero_state();
        for &sym in syms {
            self.cell
                .advance(&mut state, self.embed_row(self.token_of(sym)));
        }
        state.h
    }
}

impl SequenceEmbedder for LanguageModel {
    fn dim(&self) -> usize {
        self.cfg.hidden
    }

    fn embed_symbols(&self, syms: &[Symbol]) -> Vec<f32> {
        self.embed_sequence(syms)
    }
}

/// A stateful next-token prediction session over the LM.
///
/// Path selection feeds the labels it traverses (vertex label, chosen edge
/// label, next vertex label, ...) and reads the distribution after each
/// vertex label to rank candidate edges — mirroring "feeds the vertex label
/// `L(v')` to `Mρ` and obtains a list `L1` of edge labels along with their
/// possibility".
pub struct LmSession<'a> {
    model: &'a LanguageModel,
    state: LstmState,
}

impl<'a> LmSession<'a> {
    /// Feed one label and return the next-token probability distribution
    /// over the vocabulary (index = [`TokenId`]).
    pub fn feed(&mut self, sym: Symbol) -> Vec<f32> {
        let tok = self.model.token_of(sym);
        self.feed_token(tok)
    }

    /// Feed a raw token id.
    pub fn feed_token(&mut self, tok: TokenId) -> Vec<f32> {
        let model = self.model;
        model.cell.advance(&mut self.state, model.embed_row(tok));
        let mut p = vec![0.0f32; model.vocab_size()];
        model.next_token_probs(&self.state.h, &mut p);
        p
    }

    /// Probability assigned to a symbol by the given distribution.
    pub fn prob_of(&self, dist: &[f32], sym: Symbol) -> f32 {
        dist[self.model.token_of(sym)]
    }

    /// Probability of the `<eos>` stop signal.
    pub fn eos_prob(&self, dist: &[f32]) -> f32 {
        dist[EOS]
    }

    /// Fork the session (so alternative continuations can be explored
    /// without re-feeding the prefix).
    pub fn fork(&self) -> LmSession<'a> {
        LmSession {
            model: self.model,
            state: self.state.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsj_common::SymbolTable;

    /// A deterministic toy corpus: A always followed by x, B by y.
    fn toy_corpus(table: &SymbolTable) -> Vec<Vec<Symbol>> {
        let a = table.intern("A");
        let b = table.intern("B");
        let x = table.intern("x");
        let y = table.intern("y");
        let c = table.intern("C");
        let mut corpus = Vec::new();
        for _ in 0..40 {
            corpus.push(vec![a, x, c]);
            corpus.push(vec![b, y, c]);
        }
        corpus
    }

    fn tiny_cfg() -> LmConfig {
        LmConfig {
            embed_dim: 8,
            hidden: 12,
            epochs: 14,
            max_sentences: 0,
            seed: 7,
            ..LmConfig::default()
        }
    }

    #[test]
    fn training_reduces_perplexity() {
        let table = SymbolTable::new();
        let corpus = toy_corpus(&table);
        let untrained = LanguageModel::untrained(&corpus, &table, tiny_cfg());
        let ppl0 = untrained.perplexity(&corpus);
        let trained = LanguageModel::train(&corpus, &table, tiny_cfg());
        let ppl1 = trained.perplexity(&corpus);
        assert!(
            ppl1 < ppl0 * 0.8,
            "perplexity did not improve: {ppl0} -> {ppl1}"
        );
    }

    #[test]
    fn learns_deterministic_bigram() {
        let table = SymbolTable::new();
        let corpus = toy_corpus(&table);
        let model = LanguageModel::train(&corpus, &table, tiny_cfg());
        let a = table.intern("A");
        let x = table.intern("x");
        let y = table.intern("y");
        let mut sess = model.session();
        let dist = sess.feed(a);
        assert!(
            sess.prob_of(&dist, x) > sess.prob_of(&dist, y),
            "P(x|A) = {} should beat P(y|A) = {}",
            sess.prob_of(&dist, x),
            sess.prob_of(&dist, y)
        );
    }

    #[test]
    fn eos_is_predicted_at_sentence_end() {
        let table = SymbolTable::new();
        let corpus = toy_corpus(&table);
        let model = LanguageModel::train(&corpus, &table, tiny_cfg());
        let a = table.intern("A");
        let x = table.intern("x");
        let c = table.intern("C");
        let mut sess = model.session();
        sess.feed(a);
        sess.feed(x);
        let dist = sess.feed(c);
        // After the full sentence the most likely continuation is <eos>.
        let argmax = dist
            .iter()
            .enumerate()
            .max_by(|p, q| p.1.partial_cmp(q.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, EOS, "eos prob = {}", sess.eos_prob(&dist));
    }

    #[test]
    fn unknown_symbols_map_to_unk() {
        let table = SymbolTable::new();
        let corpus = toy_corpus(&table);
        let model = LanguageModel::untrained(&corpus, &table, tiny_cfg());
        let never_seen = table.intern("zzz-not-in-corpus");
        assert_eq!(model.token_of(never_seen), UNK);
    }

    #[test]
    fn sequence_embedding_is_order_sensitive() {
        let table = SymbolTable::new();
        let corpus = toy_corpus(&table);
        let model = LanguageModel::train(&corpus, &table, tiny_cfg());
        let a = table.intern("A");
        let b = table.intern("B");
        let ab = model.embed_sequence(&[a, b]);
        let ba = model.embed_sequence(&[b, a]);
        assert_eq!(ab.len(), model.hidden_dim());
        let diff: f32 = ab.iter().zip(&ba).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "order must matter, diff = {diff}");
    }

    #[test]
    fn empty_sequence_embeds_to_zero() {
        let table = SymbolTable::new();
        let corpus = toy_corpus(&table);
        let model = LanguageModel::untrained(&corpus, &table, tiny_cfg());
        assert!(model.embed_sequence(&[]).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn vocab_cap_is_respected() {
        let table = SymbolTable::new();
        let mut corpus = Vec::new();
        for i in 0..50u8 {
            // Letter-distinct tokens (digits are stripped by label
            // normalization).
            let tok = format!("{}{}", (b'a' + i / 26) as char, (b'a' + i % 26) as char);
            corpus.push(vec![table.intern(&tok); 3]);
        }
        let cfg = LmConfig {
            max_vocab: 10,
            ..tiny_cfg()
        };
        let model = LanguageModel::untrained(&corpus, &table, cfg);
        assert_eq!(model.vocab_size(), 10);
    }

    #[test]
    fn fork_preserves_state() {
        let table = SymbolTable::new();
        let corpus = toy_corpus(&table);
        let model = LanguageModel::train(&corpus, &table, tiny_cfg());
        let a = table.intern("A");
        let x = table.intern("x");
        let mut sess = model.session();
        sess.feed(a);
        let mut forked = sess.fork();
        assert_eq!(sess.feed(x), forked.feed(x));
    }
}
