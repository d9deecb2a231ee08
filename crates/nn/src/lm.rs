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

use crate::lstm::LstmCell;
use crate::tensor::{AdamConfig, Param};
use gsj_common::{FxHashMap, Symbol, SymbolTable};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::RwLock;

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
    cfg: LmConfig,
    symbols: SymbolTable,
    by_norm: FxHashMap<String, TokenId>,
    sym_cache: RwLock<FxHashMap<Symbol, TokenId>>,
    embed: Param,
    cell: LstmCell,
    why: Param,
    by: Param,
    adam_t: usize,
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
            adam_t: self.adam_t,
        }
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
        let mut span = gsj_obs::span("nn.lm_train");
        let mut model = Self::untrained(corpus, symbols, cfg);
        model.fit(corpus);
        span.field("sentences", corpus.len())
            .field("vocab", model.vocab_size());
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
        let embed = Param::new(
            Matrix::xavier(v, cfg.embed_dim, cfg.seed ^ 0x11)
                .data()
                .to_vec(),
        );
        let cell = LstmCell::new(cfg.embed_dim, cfg.hidden, cfg.seed ^ 0x22);
        let why = Param::new(
            Matrix::xavier(v, cfg.hidden, cfg.seed ^ 0x33)
                .data()
                .to_vec(),
        );
        let by = Param::new(vec![0.0; v]);
        LanguageModel {
            cfg,
            symbols: symbols.clone(),
            by_norm,
            sym_cache: RwLock::new(FxHashMap::default()),
            embed,
            cell,
            why,
            by,
            adam_t: 0,
        }
    }

    /// Run the training loop (callable again for fine-tuning).
    pub fn fit(&mut self, corpus: &[Vec<Symbol>]) {
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
                self.train_sentence(&tokens, &adam);
            }
        }
    }

    fn tokenize(&self, sentence: &[Symbol]) -> Vec<TokenId> {
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

    fn embed_row(&self, tok: TokenId) -> &[f32] {
        let e = self.cfg.embed_dim;
        &self.embed.w[tok * e..(tok + 1) * e]
    }

    fn logits(&self, h: &[f32], out: &mut [f32]) {
        let hid = self.cfg.hidden;
        for (r, o) in out.iter_mut().enumerate() {
            *o = crate::vector::dot(&self.why.w[r * hid..(r + 1) * hid], h) + self.by.w[r];
        }
    }

    /// One SGD step on one sentence: predict token `t+1` from tokens
    /// `..=t`, final target `<eos>`; cross-entropy loss. Returns the mean
    /// per-token loss.
    fn train_sentence(&mut self, tokens: &[TokenId], adam: &AdamConfig) -> f32 {
        let v = self.vocab_size();
        let hid = self.cfg.hidden;
        let e = self.cfg.embed_dim;
        let t_len = tokens.len();
        // Forward.
        let mut caches = Vec::with_capacity(t_len);
        let mut probs_all = Vec::with_capacity(t_len);
        let mut h = vec![0.0f32; hid];
        let mut c = vec![0.0f32; hid];
        let mut loss = 0.0f32;
        for (t, &tok) in tokens.iter().enumerate() {
            let x = self.embed_row(tok).to_vec();
            let cache = self.cell.forward(&x, &h, &c);
            h = cache.h.clone();
            c = cache_c(&cache);
            let mut p = vec![0.0f32; v];
            self.logits(&h, &mut p);
            crate::vector::softmax(&mut p);
            let target = if t + 1 < t_len { tokens[t + 1] } else { EOS };
            loss -= p[target].max(1e-12).ln();
            probs_all.push(p);
            caches.push(cache);
        }
        // Backward (full BPTT over the sentence — sentences are short).
        // Gradients are summed per token, NOT averaged per sentence:
        // averaging would weight tokens of short sentences more, and since
        // short sentences are exactly the <eos>-heavy ones, it skews the
        // model toward premature stops (miscalibrating path selection).
        let mut dh_next = vec![0.0f32; hid];
        let mut dc_next = vec![0.0f32; hid];
        for t in (0..t_len).rev() {
            let target = if t + 1 < t_len { tokens[t + 1] } else { EOS };
            let mut dlogits = probs_all[t].clone();
            dlogits[target] -= 1.0;
            // dWhy += dlogits ⊗ h ; dh = Whyᵀ dlogits (+ carry).
            let h_t = &caches[t].h;
            for (r, &dl) in dlogits.iter().enumerate() {
                crate::vector::add_scaled(&mut self.why.g[r * hid..(r + 1) * hid], dl, h_t);
                self.by.g[r] += dl;
            }
            let mut dh = dh_next.clone();
            for (r, &dl) in dlogits.iter().enumerate() {
                crate::vector::add_scaled(&mut dh, dl, &self.why.w[r * hid..(r + 1) * hid]);
            }
            let (dx, dh_prev, dc_prev) = self.cell.backward(&caches[t], &dh, &dc_next);
            // Embedding gradient.
            let tok = tokens[t];
            crate::vector::add_assign(&mut self.embed.g[tok * e..(tok + 1) * e], &dx);
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        self.adam_t += 1;
        let t = self.adam_t;
        let inv_t = 1.0 / t_len as f32;
        self.embed.adam_step(adam, t);
        self.why.adam_step(adam, t);
        self.by.adam_step(adam, t);
        self.cell.wx.adam_step(adam, t);
        self.cell.wh.adam_step(adam, t);
        self.cell.b.adam_step(adam, t);
        loss * inv_t
    }

    /// Corpus perplexity `exp(mean CE)` — the training loss the paper
    /// optimizes.
    pub fn perplexity(&self, corpus: &[Vec<Symbol>]) -> f32 {
        let v = self.vocab_size();
        let hid = self.cfg.hidden;
        let mut total = 0.0f64;
        let mut count = 0usize;
        for s in corpus {
            let tokens = self.tokenize(s);
            if tokens.is_empty() {
                continue;
            }
            let mut h = vec![0.0f32; hid];
            let mut c = vec![0.0f32; hid];
            for (t, &tok) in tokens.iter().enumerate() {
                let cache = self.cell.forward(self.embed_row(tok), &h, &c);
                h = cache.h.clone();
                c = cache_c(&cache);
                let mut p = vec![0.0f32; v];
                self.logits(&h, &mut p);
                crate::vector::softmax(&mut p);
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
            h: vec![0.0; self.cfg.hidden],
            c: vec![0.0; self.cfg.hidden],
        }
    }
}

/// Clone a step's cell state (kept behind an accessor so the cache stays
/// opaque elsewhere).
fn cache_c(cache: &crate::lstm::StepCache) -> Vec<f32> {
    cache.cell_state().to_vec()
}

impl LanguageModel {
    /// Embed a label sequence: run it through the LSTM and return the last
    /// hidden state (`xρ` of pattern discovery step 2). The empty sequence
    /// embeds to the zero vector.
    pub fn embed_sequence(&self, syms: &[Symbol]) -> Vec<f32> {
        let hid = self.cfg.hidden;
        let mut h = vec![0.0f32; hid];
        let mut c = vec![0.0f32; hid];
        for &sym in syms {
            let tok = self.token_of(sym);
            let cache = self.cell.forward(self.embed_row(tok), &h, &c);
            h = cache.h.clone();
            c = cache_c(&cache);
        }
        h
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
    h: Vec<f32>,
    c: Vec<f32>,
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
        let cache = self
            .model
            .cell
            .forward(self.model.embed_row(tok), &self.h, &self.c);
        self.h = cache.h.clone();
        self.c = cache_c(&cache);
        let mut p = vec![0.0f32; self.model.vocab_size()];
        self.model.logits(&self.h, &mut p);
        crate::vector::softmax(&mut p);
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
            h: self.h.clone(),
            c: self.c.clone(),
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
