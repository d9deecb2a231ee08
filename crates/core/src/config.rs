//! RExt configuration and the ablation variant switches.

use gsj_common::{GsjError, Result};
use gsj_graph::random_walk::WalkConfig;
use gsj_nn::LmConfig;

/// Which word-embedding model `Me` to use (Exp-2(b) ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedKind {
    /// The GloVe stand-in (default RExt). 256 dimensions: the hash
    /// embedder needs more width than real GloVe for the same noise floor
    /// (random-sign features give ~1/√d cosine noise between unrelated
    /// labels; see DESIGN.md §2).
    Hash100,
    /// 50-dimensional variant → `RExtShortEmb`.
    Hash50,
    /// Self-attention encoder → `RExtBertEmb`.
    Attn,
}

/// Which sequence-embedding model `Mρ` to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqKind {
    /// LSTM with a 100-wide hidden layer (default RExt).
    Lstm100,
    /// 50-wide LSTM → `RExtShortSeq`.
    Lstm50,
    /// Self-attention encoder → `RExtBertSeq`.
    Attn,
}

/// How paths are selected from matching vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Guided by the language model's next-edge-label distribution
    /// (default RExt).
    LmGuided,
    /// Uniformly random walks → the `RndPath` baseline.
    Random,
}

/// Everything the weights of the language model `Mρ` depend on besides
/// the graph: the random-walk corpus and the training hyper-parameters.
/// Variants whose keys are equal fit bit-identical models on one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LmKey {
    /// Corpus generation.
    pub walk: WalkConfig,
    /// Training hyper-parameters, seed included.
    pub lm: LmConfig,
}

/// All knobs of the extraction scheme. Paper defaults: `H = 30`, `m = 3`,
/// `|A| = 4`, `k = 3` (Exp-2(a)).
#[derive(Debug, Clone)]
pub struct RExtConfig {
    /// Path length bound `k`.
    pub k: usize,
    /// Number of K-means clusters `H`.
    pub h: usize,
    /// Number of attributes `m` to select for `R_G`.
    pub m: usize,
    /// K-means iteration cap ("limited iterations").
    pub kmeans_iters: usize,
    /// Word-embedding model choice.
    pub embed: EmbedKind,
    /// Sequence-embedding model choice.
    pub seq: SeqKind,
    /// Path-selection strategy.
    pub path: PathKind,
    /// Language-model training hyper-parameters.
    pub lm: LmConfig,
    /// Edge labels that type entities (used by the same-type-end cluster
    /// filter and by typed extraction).
    pub type_edges: Vec<String>,
    /// Model the paper's user-inspection step: reject pattern clusters
    /// whose paths mostly end at entities of the *same type* as their
    /// start vertex — those are links between peers, not properties.
    pub filter_same_type_ends: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for RExtConfig {
    fn default() -> Self {
        RExtConfig {
            k: 3,
            h: 30,
            m: 3,
            kmeans_iters: 20,
            embed: EmbedKind::Hash100,
            seq: SeqKind::Lstm100,
            path: PathKind::Random,
            lm: LmConfig::default(),
            type_edges: vec!["type".into(), "is_a".into()],
            filter_same_type_ends: true,
            seed: 0x5e_a1,
        }
    }
}

impl RExtConfig {
    /// The full default pipeline (LM-guided paths).
    pub fn standard() -> Self {
        RExtConfig {
            path: PathKind::LmGuided,
            ..RExtConfig::default()
        }
    }

    /// `RExtBertEmb` baseline.
    pub fn bert_emb() -> Self {
        RExtConfig {
            embed: EmbedKind::Attn,
            ..Self::standard()
        }
    }

    /// `RExtShortEmb` baseline.
    pub fn short_emb() -> Self {
        RExtConfig {
            embed: EmbedKind::Hash50,
            ..Self::standard()
        }
    }

    /// `RExtBertSeq` baseline.
    pub fn bert_seq() -> Self {
        RExtConfig {
            seq: SeqKind::Attn,
            ..Self::standard()
        }
    }

    /// `RExtShortSeq` baseline.
    pub fn short_seq() -> Self {
        RExtConfig {
            seq: SeqKind::Lstm50,
            lm: LmConfig::short(),
            ..Self::standard()
        }
    }

    /// `RndPath` baseline: random paths, no ML guidance.
    pub fn rnd_path() -> Self {
        RExtConfig {
            path: PathKind::Random,
            ..RExtConfig::default()
        }
    }

    /// Sanity-check parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(GsjError::Config("path bound k must be ≥ 1".into()));
        }
        if self.h == 0 {
            return Err(GsjError::Config("cluster count H must be ≥ 1".into()));
        }
        if self.m == 0 {
            return Err(GsjError::Config("attribute count m must be ≥ 1".into()));
        }
        // The Lstm50 sequence model requires a matching LM hidden width;
        // catch silent misconfiguration early.
        if self.seq == SeqKind::Lstm50 && self.lm.hidden != 50 {
            return Err(GsjError::Config(
                "SeqKind::Lstm50 requires lm.hidden = 50 (use RExtConfig::short_seq())".into(),
            ));
        }
        Ok(())
    }

    /// The key of the language model this variant trains, `None` when it
    /// uses neither LM-guided paths nor an LSTM sequence embedding. The
    /// walks are long enough for any `k` up to the configured one; `H`,
    /// `m`, the word embedder and the thread count do not enter.
    pub fn lm_key(&self) -> Option<LmKey> {
        let needs_lm = self.path == PathKind::LmGuided
            || matches!(self.seq, SeqKind::Lstm100 | SeqKind::Lstm50);
        needs_lm.then(|| LmKey {
            walk: WalkConfig {
                walks_per_vertex: 3,
                max_len: self.k.max(2) * 2,
                seed: self.seed,
            },
            lm: LmConfig {
                seed: self.seed ^ 0x1111,
                ..self.lm.clone()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RExtConfig::standard();
        assert_eq!((c.k, c.h, c.m), (3, 30, 3));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn five_of_the_six_variants_share_a_model_key() {
        let std = RExtConfig::standard().lm_key().unwrap();
        for cfg in [
            RExtConfig::bert_emb(),
            RExtConfig::short_emb(),
            RExtConfig::bert_seq(),
            RExtConfig::rnd_path(),
        ] {
            assert_eq!(cfg.lm_key().as_ref(), Some(&std));
        }
        assert_ne!(RExtConfig::short_seq().lm_key().unwrap(), std);
        // H and m are discovery-time; k decides the walk length.
        let mut c = RExtConfig::standard();
        (c.h, c.m) = (50, 1);
        assert_eq!(c.lm_key().unwrap(), std);
        c.k = 4;
        assert_ne!(c.lm_key().unwrap(), std);
        let no_lm = RExtConfig {
            seq: SeqKind::Attn,
            ..RExtConfig::rnd_path()
        };
        assert_eq!(no_lm.lm_key(), None);
    }

    #[test]
    fn validation_catches_degenerate_params() {
        let mut c = RExtConfig::standard();
        c.k = 0;
        assert!(c.validate().is_err());
        let mut c = RExtConfig::standard();
        c.h = 0;
        assert!(c.validate().is_err());
        let mut c = RExtConfig::standard();
        c.seq = SeqKind::Lstm50; // without shrinking lm.hidden
        assert!(c.validate().is_err());
        assert!(RExtConfig::short_seq().validate().is_ok());
    }
}
