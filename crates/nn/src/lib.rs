//! # gsj-nn
//!
//! The machine-learning substrate of RExt (Section III-A), implemented from
//! scratch in pure Rust:
//!
//! - [`vector`] / [`matrix`]: dense `f32` linear algebra primitives.
//! - [`lanes`]: [`lanes::LaneMatrix`], one probe vector against many
//!   stored vectors at once with the bits of the scalar loop — the forward
//!   mat-vecs of the LSTM and the distance kernel of K-means.
//! - [`tensor`]: parameter tensors with gradients and an Adam optimizer.
//! - [`embedding`]: [`embedding::HashEmbedder`] — the workspace's stand-in
//!   for pretrained GloVe word vectors (`Me`). It hashes word tokens and
//!   character trigrams into a fixed-dimensional space, so semantically
//!   overlapping labels (`regloc` vs `loc`) land near each other — the
//!   property RExt needs from `Me` (see DESIGN.md §2 for the substitution
//!   rationale).
//! - [`lstm`] / [`lm`]: a single-layer LSTM language model `Mρ` trained by
//!   truncated BPTT with the perplexity (cross-entropy) loss on
//!   random-walk label sentences, used both to *guide path selection* and
//!   to *embed paths* (the last hidden state). Training is one
//!   allocation-free kernel per sentence whose weights are bit-identical
//!   to the straightforward code's, kept under `#[cfg(test)]` in
//!   `reference.rs` (DESIGN.md §8, "Training kernel").
//! - [`attention`]: a small self-attention encoder standing in for BERT in
//!   the `RExtBertEmb`/`RExtBertSeq` ablation baselines — deliberately
//!   heavier per call, as BERT is relative to GloVe/LSTM.

pub mod attention;
pub mod embedding;
pub mod lanes;
pub mod lm;
pub mod lstm;
pub mod matrix;
#[cfg(test)]
mod reference;
pub mod tensor;
pub mod vector;

pub use attention::AttnEncoder;
pub use embedding::{HashEmbedder, WordEmbedder};
pub use lm::{LanguageModel, LmConfig, LmSession, SequenceEmbedder, TokenId, EOS, UNK};
pub use lstm::LstmCell;
pub use matrix::Matrix;
pub use tensor::{AdamConfig, Param};
pub use vector::{add_assign, cosine, dot, l2_norm, l2_normalize, scale};
