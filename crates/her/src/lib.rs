//! # gsj-her
//!
//! Heterogeneous Entity Resolution: the `HER` function of Section II-B,
//! which given a graph `G` and a set `S` of tuples computes the match
//! relation `f(S,G) = {(t, v) | t ⇒ v}` — pairs referring to the same
//! real-world entity.
//!
//! The paper plugs in existing systems (JedAI, parametric simulation,
//! MAGNN, EMBLOOKUP); this crate implements a rule-based matcher in the
//! JedAI spirit:
//!
//! 1. [`normalize`]: lower-cased token sets of attribute values and labels;
//! 2. [`blocking`]: schema-agnostic token blocking from vertex *vicinities*
//!    (own label + neighbor labels within a hop bound) — a tuple's
//!    candidates are the union of its tokens' blocks, each with the mask
//!    of values that share a token with it; labels and tokens are
//!    interned to `u32` ids and every vicinity set is precomputed when
//!    the index is built;
//! 3. [`matcher`]: scoring by the fraction of tuple attributes whose value
//!    is found (exactly or by token-Jaccard) in the candidate's vicinity,
//!    with an acceptance threshold — integer merges over the index's
//!    sorted id sets, run only for the candidates whose mask says they
//!    can still become the best match.
//!
//! [`noise`] deliberately corrupts a match relation to study cascading HER
//! error (Exp-2(c), Fig 5(g)); [`relation_er`] is the tuple-vs-tuple ER
//! used as the join condition of *heuristic joins* (Section IV-B).

pub mod blocking;
pub mod match_relation;
pub mod matcher;
pub mod noise;
pub mod normalize;
#[cfg(test)]
mod reference;
pub mod relation_er;
pub mod similarity;

pub use match_relation::MatchRelation;
pub use matcher::{her_match, her_match_local, HerConfig};
