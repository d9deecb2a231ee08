//! # gsj-graph
//!
//! The labeled-graph substrate of the semantic-join system: the paper's
//! `G = (V, E, L)` — a directed graph whose vertices and edges both carry
//! labels (Section II-A).
//!
//! Provides:
//! - [`LabeledGraph`]: an updatable adjacency-list store with interned
//!   labels and O(1) amortized edge insertion.
//! - [`Path`] / [`PathPattern`]: simple undirected paths and their edge-label
//!   patterns, with the `M(ρ, p)` matching predicate of Section III.
//! - [`traversal`]: k-hop BFS neighborhoods, the bit-parallel
//!   multi-source BFS link joins build their index with, and the pairwise
//!   bidirectional BFS kept as their reference.
//! - [`random_walk`]: corpus generation for training the path language
//!   model `Mρ`.
//! - [`update`]: the `ΔG` batch-update machinery consumed by IncExt.

pub mod graph;
pub mod path;
pub mod random_walk;
pub mod stats;
pub mod traversal;
pub mod update;

pub use graph::{Direction, Edge, LabeledGraph, VertexId};
pub use path::{Path, PathPattern};
pub use update::{GraphUpdate, UpdateReport};
