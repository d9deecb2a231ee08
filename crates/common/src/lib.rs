//! # gsj-common
//!
//! Shared kernel for the `gsj` workspace — the Rust reproduction of
//! *"Extracting Graphs Properties with Semantic Joins"* (ICDE 2023).
//!
//! This crate carries the building blocks every other crate depends on:
//!
//! - [`Value`]: the dynamically-typed scalar used by both relational tuples
//!   and graph labels (`Null`, `Int`, `Float`, `Str`, `Bool`).
//! - [`Symbol`] / [`SymbolTable`]: cheap interned strings for graph vertex
//!   and edge labels, so hot traversal code compares `u32`s instead of
//!   strings.
//! - [`FxHashMap`] / [`FxHashSet`]: hash containers using the Firefox/rustc
//!   `FxHash` function — dramatically faster than SipHash for the small
//!   integer keys (vertex ids, symbols) that dominate this workload.
//! - [`GsjError`]: the workspace error type.
//! - [`QueryGovernor`]: cooperative deadlines, budgets and cancellation
//!   threaded through execution (DESIGN.md §11).
//! - [`pool`]: the worker pool of the two fan-outs measured paying —
//!   RExt's path selection and label embeddings; everything else runs on
//!   the query's own thread (DESIGN.md §13).
//! - [`retry`]: bounded exponential backoff with deterministic jitter for
//!   transient failures.

pub mod error;
pub mod fxhash;
pub mod governor;
pub mod pool;
pub mod retry;
pub mod symbol;
pub mod value;

pub use error::{panic_message, GsjError, Result};
pub use fxhash::{first_occurrences, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use governor::{GovernorBuilder, QueryGovernor};
pub use symbol::{Symbol, SymbolTable};
pub use value::Value;
