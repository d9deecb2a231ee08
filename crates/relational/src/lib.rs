//! # gsj-relational
//!
//! The relational substrate: a small in-memory engine playing the role
//! PostgreSQL plays in the paper (Section IV deploys semantic joins "atop
//! PostgreSQL"). It has no query language and no plan tree of its own:
//! gSQL's `QueryPlan` (in `gsj-core`) is the one plan, and it runs by
//! calling the operators of [`physical`] over materialized relations.
//!
//! - [`schema`] / [`mod@tuple`] / [`relation`]: databases `D = (D1, ..., Dn)`
//!   of relations over schemas `R(A1, ..., Ak)`, each tuple carrying a
//!   tuple id (primary key) per Codd's entity reading (Section II-A).
//! - [`column`]: the columnar storage layer — typed column vectors with
//!   validity bitmaps, the only storage behind [`relation::Relation`]
//!   (a [`Tuple`] is materialized on demand and never kept).
//! - [`expr`]: scalar expressions and predicates with SQL-style
//!   null-rejecting comparisons, and aggregate specifications.
//! - [`exec`]: the vectorized, morsel-parallel, governed kernels — hash
//!   and nested-loop joins, filter, sort, grouping + aggregation.
//! - [`physical`]: the instrumented operators (`join_rel`, `filter_rel`,
//!   `aggregate_rel`, `sort_rel`, `limit_rel`) that wrap one kernel each
//!   with governance checks and per-operator counters in a
//!   [`physical::ExecContext`]; hash vs nested-loop join is chosen here.
//! - [`catalog`]: the named-relation database.

pub mod catalog;
pub mod column;
pub mod exec;
pub mod expr;
pub mod physical;
pub mod relation;
pub mod schema;
pub mod tuple;

pub use catalog::Database;
pub use column::{Bitmap, CellRef, Column};
pub use expr::{AggFunc, AggSpec, BinOp, CmpOp, Expr};
pub use physical::{approx_rel_bytes, ExecContext, OpStats};
pub use relation::Relation;
pub use schema::Schema;
pub use tuple::Tuple;
