//! Semantic joins (Section II-B): enrichment joins `S ⋈_A G` and link
//! joins `S1 ⋈_G S2`, in both the conceptual (online HER + RExt) and the
//! precomputed (static/dynamic) forms of Section IV-A.

pub mod enrichment;
pub mod link;

pub use enrichment::{enrichment_join, enrichment_join_precomputed};
pub use link::{
    connectivity_relation, link_join, link_join_resolved, link_join_with_matches, LinkIndex,
};
