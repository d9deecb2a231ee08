//! The four workloads: which fixture each runs on, and the operations of
//! its cycle. Everything here is a pure function of the generated
//! collection and `--seed`, so the same seed issues the same operations.

use gsj_core::gsql::exec::Strategy;
use gsj_datagen::queries::workload as query_templates;
use gsj_datagen::Collection;

/// Fixture A: `Scale(100)`, 200 tuples. Fixture B: `Scale(40)`, 80 tuples.
pub const SCALE_A: usize = 100;
pub const SCALE_B: usize = 40;

/// ΔG batches of the data set (each followed by its inverse).
pub const DELTA_BATCHES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EjoinServed,
    LjoinServed,
    OnlineBaseline,
    IncextMixed,
}

pub const ALL: [Workload; 4] = [
    Workload::EjoinServed,
    Workload::LjoinServed,
    Workload::OnlineBaseline,
    Workload::IncextMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::EjoinServed => "ejoin_served",
            Workload::LjoinServed => "ljoin_served",
            Workload::OnlineBaseline => "online_baseline",
            Workload::IncextMixed => "incext_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::EjoinServed => {
                "wire framing, parse, plan and the precomputed e-join dominate; HER, RExt and BFS idle"
            }
            Workload::LjoinServed => {
                "the g_L cache-hit path of the link join (clone, pair set, gather, filter); BFS idle"
            }
            Workload::OnlineBaseline => {
                "HER and RExt at query time (Exp-3(II) baseline); server and relational layers under 1%"
            }
            Workload::IncextMixed => {
                "IncExt writes beside reads; the g_L miss path puts BFS on the critical path"
            }
        }
    }

    pub fn scale(self) -> usize {
        match self {
            Workload::OnlineBaseline => SCALE_B,
            _ => SCALE_A,
        }
    }

    /// Queries go over GSJ/1 to an in-process server; otherwise the
    /// engine is called directly and held `&mut` for IncExt.
    pub fn served(self) -> bool {
        self != Workload::IncextMixed
    }

    pub fn strategy(self) -> Strategy {
        match self {
            Workload::OnlineBaseline => Strategy::Baseline,
            _ => Strategy::Optimized,
        }
    }
}

/// Cost class of an operation within its cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Body,
    Tail,
    /// A ΔG batch through IncExt: timed on its own, not a read.
    Update,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    Query(String),
    /// Apply entry `index` of the run's ΔG sequence.
    Update(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Template name: one correctness check per distinct label.
    pub label: &'static str,
    pub class: Class,
    pub action: Action,
}

impl Op {
    fn query(label: &'static str, class: Class, text: String) -> Op {
        Op {
            label,
            class,
            action: Action::Query(text),
        }
    }
}

/// splitmix64: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// The operation generator of one workload over one collection.
pub struct Plan {
    workload: Workload,
    rel: String,
    id: String,
    /// q1..q6 of `gsj_datagen::queries::workload`, constants included.
    templates: Vec<String>,
    /// The id constants baked into the templates (`id_of(0)`, `id_of(1)`).
    some_id: String,
    other_id: String,
    /// All tuple ids, in a seeded order.
    ids: Vec<String>,
    /// Ids per `category` value (`Cat0`, `Cat1`), each in a seeded order.
    ids_by_cat: [Vec<String>; 2],
    /// The ΔG batch the first cycle applies.
    first_batch: usize,
}

impl Plan {
    pub fn new(workload: Workload, col: &Collection, seed: u64) -> Plan {
        let n = col.spec.entities;
        let ids: Vec<String> = permutation(n, mix(seed, 1))
            .into_iter()
            .map(|i| col.id_of(i))
            .collect();
        let rel = col.entity_relation();
        let id_col = rel.column(&col.spec.id_attr).expect("id column");
        let cat_col = rel.column("category").expect("category column");
        let cat_of = |id: &str| {
            let row = id_col.iter().position(|v| v.to_string() == id);
            row.map(|r| cat_col[r].to_string())
        };
        let by_cat = |cat: &str| -> Vec<String> {
            ids.iter()
                .filter(|id| cat_of(id).as_deref() == Some(cat))
                .cloned()
                .collect()
        };
        Plan {
            workload,
            rel: col.spec.rel_name.clone(),
            id: col.spec.id_attr.clone(),
            templates: query_templates(col).into_iter().map(|q| q.text).collect(),
            some_id: col.id_of(0),
            other_id: col.id_of(1),
            ids_by_cat: [by_cat("Cat0"), by_cat("Cat1")],
            ids,
            first_batch: (mix(seed, 2) % DELTA_BATCHES as u64) as usize,
        }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    fn id_at(&self, i: usize) -> &str {
        &self.ids[i % self.ids.len()]
    }

    /// Template `q{n}` unchanged.
    fn q(&self, n: usize) -> String {
        self.templates[n - 1].clone()
    }

    /// `q1` with its id constant replaced.
    fn q1(&self, id: &str) -> String {
        let t = &self.templates[0];
        let head = t
            .strip_suffix(self.some_id.as_str())
            .expect("q1 ends with its id constant");
        format!("{head}{id}")
    }

    /// The link-join predicate of `q6` with both id constants replaced.
    fn link_where(&self, x: &str, y: &str) -> String {
        format!(
            "where {rel}.{id} = {x} and not {rel}B.{id} = {y}",
            rel = self.rel,
            id = self.id
        )
    }

    /// `q6` (full × full link join) with rotated constants.
    fn q6(&self, x: &str, y: &str) -> String {
        let t = &self.templates[5];
        let old = self.link_where(&self.some_id, &self.other_id);
        assert!(t.ends_with(&old), "q6 ends with its link predicate");
        format!("{}{}", &t[..t.len() - old.len()], self.link_where(x, y))
    }

    /// Q3-form link join whose left side is one category.
    fn ljoin_sub(&self, cat: usize, x: &str, y: &str) -> String {
        format!(
            "select * from (select * from {rel} where category = 'Cat{cat}') \
             l-join <G> {rel} as {rel}B {}",
            self.link_where(x, y),
            rel = self.rel
        )
    }

    /// Dynamic e-join over one category, selecting one keyword.
    fn ejoin_sub(&self, cat: usize, kw: &str) -> String {
        format!(
            "select {id}, {kw} from (select * from {rel} where category = 'Cat{cat}') \
             e-join G <team, city> as T",
            id = self.id,
            rel = self.rel
        )
    }

    /// The wide self e-join on `team`.
    fn wide(&self) -> String {
        format!(
            "select T1.{id}, T2.{id} from {rel} e-join G <team> as T1, \
             {rel} e-join G <team> as T2 where T1.team = T2.team",
            id = self.id,
            rel = self.rel
        )
    }

    /// The operations of cycle `i`, in issue order.
    pub fn cycle(&self, i: usize) -> Vec<Op> {
        use Class::{Body, Tail, Update};
        match self.workload {
            Workload::EjoinServed => vec![
                Op::query("q1", Body, self.q1(self.id_at(i))),
                Op::query("q2", Body, self.q(2)),
                Op::query("q4", Body, self.q(4)),
                Op::query("q5", Body, self.q(5)),
                Op::query("wide", Tail, self.wide()),
            ],
            Workload::LjoinServed => {
                let mut ops: Vec<Op> = (0..4)
                    .map(|slot| {
                        let cat = slot % 2;
                        let members = &self.ids_by_cat[cat];
                        let x = &members[(2 * i + slot / 2) % members.len()];
                        let y = self.id_at(4 * i + slot + 1);
                        let label = if cat == 0 { "lj_cat0" } else { "lj_cat1" };
                        Op::query(label, Body, self.ljoin_sub(cat, x, y))
                    })
                    .collect();
                ops.push(Op::query(
                    "q6",
                    Tail,
                    self.q6(self.id_at(i), self.id_at(i + 1)),
                ));
                ops
            }
            Workload::OnlineBaseline => vec![
                Op::query("ej_cat0_team", Body, self.ejoin_sub(0, "team")),
                Op::query("ej_cat1_city", Body, self.ejoin_sub(1, "city")),
                Op::query("ej_cat1_team", Body, self.ejoin_sub(1, "team")),
                Op::query("ej_cat0_city", Body, self.ejoin_sub(0, "city")),
                Op::query("q2", Tail, self.q(2)),
            ],
            Workload::IncextMixed => vec![
                Op {
                    label: "update",
                    class: Update,
                    // Even entries are batches, odd ones their inverses.
                    action: Action::Update((2 * self.first_batch + i) % (2 * DELTA_BATCHES)),
                },
                // Four body reads, like the served cycles: with three, the
                // median read would sit on the border between two templates.
                Op::query("q1", Body, self.q1(self.id_at(i))),
                Op::query("q2", Body, self.q(2)),
                Op::query("q4", Body, self.q(4)),
                Op::query("q5", Body, self.q(5)),
                Op::query("q6", Tail, self.q6(self.id_at(i), self.id_at(i + 1))),
            ],
        }
    }

    /// Reads (body and tail) in every cycle.
    pub fn reads_per_cycle(&self) -> usize {
        self.cycle(0)
            .iter()
            .filter(|op| op.class != Class::Update)
            .count()
    }

    /// One operation per distinct query template, from the first cycles:
    /// the set every correctness check runs over.
    pub fn distinct_queries(&self) -> Vec<Op> {
        let mut seen: Vec<Op> = Vec::new();
        for op in self.cycle(0) {
            let is_query = matches!(op.action, Action::Query(_));
            if is_query && !seen.iter().any(|s| s.label == op.label) {
                seen.push(op);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200);
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(50, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(p, permutation(50, 7));
        assert_ne!(p, permutation(50, 8));
    }
}
