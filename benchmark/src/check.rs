//! Correctness checks, run once per run before the window opens.

use crate::delta::edge_list;
use crate::fixture::Fixture;
use crate::json::J;
use crate::run::{wire_query, Caller};
use crate::span::Tracer;
use crate::workload::{Action, Plan};
use gsj_core::gsql::exec::{GsqlEngine, Strategy};
use gsj_graph::GraphUpdate;
use gsj_her::her_match;
use gsj_relational::Relation;
use std::time::Instant;

/// Row agreement below which two extractions count as different. RExt
/// picks paths by seeded random walks over adjacency lists, so reordering
/// a vertex's edges (remove + re-insert) may change a multi-hop cell of an
/// otherwise identical row, and IncExt re-matches a tuple against the
/// vertices near the update only, which can break a tie differently from
/// HER over the whole graph; gross divergence is still caught.
pub const MIN_AGREEMENT: f64 = 0.9;

/// Outcome of the checks: how many ran, which failed, and facts that are
/// recorded beside the result without deciding it.
#[derive(Debug, Default)]
pub struct Checks {
    pub run: usize,
    pub failures: Vec<String>,
    pub notes: Vec<(String, J)>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, key: &str, value: J) {
        self.notes.push((key.to_string(), value));
    }
}

/// Header plus sorted data lines: equal values mean equal row multisets.
fn csv_multiset(csv: &str) -> (Option<&str>, Vec<&str>) {
    let mut lines = csv.lines();
    let header = lines.next();
    let mut rows: Vec<&str> = lines.collect();
    rows.sort_unstable();
    (header, rows)
}

fn same_rows(a: &str, b: &str) -> bool {
    csv_multiset(a) == csv_multiset(b)
}

/// Share of the rows of `a` that also occur in `b` (1.0 for two empty lists).
fn agreement(a: &[String], b: &[String]) -> f64 {
    let longer = a.len().max(b.len());
    if longer == 0 {
        return 1.0;
    }
    let common = a.iter().filter(|r| b.binary_search(r).is_ok()).count();
    common as f64 / longer as f64
}

fn rows_of(rel: &Relation) -> Vec<String> {
    let csv = rel.to_csv();
    let mut rows: Vec<String> = csv.lines().skip(1).map(str::to_string).collect();
    rows.sort_unstable();
    rows
}

/// For every distinct query of the plan: the caller's answer equals the
/// engine's own answer under the same strategy (row multiset, and the
/// `rows` header counts the body). Link joins must also agree between
/// `Optimized` and `Baseline`: both resolve the same HER matches and the
/// same k-hop connectivity, one from the profile and `g_L`, one online.
pub fn check_queries(caller: &mut Caller, plan: &Plan, checks: &mut Checks) {
    for op in plan.distinct_queries() {
        let Action::Query(text) = &op.action else {
            continue;
        };
        let label = op.label;
        let reference = caller.fx.engine.run(text, caller.strategy);
        checks.expect(reference.is_ok(), || {
            format!("{label}: engine error {:?}", reference.as_ref().err())
        });
        let Ok(reference) = reference.map(|rel| rel.to_csv()) else {
            continue;
        };
        if let Some(client) = caller.client.as_mut() {
            let reply = wire_query(client, text, caller.strategy);
            checks.expect(reply.is_ok(), || {
                format!("{label}: over the wire: {:?}", reply.as_ref().err())
            });
            if let Ok(reply) = reply {
                checks.expect(same_rows(&reply.body, &reference), || {
                    format!("{label}: wire rows differ from GsqlEngine::run")
                });
            }
        }
        if text.contains("l-join") {
            let agrees = strategies_agree(&caller.fx.engine, text);
            checks.expect(agrees == Ok(true), || {
                format!("{label}: Optimized and Baseline link joins differ ({agrees:?})")
            });
        }
    }
}

/// Do `Optimized` and `Baseline` return the same row multiset?
pub fn strategies_agree(engine: &GsqlEngine, text: &str) -> Result<bool, String> {
    let run = |s| {
        engine
            .run(text, s)
            .map(|r| r.to_csv())
            .map_err(|e| e.to_string())
    };
    Ok(same_rows(
        &run(Strategy::Optimized)?,
        &run(Strategy::Baseline)?,
    ))
}

/// Drive the first `pairs` (batch, inverse) pairs through IncExt once and
/// return each update's latency (ns). The first time round, the maintained
/// extraction after the very first batch is compared with HER + extraction
/// from scratch on the updated graph; after every inverse the edge set must
/// be the pristine one again and `D_G` must agree with the pristine `D_G`.
pub fn write_probe(
    fx: &mut Fixture,
    deltas: &[Vec<GraphUpdate>],
    pairs: usize,
    first_round: bool,
    checks: &mut Checks,
) -> Vec<u64> {
    let pristine_edges = edge_list(fx.graph());
    let pristine_dg = rows_of(&fx.extraction().dg);
    let mut tr = Tracer::new(false);
    let mut latencies = Vec::new();
    let mut restored = 1.0f64;
    for (i, batch) in deltas.iter().take(2 * pairs).enumerate() {
        let t = Instant::now();
        let applied = fx.apply(batch, &mut tr);
        latencies.push(t.elapsed().as_nanos() as u64);
        if let Err(e) = applied {
            checks.expect(false, || format!("ΔG batch {i}: {e}"));
            return latencies;
        }
        if first_round && i == 0 {
            check_against_scratch(fx, checks);
        }
        if i % 2 == 1 {
            checks.expect(edge_list(fx.graph()) == pristine_edges, || {
                format!("ΔG batch {} + inverse did not restore the edges", i - 1)
            });
            restored = restored.min(agreement(&rows_of(&fx.extraction().dg), &pristine_dg));
        }
    }
    checks.expect(restored >= MIN_AGREEMENT, || {
        format!("batch + inverse restored only {restored:.3} of the pristine D_G rows")
    });
    if first_round {
        checks.note("dg_restored_agreement", J::Num(restored));
    }
    latencies
}

/// IncExt against `her_match` + `Rext::extract` over the updated graph,
/// with the retained discovery (IncExt keeps the patterns) and fresh
/// paths: match relations and extracted rows must agree.
fn check_against_scratch(fx: &Fixture, checks: &mut Checks) {
    let ex = fx.extraction();
    let scratch = her_match(fx.graph(), fx.relation(), &fx.col.her_config()).and_then(|m| {
        let mut discovery = ex.discovery.clone();
        discovery.paths.clear();
        let dg = fx.rext.extract(fx.graph(), &m, &discovery)?;
        Ok((m, dg))
    });
    match scratch {
        Ok((matches, dg)) => {
            let pairs = |m: &gsj_her::MatchRelation| {
                let mut p: Vec<String> = m
                    .pairs()
                    .iter()
                    .map(|(t, v)| format!("{t}={}", v.0))
                    .collect();
                p.sort();
                p
            };
            let matched = agreement(&pairs(&ex.matches), &pairs(&matches));
            let extracted = agreement(&rows_of(&ex.dg), &rows_of(&dg));
            checks.expect(matched.min(extracted) >= MIN_AGREEMENT, || {
                format!(
                    "IncExt agrees with HER + extraction from scratch on only {matched:.3} \
                     of the matches and {extracted:.3} of the D_G rows"
                )
            });
            checks.note("incext_scratch_match_agreement", J::Num(matched));
            checks.note("incext_scratch_agreement", J::Num(extracted));
        }
        Err(e) => checks.expect(false, || format!("extraction from scratch: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_multisets_ignore_order_but_not_counts() {
        assert!(same_rows("a,b\n1,2\n3,4\n", "a,b\n3,4\n1,2\n"));
        assert!(!same_rows("a,b\n1,2\n1,2\n", "a,b\n1,2\n"));
        assert!(!same_rows("a,b\n1,2\n", "a,c\n1,2\n"));
    }

    #[test]
    fn agreement_is_the_shared_share() {
        let rows = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(agreement(&rows(&["a", "b"]), &rows(&["a", "b"])), 1.0);
        assert_eq!(agreement(&rows(&["a", "b"]), &rows(&["a", "c"])), 0.5);
        assert_eq!(agreement(&[], &[]), 1.0);
    }
}
