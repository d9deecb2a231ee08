//! The closed loop: one caller issues the cycle's operations one after
//! the other, each timed at the caller, for whole cycles until the window
//! is over.

use crate::fixture::Fixture;
use crate::span::Tracer;
use crate::stats::run_cycles;
use crate::workload::{Action, Class, Op, Plan};
use gsj_core::gsql::exec::Strategy;
use gsj_graph::GraphUpdate;
use gsj_server::{Client, QueryOpts, QueryReply};
use std::time::Instant;

/// Cycles run before the window opens.
pub const WARMUP_CYCLES: usize = 3;

/// Reads a window must hold before it may close: p90 then has 12 samples
/// beyond it. A host too slow to get there in `--seconds` measures longer
/// instead of failing.
pub const MIN_READS: usize = 120;

/// Issues operations the way the workload's caller does: over the wire
/// when a client is connected, otherwise straight into the engine.
pub struct Caller<'a> {
    pub fx: &'a mut Fixture,
    pub client: Option<Client>,
    pub strategy: Strategy,
    pub deltas: &'a [Vec<GraphUpdate>],
}

/// Data rows of a CSV body (the first line is the header).
pub fn csv_rows(body: &str) -> usize {
    body.lines().count().saturating_sub(1)
}

/// One query over GSJ/1 under `strategy`. A reply whose `rows` header
/// disagrees with its body is a wrong result.
pub fn wire_query(
    client: &mut Client,
    text: &str,
    strategy: Strategy,
) -> Result<QueryReply, String> {
    let opts = QueryOpts {
        strategy: Some(strategy),
        ..QueryOpts::default()
    };
    let reply = client.query_with(text, &opts).map_err(|e| e.to_string())?;
    let rows = csv_rows(&reply.body) as u64;
    if reply.rows != Some(rows) {
        return Err(format!(
            "rows header {:?} but {rows} rows in the body",
            reply.rows
        ));
    }
    Ok(reply)
}

impl Caller<'_> {
    /// Run one operation; `Err` is a failed operation.
    pub fn exec(&mut self, op: &Op) -> Result<(), String> {
        match (&op.action, &mut self.client) {
            (Action::Query(text), Some(client)) => {
                wire_query(client, text, self.strategy).map(|_| ())
            }
            (Action::Query(text), None) => self
                .fx
                .engine
                .run(text, self.strategy)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            (Action::Update(i), _) => self
                .fx
                .apply(&self.deltas[*i], &mut Tracer::new(false))
                .map_err(|e| e.to_string()),
        }
    }
}

/// Operations attempted and failed, with the first failure's message.
#[derive(Debug, Default)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Outcomes {
    /// Count one operation; returns whether it succeeded.
    pub fn count(&mut self, op: &Op, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(e) = &outcome {
            self.failed += 1;
            self.first_error.get_or_insert(format!("{}: {e}", op.label));
        }
        outcome.is_ok()
    }
}

/// One successful operation of the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Cycle of the window it belongs to, from 0.
    pub cycle: usize,
    /// When it was issued, since the window opened (ns).
    pub start_ns: u64,
    pub label: &'static str,
    pub class: Class,
    pub latency_ns: u64,
}

/// What one window observed.
#[derive(Debug, Default)]
pub struct Samples {
    /// Every successful operation, in issue order.
    pub log: Vec<Sample>,
    pub outcomes: Outcomes,
    pub cycles: usize,
    pub window_ns: u64,
}

/// Run cycles `first..` until `seconds` have passed and [`MIN_READS`]
/// reads were issued, ending on a cycle boundary.
pub fn measure(caller: &mut Caller, plan: &Plan, first: usize, seconds: f64) -> Samples {
    let mut s = Samples::default();
    let reads_per_cycle = plan.reads_per_cycle();
    let start = Instant::now();
    s.cycles = run_cycles(
        |i| {
            for op in plan.cycle(first + i) {
                let t = Instant::now();
                let outcome = caller.exec(&op);
                let latency_ns = t.elapsed().as_nanos() as u64;
                if s.outcomes.count(&op, outcome) {
                    s.log.push(Sample {
                        cycle: i,
                        start_ns: t.duration_since(start).as_nanos() as u64,
                        label: op.label,
                        class: op.class,
                        latency_ns,
                    });
                }
            }
        },
        |cycles| start.elapsed().as_secs_f64() >= seconds && cycles * reads_per_cycle >= MIN_READS,
    );
    s.window_ns = start.elapsed().as_nanos() as u64;
    s
}

/// The warm-up cycles; their failures count as failed checks.
pub fn warm_up(caller: &mut Caller, plan: &Plan) -> Result<(), String> {
    for i in 0..WARMUP_CYCLES {
        for op in plan.cycle(i) {
            caller
                .exec(&op)
                .map_err(|e| format!("warm-up {}: {e}", op.label))?;
        }
    }
    Ok(())
}
