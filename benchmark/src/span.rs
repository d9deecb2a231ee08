//! Spans recorded by the benchmark around calls into the engine's public
//! functions. They are kept in memory and written out when the run ends;
//! nothing inside the engine is touched.

use gsj_relational::physical::ExecContext;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `op` groups the spans of one benchmark operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, handed back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// Span recorder. When off, every method is a no-op that reads no clock,
/// so the same replay code measures the tracing overhead against itself.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// `gsj_obs` clock at `epoch`: operator start times are on that clock.
    obs_epoch_ns: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            obs_epoch_ns: gsj_obs::now_ns(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start the next benchmark operation: later spans carry its id. Spans
    /// left open by an operation that failed half-way are abandoned.
    pub fn next_op(&mut self) {
        self.op += 1;
        self.stack.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration (ns) of the current operation's spans called any
    /// of `names`.
    pub fn op_wall_ns(&self, names: &[&str]) -> u64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.op == self.op)
            .filter(|s| names.contains(&s.name))
            .map(Span::dur_ns)
            .sum()
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span; returns its id when tracing.
    pub fn exit(&mut self, open: Open) -> Option<u32> {
        let id = open.0?;
        self.spans[id as usize].end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        Some(id)
    }

    /// Time one leaf call.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Hang the operators of an executed plan under span `root` (the call
    /// that executed it), keeping the operator tree's own parent links.
    pub fn add_operators(&mut self, ctx: &ExecContext, root: Option<u32>) {
        if !self.on {
            return;
        }
        let base = self.spans.len() as u32;
        for (i, op) in ctx.ops().iter().enumerate() {
            let start_ns = op.start_ns.saturating_sub(self.obs_epoch_ns);
            self.spans.push(Span {
                id: base + i as u32,
                parent: op.parent.map(|p| base + p as u32).or(root),
                name: operator_kind(&op.label),
                start_ns,
                end_ns: start_ns + op.nanos as u64,
                op: self.op,
            });
        }
    }
}

/// Span names of `ExecContext` operators; `Operator` stands for a label
/// this list does not know.
pub const OPERATOR_KINDS: [&str; 12] = [
    "Scan",
    "Subquery",
    "EJoin",
    "LJoin",
    "HashJoin",
    "NestedLoopJoin",
    "Filter",
    "Aggregate",
    "Project",
    "Sort",
    "Limit",
    "Operator",
];

/// The operator kind of an `ExecContext` label such as `HashJoin(a ⋈ b)`.
pub fn operator_kind(label: &str) -> &'static str {
    let head = label.split('(').next().unwrap_or(label);
    OPERATOR_KINDS
        .into_iter()
        .find(|k| *k == head)
        .unwrap_or("Operator")
}

/// Is this an operator of the relational layer (as opposed to a semantic
/// join or a FROM-item wrapper)?
pub fn is_relational(kind: &str) -> bool {
    matches!(
        kind,
        "HashJoin" | "NestedLoopJoin" | "Filter" | "Aggregate" | "Project" | "Sort" | "Limit"
    )
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    /// Sum of span durations.
    pub wall_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

/// A span's self time is its duration minus what its children cover.
/// Children of one parent never overlap (one thread, nested calls), so
/// their durations simply add up.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut child_ns = vec![0u64; spans.len()];
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| index.get(&p)) {
            child_ns[*p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.wall_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The span list as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}}}",
            s.id, parent, s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, "execute", 0, 100),
            span(1, Some(0), "EJoin", 10, 70),
            span(2, Some(1), "Filter", 20, 30),
            span(3, Some(0), "Filter", 75, 95),
        ];
        let t = totals(&spans);
        assert_eq!(t["execute"].self_ns, 100 - 60 - 20);
        assert_eq!(t["EJoin"].self_ns, 60 - 10);
        assert_eq!(t["Filter"].self_ns, 30);
        assert_eq!(t["Filter"].count, 2);
        // Self times of a tree add up to the root's duration.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tracer_nests_and_switches_off() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let outer = tr.enter("outer");
        tr.time("inner", || ());
        tr.exit(outer);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].op, 1);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);

        tr.set_on(false);
        let o = tr.enter("ignored");
        assert_eq!(tr.exit(o), None);
        assert_eq!(tr.spans().len(), 2);
    }

    #[test]
    fn operator_kinds() {
        assert_eq!(operator_kind("HashJoin(a ⋈ b)"), "HashJoin");
        assert_eq!(operator_kind("Filter"), "Filter");
        assert_eq!(operator_kind("LJoin(<G> a × b, k=2, g_L cache)"), "LJoin");
        assert_eq!(operator_kind("???"), "Operator");
        assert!(is_relational("Project") && !is_relational("EJoin"));
    }

    #[test]
    fn spans_json_round_trips() {
        let spans = vec![span(0, None, "a", 1, 5), span(1, Some(0), "b", 2, 3)];
        let parsed = gsj_obs::parse_json(&spans_json(&spans)).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(arr[1].get("name").unwrap().as_str(), Some("b"));
        assert_eq!(arr[0].get("end_ns").unwrap().as_f64(), Some(5.0));
    }
}
