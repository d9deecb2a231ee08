//! The untraced run and the result it prints.

use crate::check::{check_queries, write_probe, Checks};
use crate::json::J;
use crate::run::{measure, warm_up, Caller, Outcomes, Sample, Samples, WARMUP_CYCLES};
use crate::span::Tracer;
use crate::stats::Better;
use crate::workload::{Class, Plan, Workload, DELTA_BATCHES};
use crate::{delta, fixture, stats, Args, WORKERS};
use gsj_server::Client;
use std::time::Instant;

/// End-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("upd_p50_us", "us"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

pub struct Report {
    /// Run context recorded beside the numbers (host, seed, commit…).
    pub context: Vec<(String, J)>,
    pub checks_run: usize,
    pub check_failures: Vec<String>,
    pub outcomes: Outcomes,
    pub metrics: Vec<Metric>,
    /// Further detail for the result file only.
    pub extra: Vec<(String, J)>,
    /// `(file name, content)` written under `--out`.
    pub files: Vec<(String, String)>,
}

/// Facts that must travel with every number so results from different
/// hosts, seeds or commits are never compared silently.
pub fn context(args: &Args) -> Vec<(String, J)> {
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload".into(), J::str(args.workload.name())),
        ("trace".into(), J::Bool(args.trace)),
        ("collection".into(), J::str(fixture::COLLECTION)),
        ("scale".into(), args.workload.scale().into()),
        ("data_seed".into(), fixture::DATA_SEED.into()),
        ("seed".into(), args.seed.into()),
        ("seconds".into(), args.seconds.into()),
        ("host_cores".into(), host_cores.into()),
        ("workers".into(), WORKERS.into()),
        ("sessions".into(), fixture::SESSIONS.into()),
        (
            "pinned_cpu".into(),
            // `null` (a non-finite number) when the host would not pin.
            args.pin.map_or(J::Num(f64::NAN), |p| p.cpu.into()),
        ),
        ("keeps_freed_memory".into(), J::Bool(args.keeps_memory)),
        ("git_commit".into(), J::str(git_commit())),
    ]
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Report {
    pub fn correct(&self) -> bool {
        self.outcomes.failed == 0 && self.check_failures.is_empty()
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let body = J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]);
            (m.name, body)
        });
        J::obj([
            ("correct", J::Bool(self.correct())),
            ("attempted", self.outcomes.attempted.into()),
            ("failed", self.outcomes.failed.into()),
            ("metrics", J::obj(metrics)),
        ])
        .render()
    }

    /// Every metric by name with unit and sample count, then the result.
    pub fn print(&self) {
        for (k, v) in &self.context {
            println!("# {k} = {}", v.render());
        }
        println!(
            "# checks: {} run, {} failed; operations: {} attempted, {} failed",
            self.checks_run,
            self.check_failures.len(),
            self.outcomes.attempted,
            self.outcomes.failed
        );
        for f in &self.check_failures {
            println!("# FAILED CHECK: {f}");
        }
        if let Some(e) = &self.outcomes.first_error {
            println!("# FIRST FAILED OPERATION: {e}");
        }
        for m in &self.metrics {
            println!(
                "{:<36} {:>16.4} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("{}", self.result_line());
    }

    fn document(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            let body = J::obj([
                ("value", J::Num(m.value)),
                ("unit", J::str(m.unit)),
                ("samples", m.samples.into()),
            ]);
            (m.name, body)
        });
        let mut fields = self.context.clone();
        fields.extend([
            ("correct".to_string(), J::Bool(self.correct())),
            ("attempted".to_string(), self.outcomes.attempted.into()),
            ("failed".to_string(), self.outcomes.failed.into()),
            ("checks_run".to_string(), self.checks_run.into()),
            (
                "check_failures".to_string(),
                J::Arr(self.check_failures.iter().map(J::str).collect()),
            ),
            ("metrics".to_string(), J::obj(metrics)),
        ]);
        fields.extend(self.extra.iter().cloned());
        J::Obj(fields).render()
    }

    /// Write `result-<workload>.json` (untraced) or `layers-<workload>.json`
    /// (traced), plus any extra files, under `--out`.
    pub fn write_files(&self, args: &Args) -> std::io::Result<()> {
        std::fs::create_dir_all(&args.out)?;
        let stem = if args.trace { "layers" } else { "result" };
        let main = format!("{stem}-{}.json", args.workload.name());
        std::fs::write(args.out.join(main), self.document() + "\n")?;
        for (name, content) in &self.files {
            std::fs::write(args.out.join(name), content)?;
        }
        Ok(())
    }
}

/// Set up, check, warm up, measure one window, report.
pub fn run_untraced(args: &Args) -> Result<Report, String> {
    let w: Workload = args.workload;
    let mut off = Tracer::new(false);
    let err = |e: gsj_common::GsjError| e.to_string();

    let t = Instant::now();
    let mut fx = fixture::build(w.scale(), &mut off).map_err(err)?;
    let mut setup_s = t.elapsed().as_secs_f64();

    let plan = Plan::new(w, &fx.col, args.seed);
    let deltas = delta::sequence(fx.graph());
    let mut checks = Checks::default();

    // One round of the data set's ΔG batches (4 batches, each followed by
    // its inverse) before anything is read: the IncExt correctness checks,
    // the first of the two rounds `upd_p50_us` is taken from on the
    // read-only workloads, and the same starting point for every workload —
    // a round restores the edge set but not the order of the adjacency
    // lists, which RExt's random walks follow.
    let mut probe_ns = write_probe(&mut fx, &deltas, DELTA_BATCHES, true, &mut checks);

    let t = Instant::now();
    let server = if w.served() {
        let handle = fx.serve().map_err(err)?;
        let client = Client::connect(handle.addr()).map_err(err)?;
        Some((handle, client))
    } else {
        None
    };
    if w.served() {
        setup_s += t.elapsed().as_secs_f64();
    }
    let (handle, client) = server.map_or((None, None), |(h, c)| (Some(h), Some(c)));

    let mut caller = Caller {
        fx: &mut fx,
        client,
        strategy: w.strategy(),
        deltas: &deltas,
    };
    check_queries(&mut caller, &plan, &mut checks);
    if let Err(e) = warm_up(&mut caller, &plan) {
        checks.expect(false, || e);
    }
    let samples = measure(&mut caller, &plan, WARMUP_CYCLES, args.seconds);
    drop(caller);
    if let Some(h) = handle {
        h.shutdown();
    }
    // The second round, as far from the first as the run allows (the engine
    // is exclusive again only now): a busy spell of the host has to last the
    // whole window to reach both.
    if w.served() {
        probe_ns.extend(write_probe(
            &mut fx,
            &deltas,
            DELTA_BATCHES,
            false,
            &mut checks,
        ));
    }

    // The issue's rule for the window as a whole: ten samples beyond p90.
    let mut all_reads: Vec<u64> = samples
        .log
        .iter()
        .filter(|x| x.class != Class::Update)
        .map(|x| x.latency_ns)
        .collect();
    all_reads.sort_unstable();
    let window_p50 = stats::percentile(&all_reads, 0.50)?;
    let window_p90 = stats::percentile(&all_reads, 0.90)?;

    let slices = slice_stats(&samples);
    let quiet = |f: fn(&SliceStats) -> f64, better: Better| {
        let values: Vec<f64> = slices.iter().map(f).collect();
        stats::quiet_quartile(&values, better)
    };
    let reads = all_reads.len();
    let us = |ns: u64| ns as f64 / 1e3;
    // `incext_mixed`: the updates of the window, slice by slice like the
    // reads. Elsewhere: the two rounds around the window, a slice each.
    let (upd_p50_us, upd_samples) = if w.served() {
        let rounds: Vec<f64> = probe_ns
            .chunks(2 * DELTA_BATCHES)
            .map(|round| stats::median(&round.iter().map(|&ns| us(ns)).collect::<Vec<_>>()))
            .collect();
        (
            stats::quiet_quartile(&rounds, Better::Lower),
            probe_ns.len(),
        )
    } else {
        let n = samples.log.len() - reads;
        (quiet(|s| s.upd_p50_us, Better::Lower), n)
    };
    if upd_samples == 0 {
        return Err("no ΔG batch completed: upd_p50_us has no samples".into());
    }
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s", 1),
        Metric::new(
            "lat_p50_us",
            quiet(|s| s.p50_us, Better::Lower),
            "us",
            reads,
        ),
        Metric::new(
            "lat_p90_us",
            quiet(|s| s.p90_us, Better::Lower),
            "us",
            reads,
        ),
        Metric::new(
            "ops_per_s",
            quiet(|s| s.ops_per_s, Better::Higher),
            "1/s",
            samples.log.len(),
        ),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB", 1),
        Metric::new("upd_p50_us", upd_p50_us, "us", upd_samples),
    ];
    debug_assert!(metrics.iter().map(|m| (m.name, m.unit)).eq(END_TO_END));
    let slice_json = |s: &SliceStats| {
        J::obj([
            ("operations", s.operations.into()),
            ("seconds", J::Num(s.seconds)),
            ("lat_p50_us", J::Num(s.p50_us)),
            ("lat_p90_us", J::Num(s.p90_us)),
            ("ops_per_s", J::Num(s.ops_per_s)),
            ("upd_p50_us", J::Num(s.upd_p50_us)),
        ])
    };
    Ok(Report {
        context: context(args),
        checks_run: checks.run,
        check_failures: checks.failures,
        outcomes: samples.outcomes,
        metrics,
        extra: [
            ("cycles".to_string(), samples.cycles.into()),
            (
                "window_s".to_string(),
                J::Num(samples.window_ns as f64 / 1e9),
            ),
            ("vertices".to_string(), fx.graph().vertex_count().into()),
            ("edges".to_string(), fx.graph().edge_count().into()),
            ("tuples".to_string(), fx.relation().len().into()),
            // What each slice of the window saw: a busy spell of the host
            // shows as a run of slow slices.
            (
                "slices".to_string(),
                J::Arr(slices.iter().map(slice_json).collect()),
            ),
            // The same over the whole window, for comparison.
            (
                "window".to_string(),
                J::obj([
                    ("lat_p50_us", J::Num(us(window_p50))),
                    ("lat_p90_us", J::Num(us(window_p90))),
                    (
                        "ops_per_s",
                        J::Num(samples.log.len() as f64 / (samples.window_ns as f64 / 1e9)),
                    ),
                ]),
            ),
            (
                "probe_upd_us".to_string(),
                J::Arr(probe_ns.iter().map(|&ns| J::Num(us(ns))).collect()),
            ),
        ]
        .into_iter()
        .chain(checks.notes)
        .collect(),
        files: vec![(
            format!("samples-{}.csv", w.name()),
            samples_csv(&samples.log),
        )],
    })
}

/// What one slice of the window measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceStats {
    pub operations: usize,
    pub seconds: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub ops_per_s: f64,
    /// Median ΔG batch latency; not a number in a slice without updates.
    pub upd_p50_us: f64,
}

/// Cut the window into slices of whole cycles ([`stats::slice_count`]) and
/// measure each on its own. A slice lasts from its first operation's start
/// to the next slice's (the last one: to the end of the window); the loop
/// is closed, so no time falls between two slices.
pub fn slice_stats(samples: &Samples) -> Vec<SliceStats> {
    let k = stats::slice_count(samples.cycles);
    let slice_of = |x: &Sample| stats::slice_of(x.cycle, samples.cycles, k);
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let ops: Vec<&Sample> = samples.log.iter().filter(|x| slice_of(x) == i).collect();
        let begin = ops.first().map_or(0, |x| x.start_ns);
        let end = samples
            .log
            .iter()
            .find(|x| slice_of(x) > i)
            .map_or(samples.window_ns, |x| x.start_ns);
        let of_class = |update: bool| -> Vec<u64> {
            let mut v: Vec<u64> = ops
                .iter()
                .filter(|x| (x.class == Class::Update) == update)
                .map(|x| x.latency_ns)
                .collect();
            v.sort_unstable();
            v
        };
        let (reads, updates) = (of_class(false), of_class(true));
        let us = |ns: u64| ns as f64 / 1e3;
        let seconds = end.saturating_sub(begin) as f64 / 1e9;
        let upd: Vec<f64> = updates.iter().map(|&ns| us(ns)).collect();
        out.push(SliceStats {
            operations: ops.len(),
            seconds,
            p50_us: us(stats::nearest_rank(&reads, 0.50)),
            p90_us: us(stats::nearest_rank(&reads, 0.90)),
            ops_per_s: ops.len() as f64 / seconds,
            upd_p50_us: if upd.is_empty() {
                f64::NAN
            } else {
                stats::median(&upd)
            },
        });
    }
    out
}

fn samples_csv(log: &[Sample]) -> String {
    let mut csv = String::from("start_ns,template,class,latency_ns\n");
    for x in log {
        csv.push_str(&format!(
            "{},{},{:?},{}\n",
            x.start_ns, x.label, x.class, x.latency_ns
        ));
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cycles` cycles of one update, four body reads and a tail, back to
    /// back; every latency of cycle `c` is multiplied by `factor(c)`.
    fn window(cycles: usize, factor: impl Fn(usize) -> u64) -> Samples {
        let mut s = Samples {
            cycles,
            ..Samples::default()
        };
        let mut now = 0u64;
        for cycle in 0..cycles {
            let ops = [
                ("update", Class::Update, 1_000_000),
                ("q1", Class::Body, 1_000),
                ("q2", Class::Body, 1_000),
                ("q4", Class::Body, 1_000),
                ("q5", Class::Body, 1_000),
                ("q6", Class::Tail, 96_000),
            ];
            for (label, class, ns) in ops {
                let latency_ns = ns * factor(cycle);
                s.log.push(Sample {
                    cycle,
                    start_ns: now,
                    label,
                    class,
                    latency_ns,
                });
                now += latency_ns;
            }
        }
        s.window_ns = now;
        s
    }

    #[test]
    fn slices_tile_the_window_and_keep_the_class_shares() {
        let s = window(60, |_| 1);
        let slices = slice_stats(&s);
        assert_eq!(slices.len(), 10);
        for slice in &slices {
            assert_eq!(slice.operations, 6 * 6);
            assert_eq!(slice.p50_us, 1.0); // a body read
            assert_eq!(slice.p90_us, 96.0); // a tail read
            assert_eq!(slice.upd_p50_us, 1000.0);
            // Cycles of 1.1 ms: 6 operations per 1.1 ms.
            assert!((slice.ops_per_s - 6.0 / 1.1e-3).abs() < 1e-6);
        }
        let total: f64 = slices.iter().map(|x| x.seconds).sum();
        assert!((total - s.window_ns as f64 / 1e9).abs() < 1e-12);
        // Too few cycles to cut: the whole window is the one slice.
        assert_eq!(slice_stats(&window(9, |_| 1)).len(), 1);
    }

    #[test]
    fn a_busy_spell_leaves_the_quiet_quartile_alone() {
        // The host is twice as slow during the first two thirds of the window.
        let calm = slice_stats(&window(60, |_| 1));
        let busy = slice_stats(&window(60, |c| if c < 40 { 2 } else { 1 }));
        assert_eq!(busy[0].p50_us, 2.0);
        assert_eq!(busy[9], calm[9]);
        let quiet = |slices: &[SliceStats], f: fn(&SliceStats) -> f64, better| {
            stats::quiet_quartile(&slices.iter().map(f).collect::<Vec<_>>(), better)
        };
        for f in [
            (|s| s.p50_us) as fn(&SliceStats) -> f64,
            |s| s.p90_us,
            |s| s.upd_p50_us,
        ] {
            assert_eq!(
                quiet(&busy, f, Better::Lower),
                quiet(&calm, f, Better::Lower)
            );
        }
        assert_eq!(
            quiet(&busy, |s| s.ops_per_s, Better::Higher),
            quiet(&calm, |s| s.ops_per_s, Better::Higher)
        );
        // A program that is twice as slow throughout is reported as such.
        let slow = slice_stats(&window(60, |_| 2));
        assert_eq!(quiet(&slow, |s| s.p90_us, Better::Lower), 192.0);
    }
}
