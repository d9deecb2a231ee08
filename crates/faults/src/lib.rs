//! # gsj-faults
//!
//! Deterministic fault injection for the semantic-join engine
//! (DESIGN.md §11). Execution stages that already carry a `gsj-obs` span
//! also carry a *fault point*: a named site where an error, a panic or a
//! delay can be injected under test. Sites are named after their span
//! labels (`her.match`, `graph.khop`, `gsql.ejoin`, `incext.re_extract`,
//! ...) so a chaos run's injections line up with its trace.
//!
//! ## Enabling
//!
//! Injection is **off** unless a spec is installed — via the `GSJ_FAULTS`
//! environment variable at first use, or [`set_spec`] from tests. The
//! disabled hot path is one relaxed atomic load; no site bookkeeping
//! happens until a spec is active.
//!
//! ## Spec grammar
//!
//! A spec is `;`-separated clauses, each `target:opt,opt,...`:
//!
//! ```text
//! GSJ_FAULTS="all:p=0.05,seed=42"             # 5% errors at recoverable sites
//! GSJ_FAULTS="graph.khop:error,p=0.5,seed=7"   # 50% errors in BFS only
//! GSJ_FAULTS="gsql.ejoin:panic,after=2"       # panic on the 3rd e-join
//! GSJ_FAULTS="her.match:delay=25ms"           # slow HER down
//! GSJ_FAULTS="all+critical:record"            # register sites, inject nothing
//! ```
//!
//! * `target` — exact site name, `all` (recoverable sites only), or
//!   `all+critical` (every site). An exact clause overrides `all`.
//! * action — `error` (default; [`GsjError::Internal`]), `panic`,
//!   `delay=<N>ms`, or `record` (count hits, inject nothing).
//! * `p=<f>` — injection probability per hit (default 1.0).
//! * `after=<n>` — skip the first `n` hits of the site (default 0).
//! * `seed=<u>` — seed for the decision stream (default 0).
//!
//! ## Determinism
//!
//! Whether hit *k* of site *s* injects is a pure function of
//! `(seed, s, k)` — a splitmix64 mix, no global RNG state — so a failing
//! chaos run replays exactly from its seed, regardless of what other
//! sites did in between. (Across threads, which query performs hit *k*
//! can vary with interleaving; the *decision sequence* per site cannot.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};
use std::time::Duration;

use gsj_common::{FxHashMap, GsjError, Result};
use gsj_obs::metrics::LazyCounter;
use parking_lot::RwLock;

/// Total injections performed, across all sites and actions.
static INJECTED_TOTAL: LazyCounter = LazyCounter::new("gsj_faults_injected_total");

/// Fast-path switch mirroring "a spec is installed".
static ENABLED: AtomicBool = AtomicBool::new(false);

/// How a site failing relates to query survival.
///
/// * `Recoverable` sites sit under a fallback chain or a retry loop:
///   an injected error degrades the strategy or re-runs the batch, and
///   the query still completes. The `all` target matches only these, so
///   a blanket low-probability chaos run (CI's `all:p=0.05`) leaves
///   every test green.
/// * `Critical` sites have no recovery story above them; injecting there
///   fails the query with a typed error. Reached via `all+critical` or
///   by naming the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    Recoverable,
    Critical,
}

/// What to do when the decision stream says "inject".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return `GsjError::Internal` from the fault point.
    Error,
    /// Panic (exercises `catch_unwind` boundaries).
    Panic,
    /// Sleep, then continue normally.
    Delay(Duration),
    /// Count the hit, inject nothing. Used to discover sites.
    Record,
}

/// One parsed `target:opts` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultClause {
    pub target: FaultTarget,
    pub action: FaultAction,
    /// Probability numerator out of [`P_DENOM`].
    pub p_num: u64,
    pub after: u64,
    pub seed: u64,
}

/// Probability is stored as a fixed-point numerator so clause parsing,
/// equality and the decision function stay float-free.
pub const P_DENOM: u64 = 1 << 32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// All `Recoverable` sites.
    AllRecoverable,
    /// Every site regardless of class.
    AllCritical,
    /// One exact site name.
    Site(String),
}

/// A full parsed spec: ordered clauses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSpec {
    pub clauses: Vec<FaultClause>,
}

impl FaultSpec {
    /// Parse the `GSJ_FAULTS` grammar. Empty/whitespace input is an
    /// empty spec (injection disabled).
    pub fn parse(text: &str) -> std::result::Result<Self, String> {
        let mut clauses = Vec::new();
        for raw in text.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            clauses.push(parse_clause(raw)?);
        }
        Ok(FaultSpec { clauses })
    }

    /// The clause governing `site`, if any: the last exact-match clause
    /// wins; otherwise the last matching `all`/`all+critical` clause.
    pub fn clause_for(&self, site: &str, class: FaultClass) -> Option<&FaultClause> {
        let mut blanket = None;
        let mut exact = None;
        for c in &self.clauses {
            match &c.target {
                FaultTarget::Site(s) if s == site => exact = Some(c),
                FaultTarget::AllRecoverable if class == FaultClass::Recoverable => {
                    blanket = Some(c)
                }
                FaultTarget::AllCritical => blanket = Some(c),
                _ => {}
            }
        }
        exact.or(blanket)
    }
}

fn parse_clause(raw: &str) -> std::result::Result<FaultClause, String> {
    let (target_s, opts_s) = match raw.split_once(':') {
        Some((t, o)) => (t.trim(), o.trim()),
        None => (raw, ""),
    };
    if target_s.is_empty() {
        return Err(format!("fault clause `{raw}` has an empty target"));
    }
    let target = match target_s {
        "all" => FaultTarget::AllRecoverable,
        "all+critical" => FaultTarget::AllCritical,
        s => FaultTarget::Site(s.to_string()),
    };
    let mut action = FaultAction::Error;
    let mut p_num = P_DENOM;
    let mut after = 0u64;
    let mut seed = 0u64;
    for opt in opts_s.split(',') {
        let opt = opt.trim();
        if opt.is_empty() {
            continue;
        }
        match opt.split_once('=') {
            None => match opt {
                "error" => action = FaultAction::Error,
                "panic" => action = FaultAction::Panic,
                "record" => action = FaultAction::Record,
                other => return Err(format!("unknown fault option `{other}`")),
            },
            Some((k, v)) => match k.trim() {
                "p" => {
                    let p: f64 = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad probability `{v}`"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability `{v}` outside [0, 1]"));
                    }
                    p_num = (p * P_DENOM as f64).round() as u64;
                }
                "after" => {
                    after = v.trim().parse().map_err(|_| format!("bad after `{v}`"))?;
                }
                "seed" => {
                    seed = v.trim().parse().map_err(|_| format!("bad seed `{v}`"))?;
                }
                "delay" => {
                    let ms = v
                        .trim()
                        .strip_suffix("ms")
                        .unwrap_or(v.trim())
                        .parse::<u64>()
                        .map_err(|_| format!("bad delay `{v}` (want e.g. 25ms)"))?;
                    action = FaultAction::Delay(Duration::from_millis(ms));
                }
                other => return Err(format!("unknown fault option `{other}`")),
            },
        }
    }
    Ok(FaultClause {
        target,
        action,
        p_num,
        after,
        seed,
    })
}

#[derive(Debug)]
struct SiteEntry {
    class: FaultClass,
    hits: AtomicU64,
    injected: AtomicU64,
}

#[derive(Default)]
struct Registry {
    spec: Option<FaultSpec>,
    sites: FxHashMap<&'static str, &'static SiteEntry>,
}

fn registry() -> &'static RwLock<Registry> {
    static REG: OnceLock<RwLock<Registry>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(Registry::default()))
}

/// Hit/injection counts for one registered site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    pub name: &'static str,
    pub class: FaultClass,
    pub hits: u64,
    pub injected: u64,
}

/// Install (or clear, with `None`) the active fault spec, resetting all
/// site counters. Returns a parse error without changing the active spec.
pub fn set_spec(spec: Option<&str>) -> std::result::Result<(), String> {
    let parsed = match spec {
        Some(s) => {
            let p = FaultSpec::parse(s)?;
            if p.clauses.is_empty() {
                None
            } else {
                Some(p)
            }
        }
        None => None,
    };
    let mut reg = registry().write();
    ENABLED.store(parsed.is_some(), Ordering::Release);
    reg.spec = parsed;
    reg.sites.clear();
    Ok(())
}

/// Read `GSJ_FAULTS` and install it. Called automatically on the first
/// fault-point hit; exposed for binaries that want parse errors early.
/// An unparseable env spec panics — a chaos run with a typo'd spec must
/// not silently test nothing.
pub fn init_from_env() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("GSJ_FAULTS") {
            if let Err(e) = set_spec(Some(&spec)) {
                panic!("invalid GSJ_FAULTS spec: {e}");
            }
        }
    });
}

/// Total injections performed process-wide since startup (the value of
/// the `gsj_faults_injected_total` counter). The flight recorder diffs
/// this across a query's window to attribute fault hits to records.
pub fn injected_total() -> u64 {
    INJECTED_TOTAL.value()
}

/// Is any fault spec active?
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Acquire)
}

/// splitmix64 — the decision mix. Public for tests that want to predict
/// a decision stream.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a: stable across runs and platforms (unlike FxHasher's
    // pointer-width-dependent mixing would not be an issue here, but FNV
    // is trivially portable and spec'd in DESIGN.md §11).
    let mut h: u64 = 0xcbf29ce484222325;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Does hit `k` of `site` inject under `clause`? Pure function.
pub fn decides(clause: &FaultClause, site: &str, k: u64) -> bool {
    if k < clause.after {
        return false;
    }
    if clause.p_num >= P_DENOM {
        return true;
    }
    let roll = splitmix64(clause.seed ^ site_hash(site) ^ k.wrapping_mul(0x2545f4914f6cdd1d));
    (roll & (P_DENOM - 1)) < clause.p_num
}

/// The fault point: call at a named stage. Returns `Ok(())` (possibly
/// after an injected delay), an injected `GsjError::Internal`, or panics
/// if the active clause says `panic`.
///
/// `site` must be a `'static` label, by convention the stage's span
/// label. When no spec is active this is one atomic load.
pub fn fault_point(site: &'static str, class: FaultClass) -> Result<()> {
    if !enabled() {
        return Ok(());
    }
    fault_point_slow(site, class)
}

#[cold]
fn fault_point_slow(site: &'static str, class: FaultClass) -> Result<()> {
    let entry = {
        let reg = registry().read();
        match reg.sites.get(site) {
            Some(e) => *e,
            None => {
                drop(reg);
                let mut reg = registry().write();
                *reg.sites.entry(site).or_insert_with(|| {
                    // Sites live for the process; a handful of leaked
                    // entries beats locking around every counter bump.
                    Box::leak(Box::new(SiteEntry {
                        class,
                        hits: AtomicU64::new(0),
                        injected: AtomicU64::new(0),
                    }))
                })
            }
        }
    };
    let k = entry.hits.fetch_add(1, Ordering::Relaxed);
    let decision = {
        let reg = registry().read();
        let spec = match &reg.spec {
            Some(s) => s,
            None => return Ok(()),
        };
        match spec.clause_for(site, class) {
            Some(clause) if decides(clause, site, k) => Some(clause.action),
            _ => None,
        }
    };
    let action = match decision {
        Some(a) => a,
        None => return Ok(()),
    };
    if action != FaultAction::Record {
        entry.injected.fetch_add(1, Ordering::Relaxed);
        INJECTED_TOTAL.inc();
        gsj_obs::event(
            "fault.inject",
            &[("site", &site), ("action", &action_name(action))],
        );
    }
    match action {
        FaultAction::Record => Ok(()),
        FaultAction::Error => Err(GsjError::Internal(format!("injected fault at {site}"))),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        FaultAction::Panic => panic!("gsj-faults: injected panic at {site}"),
    }
}

fn action_name(a: FaultAction) -> &'static str {
    match a {
        FaultAction::Error => "error",
        FaultAction::Panic => "panic",
        FaultAction::Delay(_) => "delay",
        FaultAction::Record => "record",
    }
}

/// Snapshot of every site hit since the spec was installed, sorted by
/// name. Empty when injection is disabled.
pub fn sites() -> Vec<SiteStats> {
    let reg = registry().read();
    let mut out: Vec<SiteStats> = reg
        .sites
        .iter()
        .map(|(name, e)| SiteStats {
            name,
            class: e.class,
            hits: e.hits.load(Ordering::Relaxed),
            injected: e.injected.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by_key(|s| s.name);
    out
}

/// Serialize tests that install specs. Recovers from poisoning so one
/// panicking chaos test (injected panics are the point) doesn't wedge
/// the rest of the suite.
pub fn exclusive() -> StdMutexGuard<'static, ()> {
    static LOCK: StdMutex<()> = StdMutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_spec<R>(spec: &str, f: impl FnOnce() -> R) -> R {
        let _g = exclusive();
        set_spec(Some(spec)).expect("spec parses");
        let out = f();
        set_spec(None).unwrap();
        out
    }

    #[test]
    fn parse_full_grammar() {
        let spec =
            FaultSpec::parse("all:p=0.05,seed=42; graph.khop:panic,after=3 ; her.match:delay=25ms")
                .unwrap();
        assert_eq!(spec.clauses.len(), 3);
        assert_eq!(spec.clauses[0].target, FaultTarget::AllRecoverable);
        assert_eq!(spec.clauses[0].seed, 42);
        assert_eq!(
            spec.clauses[0].p_num,
            (0.05 * P_DENOM as f64).round() as u64
        );
        assert_eq!(
            spec.clauses[1].target,
            FaultTarget::Site("graph.khop".into())
        );
        assert_eq!(spec.clauses[1].action, FaultAction::Panic);
        assert_eq!(spec.clauses[1].after, 3);
        assert_eq!(
            spec.clauses[2].action,
            FaultAction::Delay(Duration::from_millis(25))
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("site:p=2.0").is_err());
        assert!(FaultSpec::parse("site:frobnicate").is_err());
        assert!(FaultSpec::parse("site:delay=soon").is_err());
        assert!(FaultSpec::parse(":error").is_err());
        assert!(FaultSpec::parse("").unwrap().clauses.is_empty());
    }

    #[test]
    fn exact_clause_overrides_blanket() {
        let spec = FaultSpec::parse("all:p=0.5;x.y:panic").unwrap();
        let c = spec.clause_for("x.y", FaultClass::Recoverable).unwrap();
        assert_eq!(c.action, FaultAction::Panic);
        let c = spec.clause_for("other", FaultClass::Recoverable).unwrap();
        assert_eq!(c.target, FaultTarget::AllRecoverable);
    }

    #[test]
    fn all_skips_critical_sites() {
        let spec = FaultSpec::parse("all:p=1").unwrap();
        assert!(spec.clause_for("x", FaultClass::Critical).is_none());
        assert!(spec.clause_for("x", FaultClass::Recoverable).is_some());
        let spec = FaultSpec::parse("all+critical:p=1").unwrap();
        assert!(spec.clause_for("x", FaultClass::Critical).is_some());
    }

    #[test]
    fn decision_stream_is_deterministic_and_calibrated() {
        let clause = parse_clause("all:p=0.25,seed=42").unwrap();
        let a: Vec<bool> = (0..4096).map(|k| decides(&clause, "s", k)).collect();
        let b: Vec<bool> = (0..4096).map(|k| decides(&clause, "s", k)).collect();
        assert_eq!(a, b, "same (seed, site, k) must decide identically");
        let hits = a.iter().filter(|x| **x).count();
        // 4096 Bernoulli(0.25) trials: mean 1024, sd ~28. Allow 6 sd.
        assert!((850..=1200).contains(&hits), "p miscalibrated: {hits}/4096");
        // Different seeds give a different stream.
        let clause2 = parse_clause("all:p=0.25,seed=43").unwrap();
        let c: Vec<bool> = (0..4096).map(|k| decides(&clause2, "s", k)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn after_skips_initial_hits() {
        let clause = parse_clause("s:error,after=5").unwrap();
        for k in 0..5 {
            assert!(!decides(&clause, "s", k));
        }
        assert!(decides(&clause, "s", 5));
    }

    #[test]
    fn fault_point_injects_error_and_counts() {
        with_spec("test.site:error", || {
            let err = fault_point("test.site", FaultClass::Critical).unwrap_err();
            assert!(matches!(err, GsjError::Internal(_)));
            assert!(err.retryable());
            let stats = sites();
            let s = stats.iter().find(|s| s.name == "test.site").unwrap();
            assert_eq!(s.hits, 1);
            assert_eq!(s.injected, 1);
        });
    }

    #[test]
    fn fault_point_is_clean_when_disabled_or_unmatched() {
        let _g = exclusive();
        set_spec(None).unwrap();
        assert!(fault_point("test.quiet", FaultClass::Critical).is_ok());
        assert!(sites().is_empty(), "no bookkeeping while disabled");
        set_spec(Some("other.site:error")).unwrap();
        assert!(fault_point("test.quiet", FaultClass::Critical).is_ok());
        let stats = sites();
        let s = stats.iter().find(|s| s.name == "test.quiet").unwrap();
        assert_eq!((s.hits, s.injected), (1, 0));
        set_spec(None).unwrap();
    }

    #[test]
    fn record_counts_without_injecting() {
        with_spec("all+critical:record", || {
            assert!(fault_point("test.rec", FaultClass::Critical).is_ok());
            assert!(fault_point("test.rec", FaultClass::Critical).is_ok());
            let stats = sites();
            let s = stats.iter().find(|s| s.name == "test.rec").unwrap();
            assert_eq!((s.hits, s.injected), (2, 0));
        });
    }

    #[test]
    fn panic_action_panics() {
        with_spec("test.boom:panic", || {
            let caught = std::panic::catch_unwind(|| {
                let _ = fault_point("test.boom", FaultClass::Critical);
            });
            assert!(caught.is_err());
        });
    }

    #[test]
    fn delay_action_sleeps_then_succeeds() {
        with_spec("test.slow:delay=10ms", || {
            let t0 = std::time::Instant::now();
            assert!(fault_point("test.slow", FaultClass::Critical).is_ok());
            assert!(t0.elapsed() >= Duration::from_millis(10));
        });
    }

    #[test]
    fn blanket_spec_spares_critical_sites() {
        with_spec("all:p=1,seed=1", || {
            assert!(fault_point("test.crit", FaultClass::Critical).is_ok());
            let err = fault_point("test.soft", FaultClass::Recoverable);
            assert!(err.is_err());
        });
    }
}
