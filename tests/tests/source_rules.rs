//! Rules about the engine's source text, checked by scanning it: where
//! threads may start, and where `unsafe` may appear.

/// The non-test part (up to the first `#[cfg(test)]`) of every file under
/// `crates/*/src`, as `(path, source)`.
fn engine_sources() -> Vec<(std::path::PathBuf, String)> {
    fn scan(dir: &std::path::Path, out: &mut Vec<(std::path::PathBuf, String)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                scan(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let source = std::fs::read_to_string(&path).unwrap();
                let engine = source.split("#[cfg(test)]").next().unwrap().to_string();
                out.push((path, engine));
            }
        }
    }
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut sources = Vec::new();
    let mut scanned = 0;
    for entry in std::fs::read_dir(&crates).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan(&path.join("src"), &mut sources);
            scanned += 1;
        }
    }
    assert!(
        scanned >= 11,
        "found only {scanned} crates under {crates:?}"
    );
    sources
}

/// A query runs on the thread that started it (DESIGN.md §13): outside
/// `gsj_common::pool` — the workers of path selection, the one fan-out
/// measured paying — and the server, whose threads are sessions, no
/// engine source starts a thread or asks the host for its core count.
#[test]
fn only_the_pool_starts_threads_or_counts_cores() {
    const FORBIDDEN: [&str; 4] = [
        "thread::scope",
        "thread::spawn",
        "thread::Builder",
        "available_parallelism",
    ];
    let mut offenders = Vec::new();
    for (path, engine) in engine_sources() {
        let exempt = path.ends_with("common/src/pool.rs")
            || path.components().any(|c| c.as_os_str() == "server");
        if exempt {
            continue;
        }
        for (n, line) in engine.lines().enumerate() {
            if FORBIDDEN.iter().any(|f| line.contains(f)) {
                offenders.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a query runs on the thread that started it (DESIGN.md §13):\n{}",
        offenders.join("\n")
    );
}

/// The engine has one `unsafe` block: the call into the AVX2 compile of
/// the `Mρ` training kernel, behind its feature detection (DESIGN.md §8,
/// "Training kernel"). Counts the keyword in code, comments aside; test
/// modules that are files of their own (`reference.rs`) are scanned too,
/// so they stay safe code as well.
#[test]
fn exactly_one_unsafe_block() {
    let mut found = Vec::new();
    for (path, engine) in engine_sources() {
        for (n, line) in engine.lines().enumerate() {
            let code = line.split("//").next().unwrap();
            for _ in code.matches("unsafe") {
                found.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(
        found.len() == 1 && found[0].contains("nn/src/lm.rs"),
        "expected the one `unsafe` of crates/nn/src/lm.rs, found:\n{}",
        found.join("\n")
    );
}
