#!/usr/bin/env bash
# Self-check of the benchmark's repeatability, the way the driver judges it:
# run every workload untraced once per seed, twice over (two "sets"),
# alternating workloads so drift hits all of them alike. For every
# end-to-end metric on every workload it reports
#   spread = (Q3 - Q1) / median over the seeds of a set, and
#   drift  = |median(set 2) - median(set 1)| / median(set 1),
# writes them to benchmark/NOISE.md, and fails when a drift exceeds half the
# metric's bound or a spread (setup_s excepted) exceeds the bound.
#
#   benchmark/repeat.sh                 # ten seeds, about 40 minutes
#   SEEDS="11 12 13" benchmark/repeat.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=${SEEDS:-"11 12 13 14 15 16 17 18 19 20"}
WINDOW=${WINDOW:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
OUT=benchmark/out/repeat
RUN=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

mkdir -p "$OUT"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
for set in 1 2; do
  : > "$OUT/set$set.jsonl"
  for seed in $SEEDS; do
    for w in $WORKLOADS; do
      echo "set $set seed $seed $w" >&2
      # A run that printed `correct: false` exits 1; the analysis reports it.
      line=$("${RUN[@]}" --workload "$w" --seed "$seed" --seconds "$WINDOW" --trace 0 --out "$OUT" 2>/dev/null | tail -n 1) || true
      echo "{\"workload\":\"$w\",\"seed\":$seed,\"result\":${line:-null}}" >> "$OUT/set$set.jsonl"
    done
  done
done

python3 - "$OUT" "$WINDOW" "$SEEDS" <<'PY'
import json, statistics, subprocess, sys, os
out, window, seeds = sys.argv[1], sys.argv[2], sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
sets = []
for s in (1, 2):
    runs = [json.loads(l) for l in open(f"{out}/set{s}.jsonl")]
    bad = [r for r in runs if not r["result"] or not r["result"]["correct"] or r["result"]["failed"]]
    if bad:
        sys.exit(f"incorrect run: {bad[0]['workload']} seed {bad[0]['seed']}")
    sets.append(runs)

def values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs if r["workload"] == workload]

def spread(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

try:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
except OSError:
    commit = ""
rows, failures = [], []
for w in [x["name"] for x in bench["workloads"]]:
    for m, bound in bounds.items():
        a, b = values(sets[0], w, m), values(sets[1], w, m)
        ma, mb = statistics.median(a), statistics.median(b)
        drift = abs(mb - ma) / ma
        sa, sb = spread(a), spread(b)
        verdict = "ok"
        if drift > bound / 2:
            verdict = "DRIFT"
        elif m != "setup_s" and max(sa, sb) > bound:
            verdict = "SPREAD"
        if verdict != "ok":
            failures.append(f"{w} {m}: {verdict}")
        rows.append(f"| {w} | {m} | {ma:.4g} | {mb:.4g} | {drift:.2%} | {sa:.2%} | {sb:.2%} | {bound:.0%} | {verdict} |")

with open("benchmark/NOISE.md", "w") as f:
    f.write("# Observed noise of the end-to-end metrics\n\n")
    f.write("Written by `benchmark/repeat.sh`; do not edit by hand.\n\n")
    f.write(f"- host cores: {os.cpu_count()}, window: {window} s, seeds per set: {seeds}\n")
    f.write(f"- commit: {commit or 'unknown'}\n")
    f.write("- spread = (Q3 − Q1) / median over the seeds of one set (`statistics.quantiles(v, n=4)`); "
            "drift = |median of set 2 − median of set 1| / median of set 1\n")
    f.write("- a row fails on drift > bound / 2, or (except `setup_s`) on spread > bound\n\n")
    f.write("| workload | metric | median set 1 | median set 2 | drift | spread set 1 | spread set 2 | bound | verdict |\n")
    f.write("|---|---|---|---|---|---|---|---|---|\n")
    f.write("\n".join(rows) + "\n")
print(open("benchmark/NOISE.md").read())
if failures:
    sys.exit("not repeatable: " + "; ".join(failures))
PY
