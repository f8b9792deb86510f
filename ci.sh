#!/usr/bin/env bash
# CI gate for the meg workspace. Mirrors what a hosted pipeline would run;
# everything works fully offline (dependencies are vendored under
# crates/compat/). Run from the repository root:
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the release build and example smoke-runs
#
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"

step() { printf '\n\033[1m== %s\033[0m\n' "$*"; }

step "markdown link check (intra-repo links and backticked repo paths in README + docs)"
LINK_ERR_FILE=$(mktemp)
for md in README.md PAPER.md PAPERS.md ROADMAP.md CHANGES.md docs/*.md crates/*/README.md; do
    [ -f "$md" ] || continue
    # Extract [text](target) links, keep repo-relative targets only (skip
    # http(s), mailto, and pure #anchors), strip any #fragment.
    { grep -oE '\]\([^)]+\)' "$md" || true; } |
    sed -e 's/^](//' -e 's/)$//' -e 's/#.*$//' |
    while read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|"") continue ;;
        esac
        # Resolve relative to the linking file only — a root-relative
        # fallback would pass links that 404 when the file is rendered.
        if [ ! -e "$(dirname "$md")/$target" ]; then
            echo "broken link in $md: $target" | tee -a "$LINK_ERR_FILE" >&2
        fi
    done
done
# Backticked repo paths (`crates/…`, `docs/…`, `tests/…`, `perfbench/…`,
# `examples/…`) in README.md and docs/*.md name files the reader is sent
# to, so they must exist too. They are repo-root relative; a `:line` suffix
# is dropped, and templated paths (containing <, * or {) are skipped.
for md in README.md docs/*.md; do
    [ -f "$md" ] || continue
    { grep -oE '`(crates|docs|tests|perfbench|examples)/[^`]*`' "$md" || true; } |
    sed -e 's/^`//' -e 's/`$//' -e 's/ .*$//' -e 's/:[0-9][0-9-]*$//' |
    while read -r target; do
        case "$target" in
            *'<'*|*'*'*|*'{'*) continue ;;
        esac
        if [ ! -e "$target" ]; then
            echo "missing path in $md: \`$target\`" | tee -a "$LINK_ERR_FILE" >&2
        fi
    done
done
if [ -s "$LINK_ERR_FILE" ]; then
    echo "$(wc -l < "$LINK_ERR_FILE") broken intra-repo markdown link(s) or path(s)" >&2
    rm -f "$LINK_ERR_FILE"
    exit 1
fi
rm -f "$LINK_ERR_FILE"
echo "all intra-repo markdown links and backticked repo paths resolve"

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (all targets, -D warnings)"
cargo clippy -q --workspace --all-targets --offline -- -D warnings

step "cargo build"
cargo build --workspace --offline

if [ "$MODE" != "quick" ]; then
    step "cargo build --release (tier-1)"
    cargo build --release --workspace --offline
fi

step "cargo test -q (tier-1: unit + property + integration + doc)"
cargo test -q --workspace --offline

step "test-count floor (the tier-1 suite must not shrink)"
TEST_COUNT=$(cargo test -q --workspace --offline -- --list 2>/dev/null | grep -c ': test')
TEST_FLOOR=600
if [ "$TEST_COUNT" -lt "$TEST_FLOOR" ]; then
    echo "test count $TEST_COUNT fell below the floor of $TEST_FLOOR" >&2
    exit 1
fi
echo "test count: $TEST_COUNT (floor $TEST_FLOOR)"

if [ "$MODE" != "quick" ]; then
    step "test-stats (gof + stepping-equivalence + delta-consistency, release)"
    cargo test -q --release --offline -p meg-stats gof
    cargo test -q --release --offline -p meg-edge --test stepping_equivalence
    cargo test -q --release --offline -p meg-graph --test delta_consistency
fi

step "cargo doc --workspace --no-deps (must be warning-free)"
DOCWARN=$(cargo doc --workspace --no-deps --offline 2>&1 | grep -c '^warning' || true)
if [ "$DOCWARN" -ne 0 ]; then
    echo "cargo doc produced $DOCWARN warning(s)" >&2
    cargo doc --workspace --no-deps --offline 2>&1 | grep -A4 '^warning' >&2
    exit 1
fi

if [ "$MODE" != "quick" ]; then
    step "example smoke-runs (MEG_EXAMPLE_SCALE=0.1)"
    for ex in examples/*.rs; do
        name="$(basename "$ex" .rs)"
        echo "-- example $name"
        MEG_EXAMPLE_SCALE=0.1 cargo run -q --release --offline --example "$name" >/dev/null
    done

    step "meg-lab smoke (built-in scenario, JSON-lines schema)"
    SMOKE_OUT=$(MEG_SCALE=0.1 cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        run quick_smoke --trials 2 --format json)
    ROWS=$(printf '%s\n' "$SMOKE_OUT" | grep -c '^{"scenario":.*"completion_rate":.*}$' || true)
    if [ "$ROWS" -lt 1 ]; then
        echo "meg-lab smoke produced no well-formed JSON-lines rows:" >&2
        printf '%s\n' "$SMOKE_OUT" >&2
        exit 1
    fi
    echo "meg-lab emitted $ROWS well-formed JSON rows"

    step "meg-lab sharded smoke (0/2 + 1/2 + merge, byte-identical to unsharded, JSON and CSV)"
    MEG_LAB="cargo run -q --release --offline -p meg-engine --bin meg-lab --"
    DIST_DIR=$(mktemp -d)
    COMMON="--scale 0.1 --trials 2 --seed 2009 --format json"
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON > "$DIST_DIR/unsharded.jsonl"
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --shard 0/2 --out "$DIST_DIR/parts" > /dev/null
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --shard 1/2 --out "$DIST_DIR/parts" > /dev/null
    $MEG_LAB merge "$DIST_DIR/parts" > "$DIST_DIR/merged.jsonl" 2> /dev/null
    if ! diff -u "$DIST_DIR/unsharded.jsonl" "$DIST_DIR/merged.jsonl"; then
        echo "sharded+merged output differs from the unsharded run" >&2
        rm -rf "$DIST_DIR"
        exit 1
    fi
    # The CSV leg: an unsharded CSV run equals the CSV merge of the shards.
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --format csv > "$DIST_DIR/unsharded.csv"
    $MEG_LAB merge "$DIST_DIR/parts" --format csv > "$DIST_DIR/merged.csv" 2> /dev/null
    if ! cmp "$DIST_DIR/unsharded.csv" "$DIST_DIR/merged.csv"; then
        diff -u "$DIST_DIR/unsharded.csv" "$DIST_DIR/merged.csv" >&2
        echo "sharded+merged CSV differs from the unsharded CSV run" >&2
        rm -rf "$DIST_DIR"
        exit 1
    fi
    echo "sharded run merged byte-identically ($(wc -l < "$DIST_DIR/merged.jsonl") rows, JSON and CSV)"
    rm -rf "$DIST_DIR"

    step "meg-lab adaptive smoke (--target-stderr converges on every row)"
    ADAPTIVE_OUT=$(MEG_SCALE=0.1 cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        run quick_smoke --seed 2009 --target-stderr 0.75 --min-trials 2 --max-trials 4 \
        --format json)
    # A row is acceptable iff it met the target (achieved_stderr ≤ eps) or
    # spent the whole budget (trials == max_trials) — the acceptance
    # contract of adaptive mode.
    if ! printf '%s\n' "$ADAPTIVE_OUT" | awk -F'"achieved_stderr":' '
        /^\{/ {
            rows++
            split($2, a, ","); se = a[1]
            if ($0 ~ /"trials":4,/ || (se != "null" && se + 0 <= 0.75)) converged++
        }
        END {
            printf "adaptive smoke: %d of %d rows converged or exhausted the budget\n", \
                converged, rows
            exit (rows < 1 || converged < rows) ? 1 : 0
        }'; then
        printf '%s\n' "$ADAPTIVE_OUT" >&2
        exit 1
    fi

    step "bench-smoke (meg-lab bench: harness runs, JSON well-formed)"
    BENCH_DIR=$(mktemp -d)
    cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench --repetitions 2 --warmup 1 --scale 0.1 \
        --label ci-smoke --out "$BENCH_DIR/bench.json" > "$BENCH_DIR/lines.jsonl"
    python3 - "$BENCH_DIR" <<'PYEOF'
import json, sys, pathlib
d = pathlib.Path(sys.argv[1])
doc = json.loads((d / "bench.json").read_text())
assert doc["label"] == "ci-smoke" and doc["repetitions"] == 2, "bad meta"
results = doc["results"]
assert len(results) >= 5, f"only {len(results)} bench results"
for r in results:
    for key in ("bench", "median_ms", "iqr_ms", "min_ms", "max_ms", "samples_ms",
                "checksum"):
        assert key in r, f"missing {key} in {r}"
    assert r["min_ms"] >= 0 and r["median_ms"] >= r["min_ms"], f"bad stats in {r}"
    # Raw repetitions ride along for offline noise analysis: one sample per
    # measured repetition, each inside the reported [min, max] envelope.
    assert len(r["samples_ms"]) == doc["repetitions"], f"bad samples_ms in {r}"
    assert all(r["min_ms"] <= s <= r["max_ms"] for s in r["samples_ms"]), \
        f"samples outside [min, max] in {r}"
lines = [json.loads(l) for l in (d / "lines.jsonl").read_text().splitlines() if l.strip()]
assert len(lines) == len(results), "stdout lines and document disagree"
print(f"bench-smoke: {len(results)} workloads, JSON well-formed")
# A/B stepping pair: the per-pair and transitions dense-flood workloads run
# the same population, so both must be present and report sane medians.
by_name = {r["bench"]: r for r in results}
a = by_name.get("edge_dense_flood_n4096")
b = by_name.get("edge_dense_flood_fast_n4096")
assert a and b, "stepping A/B pair missing from bench results"
ratio = a["median_ms"] / b["median_ms"] if b["median_ms"] > 0 else float("inf")
print(f"bench-smoke A/B: dense_flood per_pair {a['median_ms']:.2f} ms vs "
      f"transitions {b['median_ms']:.2f} ms ({ratio:.1f}x at smoke scale)")
# Golden checksum: the scale-0.1 dense flood is fully deterministic, so its
# checksum is a behaviour fingerprint of the whole stepping + flooding
# pipeline — any drift in the RNG schedule or snapshot contents changes it.
c = by_name.get("edge_dense_flood_n1024")
assert c, "edge_dense_flood_n1024 missing from bench results"
assert c["checksum"] == 315, \
    f"edge_dense_flood_n1024 checksum drifted: {c['checksum']} != 315"
print("bench-smoke golden: edge_dense_flood_n1024 checksum 315 ok")
PYEOF
    rm -rf "$BENCH_DIR"

    step "sparse golden checksum (edge_sparse_flood_n16384 at scale 0.1)"
    # The same fingerprint for the sparse engine's per-pair stepping (the
    # path every edge-MEG builtin runs): any drift in its death/birth RNG
    # schedule or its snapshot push order changes the checksum.
    SPARSE_LINE=$(cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench edge_sparse_flood_n16384 --scale 0.1 --repetitions 1 --warmup 0)
    case "$SPARSE_LINE" in
        *'"checksum":4924}'*) echo "sparse golden: edge_sparse_flood_n16384 checksum 4924 ok" ;;
        *)
            printf 'edge_sparse_flood_n16384 checksum drifted (want 4924): %s\n' \
                "$SPARSE_LINE" >&2
            exit 1
            ;;
    esac

    step "bench baseline gate smoke (--baseline BENCH_GATE.json: calibration + one workload)"
    # Full-scale, ~1 s: the geo_flood_n4096 checksum must equal the recorded
    # one (12312) exactly, and its median must stay within 1.5x of the
    # reference. Both documents carry the `calibration` loop, so each median
    # is measured in units of its own host's calibration median and the
    # ratio compares code, not machines (docs/PERF.md has the honest A/B
    # procedure — this smoke asserts the gate *mechanism*, not peak perf).
    cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench calibration geo_flood_n4096 --repetitions 3 --warmup 1 \
        --baseline BENCH_GATE.json --baseline-threshold 1.5 > /dev/null
    # The gate must also *fail* correctly: an absurd threshold flags the
    # workload (the calibration row is the unit and never flags) and exits 4.
    GATE_ERR=$(mktemp)
    if cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench calibration geo_flood_n4096 --repetitions 2 --warmup 1 \
        --baseline BENCH_GATE.json --baseline-threshold 0.001 \
        > /dev/null 2> "$GATE_ERR"; then
        echo "baseline gate failed to flag a regression at threshold 0.001" >&2
        exit 1
    else
        GATE_RC=$?
    fi
    if [ "$GATE_RC" -ne 4 ] || ! grep -qE '^geo_flood_n4096 .*<< REGRESSION$' "$GATE_ERR" \
        || grep -qE '^calibration .*<< REGRESSION$' "$GATE_ERR"; then
        echo "threshold 0.001 must flag geo_flood_n4096 alone and exit 4 (got $GATE_RC):" >&2
        cat "$GATE_ERR" >&2
        exit 1
    fi
    rm -f "$GATE_ERR"
    echo "baseline gate: pass path clean, regression path flags geo_flood_n4096 and exits 4"

    step "metrics-smoke (--metrics report: counters live, stdout untouched)"
    MET_DIR=$(mktemp -d)
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON > "$MET_DIR/off.jsonl"
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --metrics report \
        > "$MET_DIR/on.jsonl" 2> "$MET_DIR/metrics.txt"
    if ! diff -u "$MET_DIR/off.jsonl" "$MET_DIR/on.jsonl"; then
        echo "row stream changed when the recorder was installed" >&2
        rm -rf "$MET_DIR"
        exit 1
    fi
    grep -q "── metrics report" "$MET_DIR/metrics.txt" || {
        echo "no metrics report on stderr" >&2; cat "$MET_DIR/metrics.txt" >&2; exit 1; }
    # Counters that must be present AND nonzero for this workload.
    for c in edge_births edge_deaths rng_draws bucket_scan_visits rounds trials; do
        grep -qE "^  $c +[1-9][0-9]*$" "$MET_DIR/metrics.txt" || {
            echo "counter $c missing or zero in the metrics report:" >&2
            cat "$MET_DIR/metrics.txt" >&2
            rm -rf "$MET_DIR"
            exit 1
        }
    done
    # Span timings must have been recorded for the core phases.
    for s in advance trial cell sweep; do
        grep -qE "^  $s +[1-9][0-9]*" "$MET_DIR/metrics.txt" || {
            echo "span $s missing from the metrics report" >&2
            rm -rf "$MET_DIR"
            exit 1
        }
    done
    echo "metrics report carries live counters and spans; rows byte-identical"
    rm -rf "$MET_DIR"

    step "scheduler smoke (rows byte-identical at 1, 2 and 3 trial threads)"
    SCHED_DIR=$(mktemp -d)
    for t in 1 2 3; do
        RAYON_NUM_THREADS=$t $MEG_LAB run epidemic_threshold --scale 0.1 --trials 3 \
            --seed 2009 --format json > "$SCHED_DIR/fixed.$t.jsonl"
    done
    for t in 1 3; do
        RAYON_NUM_THREADS=$t $MEG_LAB run quick_smoke --scale 0.1 --seed 2009 \
            --target-stderr 0.75 --min-trials 2 --max-trials 4 --format json \
            > "$SCHED_DIR/adaptive.$t.jsonl"
    done
    if ! diff -u "$SCHED_DIR/fixed.1.jsonl" "$SCHED_DIR/fixed.2.jsonl" ||
        ! diff -u "$SCHED_DIR/fixed.1.jsonl" "$SCHED_DIR/fixed.3.jsonl" ||
        ! diff -u "$SCHED_DIR/adaptive.1.jsonl" "$SCHED_DIR/adaptive.3.jsonl"; then
        echo "rows changed with the trial-thread count" >&2
        rm -rf "$SCHED_DIR"
        exit 1
    fi
    [ -s "$SCHED_DIR/fixed.1.jsonl" ] && [ -s "$SCHED_DIR/adaptive.1.jsonl" ] || {
        echo "scheduler smoke produced no rows" >&2; rm -rf "$SCHED_DIR"; exit 1; }
    echo "scheduler: $(wc -l < "$SCHED_DIR/fixed.1.jsonl") fixed rows at 1/2/3 threads and" \
        "$(wc -l < "$SCHED_DIR/adaptive.1.jsonl") adaptive rows at 1/3 threads identical"
    rm -rf "$SCHED_DIR"

    step "protocol-family smoke (epidemics + rumor + byzantine, per-protocol counters live)"
    PROTO_DIR=$(mktemp -d)
    proto_smoke() {
        scenario=$1; shift
        # shellcheck disable=SC2086
        $MEG_LAB run "$scenario" $COMMON --metrics report \
            > "$PROTO_DIR/$scenario.jsonl" 2> "$PROTO_DIR/$scenario.metrics.txt"
        PROWS=$(grep -c '^{"scenario":.*"completion_rate":.*}$' "$PROTO_DIR/$scenario.jsonl" || true)
        if [ "$PROWS" -lt 1 ]; then
            echo "$scenario produced no well-formed JSON rows" >&2
            cat "$PROTO_DIR/$scenario.jsonl" >&2
            exit 1
        fi
        for c in "$@"; do
            grep -qE "^  $c +[1-9][0-9]*$" "$PROTO_DIR/$scenario.metrics.txt" || {
                echo "counter $c missing or zero for $scenario:" >&2
                cat "$PROTO_DIR/$scenario.metrics.txt" >&2
                exit 1
            }
        done
        echo "$scenario: $PROWS rows, counters live ($*)"
    }
    proto_smoke epidemic_threshold infections recoveries
    proto_smoke rumor_dynamism rumor_pushes
    proto_smoke byzantine_tamper tampered_adoptions
    rm -rf "$PROTO_DIR"

    step "distributed observability smoke (fault-injected pool: shipping + trace + progress)"
    OBS_DIR=$(mktemp -d)
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON > "$OBS_DIR/reference.jsonl"
    # Every worker aborts after one cell, so the sweep only completes through
    # the respawn path — with the whole observability stack turned on.
    # shellcheck disable=SC2086
    MEG_PROGRESS_FORCE=1 $MEG_LAB run quick_smoke $COMMON \
        --workers 2 --worker-fail-after 1 --verbose \
        --metrics jsonl --trace "$OBS_DIR/trace.json" --progress \
        > "$OBS_DIR/rows.jsonl" 2> "$OBS_DIR/stderr.txt"
    if ! diff -u "$OBS_DIR/reference.jsonl" "$OBS_DIR/rows.jsonl"; then
        echo "row stream changed under workers + shipping + trace + progress" >&2
        rm -rf "$OBS_DIR"
        exit 1
    fi
    python3 - "$OBS_DIR" <<'PYEOF'
import json, sys, pathlib
d = pathlib.Path(sys.argv[1])
cells = len((d / "reference.jsonl").read_text().splitlines())
lines = (d / "stderr.txt").read_text().splitlines()

# Narrated faults must agree with the merged worker_respawns counter.
narrated = sum(1 for l in lines if "worker respawned" in l)
assert narrated >= 1, "fault injection produced no narrated respawns"
merged = [json.loads(l) for l in lines if l.startswith('{"counters":')][-1]
counted = merged["counters"].get("worker_respawns", 0)
assert counted == narrated, f"worker_respawns {counted} != narrated {narrated}"

# Worker-side counters must be shipped, tagged per worker, and reach the
# merged snapshot (the coordinator itself runs no trials).
workers = [json.loads(l) for l in lines if l.startswith('{"worker":')]
assert len(workers) == 2, f"expected 2 per-worker lines, got {len(workers)}"
shipped = sum(w["metrics"].get("counters", {}).get("trials", 0) for w in workers)
assert shipped > 0, "worker-side trial counters never arrived"
assert merged["counters"].get("trials", 0) >= shipped, "merge lost worker counters"

# The progress meter drew (forced on via MEG_PROGRESS_FORCE).
assert any("cells" in l and "rows/s" in l for l in lines), "no progress line"

# The trace journal is valid JSON with >= 1 complete-phase event per cell.
trace = json.loads((d / "trace.json").read_text())
spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
assert spans >= cells, f"{spans} complete spans for {cells} cells"
print(f"distributed observability smoke: {cells} cells, {narrated} respawn(s) "
      f"(counter agrees), {shipped} worker-side trials shipped, "
      f"{spans} trace spans")
PYEOF
    rm -rf "$OBS_DIR"

    step "metrics overhead guard (dense stepping bench, on/off median ratio ≤ 1.05)"
    OVERHEAD_OUT=$(cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench --overhead edge_dense_flood_fast_n4096 --repetitions 5 --warmup 2 --scale 0.25)
    python3 - "$OVERHEAD_OUT" <<'PYEOF'
import json, sys
m = json.loads(sys.argv[1].splitlines()[0])
print(f"overhead: off {m['off_median_ms']:.2f} ms vs on {m['on_median_ms']:.2f} ms "
      f"(ratio {m['ratio']:.4f})")
assert m["ratio"] <= 1.05, f"metrics overhead {m['ratio']:.4f} exceeds the 5% budget"
PYEOF

    step "perfbench tests (the benchmark package builds against today's APIs and its lockfile)"
    # perfbench/ is a package of its own with a committed Cargo.lock: removing
    # an API it imports, or a dependency edge its lockfile pins, must fail
    # here rather than in the benchmark run.
    cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml
fi

printf '\n\033[1;32mCI gate passed (%s mode).\033[0m\n' "$MODE"
