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
    step "test-stats (gof + edge-MEG chain laws, release)"
    cargo test -q --release --offline -p meg-stats gof
    cargo test -q --release --offline -p meg-edge --test chain_laws
    # The radius-graph oracle, culling and boundary tests, at release speed.
    cargo test -q --release --offline -p meg-geometric
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
    # A reader that stops after one row ends the run quietly, in-process and
    # from a pool: under pipefail a non-zero meg-lab status fails the
    # pipeline, and a panic on stderr is a failure too.
    PIPE_ERR=$(mktemp)
    for pool in "" "--workers 2"; do
        # shellcheck disable=SC2086
        if ! FIRST=$(cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
            run quick_smoke --trials 2 --format json $pool 2> "$PIPE_ERR" | head -n 1) \
            || grep -q panicked "$PIPE_ERR" || [[ "$FIRST" != '{"scenario":'* ]]; then
            echo "meg-lab $pool failed when its reader closed after one row:" >&2
            cat "$PIPE_ERR" >&2
            rm -f "$PIPE_ERR"
            exit 1
        fi
    done
    rm -f "$PIPE_ERR"
    echo "meg-lab exits 0 quietly when its reader closes early"

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
by_name = {r["bench"]: r for r in results}
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

    step "geometric culling pin (geo_flood_n4096 checksum and candidate-test count)"
    # Rows alone cannot see the row gather's bucket culling: a gather that
    # stops skipping buckets beyond R builds the same snapshots. Its exact
    # candidate-test count can, so both numbers are pinned.
    GEO_LINE=$(cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench geo_flood_n4096 --counters --repetitions 1 --warmup 0)
    case "$GEO_LINE" in
        *'"checksum":12312,'*'"bucket_scan_visits":29266334,'*)
            echo "geo culling pin: checksum 12312, bucket_scan_visits 29266334 ok" ;;
        *)
            printf 'geo_flood_n4096 drifted (want checksum 12312, bucket_scan_visits 29266334): %s\n' \
                "$GEO_LINE" >&2
            exit 1
            ;;
    esac

    # Requires every "name value" pair after the label in a report's counter
    # block ("  name   value" lines).
    require_counters() {
        local label=$1 report=$2 want
        shift 2
        for want in "$@"; do
            printf '%s\n' "$report" | grep -qE "^  ${want% *} +${want#* }$" || {
                echo "$label: want $want" >&2
                printf '%s\n' "$report" >&2
                exit 1
            }
        done
        echo "$label: $* ok"
    }

    step "epidemic pin (full-scale epidemic_threshold infection, recovery, round and chain totals)"
    # The golden fixture runs epidemic_threshold at scale 0.1 (n = 60) and
    # never reaches a 2000-round endemic SIS run at n = 600. These totals
    # count every infection, recovery and round of the full-scale sweep, and
    # every birth, death and birth-sampler draw of its fast-churn sparse
    # chain (q = 0.5), so any drift in the epidemic round or in the chain
    # step moves them.
    EPI_REPORT=$(cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        run epidemic_threshold --seed 2009 --metrics report 2>&1 >/dev/null)
    require_counters "epidemic pin" "$EPI_REPORT" "infections 2228158" \
        "recoveries 2225975" "rounds 12089" "edge_births 34684381" \
        "edge_deaths 34684783" "rng_draws 35842064"

    step "edge chain pin (full-scale edge_vs_n birth, death, draw and round totals)"
    # The sparse per-pair chain at n = 1000–16000 and both churn rates: the
    # q = 0.02 cells move most of the alive list as blocks in the merge, the
    # q = 0.5 cells mostly element by element.
    EDGE_REPORT=$(cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        run edge_vs_n --seed 2009 --metrics report 2>&1 >/dev/null)
    require_counters "edge chain pin" "$EDGE_REPORT" "edge_births 3272383" \
        "edge_deaths 3273368" "rng_draws 3284400" "rounds 193"

    step "probe pin (full-scale general_bound and geo_expansion rows, checksummed)"
    # The golden fixtures run the probe builtins at scale 0.1, where the
    # expansion profile stops near h = 80. At full scale it reaches h = 750
    # and BFS balls with large frontiers, where the sampler's early exit and
    # its ball-frontier count do most of their work. Both checksums were
    # taken from rows of the sampler that counted every |N(I)| to the end.
    for want in "general_bound 3671838318 3913" "geo_expansion 3915816712 4233"; do
        read -r name sum size <<< "$want"
        GOT=$($MEG_LAB run "$name" --seed 2009 --format json | cksum)
        [ "$GOT" = "$sum $size" ] || {
            echo "probe pin: $name rows drifted (cksum $GOT, want $sum $size)" >&2
            exit 1
        }
    done
    echo "probe pin: general_bound and geo_expansion rows unchanged"

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
    for s in advance step build init protocol teardown trial cell sweep; do
        grep -qE "^  $s +[1-9][0-9]*" "$MET_DIR/metrics.txt" || {
            echo "span $s missing from the metrics report" >&2
            rm -rf "$MET_DIR"
            exit 1
        }
    done
    # Every quick_smoke trial constructs one substrate (sparse edge or
    # geometric) inside one init span and advances it at least once. Each
    # advance builds one snapshot; the substrate steps lazily, at the start
    # of every advance but a trial's first, so steps = advances − trials.
    report_value() { awk -v k="$1" '$1 == k { print $2 }' "$MET_DIR/metrics.txt"; }
    ADVANCES=$(report_value advance)
    TRIALS=$(report_value trials)
    # Every trial runs one body, a `protocol` or a `probe` span, and then
    # drops its substrate inside one `teardown` span.
    BODIES=$(( $(report_value protocol) + $(report_value probe) ))
    for want in "build $ADVANCES" "step $((ADVANCES - TRIALS))" "init $TRIALS" \
        "teardown $TRIALS"; do
        read -r s n <<< "$want"
        [ "$(report_value "$s")" = "$n" ] || {
            echo "span $s count is not $n (advance $ADVANCES, trials $TRIALS):" >&2
            cat "$MET_DIR/metrics.txt" >&2
            rm -rf "$MET_DIR"
            exit 1
        }
    done
    [ "$BODIES" = "$TRIALS" ] || {
        echo "protocol + probe spans $BODIES != trials $TRIALS:" >&2
        cat "$MET_DIR/metrics.txt" >&2
        rm -rf "$MET_DIR"
        exit 1
    }
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
    # The bound probe's time lands in its own `probe` span, and installing
    # the recorder leaves the rows byte-identical.
    $MEG_LAB run general_bound --scale 0.1 --seed 2009 --format json > "$PROTO_DIR/bound.off.jsonl"
    $MEG_LAB run general_bound --scale 0.1 --seed 2009 --format json --metrics report \
        > "$PROTO_DIR/bound.on.jsonl" 2> "$PROTO_DIR/bound.metrics.txt"
    if ! diff -u "$PROTO_DIR/bound.off.jsonl" "$PROTO_DIR/bound.on.jsonl"; then
        echo "general_bound rows changed when the recorder was installed" >&2
        exit 1
    fi
    [ -s "$PROTO_DIR/bound.off.jsonl" ] || { echo "general_bound produced no rows" >&2; exit 1; }
    grep -qE "^  probe +[1-9][0-9]*" "$PROTO_DIR/bound.metrics.txt" || {
        echo "span probe missing or zero for general_bound:" >&2
        cat "$PROTO_DIR/bound.metrics.txt" >&2
        exit 1
    }
    echo "general_bound: $(wc -l < "$PROTO_DIR/bound.on.jsonl") rows identical with the recorder on, probe span live"
    rm -rf "$PROTO_DIR"

    step "distributed observability smoke (fault-injected pool: shipping + trace + progress + cut)"
    OBS_DIR=$(mktemp -d)
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON > "$OBS_DIR/reference.jsonl"
    # Every worker aborts after one request, so the sweep only completes through
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
    # The pool cuts each cell's trials into min(trials, workers) items. Five
    # trials on three crashing workers cut every cell 2 + 2 + 1, each item
    # on a fresh worker; the rows must still equal the in-process run's.
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --trials 5 > "$OBS_DIR/reference5.jsonl"
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --trials 5 --workers 3 --worker-fail-after 1 \
        > "$OBS_DIR/rows5.jsonl"
    if ! cmp "$OBS_DIR/reference5.jsonl" "$OBS_DIR/rows5.jsonl"; then
        diff -u "$OBS_DIR/reference5.jsonl" "$OBS_DIR/rows5.jsonl" >&2
        echo "rows changed with 5 trials cut across 3 crashing workers" >&2
        rm -rf "$OBS_DIR"
        exit 1
    fi
    # Rows cannot show whether the cut fires; the coordinator's request count
    # can. A fault-free 2-worker pool makes one round trip per hello plus one
    # per item: 2 + 4 cells x min(2 trials, 2 workers) = 10 at this scale.
    # shellcheck disable=SC2086
    $MEG_LAB run quick_smoke $COMMON --workers 2 --metrics report \
        > /dev/null 2> "$OBS_DIR/pool.metrics.txt"
    ROUND_TRIPS=$(awk '$1 == "worker_round_trip" { print $2 }' "$OBS_DIR/pool.metrics.txt")
    [ "$ROUND_TRIPS" = 10 ] || {
        echo "worker_round_trip count ${ROUND_TRIPS:-missing} != 10 (2 hellos + 8 items):" >&2
        cat "$OBS_DIR/pool.metrics.txt" >&2
        rm -rf "$OBS_DIR"
        exit 1
    }
    echo "pool cut: $(wc -l < "$OBS_DIR/rows5.jsonl") rows identical on 3 crashing workers;" \
        "$ROUND_TRIPS round trips on 2 workers"
    rm -rf "$OBS_DIR"

    step "metrics overhead guard (dense stepping bench, on/off median ratio ≤ 1.05)"
    # 31 repetitions: on an unchanged tree the on/off median ratio of this
    # workload went past 1.05 in 1 of 8 runs at 5 repetitions and 4 of 16
    # at 15, and stayed within 0.99–1.04 in 8 of 8 at 31; a recorder whose
    # span drop costs the workload ~9% read 1.06–1.10 at 31.
    OVERHEAD_OUT=$(cargo run -q --release --offline -p meg-engine --bin meg-lab -- \
        bench --overhead edge_dense_flood_n4096 --repetitions 31 --warmup 2 --scale 0.25)
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
