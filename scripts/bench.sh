#!/usr/bin/env bash
# bench.sh — run the move-evaluation, Table-5 and CP-proof benchmark
# suites and emit BENCH_eval.json, the checked-in performance baseline
# for the delta-evaluation core and the proof search. BenchmarkCPProof_*
# report the median CP nodes per proof next to the wall clock.
#
# Usage:
#   scripts/bench.sh                 # run + write BENCH_eval.json
#   COUNT=10 scripts/bench.sh        # more repetitions
#   scripts/bench.sh --section eval
#       rerun ONLY that section's benchmarks and merge them into the
#       existing BENCH_eval.json (other sections untouched); the section
#       records its own "cpus" and "gomaxprocs" so a mixed file stays
#       honest. Sections: eval, serve, cluster, resolve.
#   scripts/bench.sh --section serve
#       run the iddload serving benchmark (open-loop mixed-size tenant
#       traffic, fast-path routing on vs disabled over the identical
#       schedule) and write BENCH_serve.json. Knobs: SERVE_RATE,
#       SERVE_DURATION, SERVE_SMALL_FRAC, SERVE_BUDGET, SERVE_TENANTS,
#       SERVE_OUT. The report stamps cpus/gomaxprocs — a 1-CPU runner
#       understates the fast-path win (the portfolio race and the routed
#       backend contend for the same core either way; more cores widen
#       the gap for the race's concurrent backends).
#   scripts/bench.sh --section cluster
#       run the iddload cluster benchmark (identical schedule against a
#       single in-process node, then an N-node in-process cluster with
#       round-robin submission) and merge its report under "cluster" in
#       BENCH_serve.json (run --section serve first). Knobs:
#       CLUSTER_NODES, SERVE_RATE, SERVE_DURATION, SERVE_SMALL_FRAC,
#       SERVE_BUDGET, SERVE_TENANTS, SERVE_OUT. N nodes sharing one CPU
#       measure ~1x throughput by construction — the checked-in ratio
#       from a 1-CPU runner records routing overhead, not scale-out;
#       rerun across real machines (iddload -target against a deployed
#       cluster) for the throughput curve.
#   scripts/bench.sh --section resolve
#       run the iddresolve drift benchmark (seeded workload drift, warm
#       re-solve from the repaired prior plan vs cold from greedy) and
#       merge its report under "resolve" in BENCH_eval.json. Knobs:
#       RESOLVE_ROUNDS, RESOLVE_INDEXES, RESOLVE_STEPS, RESOLVE_SEED.
#       The step counts are deterministic (seeded VNS with a step
#       limit), so this section is hardware-independent.
#   SEED_REF=<git-ref> scripts/bench.sh
#       also measure the pre-MoveEval full-replay scoring cost at the
#       given ref (e.g. the PR base commit) in a throwaway worktree and
#       record it under "seed_baseline" — the denominator of the ≥3×
#       move-scoring acceptance ratio. (Full runs only, not --section.)
#
# The JSON's "raw" array holds the unmodified `go test -bench` lines, so
# benchstat can diff two baselines without re-running anything:
#
#   python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["raw"]))' \
#       BENCH_eval.json > old.txt
#   ... regenerate BENCH_eval.json ...
#   benchstat old.txt new.txt
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-1s}"
PATTERN="${PATTERN:-BenchmarkMoveEval|BenchmarkTable5|BenchmarkMicro_Objective|BenchmarkMicro_WalkerPushPop|BenchmarkCPProof}"
OUT="${OUT:-BENCH_eval.json}"
SEED_REF="${SEED_REF:-}"

SECTION=""
while [ $# -gt 0 ]; do
    case "$1" in
        --section) SECTION="${2:?--section needs a name}"; shift 2 ;;
        --section=*) SECTION="${1#--section=}"; shift ;;
        *) echo "bench.sh: unknown argument $1 (only --section <name>)" >&2; exit 2 ;;
    esac
done
if [ "$SECTION" = serve ]; then
    # The serving benchmark is its own artifact (BENCH_serve.json), not a
    # go-test bench fold: iddload writes the full report itself, stamped
    # with cpus/gomaxprocs.
    SERVE_OUT="${SERVE_OUT:-BENCH_serve.json}"
    exec go run ./cmd/iddload -compare-routing \
        -rate "${SERVE_RATE:-60}" \
        -duration "${SERVE_DURATION:-10s}" \
        -small-frac "${SERVE_SMALL_FRAC:-0.88}" \
        -budget "${SERVE_BUDGET:-100ms}" \
        -tenants "${SERVE_TENANTS:-4}" \
        -max-error-rate "${SERVE_MAX_ERROR_RATE:-0}" \
        -json "$SERVE_OUT"
fi
if [ "$SECTION" = cluster ]; then
    # The cluster comparison rides in BENCH_serve.json next to the
    # routing comparison it shares its schedule knobs with.
    SERVE_OUT="${SERVE_OUT:-BENCH_serve.json}"
    if [ ! -f "$SERVE_OUT" ]; then
        echo "bench.sh: --section cluster merges into an existing $SERVE_OUT; run --section serve first" >&2
        exit 2
    fi
    cluster_file="$(mktemp)"
    trap 'rm -f "$cluster_file"' EXIT
    go run ./cmd/iddload -compare-cluster \
        -cluster-nodes "${CLUSTER_NODES:-3}" \
        -rate "${SERVE_RATE:-60}" \
        -duration "${SERVE_DURATION:-10s}" \
        -small-frac "${SERVE_SMALL_FRAC:-0.88}" \
        -budget "${SERVE_BUDGET:-100ms}" \
        -tenants "${SERVE_TENANTS:-4}" \
        -max-error-rate "${SERVE_MAX_ERROR_RATE:-0}" \
        -json "$cluster_file"
    python3 - "$SERVE_OUT" "$cluster_file" <<'EOF'
import json, sys

full_path, frag_path = sys.argv[1:3]
with open(full_path) as f:
    old = json.load(f)
with open(frag_path) as f:
    new = json.load(f)

# The fragment's two runs (single_node, cluster_N) join the run list;
# a rerun replaces its previous entries. Its own cpus ride along in the
# summary so a mixed file stays honest.
names = {r["name"] for r in new.get("runs", [])}
old["runs"] = [r for r in old.get("runs", []) if r["name"] not in names]
old["runs"] += new.get("runs", [])

cluster = new.get("cluster") or {}
cluster["cpus"] = new.get("cpus")
cluster["gomaxprocs"] = new.get("gomaxprocs")
old["cluster"] = cluster
with open(full_path, "w") as f:
    json.dump(old, f, indent=2)
    f.write("\n")
EOF
    echo "merged section 'cluster' into $SERVE_OUT" >&2
    exit 0
fi
if [ "$SECTION" = resolve ]; then
    # The resolve drift benchmark is generated by iddresolve and merged
    # verbatim under the "resolve" key of the baseline.
    if [ ! -f "$OUT" ]; then
        echo "bench.sh: --section merges into an existing $OUT; run a full pass first" >&2
        exit 2
    fi
    resolve_file="$(mktemp)"
    trap 'rm -f "$resolve_file"' EXIT
    go run ./cmd/iddresolve \
        -rounds "${RESOLVE_ROUNDS:-8}" \
        -indexes "${RESOLVE_INDEXES:-14}" \
        -steps "${RESOLVE_STEPS:-12000}" \
        -seed "${RESOLVE_SEED:-1}" \
        -json "$resolve_file"
    python3 - "$OUT" "$resolve_file" <<'EOF'
import json, sys

full_path, frag_path = sys.argv[1:3]
with open(full_path) as f:
    old = json.load(f)
with open(frag_path) as f:
    new = json.load(f)

old["resolve"] = new
old.setdefault("sections", {})["resolve"] = {
    "cpus": new.get("cpus"),
    "gomaxprocs": new.get("gomaxprocs"),
    "rounds": new.get("rounds"),
    "step_limit": new.get("step_limit"),
}
with open(full_path, "w") as f:
    json.dump(old, f, indent=2)
    f.write("\n")
EOF
    echo "merged section 'resolve' into $OUT" >&2
    exit 0
fi
if [ -n "$SECTION" ]; then
    case "$SECTION" in
        eval) PATTERN='BenchmarkMoveEval|BenchmarkTable5|BenchmarkMicro_Objective|BenchmarkMicro_WalkerPushPop|BenchmarkCPProof' ;;
        *) echo "bench.sh: unknown section '$SECTION' (sections: eval, serve, cluster, resolve)" >&2; exit 2 ;;
    esac
    if [ ! -f "$OUT" ]; then
        echo "bench.sh: --section merges into an existing $OUT; run a full pass first" >&2
        exit 2
    fi
    if [ -n "$SEED_REF" ]; then
        echo "bench.sh: SEED_REF only applies to full runs, not --section" >&2
        exit 2
    fi
fi

raw_file="$(mktemp)"
seed_file="$(mktemp)"
frag_file="$(mktemp)"
seed_dir=""
cleanup() {
    rm -f "$raw_file" "$seed_file" "$frag_file"
    if [ -n "$seed_dir" ]; then
        git worktree remove --force "$seed_dir" 2>/dev/null || true
    fi
}
trap cleanup EXIT

# With --section the awk fold below writes a fragment that is then
# merged into the existing $OUT; full runs write $OUT directly.
gen_out="$OUT"
if [ -n "$SECTION" ]; then
    gen_out="$frag_file"
fi

echo "== benchmarks: $PATTERN (count=$COUNT, benchtime=$BENCHTIME)" >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$raw_file" >&2

if [ -n "$SEED_REF" ]; then
    echo "== seed baseline at $SEED_REF (full-replay move scoring)" >&2
    seed_dir="$(mktemp -d)"
    git worktree add --detach "$seed_dir" "$SEED_REF" >&2
    # The seed has no MoveEval; measure what its local searches paid per
    # candidate: copy the order, apply the move, full Objective replay.
    cat > "$seed_dir/seed_replay_bench_test.go" <<'EOF'
package idd_test

import (
	"math/rand"
	"testing"

	"github.com/evolving-olap/idd/internal/datasets"
	"github.com/evolving-olap/idd/internal/model"
	"github.com/evolving-olap/idd/internal/sched"
)

func seedReplayPairs(n, count int) [][2]int {
	rng := rand.New(rand.NewSource(7))
	out := make([][2]int, count)
	for i := range out {
		a, b := rng.Intn(n), rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		out[i] = [2]int{a, b}
	}
	return out
}

func BenchmarkSeed_FullReplay_Swap(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	order := sched.Identity(c.N)
	cand := make([]int, c.N)
	pairs := seedReplayPairs(c.N, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		copy(cand, order)
		sched.ApplySwap(cand, p[0], p[1])
		_ = c.Objective(cand)
	}
}

func BenchmarkSeed_FullReplay_Insert(b *testing.B) {
	c := model.MustCompile(datasets.TPCH())
	order := sched.Identity(c.N)
	cand := make([]int, c.N)
	pairs := seedReplayPairs(c.N, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1023]
		copy(cand, order)
		sched.ApplyInsert(cand, p[0], p[1])
		_ = c.Objective(cand)
	}
}
EOF
    (cd "$seed_dir" && go test -run '^$' -bench 'BenchmarkSeed_FullReplay' -benchmem \
        -benchtime "$BENCHTIME" -count "$COUNT" .) | tee "$seed_file" >&2
    git worktree remove --force "$seed_dir" >&2
    seed_dir=""
fi

# Fold the raw `go test -bench` output into one JSON document.
ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)"
awk -v count="$COUNT" -v benchtime="$BENCHTIME" -v seedfile="$seed_file" -v seedref="$SEED_REF" -v cpus="$ncpu" -v gomaxprocs="${GOMAXPROCS:-$ncpu}" '
function esc(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); gsub(/\t/, "\\t", s); gsub(/\r/, "", s); return s }
function median(vals, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && vals[j-1] > vals[j]; j--) { t = vals[j]; vals[j] = vals[j-1]; vals[j-1] = t }
    if (n % 2) return vals[(n+1)/2]
    return (vals[n/2] + vals[n/2+1]) / 2
}
function record(line, dst,    name, f) {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { order[++norder] = name; seen[name] = 1 }
    runs[name]++
    for (f = 2; f <= NF; f++) {
        if ($(f) == "ns/op")     ns[name, runs[name]] = $(f-1)
        if ($(f) == "B/op")      bop[name] = $(f-1)
        if ($(f) == "allocs/op") aop[name] = $(f-1)
        if ($(f) == "nodes/op")  nop[name, runs[name]] = $(f-1)
    }
    raw[++nraw] = line
}
/^Benchmark/ { record($0) }
/^goos:|^goarch:|^pkg:|^cpu:/ { meta[substr($1, 1, length($1)-1)] = substr($0, index($0, " ") + 1) }
END {
    while ((getline line < seedfile) > 0)
        if (line ~ /^Benchmark/) { $0 = line; record(line) }
    for (i = 1; i <= norder; i++) {
        name = order[i]
        n = runs[name]
        for (r = 1; r <= n; r++) v[r] = ns[name, r]
        med[name] = median(v, n)
        if ((name, 1) in nop) {
            for (r = 1; r <= n; r++) v[r] = nop[name, r]
            nodes[name] = median(v, n)
        }
    }
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench.sh\",\n"
    printf "  \"count\": %d,\n  \"benchtime\": \"%s\",\n", count, esc(benchtime)
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs
    if (seedref != "") printf "  \"seed_ref\": \"%s\",\n", esc(seedref)
    for (m in meta) printf "  \"%s\": \"%s\",\n", esc(m), esc(meta[m])
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= norder; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op_median\": %g", esc(name), runs[name], med[name]
        if (name in bop) printf ", \"b_per_op\": %g, \"allocs_per_op\": %g", bop[name], aop[name]
        if (name in nodes) printf ", \"nodes_per_op_median\": %g", nodes[name]
        printf "}%s\n", (i < norder ? "," : "")
    }
    printf "  ],\n"
    printf "  \"raw\": [\n"
    for (i = 1; i <= nraw; i++)
        printf "    \"%s\"%s\n", esc(raw[i]), (i < nraw ? "," : "")
    printf "  ]\n}\n"
}' "$raw_file" > "$gen_out"

if [ -n "$SECTION" ]; then
    # Merge the fragment into the checked-in baseline: replace the
    # section's benchmark entries and raw lines, carry the fragment's
    # cpus into the section summary, leave everything else untouched.
    python3 - "$OUT" "$frag_file" "$SECTION" <<'EOF'
import json, re, sys

full_path, frag_path, section = sys.argv[1:4]
with open(full_path) as f:
    old = json.load(f)
with open(frag_path) as f:
    new = json.load(f)

names = {b["name"] for b in new.get("benchmarks", [])}
old["benchmarks"] = [b for b in old.get("benchmarks", []) if b["name"] not in names]
old["benchmarks"] += new.get("benchmarks", [])

def base(line):
    m = re.match(r"(Benchmark\S+?)(-\d+)?\s", line)
    return m.group(1) if m else None

old["raw"] = [l for l in old.get("raw", []) if base(l) not in names]
old["raw"] += new.get("raw", [])

old.setdefault("sections", {})[section] = {
    "cpus": new.get("cpus"),
    "gomaxprocs": new.get("gomaxprocs"),
    "count": new.get("count"),
    "benchtime": new.get("benchtime"),
}
with open(full_path, "w") as f:
    json.dump(old, f, indent=2)
    f.write("\n")
EOF
    echo "merged section '$SECTION' into $OUT" >&2
else
    echo "wrote $OUT" >&2
fi
