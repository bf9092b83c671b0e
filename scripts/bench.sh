#!/bin/sh
# bench.sh — regenerate the committed benchmark records:
#   BENCH_PR3.json  — propagation pulls (E10) and repl wire-codec micros.
#   BENCH_PR9.json  — hedged-pull tail latency (E14): p50/p99 pull ticks
#                     with hedging on vs off over a slow, spiky link.
#   BENCH_PR10.json — gossip vs flat notification scaling (E15).
set -eu

cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# record <out.json> <go test args…> runs the benchmarks and writes out.json
# from their result lines; a second call naming the same file adds its lines
# to the record.
record() {
	out="$1"
	shift
	echo "==> go test -run '^\$' $*"
	go test -run '^$' "$@" | tee -a "$tmpdir/$out"
	awk '
BEGIN { print "{"; print "  \"benchmarks\": ["; sep = "" }
/^Benchmark/ {
    printf "%s    {\"name\": \"%s\", \"iterations\": %s", sep, $1, $2
    for (i = 3; i + 1 <= NF; i += 2) printf ", \"%s\": %s", $(i+1), $i
    printf "}"
    sep = ",\n"
}
END { print ""; print "  ]"; print "}" }
' "$tmpdir/$out" > "$out"
	echo "==> wrote $out"
}

# E10 runs a fixed small iteration count (each pass is a full 256-file
# propagation round on a 4-host cluster — the counting metrics are exact and
# deterministic, only ns/op varies); the codec microbenchmarks use the normal
# time-based iteration so ns/op is meaningful.
record BENCH_PR3.json -bench 'BenchmarkE10' -benchtime 3x .
record BENCH_PR3.json -bench 'BenchmarkCodec' ./internal/repl

# One iteration is 128 full write→propagate rounds per variant; every
# latency draw is virtual ticks from the seeded simnet RNG, so the reported
# percentiles are exact and reproducible — only ns/op varies run to run.
record BENCH_PR9.json -bench 'BenchmarkE14' -benchtime 1x .

# Gossip vs flat notification at n = 8..256: one iteration per variant writes
# 4 files and converges the cluster.  The per-update datagram counts come off
# the seeded simnet, so they are exact; only ns/op varies run to run.
record BENCH_PR10.json -bench 'BenchmarkE15' -benchtime 1x -timeout 1200s .
