#!/bin/sh
# ci.sh — the single CI gate for the repository.  Each step runs once, in
# this order, and any failure stops the gate:
#
#   - go build ./...;
#   - ficusvet, the five repo-specific analyzers (determinism, errclass,
#     heldlocks, lockorder, duraberr), then go vet and gofmt;
#   - greps that keep deleted mechanisms deleted: encoding/gob and
#     container/list in non-test code, a sidecar member, a new-version cache
#     journal, a repair daemon and a second directory walk in internal/ufs;
#   - a two-second fuzz smoke of every fuzz target (a package left with none
#     fails);
#   - greps that keep timed benchmarks and mirrored Stats structs out of the
#     root package;
#   - make race invariants chaos chaos-crash chaos-scrub chaos-slow
#     chaos-gossip: the race-enabled suite, the suite with runtime invariants
#     armed, and the chaos rows and sweeps — each target's comment in the
#     Makefile says what it runs;
#   - last, the vet and smoke test of the benchmark module (bench/, a module of
#     its own that go vet ./... and go test ./... do not reach), so that a red
#     benchmark smoke test stops no product gate.
#
# The other properties these greps once pinned by function name are held by
# tests, which DESIGN.md §10.3 names.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> ficusvet -json ./..."
# Hard gate over the whole module (cmd/ included): exit 1 means findings,
# exit 2 means the gate itself failed to load the module — both stop CI.
# JSON keeps the findings machine-readable for annotation tooling.
if ! go run ./cmd/ficusvet -json ./... > /tmp/ficusvet.json; then
	cat /tmp/ficusvet.json
	echo "ficusvet gate failed" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l"
# The analyzers' testdata holds deliberately odd fixtures; everything else
# tracked must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go' | grep -v /testdata/))"

echo "==> no encoding/gob outside tests"
# internal/wire is the one codec (DESIGN.md §9.2); gob survives only as the
# recorded baseline of a test-only microbenchmark.
test -z "$(grep -l '"encoding/gob"' $(git ls-files '*.go' | grep -v _test.go))"

echo "==> no container/list in non-test Go"
# internal/lru is the one LRU (DESIGN.md §16), its entries in one slab linked
# by index; a second list-and-map cache body, or this one going back to a
# node allocated per entry, starts with this import.
test -z "$(grep -l '"container/list"' $(git ls-files '*.go' | grep -v _test.go))"

phys=$(git ls-files 'internal/physical/*.go' | grep -v _test.go)

echo "==> one metadata member per file copy in internal/physical"
# A file copy is its data F<fid> and its aux A<fid>, whose tail is the seal
# (DESIGN.md §11): no sidecar member prefix, no reader of one, and no "S"
# name prefix anywhere in the layer.
test -z "$(grep -lE 'prefixSidecar|readSidecar\(|"S"' $phys)"

echo "==> a volatile new-version cache in internal/physical"
# The cache is a hint (DESIGN.md §10.1): a crash forgets it and the restart's
# rescan, run before the first pull pass, finds again what it held, so the
# layer writes it nowhere — no journal file, append, replay or error count.
test -z "$(grep -lE 'nvcj|journalAppendLocked|replayJournal|JournalErrors' $phys)"

echo "==> one pull repairs"
# A quarantined copy is healed by whichever pull visits it (DESIGN.md §11):
# its request is forced and a verified install lifts the quarantine, so the
# integrity plane keeps no repair daemon, queue, backoff or give-up verdict.
internal=$(git ls-files 'internal/*.go' | grep -v _test.go | grep -v /testdata/)
test -z "$(grep -lE 'QuarEntry|RepairDue|DeferRepair|NoteUnrepairable|GaveUp|Unrepairable|func Repair\(' $internal)"

echo "==> one directory walk in internal/ufs"
# A directory's slots are read by one scan, dirScanLocked, and searched by one
# function over it, dirFindLocked, which answers where a name is or where an
# add of it goes (DESIGN.md §16): exactly one decodeSlot call site, inside
# dirScanLocked, so no second block walk creeps back in.
ufs=$(git ls-files 'internal/ufs/*.go' | grep -v _test.go)
sites=$(awk '/^func /{f=$0} /decodeSlot\(/ && !/^func / && !/^[ \t]*\/\//{print f}' $ufs)
test "$(printf '%s\n' "$sites" | wc -l)" -eq 1
printf '%s\n' "$sites" | grep -q '^func (fs \*FS) dirScanLocked('

echo "==> fuzz smoke: every Fuzz* target, 2s each"
# The seed corpora already run under go test; this catches an oracle that
# only holds on the seeds.  go test -fuzz takes one target of one package.
# A listed package with no target fails: these targets are half of what pins
# the wire formats (the goldens are the other half), and internal/ufs's holds
# every reader to a corrupt inode.
for pkg in wire repl nfs core physical ufs; do
	targets=$(go test -list '^Fuzz' "./internal/$pkg" | grep '^Fuzz' || true)
	if [ -z "$targets" ]; then
		echo "no Fuzz target in internal/$pkg" >&2
		exit 1
	fi
	for target in $targets; do
		go test -run '^$' -fuzz "^$target\$" -fuzztime 2s "./internal/$pkg"
	done
done

echo "==> no Benchmark in the root package"
# bench/ is the one timed harness; the root package asserts the experiments'
# counts as tests (experiments_test.go).
test -z "$(grep -l '^func Benchmark' $(git ls-files '*.go' | grep -v /))"

echo "==> no Stats struct in the root package"
# Each counter lives in one record, owned by the package that counts it
# (DESIGN.md §3); the root package re-exports those records by alias or
# embedding, so a field-by-field mirror starts with this declaration.
test -z "$(grep -l '^type [A-Za-z]*Stats struct' $(git ls-files '*.go' | grep -v / | grep -v _test.go))"

echo "==> make race invariants chaos chaos-crash chaos-scrub chaos-slow chaos-gossip"
make race invariants chaos chaos-crash chaos-scrub chaos-slow chaos-gossip

echo "==> bench module: go vet . && go test ."
# The benchmark compiles against this module's exported and internal names;
# this is what keeps a refactor from silently breaking it.
(cd bench && go vet . && go test -count=1 .)

echo "==> ci gate passed"
