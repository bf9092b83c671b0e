#!/bin/sh
# ci.sh — the single CI gate for the repository.
#
# Runs, in order: build, ficusvet (the six repo-specific analyzers —
# determinism, vvalias, errclass, heldlocks, lockorder, duraberr), go vet,
# vet and smoke test of the benchmark module (bench/, a module of its own that
# go vet ./... and go test ./... do not reach), gofmt, the gates that keep
# encoding/gob out of non-test code, container/list inside internal/lru,
# whole-file writes in internal/physical behind atomicReplace and the in-place
# sidecar reseal behind its one caller, a two-second fuzz smoke of every
# decoder fuzz target (a package left with none fails), three one-iteration
# bench smokes, the race-enabled test suite (it holds the two RPC-economy
# gates of the root package — TestRemoteReadRPCBudget,
# TestFirstAvailableAsksNobodyElse — and the session tests of
# internal/logical), ten more rounds of the one that shares an opened
# vnode between goroutines while its replica is cut off and healed,
# the suite again with runtime invariants armed (FICUS_INVARIANTS=1),
# and the four chaos gates (chaos-crash includes the crash-at-every-write sweep
# of the local mutating ops and the four tests that hold the physical layer's
# caches to the store — a live layer across a failed device write, stale
# directory handles, cached against flushed-before-every-op, readers racing
# directory moves; chaos-scrub the two tests that a local write does not
# launder rot).  Each thing runs once.  Any failure stops the gate.
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

echo "==> bench module: go vet . && go test ."
# The benchmark compiles against this module's exported and internal names;
# this is what keeps a refactor from silently breaking it.
(cd bench && go vet . && go test -count=1 .)

echo "==> gofmt -l"
# The analyzers' testdata holds deliberately odd fixtures; everything else
# tracked must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go' | grep -v /testdata/))"

echo "==> no encoding/gob outside tests"
# internal/wire is the one codec (DESIGN.md §9.2); gob survives only as the
# recorded baseline of a test-only microbenchmark.
test -z "$(grep -l '"encoding/gob"' $(git ls-files '*.go' | grep -v _test.go))"

echo "==> no container/list outside internal/lru"
# internal/lru is the one LRU (DESIGN.md §16); a second list-and-map cache
# body starts with this import.
test -z "$(grep -l '"container/list"' $(git ls-files '*.go' | grep -v _test.go | grep -v '^internal/lru/'))"

echo "==> one whole-file writer in internal/physical"
# atomicReplace is the one way a store file is replaced (DESIGN.md §10): the
# only other vnode.WriteFile fills the body of a symlink no entry names yet,
# and dir and meta are never opened for rewriting.
phys=$(git ls-files 'internal/physical/*.go' | grep -v _test.go)
test "$(cat $phys | grep -c 'vnode\.WriteFile(')" -eq 2
test -z "$(grep -lE 'Create\((dirFileName|metaFileName)' $phys)"

echo "==> one in-place reseal in internal/physical"
# Only a local update may overwrite a sidecar in place (DESIGN.md §10.3):
# resealInPlace has one caller, updateFileLocked, and sealLocked (atomicReplace)
# keeps its three — the first seal in createKind, commitFileVersionLocked and
# the scrubber.  An install or a scrub reseal must never take the in-place arm.
test "$(cat $phys | grep -v '^func ' | grep -c 'resealInPlace(')" -eq 1
test "$(sed -n '/^func (v \*pvnode) updateFileLocked(/,/^}/p' internal/physical/pvnode.go | grep -c 'resealInPlace(')" -eq 1
test "$(cat $phys | grep -c '\.sealLocked(')" -eq 3

echo "==> fuzz smoke: every Fuzz* target, 2s each"
# The seed corpora already run under go test; this catches an oracle that
# only holds on the seeds.  go test -fuzz takes one target of one package.
# A listed package with no target fails: these targets are half of what pins
# the wire formats (the goldens are the other half).
for pkg in wire repl nfs core physical; do
	targets=$(go test -list '^Fuzz' "./internal/$pkg" | grep '^Fuzz' || true)
	if [ -z "$targets" ]; then
		echo "no Fuzz target in internal/$pkg" >&2
		exit 1
	fi
	for target in $targets; do
		go test -run '^$' -fuzz "^$target\$" -fuzztime 2s "./internal/$pkg"
	done
done

echo "==> bench smoke: E13 delta propagation"
go test -count=1 -run 'xxx' -bench 'BenchmarkE13DeltaPropagation' -benchtime 1x .

echo "==> bench smoke: E14 hedged pulls"
go test -count=1 -run 'xxx' -bench 'BenchmarkE14HedgedPulls' -benchtime 1x .

echo "==> bench smoke: E15 gossip scaling (small n)"
go test -count=1 -run 'xxx' -bench 'E15GossipScale/(gossip|flat)/n=(8|32)$' -benchtime 1x .

echo "==> go test -race ./..."
go test -race ./...
# Selection is per open (DESIGN.md §3.1): the pin is shared state.
go test -race -count=10 -run 'TestSharedOpenVnodeUnderChurn|TestConcurrentFirstOpensShareOnePin' ./internal/logical

echo "==> FICUS_INVARIANTS=1 go test ./..."
FICUS_INVARIANTS=1 go test -count=1 ./...

echo "==> make chaos-crash"
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestChaosCrashRestartConvergence' .
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestCrashAtEveryWriteOfEveryLocalOp' ./internal/physical
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestLiveLayerAnswersAsStoreAfterDiskFault|TestStaleDirectoryHandles|TestCachedLayerMatchesFlushedLayer|TestReadersRaceDirectoryMoves' ./internal/physical

echo "==> make chaos-scrub"
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestChaosScrubConvergence' .
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestLocalWriteDoesNotLaunderRot|TestPartialOverwriteOfRottedBlockQuarantines' ./internal/physical

echo "==> make chaos-slow"
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestChaosSlowPeerConvergence' .

echo "==> make chaos-gossip"
FICUS_INVARIANTS=1 go test -race -count=1 -timeout 2400s -run 'TestChaosGossipChurnConvergence' .

echo "==> ci gate passed"
