#!/bin/sh
# ci.sh — the single CI gate for the repository.
#
# Runs, in order: build, ficusvet (the six repo-specific analyzers —
# determinism, vvalias, errclass, heldlocks, lockorder, duraberr), go vet,
# gofmt, the gates that keep encoding/gob out of non-test code,
# container/list inside internal/lru,
# whole-file writes in internal/physical behind atomicReplace, the directory
# journal's append behind its one writer, the in-place reseal of an aux's seal
# behind its two callers and fresh storage behind writeFresh, one metadata
# member per file copy (no sidecar member), internal/ufs's metadata
# blocks behind the end-of-call flush, a physical file's attributes — for
# Getattr and for the replication read path — and its seal, for the verified
# read and a pull's advertisement, behind the one cached aux reader, one NFS
# read-reply encoder, a directory notice that merges its one
# directory instead of a whole subtree, a two-second fuzz smoke
# of every decoder fuzz target (a package left with none fails), the gates that keep
# timed benchmarks and mirrored Stats structs out of the root package, the
# race-enabled test suite (it holds the RPC-economy gates — of the root
# package TestRemoteReadRPCBudget, TestFirstAvailableAsksNobodyElse, and of
# internal/logical TestLookupDoesNotPoll, TestWarmWalkAsksNothing,
# TestWalkBelowAMovedParentAnswersAsFromTheRoot, and of internal/repl
# TestDirectoryNoticeCostsItsDirectory — the experiment
# assertions of experiments_test.go, and the session tests of
# internal/logical), ten more rounds of the one that shares an opened
# vnode between goroutines while its replica is cut off and healed,
# the suite again with runtime invariants armed (FICUS_INVARIANTS=1),
# the chaos rows of make chaos (convergence, flaky-links and the composed row
# that turns every fault plane on at once, with the shrinker's and the
# determinism tests), the four chaos gates — each a row of TestChaos,
# selected by subtest name (chaos-crash includes the crash-at-every-write sweep
# of the local mutating ops — among them an append that compacts the directory
# journal and a first install — the UFS sweeps of every exported mutating call
# and of a torn workload, and the four tests that hold the physical
# layer's caches to the store — a live layer across a failed device write, stale
# directory handles, cached against flushed-before-every-op, readers racing
# directory moves; chaos-scrub the two tests that a local write does not
# launder rot) — and last the vet and smoke test of the benchmark module
# (bench/, a module of its own that go vet ./... and go test ./... do not
# reach), so that a red benchmark smoke test stops no product gate.  Each
# thing runs once.  Any failure stops the gate.
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

echo "==> no container/list outside internal/lru"
# internal/lru is the one LRU (DESIGN.md §16); a second list-and-map cache
# body starts with this import.
test -z "$(grep -l '"container/list"' $(git ls-files '*.go' | grep -v _test.go | grep -v '^internal/lru/'))"

echo "==> one whole-file writer and one directory append in internal/physical"
# atomicReplace is the one way a store file is replaced (DESIGN.md §10.3): its
# shadow is the one vnode.WriteFile.  dir is appended to by writeDirLocked
# alone, replaced only by its atomicReplace, and written whole once more, empty,
# by newContainerLocked as fresh storage; it is looked up only to be read and
# appended to, and neither it nor meta is ever Created.
phys=$(git ls-files 'internal/physical/*.go' | grep -v _test.go)
test "$(cat $phys | grep -c 'vnode\.WriteFile(')" -eq 1
test "$(cat $phys | grep -c 'WriteAt(rec, int64(d\.end))')" -eq 1
test "$(sed -n '/^func (l \*Layer) writeDirLocked(/,/^}/p' internal/physical/dirfile.go | grep -c 'WriteAt(rec, int64(d\.end))\|atomicReplace(cont, dirFileName')" -eq 2
test "$(cat $phys | grep -c 'dirFileName, ')" -eq 2
test "$(cat $phys | grep -c 'Lookup(dirFileName)')" -eq 2
test -z "$(grep -lE 'Create\((dirFileName|metaFileName)' $phys)"

echo "==> one in-place reseal and one fresh-storage writer in internal/physical"
# Only an update under a new vector may overwrite an aux's seal in place
# (DESIGN.md §10.3): resealInPlace has two callers, updateFileLocked and
# commitFileVersionLocked, once each, and sealLocked (atomicReplace of the
# whole aux) one, the scrubber.  Storage no aux or attr vouches for yet skips
# the shadow through writeFresh: createKind's data and aux, newContainerLocked's
# empty dir and attr, and commitFileVersionLocked's first copy.  A reseal under
# the vector the header already holds must never take an in-place arm.
test "$(cat $phys | grep -v '^func ' | grep -c 'resealInPlace(')" -eq 2
test "$(sed -n '/^func (v \*pvnode) updateFileLocked(/,/^}/p' internal/physical/pvnode.go | grep -c 'resealInPlace(')" -eq 1
test "$(sed -n '/^func (l \*Layer) commitFileVersionLocked(/,/^}/p' internal/physical/shadow.go | grep -c 'resealInPlace(')" -eq 1
test "$(cat $phys | grep -c '\.sealLocked(')" -eq 1
test "$(sed -n '/^func (l \*Layer) scrubFileLocked(/,/^}/p' internal/physical/scrub.go | grep -c '\.sealLocked(')" -eq 1
test "$(cat $phys | grep -v '^func \|^\s*//' | grep -c 'writeFresh')" -eq 5
test "$(sed -n '/^func (l \*Layer) commitFileVersionLocked(/,/^}/p' internal/physical/shadow.go | grep -c 'put = writeFresh')" -eq 1

echo "==> one metadata member per file copy in internal/physical"
# A file copy is its data F<fid> and its aux A<fid>, whose tail is the seal
# (DESIGN.md §11): no sidecar member prefix, no reader of one, and no "S"
# name prefix anywhere in the layer.
test -z "$(grep -lE 'prefixSidecar|readSidecar\(|"S"' $phys)"

echo "==> metadata blocks written only by the end-of-call flush in internal/ufs"
# A call changes bitmap, inode-table and indirect blocks in its stage, and the
# flush writes each once at its end (DESIGN.md §16): bc.write has two callers,
# the flush and the write-through of data and directory blocks (held by
# FICUS_INVARIANTS to blocks that are neither metadata nor staged), and each
# of the twelve exported mutating calls ends in the flush.
ufs=$(git ls-files 'internal/ufs/*.go' | grep -v _test.go)
test "$(cat $ufs | grep -c 'bc\.write(')" -eq 2
test "$(sed -n '/^func (s \*stage) flush(/,/^}/p' internal/ufs/stage.go | grep -c 'bc\.write(')" -eq 1
test "$(sed -n '/^func (s \*stage) write(/,/^}/p' internal/ufs/stage.go | grep -c 'bc\.write(')" -eq 1
test "$(cat $ufs | grep -c 'defer fs\.endCallLocked(&err)')" -eq 12

echo "==> a file's attributes through the one cached aux reader in internal/physical"
# Getattr's file arm — and through it Resolve, for the subject of every NFS
# request — reads the aux through the aux cache (DESIGN.md §16), not the store.
test "$(sed -n '/^func (v \*pvnode) getattrLocked(/,/^}/p' internal/physical/pvnode.go | grep -c 'fileAuxLocked(')" -eq 1
test "$(sed -n '/^func (v \*pvnode) getattrLocked(/,/^}/p' internal/physical/pvnode.go | grep -c 'readAuxFile(\|openAuxFile(\|loadAux(')" -eq 0
# So do FileInfo — and through it pullOne — for a file and a child
# directory, and AddToBase for a pull's advertisement.
test "$(sed -n '/^func (l \*Layer) fileInfoLocked(/,/^}/p' internal/physical/export.go | grep -c 'fileAuxLocked(')" -eq 2
test "$(sed -n '/^func (l \*Layer) fileInfoLocked(/,/^}/p' internal/physical/export.go | grep -c 'readAuxFile(\|openAuxFile(\|loadAux(')" -eq 0
test "$(sed -n '/^func (l \*Layer) AddToBase(/,/^}/p' internal/physical/pull.go | grep -c 'fileAuxLocked(')" -eq 1
test "$(sed -n '/^func (l \*Layer) AddToBase(/,/^}/p' internal/physical/pull.go | grep -c 'readAuxFile(\|openAuxFile(\|loadAux(')" -eq 0
# The verified read and AddToBase take the seal from that same cached read
# of the aux member, and from nothing else.
for fn in 'l \*Layer) readVerifiedLocked' 'l \*Layer) AddToBase'; do
	body=$(sed -n "/^func ($fn(/,/^}/p" $phys)
	test "$(echo "$body" | grep -c 'fileAuxLocked(.*, true)')" -eq 1
	test "$(echo "$body" | grep -c 'readAuxFile(\|openAuxFile(\|loadAux(\|decodeAuxMember(\|decodeSidecar(\|Lookup(prefixAux')" -eq 0
done

echo "==> one read-reply encoder in internal/nfs"
# The server reads straight into the reply (DESIGN.md §9.2): Server.read is
# encodeReadReply's one caller, whose bytes TestReadReplyIsAResponse holds to
# Response.encode's, and no Response is built around read data.
nfs=$(git ls-files 'internal/nfs/*.go' | grep -v _test.go)
test "$(cat $nfs | grep -v '^func ' | grep -c 'encodeReadReply(')" -eq 1
test "$(sed -n '/^func (s \*Server) read(/,/^}/p' internal/nfs/server.go | grep -c 'encodeReadReply(')" -eq 1
test "$(cat $nfs | grep -c 'Response{[^}]*Data:')" -eq 0

echo "==> a directory notice merges its one directory in internal/recon"
# Propagate's is-dir outcome reconciles under the notice scope (DESIGN.md
# §9.1): one DirEntries, the merge, one pull of what the replica lacks.  The
# whole-subtree walk is the periodic pass's, the backstop for a lost notice.
test "$(grep -c 'ReconcileSubtree(' internal/recon/propagate.go)" -eq 0
test "$(grep -c 'reconcile(local, res.src, childPath, notice)' internal/recon/propagate.go)" -eq 1

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

echo "==> no Benchmark in the root package"
# bench/ is the one timed harness; the root package asserts the experiments'
# counts as tests (experiments_test.go).
test -z "$(grep -l '^func Benchmark' $(git ls-files '*.go' | grep -v /))"

echo "==> no Stats struct in the root package"
# Each counter lives in one record, owned by the package that counts it
# (DESIGN.md §3); the root package re-exports those records by alias or
# embedding, so a field-by-field mirror starts with this declaration.
test -z "$(grep -l '^type [A-Za-z]*Stats struct' $(git ls-files '*.go' | grep -v / | grep -v _test.go))"

echo "==> go test -race ./..."
go test -race ./...
# Selection is per open (DESIGN.md §3.1): the pin is shared state.
go test -race -count=10 -run 'TestSharedOpenVnodeUnderChurn|TestConcurrentFirstOpensShareOnePin' ./internal/logical

echo "==> FICUS_INVARIANTS=1 go test ./..."
FICUS_INVARIANTS=1 go test -count=1 ./...

echo "==> make chaos"
FICUS_INVARIANTS=1 go test -race -count=1 -run '^TestChaos$/^(convergence|flaky-links|composed)$' .
FICUS_INVARIANTS=1 go test -race -count=1 -run '^(TestChaosDeterministic|TestShrinkFindsThePair)$' .

echo "==> make chaos-crash"
FICUS_INVARIANTS=1 go test -race -count=1 -run '^TestChaos$/^crash$' .
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestCrashAtEveryWriteOfEveryLocalOp' ./internal/physical
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestCrashAtEveryWriteOfEveryCall|TestTornWriteAtEveryOffset' ./internal/ufs
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestLiveLayerAnswersAsStoreAfterDiskFault|TestStaleDirectoryHandles|TestCachedLayerMatchesFlushedLayer|TestReadersRaceDirectoryMoves' ./internal/physical

echo "==> make chaos-scrub"
FICUS_INVARIANTS=1 go test -race -count=1 -run '^TestChaos$/^scrub$' .
FICUS_INVARIANTS=1 go test -race -count=1 -run 'TestLocalWriteDoesNotLaunderRot|TestPartialOverwriteOfRottedBlockQuarantines' ./internal/physical

echo "==> make chaos-slow"
FICUS_INVARIANTS=1 go test -race -count=1 -run '^TestChaos$/^slow$' .

echo "==> make chaos-gossip"
FICUS_INVARIANTS=1 go test -race -count=1 -timeout 2400s -run '^TestChaos$/^gossip$' .

echo "==> bench module: go vet . && go test ."
# The benchmark compiles against this module's exported and internal names;
# this is what keeps a refactor from silently breaking it.
(cd bench && go vet . && go test -count=1 .)

echo "==> ci gate passed"
