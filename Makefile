GO ?= go

.PHONY: all build test check race vet lint invariants chaos chaos-crash chaos-scrub chaos-slow chaos-gossip ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint builds and runs ficusvet, the repo-specific suite of five analyzers
# (determinism, errclass, heldlocks, lockorder, duraberr — see
# DESIGN.md §8 and §12).
lint:
	$(GO) build -o /dev/null ./cmd/ficusvet
	$(GO) run ./cmd/ficusvet ./...

# race runs the suite under the race detector — the RPC-economy gates
# (TestRemoteReadRPCBudget, TestFirstAvailableAsksNobodyElse) and the session
# tests of internal/logical are in it — then ten more rounds of the tests that
# share one vnode between goroutines: readers while its pinned replica is cut
# off and healed, two first opens at once, and walks that the layer's vnode
# table hands a vnode mid-session (DESIGN.md §3.1); and of the tests that run
# pulls on several goroutines, and two file systems beside NFS reads, through
# the one pool of lent buffers, with the poison armed (DESIGN.md §9.2).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestSharedOpenVnodeUnderChurn|TestConcurrentFirstOpensShareOnePin|TestWalksMidSession|TestConcurrentPullsOwnTheirBytes|TestFileSystemsShareOnePool' ./internal/logical ./internal/repl ./internal/nfs

# invariants re-runs the suite with the runtime invariant checks armed
# (internal/invariant; free when the env var is unset).
invariants:
	FICUS_INVARIANTS=1 $(GO) test -count=1 ./...

# chaos runs the rows of TestChaos (scenario_test.go, DESIGN.md §7.1) that
# have no target of their own — convergence under partitions, flaky-links
# with the fault plane kept on through final convergence, and composed, every
# fault plane at once — with invariants armed, plus the tests that the event
# lists replay deterministically and that the shrinker finds a minimal list.
chaos:
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run '^TestChaos$$/^(convergence|flaky-links|composed)$$' -v .
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run '^(TestChaosDeterministic|TestShrinkFindsThePair)$$' -v .

# chaos-crash runs TestChaos's crash row with the runtime invariant checks
# armed: random hosts power-fail and reboot mid-propagation under RPC
# faults, and every replica must converge from its durable on-disk state
# (DESIGN.md §10) — and then the sweep that power-fails one replica at every
# device write of every local mutating op (among them an append that
# compacts the directory journal and a first install) and the sweep that
# power-fails a pulled version's install (the one install path, which
# assembles the version before it commits) at every write, the UFS sweeps that
# do the same to every exported mutating call and to a torn workload
# (DESIGN.md §16), the UFS slot differential (every name in the slot a model
# gives it, every DNLC entry's slot as a scan finds it), and the tests that hold the physical layer's caches
# (DESIGN.md §16) to the store: a layer kept running across a failed device
# write, stale directory handles, a cached layer against one flushed before
# every op, and readers racing directory moves.
chaos-crash:
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run '^TestChaos$$/^crash$$' -v .
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestCrashAtEveryWriteOfEveryLocalOp|TestDeltaInstallCrashSweep' ./internal/physical
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestCrashAtEveryWriteOfEveryCall|TestTornWriteAtEveryOffset|TestDirSlotsMatchScan' ./internal/ufs
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestLiveLayerAnswersAsStoreAfterDiskFault|TestStaleDirectoryHandles|TestCachedLayerMatchesFlushedLayer|TestReadersRaceDirectoryMoves' ./internal/physical

# chaos-scrub runs TestChaos's scrub row with invariants armed: at-rest bit
# rot lands on random replicas while hosts crash under RPC faults, and the
# scrubber must detect, quarantine, and heal every
# damaged copy from a peer with zero wrong-bytes files (DESIGN.md §11) — and
# then the two tests that a local write neither launders rot it did not touch
# nor builds on rot it did.
chaos-scrub:
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run '^TestChaos$$/^scrub$$' -v .
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestLocalWriteDoesNotLaunderRot|TestPartialOverwriteOfRottedBlockQuarantines' ./internal/physical

# chaos-slow runs TestChaos's slow row with invariants armed:
# heavy-tailed latency on every link, one persistently slow link forcing
# hedged pulls, and one peer that hangs mid-run — accepts RPCs, runs the
# handlers, never replies.  Propagation must stay within its per-pass tick
# budget throughout and converge once the peer answers (DESIGN.md §14).
chaos-slow:
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run '^TestChaos$$/^slow$$' -v .

# chaos-gossip runs TestChaos's gossip row with invariants armed:
# 256 hosts on the epidemic notification plane (fanout 3, TTL 6) under
# crashes, shifting partitions, lossy links, and replica-set churn, three
# seeds; budgeted anti-entropy must converge every replica to the identical
# tree with origin notification cost held at O(fanout) (DESIGN.md §15).
chaos-gossip:
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -timeout 2400s -run '^TestChaos$$/^gossip$$' -v .

# check is the full gate: static analysis plus the race-enabled suite.
check: vet lint race invariants

# ci is the single gate scripts/ci.sh runs; identical to what check does
# plus a plain build, in one shell script usable outside make.
ci:
	./scripts/ci.sh
