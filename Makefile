GO ?= go

.PHONY: all build test check race vet lint invariants chaos chaos-crash chaos-scrub chaos-slow chaos-gossip ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint builds and runs ficusvet, the repo-specific suite of six analyzers
# (determinism, vvalias, errclass, heldlocks, lockorder, duraberr — see
# DESIGN.md §8 and §12).
lint:
	$(GO) build -o /dev/null ./cmd/ficusvet
	$(GO) run ./cmd/ficusvet ./...

# race runs the suite under the race detector — the RPC-economy gates
# (TestRemoteReadRPCBudget, TestFirstAvailableAsksNobodyElse) and the session
# tests of internal/logical are in it — then ten more rounds of the tests that
# share one vnode between goroutines: readers while its pinned replica is cut
# off and healed, and two first opens at once (DESIGN.md §3.1).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestSharedOpenVnodeUnderChurn|TestConcurrentFirstOpensShareOnePin' ./internal/logical

# invariants re-runs the suite with the runtime invariant checks armed
# (internal/invariant; free when the env var is unset).
invariants:
	FICUS_INVARIANTS=1 $(GO) test -count=1 ./...

# chaos runs the whole-system property tests, including the flaky-link
# variant that keeps the fault plane enabled through final convergence.
chaos:
	$(GO) test -race -run 'TestChaos' -v .

# chaos-crash runs the crash–restart convergence test with the runtime
# invariant checks armed: random hosts power-fail and reboot
# mid-propagation under RPC faults, and every replica must converge from
# its durable on-disk state (DESIGN.md §10) — and then the sweep that
# power-fails one replica at every device write of every local mutating op
# (among them an append that compacts the directory journal and a first
# install), the UFS sweeps that do the same to every exported mutating call
# and to a torn workload (DESIGN.md §16), and the tests that hold the physical
# layer's caches (DESIGN.md
# §16) to the store: a layer kept running across a failed device write, stale
# directory handles, a cached layer against one flushed before every op, and
# readers racing directory moves.
chaos-crash:
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestChaosCrashRestartConvergence' -v .
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestCrashAtEveryWriteOfEveryLocalOp' ./internal/physical
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestCrashAtEveryWriteOfEveryCall|TestTornWriteAtEveryOffset' ./internal/ufs
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestLiveLayerAnswersAsStoreAfterDiskFault|TestStaleDirectoryHandles|TestCachedLayerMatchesFlushedLayer|TestReadersRaceDirectoryMoves' ./internal/physical

# chaos-scrub runs the silent-corruption convergence test with invariants
# armed: at-rest bit rot lands on random replicas while hosts crash under
# RPC faults, and the scrubber must detect, quarantine, and heal every
# damaged copy from a peer with zero wrong-bytes files (DESIGN.md §11) — and
# then the two tests that a local write neither launders rot it did not touch
# nor builds on rot it did.
chaos-scrub:
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestChaosScrubConvergence' -v .
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestLocalWriteDoesNotLaunderRot|TestPartialOverwriteOfRottedBlockQuarantines' ./internal/physical

# chaos-slow runs the slow-peer convergence test with invariants armed:
# heavy-tailed latency on every link, one persistently slow link forcing
# hedged pulls, and one peer that hangs mid-run — accepts RPCs, runs the
# handlers, never replies.  Propagation must stay within its per-pass tick
# budget throughout and converge once the peer answers (DESIGN.md §14).
chaos-slow:
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -run 'TestChaosSlowPeerConvergence' -v .

# chaos-gossip runs the large-cluster churn test with invariants armed:
# 256 hosts on the epidemic notification plane (fanout 3, TTL 6) under
# crashes, shifting partitions, lossy links, and replica-set churn, three
# seeds; budgeted anti-entropy must converge every replica to the identical
# tree with origin notification cost held at O(fanout) (DESIGN.md §15).
chaos-gossip:
	FICUS_INVARIANTS=1 $(GO) test -race -count=1 -timeout 2400s -run 'TestChaosGossipChurnConvergence' -v .

# check is the full gate: static analysis plus the race-enabled suite.
check: vet lint race invariants

# ci is the single gate scripts/ci.sh runs; identical to what check does
# plus a plain build, in one shell script usable outside make.
ci:
	./scripts/ci.sh
