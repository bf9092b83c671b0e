package exp

import (
	"testing"
)

func TestBuildNullStackDepths(t *testing.T) {
	for _, depth := range []int{0, 1, 4, 8} {
		root, err := BuildNullStack(depth)
		if err != nil {
			t.Fatal(err)
		}
		if err := PrepareFile(root); err != nil {
			t.Fatal(err)
		}
		if err := TouchOp(root); err != nil {
			t.Fatal(err)
		}
	}
}

// TestE3ColdWarmOpenIOCounts asserts the paper's §6 claim: exactly four
// extra disk I/Os on a cold-directory open, none on a warm open.
func TestE3ColdWarmOpenIOCounts(t *testing.T) {
	r, err := OpenIOCounts(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ColdDelta(); got != 4 {
		t.Errorf("cold-open overhead = %d extra I/Os, paper says 4 (ufs=%d ficus=%d)",
			got, r.UFSColdReads, r.FicusColdReads)
	}
	if got := r.WarmDelta(); got != 0 {
		t.Errorf("warm-open overhead = %d extra I/Os, paper says 0 (ufs=%d ficus=%d)",
			got, r.UFSWarmReads, r.FicusWarmReads)
	}
	if r.FicusWarmReads != 0 {
		t.Errorf("warm Ficus open did %d I/Os; the caches should absorb all of it", r.FicusWarmReads)
	}
}

// TestE3CacheAblation shows the blow-up when the locality-exploiting caches
// are disabled — the failure mode of the dual-mapping AFS prototype the
// paper cites (§2.6).
func TestE3CacheAblation(t *testing.T) {
	on, err := OpenIOCounts(true)
	if err != nil {
		t.Fatal(err)
	}
	off, err := OpenIOCounts(false)
	if err != nil {
		t.Fatal(err)
	}
	if off.ColdDelta() <= 5*on.ColdDelta() {
		t.Errorf("cache ablation should blow up the overhead: on=%d off=%d", on.ColdDelta(), off.ColdDelta())
	}
	if off.WarmDelta() == 0 {
		t.Error("without caches even warm opens must pay the dual-mapping cost")
	}
}

// TestE5DelayedPropagationCoalesces asserts §3.2's trade-off: delayed
// propagation pulls fewer versions and moves fewer bytes, at the price of
// staleness.
func TestE5DelayedPropagationCoalesces(t *testing.T) {
	imm, del, err := PropagationComparison(DefaultPropagationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if del.Pulls >= imm.Pulls {
		t.Errorf("delayed pulls %d, immediate %d: coalescing failed", del.Pulls, imm.Pulls)
	}
	if del.RPCBytes >= imm.RPCBytes {
		t.Errorf("delayed bytes %d, immediate %d", del.RPCBytes, imm.RPCBytes)
	}
	if del.Staleness <= imm.Staleness {
		t.Errorf("delayed staleness %d should exceed immediate %d", del.Staleness, imm.Staleness)
	}
	// Both end fully propagated: equal final pull coverage is implied by
	// the run completing; sanity-check notification flow happened at all.
	if imm.Datagrams == 0 || del.Datagrams == 0 {
		t.Error("no update notifications observed")
	}
}

// TestE6ReconciliationConverges asserts §3.3: partition + churn on both
// sides reconciles to identical replicas, with file conflicts reported and
// directory collisions repaired.
func TestE6ReconciliationConverges(t *testing.T) {
	for _, hosts := range []int{2, 4} {
		res, err := RunReconcileChurn(hosts, 9, 7)
		if err != nil {
			t.Fatalf("hosts=%d: %v", hosts, err)
		}
		if !res.Converged {
			t.Fatalf("hosts=%d: did not converge: %+v", hosts, res)
		}
		if res.FileConflicts == 0 {
			t.Errorf("hosts=%d: expected file conflicts from concurrent shared-file updates", hosts)
		}
		if res.EntriesAdopted == 0 || res.FilesPulled == 0 {
			t.Errorf("hosts=%d: nothing reconciled: %+v", hosts, res)
		}
	}
}

// TestE8ShadowCostGrowsWithFileSize asserts §3.2 fn5: the atomic-commit
// rewrite makes point updates cost O(file size), while in-place updates are
// flat.
func TestE8ShadowCostGrowsWithFileSize(t *testing.T) {
	rows, err := ShadowCommitCost([]int{1, 8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("rows")
	}
	// In-place cost flat (within a couple of metadata writes).
	if diff := int64(rows[2].InPlaceWrites) - int64(rows[0].InPlaceWrites); diff > 3 || diff < -3 {
		t.Errorf("in-place cost not flat: %v", rows)
	}
	// Shadow cost strictly increasing and dominated by the file size.
	if !(rows[0].ShadowWrites < rows[1].ShadowWrites && rows[1].ShadowWrites < rows[2].ShadowWrites) {
		t.Errorf("shadow cost not growing: %v", rows)
	}
	if rows[2].ShadowWrites < 64 {
		t.Errorf("64-block shadow install wrote only %d blocks", rows[2].ShadowWrites)
	}
	if rows[2].InPlaceWrites >= rows[2].ShadowWrites {
		t.Errorf("shadow should cost more than in-place for large files: %v", rows[2])
	}
}

// TestE9AutograftCosts asserts §4.4: grafting costs a few extra RPCs on
// first touch, nothing extra when warm, and is re-established transparently
// after pruning.
func TestE9AutograftCosts(t *testing.T) {
	res, err := RunAutograft()
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstWalkRPCs <= res.WarmWalkRPCs {
		t.Errorf("first walk %d RPCs should exceed warm walk %d (probe+graft cost)", res.FirstWalkRPCs, res.WarmWalkRPCs)
	}
	if res.GraftsAfterPrune != 0 {
		t.Errorf("graft not pruned: %d", res.GraftsAfterPrune)
	}
	if res.RegraftRPCs <= res.WarmWalkRPCs {
		t.Errorf("regraft %d RPCs should exceed warm walk %d", res.RegraftRPCs, res.WarmWalkRPCs)
	}
	if res.WarmWalkRPCs == 0 {
		t.Error("warm walk should still RPC to the remote volume replica")
	}
}

// TestNullLayerCrossingAllocs holds the "storage for another vnode block"
// half of the paper's §6 crossing cost: TouchOp through 8 null layers
// allocates exactly 16 objects more than through none — one vnode block per
// layer for each of the walk's two lookups, and none for the getattr.
func TestNullLayerCrossingAllocs(t *testing.T) {
	var allocs [2]float64
	for i, depth := range []int{0, 8} {
		root, err := BuildNullStack(depth)
		if err != nil {
			t.Fatal(err)
		}
		if err := PrepareFile(root); err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(200, func() {
			if err := TouchOp(root); err != nil {
				t.Fatal(err)
			}
		})
	}
	if extra := allocs[1] - allocs[0]; extra != 16 {
		t.Fatalf("8 null layers add %v allocations to TouchOp (%v at depth 0, %v at depth 8), want 16",
			extra, allocs[0], allocs[1])
	}
}
