package physical

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/retry"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// scrubLayerWithFile builds a layer holding one sealed file and returns the
// layer and the file's id.
func scrubLayerWithFile(t *testing.T, contents string) (*Layer, vnode.Vnode) {
	t.Helper()
	l, _ := newLayer(t, 1)
	root, err := l.Root()
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte(contents)); err != nil {
		t.Fatal(err)
	}
	return l, f
}

// scrubPass runs one scrub pass and returns what it did: the difference of
// the layer's cumulative integrity counters around it (Quarantined, a gauge,
// is the value after the pass).
func scrubPass(t *testing.T, l *Layer) IntegrityStats {
	t.Helper()
	before := l.IntegrityStats()
	if err := l.ScrubPass(); err != nil {
		t.Fatal(err)
	}
	after := l.IntegrityStats()
	return IntegrityStats{
		ScrubbedFiles:       after.ScrubbedFiles - before.ScrubbedFiles,
		ScrubbedBlocks:      after.ScrubbedBlocks - before.ScrubbedBlocks,
		Resealed:            after.Resealed - before.Resealed,
		CorruptionsDetected: after.CorruptionsDetected - before.CorruptionsDetected,
		Cleared:             after.Cleared - before.Cleared,
		Repaired:            after.Repaired - before.Repaired,
		Quarantined:         after.Quarantined,
	}
}

func TestScrubCleanPassVerifies(t *testing.T) {
	l, f := scrubLayerWithFile(t, "healthy bytes")
	rep := scrubPass(t, l)
	if rep.ScrubbedFiles != 1 || rep.ScrubbedBlocks != 1 || rep.CorruptionsDetected != 0 || rep.Resealed != 0 {
		t.Fatalf("clean pass: %+v", rep)
	}
	if l.IsQuarantined(mustFid(t, f)) {
		t.Fatal("clean file quarantined")
	}
	s := l.IntegrityStats()
	if s.ScrubbedFiles != 1 || s.ScrubbedBlocks != 1 || s.CorruptionsDetected != 0 {
		t.Fatalf("integrity stats: %+v", s)
	}
}

func TestScrubDetectsBitRotAndQuarantines(t *testing.T) {
	l, f := scrubLayerWithFile(t, "soon to be damaged")
	fid := mustFid(t, f)
	if err := l.CorruptData(RootPath(), fid, 3); err != nil {
		t.Fatal(err)
	}
	// The damage is silent: reads still succeed, bytes are wrong.
	pre, err := vnode.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pre, []byte("soon to be damaged")) {
		t.Fatal("CorruptData changed nothing")
	}

	rep := scrubPass(t, l)
	if rep.CorruptionsDetected != 1 {
		t.Fatalf("scrub missed the rot: %+v", rep)
	}
	if !l.IsQuarantined(fid) {
		t.Fatal("corrupt file not quarantined")
	}

	// Quarantined local reads answer ENOSTOR (the logical layer fails over).
	if _, err := vnode.ReadFile(f); vnode.AsErrno(err) != vnode.ENOSTOR {
		t.Fatalf("quarantined read: got %v, want ENOSTOR", err)
	}
	// Quarantined local writes answer ENOSTOR too: a write would seal the
	// damage into a fresh version.
	if _, err := f.WriteAt([]byte("x"), 0); vnode.AsErrno(err) != vnode.ENOSTOR {
		t.Fatalf("quarantined write: got %v, want ENOSTOR", err)
	}
	// The replication read path answers ErrCorrupt — a TRANSIENT error, so
	// pullers defer instead of dropping their new-version entries.
	if _, _, err := l.FileData(RootPath(), fid); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("FileData on quarantined file: %v", err)
	} else if !retry.Transient(err) {
		t.Fatalf("ErrCorrupt must classify transient: %v", err)
	}
	// FileInfo still answers: the version exists, the local bytes don't.
	if _, err := l.FileInfo(RootPath(), fid); err != nil {
		t.Fatalf("FileInfo on quarantined file: %v", err)
	}
	// The batched pull path refuses to ship the bytes.
	res, _ := l.PullBatchDelta([]PullRequest{{Dir: RootPath(), File: fid}}, nil)
	if res[0].Status != PullError || !retry.Transient(res[0].Err) {
		t.Fatalf("pull of quarantined file: %+v", res[0])
	}

	// Detection counts once, not per pass.
	scrubPass(t, l)
	if s := l.IntegrityStats(); s.CorruptionsDetected != 1 || s.Quarantined != 1 {
		t.Fatalf("re-detection must not double count: %+v", s)
	}
}

// TestScrubConvictsAFlippedAddress: rot in the seal is caught like rot in the
// data.  One bit flipped in the address the aux's tail holds for the file's
// only block leaves a tail that still decodes under the current vector, so the
// scrubber verifies against it, convicts the copy and does not reseal it.
func TestScrubConvictsAFlippedAddress(t *testing.T) {
	l, f := scrubLayerWithFile(t, "healthy bytes, rotten seal")
	fid := mustFid(t, f)
	cont, err := l.rootContainer()
	if err != nil {
		t.Fatal(err)
	}
	af, err := cont.Lookup(prefixAux + fid.String())
	if err != nil {
		t.Fatal(err)
	}
	img, err := vnode.ReadFile(af)
	if err != nil {
		t.Fatal(err)
	}
	last := len(img) - 1 // the last byte of the last address
	if _, err := af.WriteAt([]byte{img[last] ^ 0x10}, int64(last)); err != nil {
		t.Fatal(err)
	}
	rep := scrubPass(t, l)
	if rep.CorruptionsDetected != 1 || rep.Resealed != 0 || !l.IsQuarantined(fid) {
		t.Fatalf("a flipped address: scrub %+v, quarantined=%v", rep, l.IsQuarantined(fid))
	}
}

func TestScrubReadDetectsCorruption(t *testing.T) {
	// The replication read path verifies on its own, without waiting for a
	// scrub pass.
	l, f := scrubLayerWithFile(t, "read-path detection")
	fid := mustFid(t, f)
	if err := l.CorruptData(RootPath(), fid, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.FileData(RootPath(), fid); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("FileData served corrupt bytes: %v", err)
	}
	if !l.IsQuarantined(fid) {
		t.Fatal("read-path detection must quarantine")
	}
}

// cutSeal cuts fid's aux member, in the root container, down to its header.
func cutSeal(t *testing.T, l *Layer, fid ids.FileID) {
	t.Helper()
	cont, err := l.rootContainer()
	if err != nil {
		t.Fatal(err)
	}
	af, err := cont.Lookup(prefixAux + fid.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := af.Truncate(auxFileSize); err != nil {
		t.Fatal(err)
	}
}

func TestScrubResealsUnverifiableSidecar(t *testing.T) {
	l, f := scrubLayerWithFile(t, "lost my seal")
	fid := mustFid(t, f)
	// Simulate the crash window: the seal was cut off and never rewritten.
	cutSeal(t, l, fid)
	rep := scrubPass(t, l)
	if rep.Resealed != 1 || rep.CorruptionsDetected != 0 {
		t.Fatalf("missing seal must reseal, not quarantine: %+v", rep)
	}
	// The reseal is trusted: the next pass verifies.
	rep = scrubPass(t, l)
	if rep.ScrubbedFiles != 1 || rep.Resealed != 0 {
		t.Fatalf("second pass: %+v", rep)
	}
}

func TestScrubNeverResealsQuarantined(t *testing.T) {
	l, f := scrubLayerWithFile(t, "damage must not be laundered")
	fid := mustFid(t, f)
	if err := l.CorruptData(RootPath(), fid, 5); err != nil {
		t.Fatal(err)
	}
	scrubPass(t, l)
	if !l.IsQuarantined(fid) {
		t.Fatal("not quarantined")
	}
	// Tear the seal off: without the quarantine guard the next pass would
	// reseal the damaged bytes as if they were the version.
	cutSeal(t, l, fid)
	rep := scrubPass(t, l)
	if rep.Resealed != 0 {
		t.Fatal("scrub resealed a quarantined replica (laundered the damage)")
	}
	if !l.IsQuarantined(fid) {
		t.Fatal("quarantine lifted without a verified install")
	}
}

func TestVerifiedInstallClearsQuarantine(t *testing.T) {
	l, f := scrubLayerWithFile(t, "original")
	fid := mustFid(t, f)
	st, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	goodVV := st.Aux.VV
	if err := l.CorruptData(RootPath(), fid, 0); err != nil {
		t.Fatal(err)
	}
	scrubPass(t, l)
	if !l.IsQuarantined(fid) {
		t.Fatal("not quarantined")
	}

	// A peer re-supplies the same version with a matching manifest: the
	// install verifies, lands, and lifts the quarantine as a repair.
	data := []byte("original")
	if err := installWhole(l, fid, data, goodVV, ComputeManifest(data)); err != nil {
		t.Fatal(err)
	}
	if l.IsQuarantined(fid) {
		t.Fatal("verified install must clear quarantine")
	}
	if got, err := vnode.ReadFile(f); err != nil || string(got) != "original" {
		t.Fatalf("after repair: %q %v", got, err)
	}
	if s := l.IntegrityStats(); s.Repaired != 1 {
		t.Fatalf("repair not counted: %+v", s)
	}
	// And it survives another scrub cleanly.
	if rep := scrubPass(t, l); rep.CorruptionsDetected != 0 {
		t.Fatalf("post-repair scrub: %+v", rep)
	}
}

func TestInstallRejectsMismatchedManifest(t *testing.T) {
	// With invariants armed this condition panics instead (see the fire
	// test below); here we pin the production path: a transient error.
	defer invariant.ForceForTest(false)()
	l, f := scrubLayerWithFile(t, "v1")
	fid := mustFid(t, f)
	st, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	newVV := st.Aux.VV.Bump(2)
	// The manifest advertises different bytes than the payload: damage in
	// flight.  The install must refuse before touching disk.
	wrong := ComputeManifest([]byte("what the server promised"))
	err = installWhole(l, fid, []byte("what arrived"), newVV, wrong)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched install: got %v, want ErrCorrupt", err)
	}
	if !retry.Transient(err) {
		t.Fatalf("rejected install must classify transient: %v", err)
	}
	if got, _ := vnode.ReadFile(f); string(got) != "v1" {
		t.Fatalf("rejected install must not change the file: %q", got)
	}
}

// TestInstallMismatchFiresInvariant: under FICUS_INVARIANTS=1 a payload
// that contradicts its advertised sidecar is an invariant violation, not
// just an error.
func TestInstallMismatchFiresInvariant(t *testing.T) {
	l, _ := scrubLayerWithFile(t, "v1")
	fid, err := l.NextID()
	if err != nil {
		t.Fatal(err)
	}
	wrong := ComputeManifest([]byte("promised"))
	mustViolate(t, func() {
		_ = installWhole(l, fid, []byte("arrived"), vv.Vector{}.Bump(2), wrong)
	})
}

// TestInstallMatchingManifestPassesInvariant: the legitimate verified
// install must not fire even with invariants armed.
func TestInstallMatchingManifestPassesInvariant(t *testing.T) {
	defer invariant.ForceForTest(true)()
	l, f := scrubLayerWithFile(t, "v1")
	fid := mustFid(t, f)
	st, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("v2")
	if err := installWhole(l, fid, data, st.Aux.VV.Bump(2), ComputeManifest(data)); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionClearsQuarantineWithoutRepairCredit(t *testing.T) {
	l, f := scrubLayerWithFile(t, "evict me")
	fid := mustFid(t, f)
	if err := l.CorruptData(RootPath(), fid, 1); err != nil {
		t.Fatal(err)
	}
	scrubPass(t, l)
	if !l.IsQuarantined(fid) {
		t.Fatal("not quarantined")
	}
	if err := l.EvictFileStorage(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	if l.IsQuarantined(fid) {
		t.Fatal("eviction must drop the quarantine entry")
	}
	if s := l.IntegrityStats(); s.Repaired != 0 {
		t.Fatalf("eviction is not a repair: %+v", s)
	}
}

// rottedThreeBlockFile builds a layer holding one sealed three-block file
// whose block 0 has silently rotted at rest.
func rottedThreeBlockFile(t *testing.T) (*Layer, vnode.Vnode, ids.FileID) {
	t.Helper()
	l, f := scrubLayerWithFile(t, strings.Repeat("0123456789abcdef", 3*ChecksumBlockSize/16))
	fid := mustFid(t, f)
	if err := l.CorruptData(RootPath(), fid, 3); err != nil {
		t.Fatal(err)
	}
	return l, f, fid
}

// TestLocalWriteDoesNotLaunderRot: a local write that leaves a rotted block
// alone must not reseal that block from its bytes as read back — that would
// launder the damage under a newer vector, which then propagates.  The block
// keeps its sealed address and the next scrub still catches it.
func TestLocalWriteDoesNotLaunderRot(t *testing.T) {
	l, f, fid := rottedThreeBlockFile(t)
	if _, err := f.WriteAt([]byte("hello"), 2*ChecksumBlockSize+10); err != nil {
		t.Fatalf("write to a healthy block of the file: %v", err)
	}
	rep := scrubPass(t, l)
	if rep.CorruptionsDetected != 1 || !l.IsQuarantined(fid) {
		t.Fatalf("the write laundered the rot in block 0: scrub %v, quarantined=%v", rep, l.IsQuarantined(fid))
	}
}

// TestPartialOverwriteOfRottedBlockQuarantines: a write that lays new bytes
// over part of a block keeps the rest of that block, so it verifies what it
// keeps; rot there fails the write exactly as a write to an already
// quarantined replica fails, and neither the vector nor the seal moves.
func TestPartialOverwriteOfRottedBlockQuarantines(t *testing.T) {
	l, f, fid := rottedThreeBlockFile(t)
	sealImage := func() []byte {
		t.Helper()
		cont, err := l.containerOf(RootPath())
		if err != nil {
			t.Fatal(err)
		}
		sf, err := cont.Lookup(prefixAux + fid.String())
		if err != nil {
			t.Fatal(err)
		}
		img, err := vnode.ReadFile(sf)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	before, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	seal := sealImage()
	if _, err := f.WriteAt([]byte("hello"), 10); vnode.AsErrno(err) != vnode.ENOSTOR {
		t.Fatalf("partial overwrite of a rotted block: got %v, want ENOSTOR", err)
	}
	if !l.IsQuarantined(fid) {
		t.Fatal("the replica whose kept bytes failed their address is not quarantined")
	}
	after, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Aux.VV.Equal(before.Aux.VV) {
		t.Fatalf("refused write moved the vector: %s -> %s", before.Aux.VV, after.Aux.VV)
	}
	if !bytes.Equal(sealImage(), seal) {
		t.Fatal("refused write moved the seal")
	}
}
