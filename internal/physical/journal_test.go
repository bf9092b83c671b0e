package physical

import (
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

// reopen remounts the volume replica from the raw device, as a restart
// after a crash would.
func reopen(t *testing.T, dev *disk.Device) *Layer {
	t.Helper()
	fs, err := ufs.Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(ufsvn.New(fs))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func fid(issuer ids.ReplicaID, seq uint64) ids.FileID {
	return ids.FileID{Issuer: issuer, Seq: seq}
}

func TestJournalPersistsNVCAcrossReopen(t *testing.T) {
	l, dev := newLayer(t, 1)
	dirPath := RootPath()
	l.NoteNewVersion(dirPath, fid(2, 100), 2)
	l.NoteNewVersion(dirPath, fid(3, 200), 3)
	l.NoteNewVersion(dirPath, fid(2, 100), 2) // coalesces, Seen=2
	l.NoteNewVersion(dirPath, fid(2, 300), 2)
	l.DeferPending(fid(3, 200), 7) // backoff state must survive too
	l.DropPending(fid(2, 300))
	want := l.PendingVersions()
	if len(want) != 2 {
		t.Fatalf("precondition: %d pending, want 2", len(want))
	}

	got := reopen(t, dev).PendingVersions()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pending after reopen:\n got %+v\nwant %+v", got, want)
	}
	if got[1].Attempts != 1 || got[1].NotBefore != 7 {
		t.Fatalf("backoff state lost: %+v", got[1])
	}
	if got[0].Seen != 2 {
		t.Fatalf("coalesce count lost: %+v", got[0])
	}
}

func TestJournalTornTailDiscarded(t *testing.T) {
	l, dev := newLayer(t, 1)
	l.NoteNewVersion(RootPath(), fid(2, 100), 2)
	l.NoteNewVersion(RootPath(), fid(3, 200), 3)
	want := l.PendingVersions()

	// Simulate a crash that tore the final journal append: valid records
	// followed by a partial one.
	jf, err := l.root.Lookup(nvcjFileName)
	if err != nil {
		t.Fatal(err)
	}
	a, err := jf.Getattr()
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{nvcjOpUpsert, 0, 0, 0, 9} // record cut off mid-fid
	if _, err := jf.WriteAt(torn, int64(a.Size)); err != nil {
		t.Fatal(err)
	}

	got := reopen(t, dev).PendingVersions()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("torn tail must be discarded:\n got %+v\nwant %+v", got, want)
	}
}

func TestJournalGarbageIgnored(t *testing.T) {
	l, dev := newLayer(t, 1)
	l.NoteNewVersion(RootPath(), fid(2, 100), 2)
	jf, err := l.root.Lookup(nvcjFileName)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(jf, []byte("not a journal at all")); err != nil {
		t.Fatal(err)
	}
	if got := reopen(t, dev).PendingVersions(); len(got) != 0 {
		t.Fatalf("garbage journal must replay empty, got %+v", got)
	}
}

func TestJournalCompactionBoundsSize(t *testing.T) {
	l, _ := newLayer(t, 1)
	// Churn one entry far beyond the compaction threshold: the journal
	// must stay proportional to the (single-entry) cache, not the workload.
	for i := 0; i < 500; i++ {
		l.NoteNewVersion(RootPath(), fid(2, 100), 2)
		l.DropPending(fid(2, 100))
	}
	l.NoteNewVersion(RootPath(), fid(2, 100), 2)
	jf, err := l.root.Lookup(nvcjFileName)
	if err != nil {
		t.Fatal(err)
	}
	a, err := jf.Getattr()
	if err != nil {
		t.Fatal(err)
	}
	if a.Size > 4096 {
		t.Fatalf("journal grew to %d bytes despite compaction", a.Size)
	}
	if errs := l.JournalErrors(); errs != 0 {
		t.Fatalf("JournalErrors = %d, want 0", errs)
	}
}

func TestJournalAppendFailureIsBestEffort(t *testing.T) {
	l, dev := newLayer(t, 1)
	dev.ScriptFault(disk.FaultWriteError)
	l.NoteNewVersion(RootPath(), fid(2, 100), 2)
	if got := len(l.PendingVersions()); got != 1 {
		t.Fatalf("in-memory note must survive a journal write failure, got %d entries", got)
	}
	if errs := l.JournalErrors(); errs == 0 {
		t.Fatal("failed journal append must be counted")
	}
}

func TestJournalCompactionCrashRecovery(t *testing.T) {
	l, dev := newLayer(t, 1)
	l.NoteNewVersion(RootPath(), fid(2, 100), 2)
	want := l.PendingVersions()
	// Leave a stale compaction shadow beside the intact journal, as a
	// crash between the shadow write and the rename would.
	sf, err := l.root.Create(nvcjFileName+suffixShadow, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(sf, []byte("half-written snapshot")); err != nil {
		t.Fatal(err)
	}

	nl := reopen(t, dev)
	if got := nl.PendingVersions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending after shadow cleanup:\n got %+v\nwant %+v", got, want)
	}
	if _, err := nl.root.Lookup(nvcjFileName + suffixShadow); vnode.AsErrno(err) != vnode.ENOENT {
		t.Fatalf("compaction shadow must be discarded on open, lookup err = %v", err)
	}
}

// TestJournalGoldenBytes pins the on-disk layout: the image — header, two
// upserts in snapshot order, one appended drop — was recorded before the
// record codec moved onto internal/wire, and replays to what it describes.
func TestJournalGoldenBytes(t *testing.T) {
	const golden = "4e56434a0101000000020000000000000064000000020000000300000001000000000000000901000000000000000000" +
		"000001010000000300000000000000070000000300000001000000000000000000000000020000000000000000000000" +
		"0100000001000000000000000502000000020000000000000064"
	l := &Layer{replica: 1, nvc: make(map[nvcKey]NewVersion)}
	kept := NewVersion{File: fid(3, 7), Dir: []ids.FileID{ids.RootFileID, fid(1, 5)}, Origin: 3, Seen: 1}
	for _, nv := range []NewVersion{
		{File: fid(2, 100), Dir: RootPath(), Origin: 2, Seen: 3, Attempts: 1, NotBefore: 9},
		kept,
	} {
		l.nvc[nvcKey{file: nv.File}] = nv
	}
	img := encodeDrop(l.snapshotJournalLocked(), fid(2, 100))
	if got := hex.EncodeToString(img); got != golden {
		t.Fatalf("journal layout moved:\n got %s\nwant %s", got, golden)
	}
	again := &Layer{replica: 1, nvc: make(map[nvcKey]NewVersion)}
	again.replayJournal(img)
	if want := map[nvcKey]NewVersion{{file: kept.File}: kept}; !reflect.DeepEqual(again.nvc, want) {
		t.Fatalf("replay of the golden image: %+v, want %+v", again.nvc, want)
	}
}
