package recon

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
)

func benchPair(b *testing.B, files int) (*physical.Layer, *physical.Layer) {
	b.Helper()
	a, bb := newReplica(b, 1), newReplica(b, 2)
	root, _ := a.Root()
	for i := 0; i < files; i++ {
		f, err := root.Create(fmt.Sprintf("f%04d", i), true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("payload"), 0); err != nil {
			b.Fatal(err)
		}
	}
	return a, bb
}

func BenchmarkReconcileInitialPull64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, bb := benchPair(b, 64)
		b.StartTimer()
		stats, err := ReconcileVolume(bb, a)
		if err != nil {
			b.Fatal(err)
		}
		if stats.FilesPulled != 64 {
			b.Fatalf("pulled %d", stats.FilesPulled)
		}
	}
	b.ReportMetric(64, "files/op")
}

func BenchmarkReconcileQuiescent64(b *testing.B) {
	a, bb := benchPair(b, 64)
	if _, err := ReconcileVolume(bb, a); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := ReconcileVolume(bb, a)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Changed() {
			b.Fatal("not quiescent")
		}
	}
}

func BenchmarkPropagateOneFile(b *testing.B) {
	a, bb := benchPair(b, 1)
	if _, err := ReconcileVolume(bb, a); err != nil {
		b.Fatal(err)
	}
	rootA, _ := a.Root()
	f, _ := rootA.Lookup("f0000")
	av, _ := f.Getattr()
	fid, _ := ids.ParseFileID(av.FileID)
	find := func(ids.ReplicaID) Peer { return a }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := f.WriteAt([]byte{byte(i)}, 0); err != nil {
			b.Fatal(err)
		}
		bb.NoteNewVersion(physical.RootPath(), fid, 1)
		b.StartTimer()
		if _, err := PropagateOnce(bb, find); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaPullInstall propagates a one-block change to a 64 KiB file
// of distinct blocks from a co-resident replica: the request and its base,
// the serving side's block read, the delta install's assembly and its
// commit.  With -memprofile it profiles the pull path (DESIGN.md §9.2, §13).
func BenchmarkDeltaPullInstall(b *testing.B) {
	a, bb := newReplica(b, 1), newReplica(b, 2)
	root, _ := a.Root()
	f, err := root.Create("big", true)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i / physical.ChecksumBlockSize)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := ReconcileVolume(bb, a); err != nil {
		b.Fatal(err)
	}
	av, _ := f.Getattr()
	fid, _ := ids.ParseFileID(av.FileID)
	find := func(ids.ReplicaID) Peer { return a }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := f.WriteAt([]byte{byte(i)}, int64(i%16)*physical.ChecksumBlockSize); err != nil {
			b.Fatal(err)
		}
		bb.NoteNewVersion(physical.RootPath(), fid, 1)
		b.StartTimer()
		if stats, err := PropagateOnce(bb, find); err != nil || stats.FilesPulled != 1 {
			b.Fatalf("%v %v", stats, err)
		}
	}
}
