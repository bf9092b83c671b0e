package physical

import (
	"bytes"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// TestShadowCommitTornWrites repeats the shadow-commit crash sweep with
// torn writes: the crashing write persists only a 64-byte prefix of its
// block.  The §3.2 fn5 invariant must still hold — after recovery the
// replica serves either the complete old or the complete new version,
// never a mix — because the shadow protocol never overwrites live data in
// place: a tear can only land in not-yet-referenced shadow blocks, in
// metadata UFS recovery rebuilds, or in a directory slot whose name is a
// same-prefix rename.
func TestShadowCommitTornWrites(t *testing.T) {
	oldData := bytes.Repeat([]byte("OLD!"), 2048) // 2 blocks
	newData := bytes.Repeat([]byte("new?"), 3072) // 3 blocks

	setup := func() (*disk.Device, *Layer, ids.FileID) {
		dev := disk.New(8192)
		fs, err := ufs.Mkfs(dev, 2048, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Format(ufsvn.New(fs), testVol, 1)
		if err != nil {
			t.Fatal(err)
		}
		root, _ := l.Root()
		f, _ := root.Create("f", true)
		if err := vnode.WriteFile(f, oldData); err != nil {
			t.Fatal(err)
		}
		return dev, l, mustFid(t, f)
	}

	propagatedVV := func(l *Layer, fid ids.FileID) vv.Vector {
		st, err := l.FileInfo(RootPath(), fid)
		if err != nil {
			t.Fatal(err)
		}
		return st.Aux.VV.Bump(2)
	}

	dev, l, fid := setup()
	before := dev.Stats().Writes
	if err := l.InstallFileVersion(RootPath(), fid, KFile, newData, propagatedVV(l, fid), 1); err != nil {
		t.Fatal(err)
	}
	totalWrites := int(dev.Stats().Writes - before)

	for crashAfter := 0; crashAfter <= totalWrites; crashAfter++ {
		dev, l, fid := setup()
		newVV := propagatedVV(l, fid)
		dev.FaultAfterWritesTorn(crashAfter, 64)
		installErr := l.InstallFileVersion(RootPath(), fid, KFile, newData, newVV, 1)
		crashed := dev.Faulted()
		dev.ClearFault()

		fs2, err := ufs.Mount(dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Open(ufsvn.New(fs2))
		if err != nil {
			t.Fatalf("crashAfter=%d: recovery mount: %v", crashAfter, err)
		}
		data, _, err := l2.FileData(RootPath(), fid)
		if err != nil {
			t.Fatalf("crashAfter=%d: file lost: %v", crashAfter, err)
		}
		oldOK := bytes.Equal(data, oldData)
		newOK := bytes.Equal(data, newData)
		if !oldOK && !newOK {
			t.Fatalf("crashAfter=%d (crashed=%v, installErr=%v): torn file: %d bytes", crashAfter, crashed, installErr, len(data))
		}
		if installErr == nil && !crashed && !newOK {
			t.Fatalf("crashAfter=%d: install reported success but old data survives", crashAfter)
		}
		if problems, err := l2.Check(); err != nil {
			t.Fatalf("crashAfter=%d: ficus check: %v", crashAfter, err)
		} else if len(problems) != 0 {
			t.Fatalf("crashAfter=%d: ficus check found: %v", crashAfter, problems)
		}
		if problems, err := fs2.Check(); err != nil {
			t.Fatalf("crashAfter=%d: fsck: %v", crashAfter, err)
		} else if len(problems) != 0 {
			t.Fatalf("crashAfter=%d: fsck found: %v", crashAfter, problems)
		}
		if crashed && dev.Stats().TornWrites != 1 {
			t.Fatalf("crashAfter=%d: TornWrites = %d, want 1", crashAfter, dev.Stats().TornWrites)
		}
	}
}
