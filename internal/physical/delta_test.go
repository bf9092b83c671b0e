package physical

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/retry"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// blockOf builds one deterministic full-size data block tagged by b.
func blockOf(b byte) []byte { return bytes.Repeat([]byte{b}, ChecksumBlockSize) }

// newBlockLayer formats a fresh store on its own device with one file
// holding data, returning everything the sweeps need to crash and remount.
func newBlockLayer(t *testing.T, data []byte) (*disk.Device, *Layer, ids.FileID) {
	t.Helper()
	dev := disk.New(8192)
	fs, err := ufs.Mkfs(dev, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Format(ufsvn.New(fs), testVol, 1)
	if err != nil {
		t.Fatal(err)
	}
	root, err := l.Root()
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, data); err != nil {
		t.Fatal(err)
	}
	return dev, l, mustFid(t, f)
}

// installAll installs data as fid's next version the way the answer to a
// pull that advertised nothing arrives: m (may be nil) is the serving
// replica's manifest, and each of its addresses ships once, at its first
// position, carrying data's bytes there — bytes damaged in flight when data
// disagrees with m.
func installAll(l *Layer, fid ids.FileID, data []byte, newVV vv.Vector, m *BlockManifest) error {
	var missing []Block
	if m != nil {
		for i, addr := range m.Blocks {
			if !slices.ContainsFunc(missing, func(b Block) bool { return b.Addr == addr }) {
				missing = append(missing, Block{Addr: addr, Data: blockAt(data, i)})
			}
		}
	}
	return l.InstallPulled(RootPath(), fid, &PullResult{Status: PullData, Manifest: m, Missing: missing, Aux: Aux{Type: KFile, Nlink: 1, VV: newVV}}, nil)
}

// servedData is what the replication read path serves of file fid in dir: an
// unconditional pull's answer, assembled from the blocks it ships, or the
// entry's failure (ErrNotStored for a copy that is not stored).
func servedData(l *Layer, dir []ids.FileID, fid ids.FileID) ([]byte, error) {
	res, _ := l.PullBatchDelta([]PullRequest{{Dir: dir, File: fid}}, nil)
	r := &res[0]
	defer r.Release()
	switch r.Status {
	case PullData:
	case PullNotStored:
		return nil, ErrNotStored
	case PullError:
		return nil, r.Err
	default:
		return nil, fmt.Errorf("pull of %s answered %s", fid, r.Status)
	}
	data := make([]byte, r.Manifest.Length)
	for i, addr := range r.Manifest.Blocks {
		k := slices.IndexFunc(r.Missing, func(b Block) bool { return b.Addr == addr })
		if k < 0 {
			return nil, fmt.Errorf("pull of %s shipped no block %s", fid, addr)
		}
		copy(data[i*ChecksumBlockSize:], r.Missing[k].Data)
	}
	return data, nil
}

// installDelta installs fid's next version the way a delta pull answer
// arrives: the manifest plus the blocks the puller lacked, against the base
// the pull advertised.
func installDelta(l *Layer, fid ids.FileID, m *BlockManifest, missing []Block, newVV vv.Vector, base DeltaBase) error {
	return l.InstallPulled(RootPath(), fid, &PullResult{Status: PullData, Manifest: m, Missing: missing, Aux: Aux{Type: KFile, Nlink: 1, VV: newVV}}, base)
}

// baseOf builds the base a pull requesting fids (all in the root directory)
// would advertise.
func baseOf(l *Layer, fids ...ids.FileID) DeltaBase {
	base := DeltaBase{}
	for _, fid := range fids {
		l.PullRequestFor(RootPath(), fid, base)
	}
	return base
}

// deltaAnswer is the serving side's answer for newData to a pull that
// advertised have: the manifest, and each block absent from have once.
func deltaAnswer(newData []byte, have []BlockAddr) (*BlockManifest, []Block) {
	m := ComputeManifest(newData)
	var missing []Block
	for i, addr := range m.Blocks {
		if !slices.Contains(have, addr) && !slices.ContainsFunc(missing, func(b Block) bool { return b.Addr == addr }) {
			missing = append(missing, Block{Addr: addr, Data: blockAt(newData, i)})
		}
	}
	return m, missing
}

// nextVV is the vector a version propagated from replica 2 over fid's
// current one would carry.
func nextVV(t *testing.T, l *Layer, fid ids.FileID) vv.Vector {
	t.Helper()
	st, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	return st.Aux.VV.Bump(2)
}

// remount recovers the store (ufs mount + Open, which runs Recover) and
// asserts both the ficus walk and the UFS fsck come
// back clean.
func remount(t *testing.T, dev *disk.Device, tag string) *Layer {
	t.Helper()
	fs, err := ufs.Mount(dev, nil)
	if err != nil {
		t.Fatalf("%s: recovery mount: %v", tag, err)
	}
	l, err := Open(ufsvn.New(fs))
	if err != nil {
		t.Fatalf("%s: recovery open: %v", tag, err)
	}
	if problems, err := l.Check(); err != nil {
		t.Fatalf("%s: ficus check: %v", tag, err)
	} else if len(problems) != 0 {
		t.Fatalf("%s: ficus check found: %v", tag, problems)
	}
	if problems, err := fs.Check(); err != nil {
		t.Fatalf("%s: fsck: %v", tag, err)
	} else if len(problems) != 0 {
		t.Fatalf("%s: fsck found: %v", tag, problems)
	}
	return l
}

// fileMembers returns the raw images of fid's two container members — data
// and aux, the seal its tail — in the root container.
func fileMembers(t *testing.T, l *Layer, fid ids.FileID) [2][]byte {
	t.Helper()
	cont, err := l.rootContainer()
	if err != nil {
		t.Fatal(err)
	}
	var out [2][]byte
	for i, prefix := range []string{prefixData, prefixAux} {
		f, err := cont.Lookup(prefix + fid.String())
		if err != nil {
			t.Fatalf("member %s%s: %v", prefix, fid, err)
		}
		if out[i], err = vnode.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestDeltaInstallCrashSweep crashes a delta InstallPulled after every
// device write (torn).  The install reads its unshipped blocks back out of
// the version it replaces and then runs the one commit chain — sidecar seal,
// shadow/rename of the data file, aux — and after every crash point the
// recovered replica must pass both fscks (remount) and serve the complete old
// or complete new version.
func TestDeltaInstallCrashSweep(t *testing.T) {
	oldData := append(blockOf('a'), blockOf('b')...)
	newData := append(append(blockOf('a'), blockOf('b')...), blockOf('c')...) // append one block

	prep := func() (*disk.Device, *Layer, ids.FileID, vv.Vector, DeltaBase) {
		dev, l, fid := newBlockLayer(t, oldData)
		return dev, l, fid, nextVV(t, l, fid), baseOf(l, fid)
	}
	man := ComputeManifest(newData)
	missing := []Block{{Addr: HashBlock(blockOf('c')), Data: blockOf('c')}}

	dev, l, fid, newVV, base := prep()
	before := dev.Stats().Writes
	if err := installDelta(l, fid, man, missing, newVV, base); err != nil {
		t.Fatal(err)
	}
	totalWrites := int(dev.Stats().Writes - before)
	if got := l.BlockStats().BlocksReused; got != 2 {
		t.Fatalf("install reused %d blocks of the old version, want 2", got)
	}

	for crashAfter := 0; crashAfter <= totalWrites; crashAfter++ {
		tag := fmt.Sprintf("crashAfter=%d", crashAfter)
		dev, l, fid, newVV, base := prep()
		dev.FaultAfterWritesTorn(crashAfter, 64)
		installErr := installDelta(l, fid, man, missing, newVV, base)
		crashed := dev.Faulted()
		dev.ClearFault()

		l2 := remount(t, dev, tag)
		got, err := servedData(l2, RootPath(), fid)
		if err != nil {
			t.Fatalf("%s: file lost: %v", tag, err)
		}
		// (A crash between the data and aux commits can leave new bytes under
		// the old vector — same window as every shadow install; the stale
		// sidecar seal stops anything from vouching for the mix, so only the
		// data old-or-new invariant is asserted here.)
		oldOK := bytes.Equal(got, oldData)
		newOK := bytes.Equal(got, newData)
		if !oldOK && !newOK {
			t.Fatalf("%s (crashed=%v, installErr=%v): torn file: %d bytes", tag, crashed, installErr, len(got))
		}
		if installErr == nil && !crashed && !newOK {
			t.Fatalf("%s: install reported success but old data survives", tag)
		}
		// Whatever survived, the next advertisement must be truthful: every
		// address the recovered replica would offer (each a whole block, in
		// either version) reads back verified.
		base2, held := baseOf(l2, fid), map[ids.FileID]heldVersion{}
		for _, addr := range base2.Have() {
			l2.mu.Lock()
			ok := l2.baseBlockLocked(base2, addr, make([]byte, ChecksumBlockSize), held)
			l2.mu.Unlock()
			if !ok {
				t.Fatalf("%s: advertised block %s unreadable", tag, addr)
			}
		}
	}
}

// deltaShape is one (old, new) version pair of the differential test.
type deltaShape struct {
	name     string
	old, new []byte
}

// deltaShapes is the table the differential test always covers; the seeded
// generator adds more.
var deltaShapes = []deltaShape{
	{"append", slices.Concat(blockOf('a'), blockOf('b')), slices.Concat(blockOf('a'), blockOf('b'), blockOf('c'))},
	{"truncate", slices.Concat(blockOf('a'), blockOf('b'), blockOf('c')), slices.Concat(blockOf('a'), blockOf('b')[:100])},
	{"shrink-to-empty", slices.Concat(blockOf('a'), blockOf('b')), nil},
	{"middle-block", slices.Concat(blockOf('a'), blockOf('b'), blockOf('c')), slices.Concat(blockOf('a'), blockOf('x'), blockOf('c'))},
	{"tail-grows-to-full-block", slices.Concat(blockOf('a'), blockOf('b')[:100]), slices.Concat(blockOf('a'), blockOf('b'))},
	{"repeated-block", slices.Concat(blockOf('a'), blockOf('b')), slices.Concat(blockOf('a'), blockOf('a'), blockOf('b'), blockOf('a'))},
	{"touch", slices.Concat(blockOf('a'), []byte("tail")), slices.Concat(blockOf('a'), []byte("tail"))},
	{"from-empty", nil, slices.Concat(blockOf('a'), []byte("tail"))},
	{"one-block", slices.Concat(blockOf('a'), blockOf('b')), blockOf('b')},
	{"seventeen-blocks", blockOf('a'), seventeenBlocks()},
}

// seventeenBlocks is a version of 17 distinct blocks: its answer to a pull
// that advertised nothing is past the largest class of wire's pool.
func seventeenBlocks() []byte {
	var data []byte
	for i := 0; i < 17; i++ {
		data = append(data, blockOf(byte('A'+i))...)
	}
	return data
}

// randomVersion draws a version of up to five blocks from a four-letter
// alphabet (so blocks repeat within and between versions), with an optional
// short tail.
func randomVersion(rng *rand.Rand) []byte {
	var data []byte
	for n := rng.Intn(6); n > 0; n-- {
		data = append(data, blockOf(byte('a'+rng.Intn(4)))...)
	}
	if rng.Intn(2) == 0 {
		data = append(data, blockOf(byte('a' + rng.Intn(4)))[:1+rng.Intn(ChecksumBlockSize-1)]...)
	}
	return data
}

// TestDeltaInstallEqualsWholeInstall: what a pull advertises is a transfer
// detail.  On two identical stores, installing new over old from the answer
// to the advertisement of the version it replaces and from the answer to an
// empty advertisement — which ships every block, each address once — must
// leave byte-identical data and aux members, cost the same number of device
// writes, and pass fsck; and the first must have read every unshipped block
// back from the version it replaced.
func TestDeltaInstallEqualsWholeInstall(t *testing.T) {
	shapes := deltaShapes
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 24; i++ {
		shapes = append(shapes, deltaShape{fmt.Sprintf("generated-%d", i), randomVersion(rng), randomVersion(rng)})
	}
	for _, sh := range shapes {
		devD, lD, fid := newBlockLayer(t, sh.old)
		devW, lW, fidW := newBlockLayer(t, sh.old)
		if fid != fidW {
			t.Fatalf("%s: the two stores diverged before the install: %s vs %s", sh.name, fid, fidW)
		}
		newVV := nextVV(t, lD, fid)

		before := devD.Stats().Writes
		base := baseOf(lD, fid)
		if w := devD.Stats().Writes - before; w != 0 {
			t.Fatalf("%s: building the base cost %d device writes, want 0", sh.name, w)
		}
		m, missing := deltaAnswer(sh.new, base.Have())
		if err := installDelta(lD, fid, m, missing, newVV, base); err != nil {
			t.Fatalf("%s: delta install: %v", sh.name, err)
		}
		deltaWrites := devD.Stats().Writes - before

		before = devW.Stats().Writes
		mAll, all := deltaAnswer(sh.new, nil)
		distinct := map[BlockAddr]bool{}
		for _, addr := range mAll.Blocks {
			distinct[addr] = true
		}
		if len(all) != len(distinct) {
			t.Fatalf("%s: an empty advertisement ships %d blocks, want all %d distinct", sh.name, len(all), len(distinct))
		}
		if err := installDelta(lW, fid, mAll, all, newVV, nil); err != nil {
			t.Fatalf("%s: whole install: %v", sh.name, err)
		}
		if wholeWrites := devW.Stats().Writes - before; deltaWrites != wholeWrites {
			t.Errorf("%s: delta install cost %d device writes, whole install %d", sh.name, deltaWrites, wholeWrites)
		}
		membersD, membersW := fileMembers(t, lD, fid), fileMembers(t, lW, fid)
		for i, member := range []string{"data", "aux"} {
			if !bytes.Equal(membersD[i], membersW[i]) {
				t.Errorf("%s: delta and whole installs left different %s members", sh.name, member)
			}
		}
		if got, err := servedData(lD, RootPath(), fid); err != nil || !bytes.Equal(got, sh.new) {
			t.Errorf("%s: delta install serves %d bytes (%v), want the %d-byte new version", sh.name, len(got), err, len(sh.new))
		}
		reusable := 0
		for _, addr := range m.Blocks {
			if slices.Contains(base.Have(), addr) {
				reusable++
			}
		}
		if got := lD.BlockStats().BlocksReused; got != uint64(reusable) {
			t.Errorf("%s: %d blocks came from the base, want the %d the old version held", sh.name, got, reusable)
		}
		checkFicusClean(t, lD)
		checkFicusClean(t, lW)
	}
}

// TestStaleBaseIsBenign: the base is a value built before the pull, so a
// holder may be rewritten or removed before the answer is installed.  The
// install then misses the block — the transient ErrMissingBlock, retried
// with a fresh advertisement — and nothing else happens: no byte of the
// holder or the target changes, and nothing is quarantined.
func TestStaleBaseIsBenign(t *testing.T) {
	shared := blockOf('s')
	setup := func() (*Layer, vnode.Vnode, ids.FileID, ids.FileID, DeltaBase) {
		_, l, fidX := newBlockLayer(t, slices.Concat(shared, blockOf('1')))
		root, err := l.Root()
		if err != nil {
			t.Fatal(err)
		}
		y, err := root.Create("y", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(y, blockOf('2')); err != nil {
			t.Fatal(err)
		}
		fidY := mustFid(t, y)
		return l, root, fidX, fidY, baseOf(l, fidX, fidY)
	}
	refused := func(t *testing.T, l *Layer, err error, fids ...ids.FileID) {
		t.Helper()
		if !errors.Is(err, ErrMissingBlock) || !retry.Transient(err) {
			t.Fatalf("install against a stale base: %v, want the transient ErrMissingBlock", err)
		}
		for _, fid := range fids {
			if l.IsQuarantined(fid) {
				t.Fatalf("a stale base quarantined %s", fid)
			}
		}
		if got := l.IntegrityStats().CorruptionsDetected; got != 0 {
			t.Fatalf("a stale base counted %d corruptions", got)
		}
		checkFicusClean(t, l)
	}

	t.Run("holder rewritten", func(t *testing.T) {
		l, root, fidX, fidY, base := setup()
		x, err := root.Lookup("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.WriteAt(blockOf('z'), 0); err != nil { // x = [z,1]: block s is gone
			t.Fatal(err)
		}
		// y -> [2,s], answered against an advertisement that still held s.
		m, missing := deltaAnswer(slices.Concat(blockOf('2'), shared), base.Have())
		if len(missing) != 0 {
			t.Fatalf("server shipped %d blocks, want 0", len(missing))
		}
		refused(t, l, installDelta(l, fidY, m, missing, nextVV(t, l, fidY), base), fidX, fidY)
		// x -> [s,1,c] against its own rewritten self misses the same way.
		m, missing = deltaAnswer(slices.Concat(shared, blockOf('1'), blockOf('c')), base.Have())
		refused(t, l, installDelta(l, fidX, m, missing, nextVV(t, l, fidX), base), fidX, fidY)
		if got, err := servedData(l, RootPath(), fidX); err != nil || !bytes.Equal(got, slices.Concat(blockOf('z'), blockOf('1'))) {
			t.Fatalf("the rewritten holder changed: %v", err)
		}
		if got, err := servedData(l, RootPath(), fidY); err != nil || !bytes.Equal(got, blockOf('2')) {
			t.Fatalf("the target changed: %v", err)
		}
	})
	t.Run("holder removed", func(t *testing.T) {
		l, root, _, fidY, base := setup()
		if err := root.Remove("f"); err != nil {
			t.Fatal(err)
		}
		m, missing := deltaAnswer(slices.Concat(blockOf('2'), shared), base.Have())
		refused(t, l, installDelta(l, fidY, m, missing, nextVV(t, l, fidY), base), fidY)
		if got, err := servedData(l, RootPath(), fidY); err != nil || !bytes.Equal(got, blockOf('2')) {
			t.Fatalf("the target changed: %v", err)
		}
	})
}

// TestRemoveDropsManifest pins the local-unlink reclaim path: removing the
// last name of a file must also discard its aux, and the seal with it, or the
// file would still offer its blocks to a delta pull.
func TestRemoveDropsManifest(t *testing.T) {
	_, l, fid := newBlockLayer(t, append(blockOf('a'), blockOf('b')...))
	cont, err := l.rootContainer()
	if err != nil {
		t.Fatal(err)
	}
	if _, e, err := l.fileAuxLocked(cont, prefixAux+fid.String()); err != nil || e.seal == nil {
		t.Fatalf("stored file has no current seal: %v", err)
	}
	root, err := l.Root()
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cont.Lookup(prefixAux + fid.String()); vnode.AsErrno(err) != vnode.ENOENT {
		t.Fatalf("aux after removing the last name: %v, want ENOENT", err)
	}
	if base := baseOf(l, fid); len(base) != 0 {
		t.Fatalf("a removed file still offers %d base blocks", len(base))
	}
	checkFicusClean(t, l)
}

// TestOneSidecarPerStoredFile: whatever a store has been through — local
// writes, a delta install, a whole-file install, a scrub pass, a
// cross-directory rename, a crash and restart — every stored file is exactly
// two container members: data, and an aux whose tail is its one current
// seal.  A member of a retired format — the checksum sidecar C<fid>, the
// sealed sidecar S<fid> — is no longer a known name.
func TestOneSidecarPerStoredFile(t *testing.T) {
	oldData := append(blockOf('a'), blockOf('b')...)
	newData := append(append(blockOf('a'), blockOf('b')...), blockOf('c')...)
	dev, l, fidF := newBlockLayer(t, oldData)
	root, err := l.Root()
	if err != nil {
		t.Fatal(err)
	}
	g, err := root.Create("g", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(g, blockOf('g')); err != nil {
		t.Fatal(err)
	}
	fidG := mustFid(t, g)
	missing := []Block{{Addr: HashBlock(blockOf('c')), Data: blockOf('c')}}
	if err := installDelta(l, fidF, ComputeManifest(newData), missing, nextVV(t, l, fidF), baseOf(l, fidF)); err != nil {
		t.Fatal(err)
	}
	if err := installAll(l, fidG, blockOf('h'), nextVV(t, l, fidG), ComputeManifest(blockOf('h'))); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("local"), 0); err != nil {
		t.Fatal(err)
	}
	sub, err := root.Mkdir("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Rename("f", sub, "f"); err != nil {
		t.Fatal(err)
	}
	if err := l.ScrubPass(); err != nil {
		t.Fatal(err)
	}
	dev.Fault()
	dev.ClearFault()
	l2 := remount(t, dev, "restart")

	files := 0
	rootCont, err := l2.rootContainer()
	if err != nil {
		t.Fatal(err)
	}
	err = walkContainers(rootCont, func(cont vnode.Vnode, ents []vnode.Dirent) error {
		members := map[string][]string{} // fid -> member prefixes seen
		for _, e := range ents {
			if e.Type != vnode.VDir && e.Name != dirFileName && e.Name != dirAttrName {
				members[e.Name[1:]] = append(members[e.Name[1:]], e.Name[:1])
			}
		}
		for fid, prefixes := range members {
			sort.Strings(prefixes)
			if strings.Join(prefixes, "") != prefixAux+prefixData {
				t.Errorf("file %s is stored as members %q, want exactly A and F", fid, prefixes)
			}
			if _, e, err := l2.fileAuxLocked(cont, prefixAux+fid); err != nil || e.seal == nil {
				t.Errorf("file %s has no current seal (%v)", fid, err)
			}
			files++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files != 2 {
		t.Fatalf("walk saw %d stored files, want 2", files)
	}

	// A sealed sidecar that decodes and is current under the file's vector
	// is as foreign as the checksum one.
	st, err := l2.FileInfo(RootPath(), fidG)
	if err != nil {
		t.Fatal(err)
	}
	for prefix, img := range map[string][]byte{"C": []byte("FSUM"), "S": encodeSidecar(st.Aux.VV, ComputeManifest(blockOf('h')))} {
		stray, err := rootCont.Create(prefix+fidG.String(), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(stray, img); err != nil {
			t.Fatal(err)
		}
	}
	problems, err := l2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 || !strings.Contains(problems[0], "unidentified container member") || !strings.Contains(problems[1], "unidentified container member") {
		t.Fatalf("stray retired sidecars: check says %v", problems)
	}
}

// TestDeltaPullDeviceReads pins the device reads of one delta pull of a
// 16-block file whose new version changes block 0, with every buffer cache
// cold and every aux cache warm.
//
//   - Serving it reads the one block it ships.  The store's metadata (the
//     container's directory, the members' inodes) is read first by a FileInfo,
//     so what the pull reads is data blocks alone.  Serving a pull that
//     advertised nothing reads all 16 with one read, and the indirect block
//     that maps blocks 10–15: 17 reads, those of one whole-file read.
//   - The install reads each of its 15 reused blocks once: 15 reads more than
//     a whole-file install of the same version on an identical store, which
//     runs the same commit (that commit frees the replaced blocks, so it reads
//     their indirect block either way).  Reading the holder whole, as installs
//     did before, cost 16 more.
func TestDeltaPullDeviceReads(t *testing.T) {
	var old []byte
	for i := 0; i < 16; i++ {
		old = append(old, blockOf(byte('a'+i))...)
	}
	newData := slices.Concat(blockOf('z'), old[ChecksumBlockSize:])
	devS, lS, fid := newBlockLayer(t, old)
	devD, lD, fidD := newBlockLayer(t, old)
	devW, lW, fidW := newBlockLayer(t, old)
	if fidD != fid || fidW != fid {
		t.Fatal("the stores diverged before the pull")
	}
	root, _ := lS.Root()
	f, _ := root.Lookup("f")
	if _, err := f.WriteAt(blockOf('z'), 0); err != nil {
		t.Fatal(err)
	}
	cold := func(l *Layer) { l.Store().(*ufsvn.VFS).FS().FlushCaches() }

	// Serve.  (baseOf reads the aux and its seal: it warms the aux cache.)
	baseOf(lS, fid)
	base := baseOf(lD, fid)
	st, err := lD.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	req := PullRequest{Dir: RootPath(), File: fid, LocalVV: st.Aux.VV, HasLocal: true}
	cold(lS)
	if _, err := lS.FileInfo(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	r0 := devS.Stats().Reads
	res, err := lS.PullBatchDelta([]PullRequest{req}, base.Have())
	if err != nil || res[0].Status != PullData || len(res[0].Missing) != 1 {
		t.Fatalf("delta answer: %+v %v", res, err)
	}
	if got := devS.Stats().Reads - r0; got != 1 {
		t.Errorf("serving the delta pull read %d device blocks, want 1", got)
	}
	// The same pull advertising nothing ships all 16 blocks, read as one run:
	// the 17 reads of one whole-file read.
	cold(lS)
	if _, err := lS.FileInfo(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	r0 = devS.Stats().Reads
	all, err := lS.PullBatchDelta([]PullRequest{req}, nil)
	if err != nil || all[0].Status != PullData || len(all[0].Missing) != 16 {
		t.Fatalf("answer to an empty advertisement: %+v %v", all, err)
	}
	if got := devS.Stats().Reads - r0; got != 17 {
		t.Errorf("serving every block read %d device blocks, want 17", got)
	}
	all[0].Release()

	// Install, against a whole-file install of the same version.
	baseOf(lW, fid)
	cold(lD)
	cold(lW)
	r0 = devD.Stats().Reads
	if err := lD.InstallPulled(RootPath(), fid, &res[0], base); err != nil {
		t.Fatal(err)
	}
	deltaReads := devD.Stats().Reads - r0
	r0 = devW.Stats().Reads
	if err := installAll(lW, fid, newData, res[0].Aux.VV, ComputeManifest(newData)); err != nil {
		t.Fatal(err)
	}
	wholeReads := devW.Stats().Reads - r0
	if got := deltaReads - wholeReads; got != 15 {
		t.Errorf("the delta install read %d device blocks, the whole install %d: %d more, want the 15 it reuses", deltaReads, wholeReads, got)
	}
	if got := lD.BlockStats().BlocksReused; got != 15 {
		t.Errorf("the install reused %d blocks, want 15", got)
	}
	if membersD, membersW := fileMembers(t, lD, fid), fileMembers(t, lW, fid); !bytes.Equal(membersD[0], newData) || !bytes.Equal(membersD[1], membersW[1]) {
		t.Error("the delta install did not leave the new version")
	}
}
