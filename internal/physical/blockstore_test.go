package physical

import (
	"bytes"
	"fmt"
	"reflect"
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

// installWhole installs data as fid's next version the way a whole-file
// pull answer arrives: m (may be nil) is the serving replica's manifest.
func installWhole(l *Layer, fid ids.FileID, data []byte, newVV vv.Vector, m *BlockManifest) error {
	return l.InstallPulled(RootPath(), fid, &PullResult{Status: PullData, Data: data, Manifest: m, Aux: Aux{Type: KFile, Nlink: 1, VV: newVV}})
}

// installDelta installs fid's next version the way a delta pull answer
// arrives: the manifest plus the blocks the puller lacked.
func installDelta(l *Layer, fid ids.FileID, m *BlockManifest, missing []Block, newVV vv.Vector) error {
	return l.InstallPulled(RootPath(), fid, &PullResult{Status: PullData, Manifest: m, Missing: missing, Aux: Aux{Type: KFile, Nlink: 1, VV: newVV}})
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

// poolNames lists the pool directory's members (empty when the pool was
// never created).
func poolNames(t *testing.T, l *Layer) []string {
	t.Helper()
	pool, err := l.root.Lookup(poolDirName)
	if err != nil {
		if vnode.AsErrno(err) == vnode.ENOENT {
			return nil
		}
		t.Fatal(err)
	}
	ents, err := pool.Readdir()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name)
	}
	return names
}

// TestBlockPoolTornCommitSweep crashes EnsureBlocks — the pool commit plus
// the pooled reseal of the sidecar — after every device write, tearing the crashing write to a
// 64-byte prefix.  The block layer is DERIVED data, so the invariant is
// strictly stronger than old-or-new: the canonical file must be untouched at
// every crash point, recovery must leave no torn shadow, no orphan block,
// and no sidecar referencing an absent block (Check verifies all three),
// and a post-recovery EnsureBlocks must complete the index from scratch.
func TestBlockPoolTornCommitSweep(t *testing.T) {
	data := append(append(blockOf('a'), blockOf('b')...), []byte("tail")...) // 3 blocks, short last

	// Count the writes of a full run.
	dev, l, fid := newBlockLayer(t, data)
	before := dev.Stats().Writes
	if err := l.EnsureBlocks(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	totalWrites := int(dev.Stats().Writes - before)
	if totalWrites == 0 {
		t.Fatal("EnsureBlocks issued no writes")
	}

	for crashAfter := 0; crashAfter <= totalWrites; crashAfter++ {
		tag := fmt.Sprintf("crashAfter=%d", crashAfter)
		dev, l, fid := newBlockLayer(t, data)
		dev.FaultAfterWritesTorn(crashAfter, 64)
		ensureErr := l.EnsureBlocks(RootPath(), fid)
		crashed := dev.Faulted()
		dev.ClearFault()
		if !crashed && ensureErr != nil {
			t.Fatalf("%s: no crash but EnsureBlocks failed: %v", tag, ensureErr)
		}

		l2 := remount(t, dev, tag)
		got, _, err := l2.FileData(RootPath(), fid)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: canonical data damaged by derived-index crash: %v", tag, err)
		}
		// The index rebuilds completely on the recovered store.
		if err := l2.EnsureBlocks(RootPath(), fid); err != nil {
			t.Fatalf("%s: post-recovery EnsureBlocks: %v", tag, err)
		}
		if addrs := l2.PoolAddrs(); len(addrs) != 3 {
			t.Fatalf("%s: %d pool addrs after reindex, want 3", tag, len(addrs))
		}
		if problems, err := l2.Check(); err != nil || len(problems) != 0 {
			t.Fatalf("%s: check after reindex: %v %v", tag, problems, err)
		}
	}
}

// TestDeltaInstallCrashSweep crashes a delta InstallPulled after every
// device write (torn).  The install covers the full commit chain — received
// blocks into the pool, the pooled sidecar seal, shadow/rename of the data
// file, aux — and after every crash point the recovered replica must serve
// the complete old or complete new version, with no sidecar referencing a
// block the pool lacks (remount's Check would report it).
func TestDeltaInstallCrashSweep(t *testing.T) {
	oldData := append(blockOf('a'), blockOf('b')...)
	newData := append(append(blockOf('a'), blockOf('b')...), blockOf('c')...) // append one block

	prep := func() (*disk.Device, *Layer, ids.FileID, vv.Vector) {
		dev, l, fid := newBlockLayer(t, oldData)
		if err := l.EnsureBlocks(RootPath(), fid); err != nil {
			t.Fatal(err)
		}
		st, err := l.FileInfo(RootPath(), fid)
		if err != nil {
			t.Fatal(err)
		}
		return dev, l, fid, st.Aux.VV.Clone().Bump(2)
	}
	man := ComputeManifest(newData)
	missing := []Block{{Addr: HashBlock(blockOf('c')), Data: blockOf('c')}}

	dev, l, fid, newVV := prep()
	before := dev.Stats().Writes
	if err := installDelta(l, fid, man, missing, newVV); err != nil {
		t.Fatal(err)
	}
	totalWrites := int(dev.Stats().Writes - before)

	for crashAfter := 0; crashAfter <= totalWrites; crashAfter++ {
		tag := fmt.Sprintf("crashAfter=%d", crashAfter)
		dev, l, fid, newVV := prep()
		dev.FaultAfterWritesTorn(crashAfter, 64)
		installErr := installDelta(l, fid, man, missing, newVV)
		crashed := dev.Faulted()
		dev.ClearFault()

		l2 := remount(t, dev, tag)
		got, st, err := l2.FileData(RootPath(), fid)
		if err != nil {
			t.Fatalf("%s: file lost: %v", tag, err)
		}
		oldOK := bytes.Equal(got, oldData)
		newOK := bytes.Equal(got, newData)
		if !oldOK && !newOK {
			t.Fatalf("%s (crashed=%v, installErr=%v): torn file: %d bytes", tag, crashed, installErr, len(got))
		}
		if installErr == nil && !crashed && !newOK {
			t.Fatalf("%s: install reported success but old data survives", tag)
		}
		// (A crash between the data and aux commits can leave new bytes under
		// the old vector — same window as every shadow install; the stale
		// sidecar seal stops anything from vouching for the mix, so only the
		// data old-or-new invariant is asserted here.)
		_ = st
		// Whatever survived, the index must still answer delta pulls
		// truthfully: every advertised address must read back verified.
		for _, addr := range l2.PoolAddrs() {
			l2.mu.Lock()
			_, ok := l2.poolGetLocked(addr)
			l2.mu.Unlock()
			if !ok {
				t.Fatalf("%s: advertised block %s unreadable", tag, addr)
			}
		}
	}
}

// TestBlockPoolLeakReclaim injects the damage Recover exists for — an
// unreferenced (leaked) pool block and a torn pool shadow — checks that
// fsck reports both, and that the next mount reclaims both.
func TestBlockPoolLeakReclaim(t *testing.T) {
	data := append(blockOf('a'), blockOf('b')...)
	dev, l, fid := newBlockLayer(t, data)
	if err := l.EnsureBlocks(RootPath(), fid); err != nil {
		t.Fatal(err)
	}

	// Inject a leak (a valid block no sidecar references) and a torn shadow.
	junk := blockOf('z')
	pool, err := l.root.Lookup(poolDirName)
	if err != nil {
		t.Fatal(err)
	}
	leak, err := pool.Create(HashBlock(junk).String(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(leak, junk); err != nil {
		t.Fatal(err)
	}
	shadow, err := pool.Create(HashBlock(junk).String()+suffixShadow, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(shadow, junk[:10]); err != nil {
		t.Fatal(err)
	}

	problems, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	var sawLeak, sawShadow bool
	for _, p := range problems {
		if bytes.Contains([]byte(p), []byte("leaked")) {
			sawLeak = true
		}
		if bytes.Contains([]byte(p), []byte("shadow")) {
			sawShadow = true
		}
	}
	if !sawLeak || !sawShadow {
		t.Fatalf("check missed injected damage (leak=%v shadow=%v): %v", sawLeak, sawShadow, problems)
	}

	l2 := remount(t, dev, "leak-reclaim") // asserts Check is clean again
	if got := l2.BlockStats().OrphansReclaimed; got != 2 {
		t.Fatalf("OrphansReclaimed = %d, want 2", got)
	}
	if names := poolNames(t, l2); len(names) != 2 {
		t.Fatalf("pool holds %v, want the 2 referenced blocks", names)
	}
}

// TestBlockRefcountLifecycle drives the in-memory refcounts through sharing
// and release: two files sharing a block keep it pooled while either
// pooled sidecar lives, resealing a sidecar over new content releases only the
// blocks no longer referenced anywhere, and the released blocks' pool files
// are reclaimed eagerly.
func TestBlockRefcountLifecycle(t *testing.T) {
	shared := blockOf('s')
	_, l, fid1 := newBlockLayer(t, append(shared, blockOf('1')...))
	root, err := l.Root()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := root.Create("g", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f2, append(shared, blockOf('2')...)); err != nil {
		t.Fatal(err)
	}
	fid2 := mustFid(t, f2)
	for _, fid := range []ids.FileID{fid1, fid2} {
		if err := l.EnsureBlocks(RootPath(), fid); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.PoolAddrs()); n != 3 { // shared, '1', '2'
		t.Fatalf("%d pool addrs, want 3", n)
	}

	// Advance file 1 to content that drops both its old blocks.  The reseal
	// must release '1' (now unreferenced -> reclaimed) but keep the shared
	// block alive for file 2.
	next := blockOf('n')
	st, err := l.FileInfo(RootPath(), fid1)
	if err != nil {
		t.Fatal(err)
	}
	if err := installWhole(l, fid1, next, st.Aux.VV.Clone().Bump(2), ComputeManifest(next)); err != nil {
		t.Fatal(err)
	}
	if err := l.EnsureBlocks(RootPath(), fid1); err != nil {
		t.Fatal(err)
	}
	addrs := map[BlockAddr]bool{}
	for _, a := range l.PoolAddrs() {
		addrs[a] = true
	}
	if len(addrs) != 3 || !addrs[HashBlock(shared)] || !addrs[HashBlock(next)] || !addrs[HashBlock(blockOf('2'))] {
		t.Fatalf("pool after reseal: %v", l.PoolAddrs())
	}
	if addrs[HashBlock(blockOf('1'))] {
		t.Fatal("released block '1' still pooled")
	}
	if problems, err := l.Check(); err != nil || len(problems) != 0 {
		t.Fatalf("check: %v %v", problems, err)
	}

	// The refcounts must survive a remount byte-identically: same pool, same
	// advertisement.
	stats := l.BlockStats()
	if stats.PoolBlocks != 3 {
		t.Fatalf("PoolBlocks = %d, want 3", stats.PoolBlocks)
	}
}

// TestCheckReportsDanglingManifest removes a referenced pool block out from
// under its pooled sidecar (external damage — no crash of our own commit order
// can produce this).  fsck must report the dangling reference, and the next
// mount must demote the sidecar to unpooled rather than advertise blocks
// it cannot serve.
func TestCheckReportsDanglingManifest(t *testing.T) {
	data := append(blockOf('a'), blockOf('b')...)
	dev, l, fid := newBlockLayer(t, data)
	if err := l.EnsureBlocks(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	pool, err := l.root.Lookup(poolDirName)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Remove(HashBlock(blockOf('a')).String()); err != nil {
		t.Fatal(err)
	}

	problems, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range problems {
		if bytes.Contains([]byte(p), []byte("missing pool block")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("check missed the dangling sidecar: %v", problems)
	}

	// remount asserts Check is clean: the sidecar no longer pools, and block 'b'
	// (now unreferenced) was reclaimed with it.
	l2 := remount(t, dev, "dangling")
	if n := len(l2.PoolAddrs()); n != 0 {
		t.Fatalf("%d blocks advertised after recovery, want 0", n)
	}
	got, _, err := l2.FileData(RootPath(), fid)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("canonical data lost: %v", err)
	}
	// EnsureBlocks rebuilds the index from the canonical copy.
	if err := l2.EnsureBlocks(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	if n := len(l2.PoolAddrs()); n != 2 {
		t.Fatalf("%d blocks after reindex, want 2", n)
	}
}

// TestPoolBadBlockEviction corrupts a pool block at rest.  A delta install
// that tries to reuse it must detect the damage (the block no longer hashes
// to its address), evict the block, demote the sidecars referencing it,
// count a BadBlock, and refuse with the transient ErrMissingBlock so the
// puller retries with an honest advertisement — the corrupt bytes must never
// reach the file.
func TestPoolBadBlockEviction(t *testing.T) {
	oldData := append(blockOf('a'), blockOf('b')...)
	newData := append(append(blockOf('a'), blockOf('b')...), blockOf('c')...)
	_, l, fid := newBlockLayer(t, oldData)
	if err := l.EnsureBlocks(RootPath(), fid); err != nil {
		t.Fatal(err)
	}

	// Flip a byte of pooled block 'a' on disk.
	pool, err := l.root.Lookup(poolDirName)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := pool.Lookup(HashBlock(blockOf('a')).String())
	if err != nil {
		t.Fatal(err)
	}
	rot := blockOf('a')
	rot[100] ^= 0x40
	if err := vnode.WriteFile(bf, rot); err != nil {
		t.Fatal(err)
	}

	st, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	man := ComputeManifest(newData)
	missing := []Block{{Addr: HashBlock(blockOf('c')), Data: blockOf('c')}}
	err = installDelta(l, fid, man, missing, st.Aux.VV.Clone().Bump(2))
	if !IsMissingBlock(err) {
		t.Fatalf("install over rotten pool block: %v, want ErrMissingBlock", err)
	}
	if !retry.Transient(err) {
		t.Fatal("missing-block refusal must be transient (the entry retries)")
	}
	if got := l.BlockStats().BadBlocks; got != 1 {
		t.Fatalf("BadBlocks = %d, want 1", got)
	}
	got, _, err := l.FileData(RootPath(), fid)
	if err != nil || !bytes.Equal(got, oldData) {
		t.Fatalf("old version damaged by refused install: %v", err)
	}
	// The eviction unreferenced block 'b' too (its sidecar was demoted); after the
	// next EnsureBlocks the advertisement is honest again and the same
	// install succeeds.
	if err := l.EnsureBlocks(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	if err := installDelta(l, fid, man, missing, st.Aux.VV.Clone().Bump(2)); err != nil {
		t.Fatalf("retry after reindex: %v", err)
	}
	got, _, err = l.FileData(RootPath(), fid)
	if err != nil || !bytes.Equal(got, newData) {
		t.Fatalf("retried install did not land: %v", err)
	}
	if problems, err := l.Check(); err != nil || len(problems) != 0 {
		t.Fatalf("check: %v %v", problems, err)
	}
}

// TestRemoveDropsManifest pins the local-unlink reclaim path: removing the
// last name of a file with a pooled sidecar must also discard the sidecar
// and release its pool blocks, or Check reports a sidecar with no data file
// (the chaos convergence suites caught exactly this leak).
func TestRemoveDropsManifest(t *testing.T) {
	data := append(blockOf('a'), blockOf('b')...)
	_, l, fid := newBlockLayer(t, data)
	if err := l.EnsureBlocks(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	if got := l.BlockStats().PoolBlocks; got != 2 {
		t.Fatalf("PoolBlocks = %d, want 2", got)
	}
	root, err := l.Root()
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if addrs := l.PoolAddrs(); len(addrs) != 0 {
		t.Fatalf("PoolAddrs after remove = %d, want 0", len(addrs))
	}
	if got := l.BlockStats().PoolBlocks; got != 0 {
		t.Fatalf("PoolBlocks after remove = %d, want 0", got)
	}
	if problems, err := l.Check(); err != nil {
		t.Fatal(err)
	} else if len(problems) != 0 {
		t.Fatalf("check after remove found: %v", problems)
	}
}

// recountRefs rebuilds the pool refcounts from the sidecars on disk,
// independently of the layer's own walk (every test file lives in the root
// container).
func recountRefs(t *testing.T, l *Layer) map[BlockAddr]int {
	t.Helper()
	cont, err := l.rootContainer()
	if err != nil {
		t.Fatal(err)
	}
	ents, err := cont.Readdir()
	if err != nil {
		t.Fatal(err)
	}
	refs := map[BlockAddr]int{}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name, prefixSidecar) {
			continue
		}
		f, err := cont.Lookup(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		img, err := vnode.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := decodeSidecar(img)
		if err != nil {
			t.Fatalf("sidecar %s: %v", e.Name, err)
		}
		for _, a := range sc.Blocks {
			if sc.Pooled {
				refs[a]++
			}
		}
	}
	return refs
}

// assertPoolExact checks the three things a pooled/unpooled transition must
// preserve: the in-memory refcounts equal a from-scratch recount of the
// sidecars, every referenced block is present, and no block is present
// without a reference.
func assertPoolExact(t *testing.T, l *Layer, tag string) {
	t.Helper()
	want := recountRefs(t, l)
	l.mu.Lock()
	got := make(map[BlockAddr]int, len(l.blockRefs))
	for a, n := range l.blockRefs {
		got[a] = n
	}
	l.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: refcounts %v, recount from disk %v", tag, got, want)
	}
	names := poolNames(t, l)
	if len(names) != len(want) {
		t.Fatalf("%s: pool holds %v, references are %v", tag, names, want)
	}
	for _, name := range names {
		if addr, ok := parseBlockName(name); !ok || want[addr] == 0 {
			t.Fatalf("%s: pool member %q is present but unreferenced", tag, name)
		}
	}
}

// TestPooledTransitionCrashSweep covers what one sidecar per file makes
// new: a single commit now both changes what verifies the file AND takes or
// releases pool references.  Three files share block 's'; A and B are
// pooled, C is not.  The sweep crashes — tearing the crashing write — after
// every device write of (1) a local overwrite of A, which reseals it
// unpooled and releases its references, and (2) EnsureBlocks on C, which
// puts its blocks and reseals it pooled.  After recovery the walk and the
// substrate are clean (remount), the refcounts are exactly a recount with
// no unreferenced block left behind, the untouched file B is intact and
// still indexed, and the block layer still works.
func TestPooledTransitionCrashSweep(t *testing.T) {
	shared := blockOf('s')
	dataB := append(append([]byte(nil), shared...), blockOf('b')...)
	prep := func() (*disk.Device, *Layer, vnode.Vnode, ids.FileID, ids.FileID) {
		dev, l, fidA := newBlockLayer(t, append(append([]byte(nil), shared...), blockOf('a')...))
		root, err := l.Root()
		if err != nil {
			t.Fatal(err)
		}
		fA, err := root.Lookup("f")
		if err != nil {
			t.Fatal(err)
		}
		var fids [2]ids.FileID
		for i, spec := range []struct {
			name string
			data []byte
		}{{"b", dataB}, {"c", append(append([]byte(nil), shared...), blockOf('c')...)}} {
			f, err := root.Create(spec.name, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := vnode.WriteFile(f, spec.data); err != nil {
				t.Fatal(err)
			}
			fids[i] = mustFid(t, f)
		}
		for _, fid := range []ids.FileID{fidA, fids[0]} {
			if err := l.EnsureBlocks(RootPath(), fid); err != nil {
				t.Fatal(err)
			}
		}
		assertPoolExact(t, l, "prep")
		return dev, l, fA, fids[0], fids[1]
	}
	ops := []struct {
		name string
		run  func(l *Layer, fA vnode.Vnode, fidC ids.FileID) error
	}{
		{"overwrite-pooled", func(_ *Layer, fA vnode.Vnode, _ ids.FileID) error {
			_, err := fA.WriteAt(blockOf('A'), ChecksumBlockSize)
			return err
		}},
		{"ensure-unpooled", func(l *Layer, _ vnode.Vnode, fidC ids.FileID) error {
			return l.EnsureBlocks(RootPath(), fidC)
		}},
	}
	for _, op := range ops {
		dev, l, fA, _, fidC := prep()
		before := dev.Stats().Writes
		if err := op.run(l, fA, fidC); err != nil {
			t.Fatal(err)
		}
		totalWrites := int(dev.Stats().Writes - before)
		if totalWrites == 0 {
			t.Fatalf("%s issued no writes", op.name)
		}
		assertPoolExact(t, l, op.name+" (no crash)")

		for crashAfter := 0; crashAfter <= totalWrites; crashAfter++ {
			tag := fmt.Sprintf("%s crashAfter=%d", op.name, crashAfter)
			dev, l, fA, fidB, fidC := prep()
			dev.FaultAfterWritesTorn(crashAfter, 64)
			opErr := op.run(l, fA, fidC)
			crashed := dev.Faulted()
			dev.ClearFault()
			if !crashed && opErr != nil {
				t.Fatalf("%s: no crash but the operation failed: %v", tag, opErr)
			}

			l2 := remount(t, dev, tag)
			assertPoolExact(t, l2, tag)
			got, _, err := l2.FileData(RootPath(), fidB)
			if err != nil || !bytes.Equal(got, dataB) {
				t.Fatalf("%s: bystander file damaged: %v", tag, err)
			}
			sealedBefore := l2.BlockStats().ManifestsSealed
			if err := l2.EnsureBlocks(RootPath(), fidB); err != nil || l2.BlockStats().ManifestsSealed != sealedBefore {
				t.Fatalf("%s: bystander file lost its pooled seal: %v", tag, err)
			}
			if err := l2.EnsureBlocks(RootPath(), fidC); err != nil {
				t.Fatalf("%s: post-recovery EnsureBlocks: %v", tag, err)
			}
			assertPoolExact(t, l2, tag+" after reindex")
		}
	}
}

// TestCheckReportsRefcountDrift: fsck recounts the references from the
// sidecars and reports any block whose in-memory count disagrees.
func TestCheckReportsRefcountDrift(t *testing.T) {
	_, l, fid := newBlockLayer(t, append(blockOf('a'), blockOf('b')...))
	if err := l.EnsureBlocks(RootPath(), fid); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.blockRefs[HashBlock(blockOf('a'))]++
	delete(l.blockRefs, HashBlock(blockOf('b')))
	l.mu.Unlock()
	problems, err := l.Check()
	if err != nil {
		t.Fatal(err)
	}
	drift := 0
	for _, p := range problems {
		if strings.Contains(p, "references in memory") {
			drift++
		}
	}
	if drift != 2 {
		t.Fatalf("check reported %d drifting blocks, want 2: %v", drift, problems)
	}
}

// TestOneSidecarPerStoredFile: whatever a store has been through — local
// writes, an index pass, a delta install, a whole-file install, a scrub
// pass, a cross-directory rename, a crash and restart — every stored file
// is exactly three container members: data, aux and one sidecar.  A member
// of the retired checksum-sidecar format is no longer a known name.
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
	if err := l.EnsureBlocks(RootPath(), fidF); err != nil {
		t.Fatal(err)
	}
	st, err := l.FileInfo(RootPath(), fidF)
	if err != nil {
		t.Fatal(err)
	}
	missing := []Block{{Addr: HashBlock(blockOf('c')), Data: blockOf('c')}}
	if err := installDelta(l, fidF, ComputeManifest(newData), missing, st.Aux.VV.Clone().Bump(2)); err != nil {
		t.Fatal(err)
	}
	stG, err := l.FileInfo(RootPath(), fidG)
	if err != nil {
		t.Fatal(err)
	}
	if err := installWhole(l, fidG, blockOf('h'), stG.Aux.VV.Clone().Bump(2), ComputeManifest(blockOf('h'))); err != nil {
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
	if _, err := l.ScrubPass(); err != nil {
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
			if strings.Join(prefixes, "") != prefixAux+prefixData+prefixSidecar {
				t.Errorf("file %s is stored as members %q, want exactly A, F and S", fid, prefixes)
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

	stray, err := rootCont.Create("C"+fidG.String(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(stray, []byte("FSUM")); err != nil {
		t.Fatal(err)
	}
	problems, err := l2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "unidentified container member") {
		t.Fatalf("stray checksum sidecar: check says %v", problems)
	}
}
