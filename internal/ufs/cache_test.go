package ufs

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/invariant"
	"repro/internal/wire"
)

// TestWarmLookupCostsNoIO reproduces the substrate half of paper §6:
// opening a recently accessed file involves no disk I/O beyond what the
// first access already paid.
func TestWarmLookupCostsNoIO(t *testing.T) {
	dev := disk.New(1024)
	fs, err := Mkfs(dev, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := fs.Mkdir(fs.Root(), "dir")
	ino, _ := fs.Create(d, "file")
	fs.WriteFile(ino, []byte("contents"))

	// Cold: flush caches, then resolve dir/file and read the inode.
	fs.FlushCaches()
	dev.ResetStats()
	d2, err := fs.Lookup(fs.Root(), "dir")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs.Lookup(d2, "file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(f2); err != nil {
		t.Fatal(err)
	}
	cold := dev.Stats()
	if cold.Reads == 0 {
		t.Fatal("cold path did no I/O; accounting broken")
	}

	// Warm: the identical sequence must hit only caches.
	dev.ResetStats()
	d3, _ := fs.Lookup(fs.Root(), "dir")
	f3, _ := fs.Lookup(d3, "file")
	if _, err := fs.Stat(f3); err != nil {
		t.Fatal(err)
	}
	if warm := dev.Stats(); warm.Total() != 0 {
		t.Fatalf("warm path did %v of I/O, want none", warm)
	}
}

func TestDisabledCachesAlwaysHitDisk(t *testing.T) {
	dev := disk.New(1024)
	fs, err := Mkfs(dev, 256, &Options{DisableCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.Create(fs.Root(), "f")
	fs.WriteFile(ino, []byte("x"))
	dev.ResetStats()
	for i := 0; i < 3; i++ {
		if _, err := fs.Lookup(fs.Root(), "f"); err != nil {
			t.Fatal(err)
		}
	}
	s := dev.Stats()
	if s.Reads < 3 {
		t.Fatalf("cacheless lookups did only %v", s)
	}
	cs := fs.CacheStats()
	if cs.BufferHits != 0 || cs.NameHits != 0 || cs.InodeHits != 0 {
		t.Fatalf("disabled caches recorded hits: %+v", cs)
	}
}

func TestCacheStatsCount(t *testing.T) {
	dev := disk.New(1024)
	fs, _ := Mkfs(dev, 256, nil)
	fs.Create(fs.Root(), "f")
	fs.FlushCaches()
	fs.Lookup(fs.Root(), "f") // miss
	fs.Lookup(fs.Root(), "f") // hit
	cs := fs.CacheStats()
	if cs.NameMisses == 0 || cs.NameHits == 0 {
		t.Fatalf("DNLC counters: %+v", cs)
	}
}

func TestBufferCacheEviction(t *testing.T) {
	dev := disk.New(1024)
	fs, err := Mkfs(dev, 128, &Options{sizes: cacheSizes{blocks: 4, inodes: 4, names: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.Create(fs.Root(), "f")
	data := make([]byte, 16*BlockSize)
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteFile(ino, data); err != nil {
		t.Fatal(err)
	}
	// Reading the whole file sweeps the tiny cache several times over; the
	// contents must still be correct.
	got, err := fs.ReadFile(ino)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d: got %d", i, got[i])
		}
	}
}

func TestDNLCInvalidationOnRemoveAndRename(t *testing.T) {
	dev := disk.New(1024)
	fs, _ := Mkfs(dev, 256, nil)
	ino, _ := fs.Create(fs.Root(), "a")
	fs.Lookup(fs.Root(), "a") // warm the DNLC
	if err := fs.Rename(fs.Root(), "a", fs.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(fs.Root(), "a"); err == nil {
		t.Fatal("stale DNLC entry served after rename")
	}
	got, err := fs.Lookup(fs.Root(), "b")
	if err != nil || got != ino {
		t.Fatalf("lookup b: %d, %v", got, err)
	}
	if err := fs.Remove(fs.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(fs.Root(), "b"); err == nil {
		t.Fatal("stale DNLC entry served after remove")
	}
}

func TestFlushCachesPreservesData(t *testing.T) {
	dev := disk.New(1024)
	fs, _ := Mkfs(dev, 256, nil)
	ino, _ := fs.Create(fs.Root(), "f")
	fs.WriteFile(ino, []byte("durable"))
	fs.FlushCaches()
	got, err := fs.ReadFile(ino)
	if err != nil || string(got) != "durable" {
		t.Fatalf("after flush: %q, %v", got, err)
	}
}

// TestWarmReadAtAllocatesNoBlock pins the lending rule's point: a cache hit
// hands out the cached block, it does not copy it.
func TestWarmReadAtAllocatesNoBlock(t *testing.T) {
	fs, err := Mkfs(disk.New(1024), 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.Create(fs.Root(), "f")
	if err := fs.WriteFile(ino, make([]byte, 8*BlockSize)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := fs.ReadAt(ino, buf, 3*BlockSize); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a warm 4 KiB ReadAt made %v allocations, want 0", n)
	}
}

// TestBlockSourcesAllocateNothing pins the buffer pool: in an 8-block cache
// and a 16-block file, where every call below misses or evicts, each takes the
// blocks it fills from the spares earlier calls retired.  Before the cache
// reused its blocks the same calls made 2 (whole-block WriteAt), 3 (5-byte
// WriteAt), 1 (read miss) and 6 (Create + Remove) allocations.
func TestBlockSourcesAllocateNothing(t *testing.T) {
	fs, err := Mkfs(disk.New(1024), 256, &Options{sizes: cacheSizes{blocks: 8}})
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.Create(fs.Root(), "f")
	const fileBlocks = 16
	if err := fs.WriteFile(ino, make([]byte, fileBlocks*BlockSize)); err != nil {
		t.Fatal(err)
	}
	block, five := make([]byte, BlockSize), []byte("hello")
	// Calls cycle through blocks 1 to 15, twice the cache, so each misses; the
	// refills below write block 0.
	next := 0
	nextOff := func() int64 { next = next%(fileBlocks-1) + 1; return int64(next) * BlockSize }
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"whole-block WriteAt", func() {
			if _, err := fs.WriteAt(ino, block, nextOff()); err != nil {
				t.Fatal(err)
			}
		}},
		{"5-byte WriteAt", func() {
			if _, err := fs.WriteAt(ino, five, nextOff()+100); err != nil {
				t.Fatal(err)
			}
		}},
		{"Create + Remove", func() {
			if _, err := fs.Create(fs.Root(), "g"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove(fs.Root(), "g"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.call); n != 0 {
			t.Errorf("a %s made %v allocations, want 0", tc.name, n)
		}
	}

	// A read-only call's retirees wait for the next mutating call's end, so a
	// run of misses draws the spares down: measure each miss alone, after a
	// write has refilled them.
	for i := 0; i < 4; i++ {
		if _, err := fs.WriteAt(ino, block, 0); err != nil {
			t.Fatal(err)
		}
		before := fs.CacheStats().BufferMisses
		if n := testing.AllocsPerRun(1, func() {
			if _, err := fs.ReadAt(ino, block, nextOff()); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("a read miss made %v allocations, want 0", n)
		}
		if misses := fs.CacheStats().BufferMisses - before; misses < 2 {
			t.Fatalf("two ReadAt calls missed %d times, want a miss each", misses)
		}
	}
}

// TestLookupMissAllocatesNoName: a lookup the DNLC cannot answer scans every
// slot of the directory, and compares each name where it lies.
func TestLookupMissAllocatesNoName(t *testing.T) {
	fs, err := Mkfs(disk.New(1024), 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := fs.Create(fs.Root(), fmt.Sprintf("entry-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := fs.Lookup(fs.Root(), "absent"); err != ErrNotExist {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a lookup that scans a 100-entry directory made %v allocations, want 0", n)
	}
}

// TestWriteToLentBlockFiresInvariant breaks the rule — a block in the cache is
// never written to — and expects the armed check to say so on the next hit.
func TestWriteToLentBlockFiresInvariant(t *testing.T) {
	defer invariant.ForceForTest(true)()
	fs, err := Mkfs(disk.New(1024), 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := fs.bc.read(fs.sb.ITableStart)
	if err != nil {
		t.Fatal(err)
	}
	blk[0] ^= 0xff
	defer func() {
		if _, ok := recover().(*invariant.Violation); !ok {
			t.Fatal("reading a block that was written to while lent raised no violation")
		}
		blk[0] ^= 0xff
	}()
	fs.bc.read(fs.sb.ITableStart)
}

// TestWriteToRetiredBlockFiresInvariant breaks the lending rule's bound — a
// lent block is valid only until its call ends — and expects the armed check
// to say so when the block, returned to the pool as a later call ends, is
// lent again.
func TestWriteToRetiredBlockFiresInvariant(t *testing.T) {
	defer invariant.ForceForTest(true)()
	fs, err := Mkfs(disk.New(1024), 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.Create(fs.Root(), "f")
	if _, err := fs.WriteAt(ino, make([]byte, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	// Borrow the file's block as a call does, and keep it past the call.
	fs.mu.Lock()
	din, err := fs.readInodeLocked(ino)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := fs.st.read(din.Direct[0])
	fs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Rewriting the block retires the kept slice; the call's end returns it to
	// the pool, which poisons it.
	if _, err := fs.WriteAt(ino, make([]byte, BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if i := slices.IndexFunc(kept, func(v byte) bool { return v != wire.Poison }); i >= 0 {
		t.Fatalf("byte %d of a recycled block reads %#x, want the poison %#x", i, kept[i], wire.Poison)
	}
	kept[0] ^= 0xff
	defer func() {
		if _, ok := recover().(*invariant.Violation); !ok {
			t.Fatal("lending a block written to after its call raised no violation")
		}
	}()
	// Lending more blocks than the pool can hold lends every block it holds.
	for range 1 << 12 {
		wire.GetBuf(BlockSize)
	}
}
