package ufs

import (
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/invariant"
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
	fs, err := Mkfs(dev, 128, &Options{BufferCacheBlocks: 4, InodeCacheEntries: 4, DNLCEntries: 4})
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

func TestSetCachesEnabledToggle(t *testing.T) {
	dev := disk.New(1024)
	fs, _ := Mkfs(dev, 256, nil)
	fs.Create(fs.Root(), "f")
	fs.SetCachesEnabled(false)
	dev.ResetStats()
	fs.Lookup(fs.Root(), "f")
	if dev.Stats().Total() == 0 {
		t.Fatal("disabled caches served from memory")
	}
	fs.SetCachesEnabled(true)
	fs.Lookup(fs.Root(), "f") // repopulate
	dev.ResetStats()
	fs.Lookup(fs.Root(), "f")
	if dev.Stats().Total() != 0 {
		t.Fatal("re-enabled caches not serving")
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
