package ufs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/disk"
)

// allocationGolden is what TestAllocationOrderGolden's script produced at
// the commit before the bitmap type replaced the bit-at-a-time allocators:
// one line per surviving name, "name ino [device blocks in walkBlocks
// order]".
const allocationGolden = `f1 3 [7]
f2 4 [9 10 11]
f4 6 [52]
f5 7 [17 18]
f7 9 [22 23 24 25]
big 10 [26 27 28 29 30 31 32 33 34 35 36 37 38]
sub 11 [39]
g0 2 [40 41 42]
g1 5 [43 44 45]
g2 8 [46 47 48]
g3 12 [49 50 51]
wrap 13 [53 54 55 56 57 58 59 60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79 80 81 82 83 84 85 86 87 88 89 90 91 92 93 94 95 6 8 12 13 14 15 16 19]
`

// TestAllocationOrderGolden pins the allocation policy — lowest free inode,
// next-fit blocks with wrap-around — to numbers recorded before the port, so
// "the policy did not move" is a test and not only a benchmark count.  The
// script frees inodes and blocks in the middle of the used range, allocates
// past an indirect block, and ends by wrapping the block rotor.
func TestAllocationOrderGolden(t *testing.T) {
	fs, err := Mkfs(disk.New(96), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := fs.Root()
	inos := map[string]Ino{}
	var names []string
	create := func(name string) {
		t.Helper()
		ino, err := fs.Create(root, name)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		inos[name] = ino
		names = append(names, name)
	}
	write := func(name string, firstBlock, nblocks int) {
		t.Helper()
		p := make([]byte, nblocks*BlockSize)
		if _, err := fs.WriteAt(inos[name], p, int64(firstBlock)*BlockSize); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}

	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("f%d", i)
		create(name)
		write(name, 0, i%4+1)
	}
	create("big")
	write("big", 0, 12) // two blocks past the direct pointers
	sub, err := fs.Mkdir(root, "sub")
	if err != nil {
		t.Fatal(err)
	}
	inos["sub"] = sub
	names = append(names, "sub")
	for i := 0; i < 8; i += 3 {
		name := fmt.Sprintf("f%d", i)
		if err := fs.Remove(root, name); err != nil {
			t.Fatalf("remove %s: %v", name, err)
		}
		delete(inos, name)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("g%d", i)
		create(name)
		write(name, 0, 3)
	}
	if err := fs.Truncate(inos["f1"], BlockSize); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(inos["f4"], 0); err != nil {
		t.Fatal(err)
	}
	write("f4", 2, 1) // a hole, then one block
	create("wrap")
	write("wrap", 0, 50) // runs off the end of the device and wraps

	var b strings.Builder
	fs.mu.Lock()
	for _, name := range names {
		ino, ok := inos[name]
		if !ok {
			continue
		}
		din, err := fs.readInodeLocked(ino)
		if err != nil {
			t.Fatal(err)
		}
		var blocks []uint32
		if err := fs.walkBlocks(&din, func(bn uint32) { blocks = append(blocks, bn) }); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %v\n", name, ino, blocks)
	}
	fs.mu.Unlock()
	if got := b.String(); got != allocationGolden {
		t.Errorf("allocation order moved.\ngot:\n%swant:\n%s", got, allocationGolden)
	}
	if problems, err := fs.Check(); err != nil || len(problems) != 0 {
		t.Fatalf("Check after the script: %v, %v", problems, err)
	}
}

// TestBitmapScanMatchesPerBitTest is the differential test of the two scans
// against the one-bit-at-a-time reading they replaced: on bitmaps several
// blocks long, whose bit counts are not multiples of 8 and whose tail bits
// beyond n are clear on the device, nextClear and countClear must agree with
// a table built by test alone — over random ranges, every sub-byte range
// around a byte, block and end-of-map boundary, and ranges running past n.
func TestBitmapScanMatchesPerBitTest(t *testing.T) {
	fs, err := Mkfs(disk.New(80003), 70003, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rng := rand.New(rand.NewSource(19))
	for _, m := range []bitmap{fs.inoMap, fs.blkMap} {
		// Runs of all-used, all-free and random bytes.
		for base := uint32(0); base < m.n; base += bitsPerBlock {
			blk := make([]byte, BlockSize)
			for i := 0; i < BlockSize; {
				kind := rng.Intn(3)
				for run := 1 + rng.Intn(600); run > 0 && i < BlockSize; run, i = run-1, i+1 {
					switch kind {
					case 0:
						blk[i] = 0xff
					case 2:
						blk[i] = byte(rng.Intn(256))
					}
				}
			}
			if m.n-base < bitsPerBlock {
				tail := (m.n - base) / 8
				blk[tail] &= 1<<(m.n%8) - 1
				for i := tail + 1; i < BlockSize; i++ {
					blk[i] = 0
				}
			}
			if err := fs.bc.write(m.start+base/bitsPerBlock, blk); err != nil {
				t.Fatal(err)
			}
		}
		used := make([]bool, m.n)
		for i := range used {
			if used[i], err = m.test(uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.test(m.n); err == nil {
			t.Fatalf("test(%d) beyond the map succeeded", m.n)
		}
		check := func(from, to uint32) {
			t.Helper()
			var wantIdx, wantCount uint32
			for i := from; i < to && i < m.n; i++ {
				if !used[i] {
					if wantCount == 0 {
						wantIdx = i
					}
					wantCount++
				}
			}
			idx, ok, err := m.nextClear(from, to)
			if err != nil || ok != (wantCount > 0) || idx != wantIdx {
				t.Fatalf("nextClear(%d, %d) = %d, %v, %v; per-bit test says %d, %v", from, to, idx, ok, err, wantIdx, wantCount > 0)
			}
			if n, err := m.countClear(from, to); err != nil || n != wantCount {
				t.Fatalf("countClear(%d, %d) = %d, %v; per-bit test says %d", from, to, n, err, wantCount)
			}
		}
		for i := 0; i < 600; i++ {
			from, to := uint32(rng.Intn(int(m.n)+1)), uint32(rng.Intn(int(m.n)+1))
			if from > to {
				from, to = to, from
			}
			check(from, to)
		}
		for _, edge := range []uint32{8, bitsPerBlock, 2 * bitsPerBlock, m.n - 12} {
			for from := edge - 8; from < edge+8; from++ {
				for to := from; to <= from+18; to++ {
					check(from, to)
				}
			}
		}
		check(0, m.n)
		check(m.n-3, m.n+1000)
		check(0, ^uint32(0))
		check(m.n, m.n+8)
	}
}

// crowdedFS returns a volume whose inode bits 2..20001 are set, as they are
// on a store that holds 20 000 files, with bitmaps several blocks long.
func crowdedFS(t *testing.T) *FS {
	t.Helper()
	fs, err := Mkfs(disk.New(70000), 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	blk, err := fs.bc.read(fs.sb.InoBmapStart)
	if err != nil {
		t.Fatal(err)
	}
	blk = bytes.Clone(blk)
	for i := 2; i < 20002; i++ {
		blk[i/8] |= 1 << (i % 8)
	}
	if err := fs.bc.write(fs.sb.InoBmapStart, blk); err != nil {
		t.Fatal(err)
	}
	return fs
}

func bufferAccesses(fs *FS) uint64 {
	cs := fs.CacheStats()
	return cs.BufferHits + cs.BufferMisses
}

// TestCreateCostIndependentOfInodesInUse: finding a free inode reads the
// bitmap a block at a time, so creating a file behind 20 000 allocated
// inodes costs a few dozen buffer-cache accesses, not one per inode passed.
func TestCreateCostIndependentOfInodesInUse(t *testing.T) {
	fs := crowdedFS(t)
	dir, err := fs.Mkdir(fs.Root(), "d")
	if err != nil {
		t.Fatal(err)
	}
	if dir != 20002 {
		t.Fatalf("mkdir got inode %d, want the lowest free one, 20002", dir)
	}
	before := bufferAccesses(fs)
	ino, err := fs.Create(dir, "f")
	if err != nil {
		t.Fatal(err)
	}
	if ino != 20003 {
		t.Fatalf("create got inode %d, want the lowest free one, 20003", ino)
	}
	if n := bufferAccesses(fs) - before; n > 48 {
		t.Fatalf("one Create cost %d buffer-cache accesses", n)
	}
}

// TestStatfsReadsEachBitmapBlockOnce: counting free inodes and blocks costs
// one buffer-cache access per bitmap block, and counts what per-bit reading
// counted.
func TestStatfsReadsEachBitmapBlockOnce(t *testing.T) {
	fs := crowdedFS(t)
	before := bufferAccesses(fs)
	st, err := fs.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if n, want := bufferAccesses(fs)-before, uint64(fs.sb.InoBmapLen+fs.sb.BlkBmapLen); n != want {
		t.Fatalf("Statfs cost %d buffer-cache accesses, want one per bitmap block = %d", n, want)
	}
	// In use: inode 0 (reserved), the root, and the 20 000 planted; the
	// metadata blocks and the root directory's one block.
	if want := fs.sb.NInodes - 20002; st.FreeInodes != want {
		t.Errorf("FreeInodes = %d, want %d", st.FreeInodes, want)
	}
	if want := fs.sb.NBlocks - fs.sb.DataStart - 1; st.FreeBlocks != want {
		t.Errorf("FreeBlocks = %d, want %d", st.FreeBlocks, want)
	}
}
