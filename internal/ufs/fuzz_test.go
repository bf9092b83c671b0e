package ufs

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/disk"
)

// fuzzInodes is how many inode numbers fuzzImage's file system has.
const fuzzInodes = 64

// fuzzImage is a small formatted device holding a directory, an 8 KiB file in
// it, a file past the direct blocks and a symlink; file is the 8 KiB one.
func fuzzImage(tb testing.TB) (dev *disk.Device, file Ino) {
	tb.Helper()
	dev = disk.New(256)
	fs, err := Mkfs(dev, fuzzInodes, nil)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := fs.Mkdir(fs.Root(), "d")
	if err != nil {
		tb.Fatal(err)
	}
	if file, err = fs.Create(d, "f"); err != nil {
		tb.Fatal(err)
	}
	big, err := fs.Create(fs.Root(), "big")
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, (NDirect+2)*BlockSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := fs.WriteFile(file, data[:2*BlockSize]); err != nil {
		tb.Fatal(err)
	}
	if err := fs.WriteFile(big, data); err != nil {
		tb.Fatal(err)
	}
	if _, err := fs.Symlink(fs.Root(), "l", "d/f"); err != nil {
		tb.Fatal(err)
	}
	return dev, file
}

// inodeBlock reads the inode-table block that holds ino from dev, behind any
// mounted file system's back, with its number and ino's offset in it.
func inodeBlock(tb testing.TB, dev *disk.Device, ino Ino) (bn uint32, off int, blk []byte) {
	tb.Helper()
	var fs FS
	blk = make([]byte, BlockSize)
	if err := dev.Read(sbBlock, blk); err != nil {
		tb.Fatal(err)
	}
	fs.sb.decode(blk)
	bn, off, err := fs.inodeLoc(ino)
	if err == nil {
		err = dev.Read(int(bn), blk)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return bn, off, blk
}

func inodeSlot(tb testing.TB, dev *disk.Device, ino Ino) (slot [InodeSize]byte) {
	_, off, blk := inodeBlock(tb, dev, ino)
	copy(slot[:], blk[off:])
	return slot
}

func setInodeSlot(tb testing.TB, dev *disk.Device, ino Ino, slot [InodeSize]byte) {
	bn, off, blk := inodeBlock(tb, dev, ino)
	copy(blk[off:], slot[:])
	if err := dev.Write(int(bn), blk); err != nil {
		tb.Fatal(err)
	}
}

// FuzzInodeSlot overwrites one inode of a small formatted device with the
// input, mounts it, and asks every inode what a reader asks: whatever a crash,
// bit rot or a foreign writer left in an inode, every call must answer or
// fail, never panic.  (ReadFile is not called: a valid sparse size near the
// largest file would allocate that much.)
func FuzzInodeSlot(f *testing.F) {
	dev, file := fuzzImage(f)
	// The input's n picks inode 1+n.
	for ino := Ino(1); ino <= file+3; ino++ {
		slot := inodeSlot(f, dev, ino)
		f.Add(uint8(ino-1), slot[:])
	}
	huge := inodeSlot(f, dev, file)
	binary.BigEndian.PutUint64(huge[8:], 1<<62)
	f.Add(uint8(file-1), huge[:])
	d := lookupOn(f, dev, "d")
	wide := inodeSlot(f, dev, d)
	binary.BigEndian.PutUint64(wide[8:], maxFileSize)
	f.Add(uint8(d-1), wide[:])
	f.Fuzz(func(t *testing.T, n uint8, b []byte) {
		d := dev.Snapshot()
		var slot [InodeSize]byte
		copy(slot[:], b)
		setInodeSlot(t, d, Ino(1+int(n)%(fuzzInodes-1)), slot)
		fs, err := Mount(d, nil)
		if err != nil {
			return
		}
		fs.Check()
		buf := make([]byte, BlockSize)
		for i := 1; i < fs.NumInodes(); i++ {
			ino := Ino(i)
			st, err := fs.Stat(ino)
			if err != nil {
				continue
			}
			fs.Readdir(ino)
			fs.ReadAt(ino, buf, 0)
			if st.Size > 0 {
				fs.ReadAt(ino, buf, int64(st.Size-1))
			}
		}
	})
}

// lookupOn is the inode name names in the root of the file system on dev.
func lookupOn(tb testing.TB, dev *disk.Device, name string) Ino {
	tb.Helper()
	fs, err := Mount(dev.Snapshot(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	ino, err := fs.Lookup(fs.Root(), name)
	if err != nil {
		tb.Fatal(err)
	}
	return ino
}

// TestCorruptDirectoryInodeMounts: a directory inode readInodeLocked refuses
// — here one claiming the largest file's size, more slots than a directory
// can map — stops neither a mount nor Check.  Recovery leaves it as it found
// it: the entry naming it stays, the file inside it keeps its inode, no link
// count is lowered and no block of either loses its bit; Check reports it.
func TestCorruptDirectoryInodeMounts(t *testing.T) {
	dev, file := fuzzImage(t)
	d := lookupOn(t, dev, "d")
	slot := inodeSlot(t, dev, d)
	binary.BigEndian.PutUint64(slot[8:], maxFileSize)
	setInodeSlot(t, dev, d, slot)
	fs, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) == 0 || !strings.Contains(probs[0], "above the largest directory") {
		t.Fatalf("Check found %q, want the directory's size first", probs)
	}
	// Its "." and ".." went uncounted, and so did the file, but no link count
	// was lowered and no inode reclaimed to match.
	for _, p := range probs[1:] {
		if !strings.Contains(p, " references") && !strings.Contains(p, "unreachable from root") {
			t.Errorf("Check found %q beside the directory", p)
		}
	}
	if got, err := fs.Lookup(fs.Root(), "d"); err != nil || got != d {
		t.Fatalf("the entry naming the directory: %d %v", got, err)
	}
	if _, err := fs.Readdir(d); !errors.Is(err, ErrBadInode) {
		t.Fatalf("Readdir of the directory: %v, want ErrBadInode", err)
	}
	if got, err := fs.ReadFile(file); err != nil || len(got) != 2*BlockSize {
		t.Fatalf("the file inside the directory: %d bytes, %v", len(got), err)
	}
}

// TestCorruptInodeSizeIsRefused: writers refuse a size past the largest file,
// and so must a read of one from the device — ReadFile, Readlink and every
// reader above them size a buffer from it.
func TestCorruptInodeSizeIsRefused(t *testing.T) {
	dev, file := fuzzImage(t)
	slot := inodeSlot(t, dev, file)
	binary.BigEndian.PutUint64(slot[8:], 1<<62)
	setInodeSlot(t, dev, file, slot)
	fs, err := Mount(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 1 {
		t.Fatalf("Check of an inode of size 1<<62 found %q, want one problem", probs)
	}
	if _, err := fs.ReadFile(file); !errors.Is(err, ErrBadInode) {
		t.Fatalf("ReadFile: %v, want ErrBadInode", err)
	}
	if _, err := fs.Stat(file); !errors.Is(err, ErrBadInode) {
		t.Fatalf("Stat: %v, want ErrBadInode", err)
	}
	if _, err := fs.ReadAt(file, make([]byte, BlockSize), 0); !errors.Is(err, ErrBadInode) {
		t.Fatalf("ReadAt: %v, want ErrBadInode", err)
	}
}
