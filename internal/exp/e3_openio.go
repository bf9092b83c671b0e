package exp

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

// E3 — paper §6: "The Ficus physical layer design and implementation
// accrues additional I/O overhead when opening a file in a non-recently
// accessed directory.  Four I/Os beyond the normal Unix overhead occur: an
// inode and data page for the underlying Unix directory and an auxiliary
// replication data file must be loaded from disk, as well as the Ficus
// directory inode and data page.  (The last two correspond to normal Unix
// overhead.)  Opening a recently accessed file or directory involves no
// overhead not already incurred by the normal Unix file system."
//
// The experiment reproduces the scenario exactly: the path prefix is warm
// (the root directory was just listed) but the target directory has not
// been accessed recently (its blocks were evicted).  An "open" is what
// open(2) does — resolve the final component, announce the open, and fetch
// the attributes.

// OpenIOResult is one row of the E3 table.
type OpenIOResult struct {
	CachesOn       bool
	UFSColdReads   uint64 // plain UFS, cold target directory
	FicusColdReads uint64 // Ficus stack, cold target directory
	UFSWarmReads   uint64 // plain UFS, directory recently accessed
	FicusWarmReads uint64 // Ficus stack, directory recently accessed
}

// ColdDelta is the headline number: extra I/Os Ficus pays on a cold-dir
// open (paper: 4).
func (r OpenIOResult) ColdDelta() int64 {
	return int64(r.FicusColdReads) - int64(r.UFSColdReads)
}

// WarmDelta is the warm-path overhead (paper: 0).
func (r OpenIOResult) WarmDelta() int64 {
	return int64(r.FicusWarmReads) - int64(r.UFSWarmReads)
}

// spacerInodes creates throwaway files in root until the used-inode count of
// plain UFS fs is a multiple of the inodes in one inode-table block, so that
// the interesting inode groups neither share a block with earlier activity
// (which would let one fetch warm another and distort the count) nor straddle
// a block boundary (which would add a read), and returns how many it made.
// UFS allocates the lowest free inode, and on the plain-UFS side nothing is
// ever freed, so the next inode is exactly the used count.
func spacerInodes(fs *ufs.FS, root vnode.Vnode, tag string) (int, error) {
	st, err := fs.Statfs()
	if err != nil {
		return 0, err
	}
	next := int(st.TotalInodes - st.FreeInodes)
	n := (ufs.InodesPerBlock - next%ufs.InodesPerBlock) % ufs.InodesPerBlock
	return n, spacers(root, tag, n)
}

// spacers creates n throwaway files in root.  The Ficus run creates as many as
// the plain-UFS run did at the same point, so both open the target in the same
// tree: the spacers sit in the root between the sibling and the target, and
// how many there are sets how much of the root's directory the cold lookup
// scans.  A Ficus spacer is two container members and two inodes, so the Ficus
// run pads its inode table past the sibling's block too, though not to a
// block boundary: the cold open's device reads (EXPERIMENTS.md E3) show which
// inode-table blocks it fetches.
func spacers(root vnode.Vnode, tag string, n int) error {
	for i := 0; i < n; i++ {
		if _, err := root.Create(fmt.Sprintf("spacer-%s-%03d", tag, i), true); err != nil {
			return err
		}
	}
	return nil
}

// openPath performs one open(2)-shaped access: resolve dir/name, announce
// the open, fetch attributes, close.
func openPath(root vnode.Vnode, dir, name string) error {
	d, err := root.Lookup(dir)
	if err != nil {
		return err
	}
	g, err := d.Lookup(name)
	if err != nil {
		return err
	}
	if err := g.Open(vnode.OpenRead); err != nil {
		return err
	}
	if _, err := g.Getattr(); err != nil {
		return err
	}
	return g.Close(vnode.OpenRead)
}

// ufsOpenIOs measures the plain-UFS side, returning the spacer counts it used
// before and after the target directory.
func ufsOpenIOs(cachesOn bool) (cold, warm uint64, pads [2]int, err error) {
	dev := disk.New(16384)
	opts := &ufs.Options{DisableCaches: !cachesOn}
	fs, err := ufs.Mkfs(dev, 4096, opts)
	if err != nil {
		return 0, 0, pads, err
	}
	root, err := ufsvn.New(fs).Root()
	if err != nil {
		return 0, 0, pads, err
	}
	// Sibling directory whose open warms the path prefix; spacer inodes
	// keep the interesting inodes out of the warmed inode-table blocks.
	sib, err := root.Mkdir("sibling")
	if err != nil {
		return 0, 0, pads, err
	}
	if _, err := sib.Create("file2", true); err != nil {
		return 0, 0, pads, err
	}
	if pads[0], err = spacerInodes(fs, root, "a"); err != nil {
		return 0, 0, pads, err
	}
	dir, err := root.Mkdir("dir")
	if err != nil {
		return 0, 0, pads, err
	}
	if pads[1], err = spacerInodes(fs, root, "b"); err != nil {
		return 0, 0, pads, err
	}
	f, err := dir.Create("file", true)
	if err != nil {
		return 0, 0, pads, err
	}
	if err := vnode.WriteFile(f, []byte("payload")); err != nil {
		return 0, 0, pads, err
	}

	open := func() error { return openPath(root, "dir", "file") }

	// "Non-recently accessed directory": flush everything, then open a
	// file in the SIBLING directory, which warms the path prefix (and the
	// sibling) but leaves the target directory cold.
	fs.FlushCaches()
	if err := openPath(root, "sibling", "file2"); err != nil {
		return 0, 0, pads, err
	}
	dev.ResetStats()
	if err := open(); err != nil {
		return 0, 0, pads, err
	}
	cold = dev.Stats().Reads

	// Recently accessed: repeat immediately.
	dev.ResetStats()
	if err := open(); err != nil {
		return 0, 0, pads, err
	}
	warm = dev.Stats().Reads
	return cold, warm, pads, nil
}

// ficusOpenIOs measures the Ficus stack (logical over a co-resident
// physical layer; the disk I/O count is the same with NFS interposed, which
// adds messages, not disk traffic) in the tree the plain-UFS run built, pads
// being its spacer counts.
func ficusOpenIOs(cachesOn bool, pads [2]int) (cold, warm uint64, err error) {
	dev := disk.New(16384)
	opts := &ufs.Options{DisableCaches: !cachesOn}
	fs, err := ufs.Mkfs(dev, 4096, opts)
	if err != nil {
		return 0, 0, err
	}
	phys, err := physical.Format(ufsvn.New(fs), ExpVol, 1)
	if err != nil {
		return 0, 0, err
	}
	// Caches off means every locality cache off: the UFS's, the logical
	// layer's resolution cache, and (flushed before each open below) the
	// physical layer's decoded directories.
	lay := logical.New(ExpVol, []logical.Replica{{ID: 1, FS: phys}}, logical.Options{DisableCache: !cachesOn})
	root, err := lay.Root()
	if err != nil {
		return 0, 0, err
	}
	// Sibling directory whose open warms the path prefix; spacer inodes
	// keep the interesting inodes out of the warmed inode-table blocks.
	sib, err := root.Mkdir("sibling")
	if err != nil {
		return 0, 0, err
	}
	if _, err := sib.Create("file2", true); err != nil {
		return 0, 0, err
	}
	if err := spacers(root, "a", pads[0]); err != nil {
		return 0, 0, err
	}
	dir, err := root.Mkdir("dir")
	if err != nil {
		return 0, 0, err
	}
	if err := spacers(root, "b", pads[1]); err != nil {
		return 0, 0, err
	}
	f, err := dir.Create("file", true)
	if err != nil {
		return 0, 0, err
	}
	if err := vnode.WriteFile(f, []byte("payload")); err != nil {
		return 0, 0, err
	}
	// Every commit of the root directory gives its contents file a fresh
	// inode — the lowest free one — so the last spacer above left it beside
	// the target's inodes, and the sibling open below, which reads the root,
	// would warm the target's inode-table block.  Pad to the next block and
	// commit the root once more so its contents file moves there.
	if _, err := spacerInodes(fs, root, "c"); err != nil {
		return 0, 0, err
	}
	if _, err := root.Create("last", true); err != nil {
		return 0, 0, err
	}

	open := func() error {
		if !cachesOn {
			phys.FlushCaches()
		}
		return openPath(root, "dir", "file")
	}

	// "Non-recently accessed directory": flush everything, then open a
	// file in the SIBLING directory, which warms the path prefix (and the
	// sibling) but leaves the target directory cold.
	fs.FlushCaches()
	phys.FlushCaches()
	if err := openPath(root, "sibling", "file2"); err != nil {
		return 0, 0, err
	}
	dev.ResetStats()
	if err := open(); err != nil {
		return 0, 0, err
	}
	cold = dev.Stats().Reads

	dev.ResetStats()
	if err := open(); err != nil {
		return 0, 0, err
	}
	warm = dev.Stats().Reads
	return cold, warm, nil
}

// OpenIOCounts runs the E3 measurement.
func OpenIOCounts(cachesOn bool) (OpenIOResult, error) {
	r := OpenIOResult{CachesOn: cachesOn}
	var err error
	var pads [2]int
	if r.UFSColdReads, r.UFSWarmReads, pads, err = ufsOpenIOs(cachesOn); err != nil {
		return r, err
	}
	if r.FicusColdReads, r.FicusWarmReads, err = ficusOpenIOs(cachesOn, pads); err != nil {
		return r, err
	}
	return r, nil
}
