// Package ufs implements the Unix file system substrate that the Ficus
// physical layer stores file replicas in (paper §2.1, §2.6).  It is an
// inode-based file system on a simulated block device (internal/disk) with
// the three caches whose behaviour the paper's performance argument depends
// on: a buffer (block) cache, an inode cache, and a directory name lookup
// cache (DNLC).  Every cache can be disabled or flushed so experiment E3
// can measure cold-path and warm-path disk I/O counts exactly.
//
// The on-disk layout is conventional:
//
//	block 0              superblock
//	inode bitmap         1 bit per inode
//	block bitmap         1 bit per block
//	inode table          128-byte inodes, 32 per block
//	data blocks          file contents, directories, indirect blocks
//
// Files address data through 10 direct pointers, one single-indirect and
// one double-indirect block.  Directories are arrays of fixed 272-byte
// slots (15 per block) holding <inode, name> pairs, scanned linearly as in
// the historical UFS.
package ufs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/disk"
)

// Geometry constants.
const (
	// BlockSize re-exports the device block size.
	BlockSize = disk.BlockSize
	// NDirect is the number of direct block pointers per inode.
	NDirect = 10
	// PtrsPerBlock is the number of block pointers in an indirect block.
	PtrsPerBlock = BlockSize / 4
	// InodeSize is the on-disk inode size in bytes.
	InodeSize = 128
	// InodesPerBlock is derived from InodeSize.
	InodesPerBlock = BlockSize / InodeSize
	// MaxNameLen is the longest directory entry name, as in 4.2BSD.  The
	// Ficus open/close-over-lookup encoding (paper §2.3) consumes part of
	// this budget; experiment E7 quantifies how much.
	MaxNameLen = 255
	// dirSlotSize is the fixed size of one directory slot.
	dirSlotSize = 272
	// dirSlotsPerBlock is how many slots fit a block.
	dirSlotsPerBlock = BlockSize / dirSlotSize
	// MaxFileBlocks is the largest file in blocks.
	MaxFileBlocks = NDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

	magic     = 0xf1c05001
	rootIno   = 1
	sbBlock   = 0
	inoLength = 4 // bytes of an on-disk inode number
)

// Ino is an inode number.  0 is never a valid inode.
type Ino uint32

// FileType distinguishes inode kinds.
type FileType uint16

// Inode kinds.
const (
	TypeFree FileType = iota
	TypeFile
	TypeDir
	TypeSymlink
)

// String names the type.
func (t FileType) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("FileType(%d)", uint16(t))
	}
}

// Errors returned by the file system.
var (
	ErrNotExist     = errors.New("ufs: no such file or directory")
	ErrExist        = errors.New("ufs: file exists")
	ErrNotDir       = errors.New("ufs: not a directory")
	ErrIsDir        = errors.New("ufs: is a directory")
	ErrNotEmpty     = errors.New("ufs: directory not empty")
	ErrNameTooLong  = errors.New("ufs: name too long")
	ErrInvalidName  = errors.New("ufs: invalid name")
	ErrNoSpace      = errors.New("ufs: no space on device")
	ErrNoInodes     = errors.New("ufs: out of inodes")
	ErrFileTooBig   = errors.New("ufs: file too large")
	ErrBadInode     = errors.New("ufs: bad inode")
	ErrNotSymlink   = errors.New("ufs: not a symlink")
	ErrNotMounted   = errors.New("ufs: not a ufs filesystem (bad magic)")
	ErrCrossDevice  = errors.New("ufs: cross-device link")
	ErrDirLoop      = errors.New("ufs: operation would orphan directory")
	ErrLinkedDir    = errors.New("ufs: hard link to directory not permitted")
	ErrInvalidWhere = errors.New("ufs: negative offset")
)

// superblock describes the layout; persisted in block 0.
type superblock struct {
	Magic        uint32
	NBlocks      uint32
	NInodes      uint32
	InoBmapStart uint32
	InoBmapLen   uint32
	BlkBmapStart uint32
	BlkBmapLen   uint32
	ITableStart  uint32
	ITableLen    uint32
	DataStart    uint32
}

func (sb *superblock) encode(p []byte) {
	binary.BigEndian.PutUint32(p[0:], sb.Magic)
	binary.BigEndian.PutUint32(p[4:], sb.NBlocks)
	binary.BigEndian.PutUint32(p[8:], sb.NInodes)
	binary.BigEndian.PutUint32(p[12:], sb.InoBmapStart)
	binary.BigEndian.PutUint32(p[16:], sb.InoBmapLen)
	binary.BigEndian.PutUint32(p[20:], sb.BlkBmapStart)
	binary.BigEndian.PutUint32(p[24:], sb.BlkBmapLen)
	binary.BigEndian.PutUint32(p[28:], sb.ITableStart)
	binary.BigEndian.PutUint32(p[32:], sb.ITableLen)
	binary.BigEndian.PutUint32(p[36:], sb.DataStart)
}

func (sb *superblock) decode(p []byte) {
	sb.Magic = binary.BigEndian.Uint32(p[0:])
	sb.NBlocks = binary.BigEndian.Uint32(p[4:])
	sb.NInodes = binary.BigEndian.Uint32(p[8:])
	sb.InoBmapStart = binary.BigEndian.Uint32(p[12:])
	sb.InoBmapLen = binary.BigEndian.Uint32(p[16:])
	sb.BlkBmapStart = binary.BigEndian.Uint32(p[20:])
	sb.BlkBmapLen = binary.BigEndian.Uint32(p[24:])
	sb.ITableStart = binary.BigEndian.Uint32(p[28:])
	sb.ITableLen = binary.BigEndian.Uint32(p[32:])
	sb.DataStart = binary.BigEndian.Uint32(p[36:])
}

// FS is a mounted Unix file system.  All exported methods are safe for
// concurrent use; a single lock serializes operations, which is faithful
// enough for a simulator whose costs are counted in disk I/Os.
type FS struct {
	mu    sync.Mutex
	dev   *disk.Device
	sb    superblock
	bc    *bufferCache
	st    *stage // what the current call has changed (stage.go)
	ic    *inodeCache
	dnlc  *nameCache
	rotor uint32 // next-fit hint for block allocation
	clock uint64 // logical time for mtime/ctime

	inoMap, blkMap bitmap // the two allocation bitmaps
}

// Options tunes cache sizes and enablement at mount time.
type Options struct {
	// BufferCacheBlocks is the buffer cache capacity (0 means default 256).
	BufferCacheBlocks int
	// InodeCacheEntries is the inode cache capacity (0 means default 256).
	InodeCacheEntries int
	// DNLCEntries is the name cache capacity (0 means default 512).
	DNLCEntries int
	// DisableCaches turns all three caches off; every access hits the
	// device.  Used by the E3 ablation reproducing the AFS-prototype
	// failure mode the paper cites (§2.6).
	DisableCaches bool
}

func (o *Options) withDefaults() Options {
	v := Options{BufferCacheBlocks: 256, InodeCacheEntries: 256, DNLCEntries: 512}
	if o == nil {
		return v
	}
	if o.BufferCacheBlocks > 0 {
		v.BufferCacheBlocks = o.BufferCacheBlocks
	}
	if o.InodeCacheEntries > 0 {
		v.InodeCacheEntries = o.InodeCacheEntries
	}
	if o.DNLCEntries > 0 {
		v.DNLCEntries = o.DNLCEntries
	}
	v.DisableCaches = o.DisableCaches
	return v
}

// Mkfs formats the device with room for at least ninodes inodes and mounts
// the resulting empty file system.  The root directory is created as inode 1.
func Mkfs(dev *disk.Device, ninodes int, opts *Options) (*FS, error) {
	if ninodes < 16 {
		ninodes = 16
	}
	nblocks := dev.Blocks()
	inoBmapLen := (ninodes + BlockSize*8 - 1) / (BlockSize * 8)
	blkBmapLen := (nblocks + BlockSize*8 - 1) / (BlockSize * 8)
	itableLen := (ninodes + InodesPerBlock - 1) / InodesPerBlock
	dataStart := 1 + inoBmapLen + blkBmapLen + itableLen
	if dataStart+8 > nblocks {
		return nil, fmt.Errorf("ufs: device too small: %d blocks, need > %d", nblocks, dataStart+8)
	}
	sb := superblock{
		Magic:        magic,
		NBlocks:      uint32(nblocks),
		NInodes:      uint32(ninodes),
		InoBmapStart: 1,
		InoBmapLen:   uint32(inoBmapLen),
		BlkBmapStart: uint32(1 + inoBmapLen),
		BlkBmapLen:   uint32(blkBmapLen),
		ITableStart:  uint32(1 + inoBmapLen + blkBmapLen),
		ITableLen:    uint32(itableLen),
		DataStart:    uint32(dataStart),
	}
	blk := make([]byte, BlockSize)
	sb.encode(blk)
	if err := dev.Write(sbBlock, blk); err != nil {
		return nil, err
	}
	// Zero the metadata region.
	zero := make([]byte, BlockSize)
	for bn := 1; bn < dataStart; bn++ {
		if err := dev.Write(bn, zero); err != nil {
			return nil, err
		}
	}
	fs := newFS(dev, sb, opts)
	// Mark the metadata blocks (and block 0) allocated in the block bitmap.
	for bn := 0; bn < dataStart; bn++ {
		if err := fs.blkMap.set(uint32(bn), true); err != nil {
			return nil, err
		}
	}
	// Inode 0 is reserved/invalid.
	if err := fs.inoMap.set(0, true); err != nil {
		return nil, err
	}
	// Create the root directory.
	ino, err := fs.iallocLocked(TypeDir)
	if err != nil {
		return nil, err
	}
	if ino != rootIno {
		return nil, fmt.Errorf("ufs: mkfs: root allocated as inode %d", ino)
	}
	if err := fs.dirInitLocked(ino, ino); err != nil {
		return nil, err
	}
	if err := fs.flushLocked(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount attaches to a device previously formatted with Mkfs.
func Mount(dev *disk.Device, opts *Options) (*FS, error) {
	blk := make([]byte, BlockSize)
	if err := dev.Read(sbBlock, blk); err != nil {
		return nil, err
	}
	var sb superblock
	sb.decode(blk)
	if sb.Magic != magic {
		return nil, ErrNotMounted
	}
	if int(sb.NBlocks) != dev.Blocks() {
		return nil, fmt.Errorf("ufs: superblock says %d blocks, device has %d", sb.NBlocks, dev.Blocks())
	}
	if uint64(sb.NInodes) > uint64(sb.InoBmapLen)*bitsPerBlock || uint64(sb.NBlocks) > uint64(sb.BlkBmapLen)*bitsPerBlock {
		return nil, fmt.Errorf("ufs: superblock bitmaps too short for %d inodes, %d blocks", sb.NInodes, sb.NBlocks)
	}
	fs := newFS(dev, sb, opts)
	if err := fs.Recover(); err != nil {
		return nil, fmt.Errorf("ufs: crash recovery: %w", err)
	}
	return fs, nil
}

func newFS(dev *disk.Device, sb superblock, opts *Options) *FS {
	o := opts.withDefaults()
	fs := &FS{
		dev:  dev,
		sb:   sb,
		bc:   newBufferCache(dev, o.BufferCacheBlocks, !o.DisableCaches),
		dnlc: newNameCache(o.DNLCEntries, !o.DisableCaches),
	}
	fs.st = newStage(fs.bc, sb.DataStart)
	fs.ic = newInodeCache(fs, o.InodeCacheEntries, !o.DisableCaches)
	fs.inoMap = bitmap{st: fs.st, start: sb.InoBmapStart, n: sb.NInodes}
	fs.blkMap = bitmap{st: fs.st, start: sb.BlkBmapStart, n: sb.NBlocks}
	fs.rotor = sb.DataStart
	return fs
}

// Root returns the root directory inode.
func (fs *FS) Root() Ino { return rootIno }

// Device returns the underlying block device (for I/O accounting).
func (fs *FS) Device() *disk.Device { return fs.dev }

// FlushCaches empties all caches without losing data (the buffer cache is
// write-through).  Experiments call this to construct a cold-cache state.
func (fs *FS) FlushCaches() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.bc.flush()
	fs.ic.flush()
	fs.dnlc.flush()
}

// SetCachesEnabled enables or disables all caches at once; disabling also
// flushes.
func (fs *FS) SetCachesEnabled(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.bc.setEnabled(on)
	fs.ic.setEnabled(on)
	fs.dnlc.setEnabled(on)
}

// CacheStats reports hit/miss counters for the three caches.
type CacheStats struct {
	BufferHits, BufferMisses uint64
	InodeHits, InodeMisses   uint64
	NameHits, NameMisses     uint64
}

// CacheStats returns a snapshot of cache counters.
func (fs *FS) CacheStats() CacheStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return CacheStats{
		BufferHits: fs.bc.hits, BufferMisses: fs.bc.misses,
		InodeHits: fs.ic.hits, InodeMisses: fs.ic.misses,
		NameHits: fs.dnlc.hits, NameMisses: fs.dnlc.misses,
	}
}

func (fs *FS) tick() uint64 {
	fs.clock++
	return fs.clock
}

func validName(name string) error {
	if name == "" || name == "." || name == ".." {
		return ErrInvalidName
	}
	if len(name) > MaxNameLen {
		return ErrNameTooLong
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return ErrInvalidName
		}
	}
	return nil
}
