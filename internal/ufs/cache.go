package ufs

import (
	"hash/crc32"

	"repro/internal/disk"
	"repro/internal/invariant"
	"repro/internal/lru"
	"repro/internal/wire"
)

// cache is what the three UFS caches share: the one LRU (internal/lru), a
// switch set at Mkfs or Mount (Options.DisableCaches), and hit/miss counters.  While it is off every get misses without
// being counted and put keeps nothing, so experiment E3's cache-off row
// sees every access reach the device and CacheStats stays at zero.
type cache[K comparable, V any] struct {
	lru     *lru.Cache[K, V]
	enabled bool
	hits    uint64
	misses  uint64
}

func newCache[K comparable, V any](capacity int, enabled bool) cache[K, V] {
	return cache[K, V]{lru: lru.New[K, V](capacity), enabled: enabled}
}

func (c *cache[K, V]) flush() { c.lru.Flush() }

func (c *cache[K, V]) get(k K) (V, bool) {
	if !c.enabled {
		var zero V
		return zero, false
	}
	v, ok := c.lru.Get(k)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

func (c *cache[K, V]) put(k K, v V) {
	if c.enabled {
		c.lru.Put(k, v)
	}
}

func (c *cache[K, V]) drop(k K) { c.lru.Drop(k) }

// bufferCache is a write-through LRU block cache: what it holds is on the
// device (a call's metadata waits in its stage, stage.go, until the call's
// end), while the read path gets the locality wins the paper's dual-mapping
// design relies on (§2.6).
//
// One rule makes it copy-free: a block in the cache is never written to, and
// a block it lends is valid until the call that borrowed it releases fs.mu.
// read lends the cached slice itself, so a reader may only look; a caller
// that means to change a block takes a private copy first (clone) and hands
// it to write, which takes ownership — the caller must not touch the buffer
// again.  Every exported call runs under fs.mu and none returns a lent slice
// (readAtLocked copies out, a scan makes the names it keeps strings), so no
// lent slice outlives its call.
//
// That bound is what lets the cache reuse its blocks, as a BSD getblk reuses
// the least recently used buffer.  Every block it fills comes from the tree's
// one buffer pool (wire.GetBuf).  A block the cache lets go of — replaced by
// a newer write of its number, evicted, dropped after a failed write or when
// the call frees it, or not kept because caching is off — and a staged block
// a call frees unwritten are retired; endCallLocked returns the retired
// blocks to the pool (wire.PutBuf) as the call ends.  A read-only call's
// retirees wait for the next mutating call's end, which fs.mu orders after
// it.  At most the cache's capacity of blocks wait; zeroBlock is never
// retired.
//
// Both halves are checked under FICUS_INVARIANTS: each block is cached with a
// checksum, compared on every hit and as the block is displaced; and the pool
// poisons a block it takes back and checks the poison intact when it lends
// the block again, so a write through a slice kept past its call is caught,
// and a read through one reads poison.
type bufferCache struct {
	cache[uint32, cachedBlock]
	dev     *disk.Device
	checked bool

	retired [][]byte // let go of since the last call's end; at most its capacity, the cache's
}

// cachedBlock is a block, its number and, in a checked cache, its checksum
// as cached.
type cachedBlock struct {
	data []byte
	bn   uint32
	sum  uint32
}

func newBufferCache(dev *disk.Device, capacity int, enabled bool) *bufferCache {
	return &bufferCache{
		cache: newCache[uint32, cachedBlock](capacity, enabled),
		dev:   dev, checked: invariant.Enabled(), retired: make([][]byte, 0, capacity),
	}
}

func (c *bufferCache) checkUnwritten(b cachedBlock) {
	if c.checked {
		invariant.Checkf(b.sum == crc32.ChecksumIEEE(b.data), "ufs: cached block %d was written to while lent", b.bn)
	}
}

// read lends block bn, from the cache or, on a miss, from the device through
// it.  The caller must not write to the slice, nor use it after its call.
func (c *bufferCache) read(bn uint32) ([]byte, error) {
	if b, ok := c.get(bn); ok {
		c.checkUnwritten(b)
		return b.data, nil
	}
	p := c.take()
	if err := c.dev.Read(int(bn), p); err != nil {
		c.retire(p)
		return nil, err
	}
	c.insert(bn, p)
	return p, nil
}

// write stores data as block bn, writing through to the device, and takes
// ownership of data.  A failed write leaves data with the caller.
func (c *bufferCache) write(bn uint32, data []byte) error {
	if err := c.dev.Write(int(bn), data); err != nil {
		// Failed writes must not populate the cache: the bytes never
		// reached the device, and serving them later would hide the crash.
		c.drop(bn)
		return err
	}
	c.insert(bn, data)
	return nil
}

// drop forgets block bn, retiring what the cache held.
func (c *bufferCache) drop(bn uint32) {
	if old, ok := c.lru.Drop(bn); ok {
		c.letGo(old)
	}
}

// insert caches data itself as block bn.
func (c *bufferCache) insert(bn uint32, data []byte) {
	if !c.enabled {
		c.retire(data)
		return
	}
	b := cachedBlock{data: data, bn: bn}
	if c.checked {
		b.sum = crc32.ChecksumIEEE(data)
	}
	if old, ok := c.lru.Put(bn, b); ok {
		c.letGo(old)
	}
}

// letGo retires a block the cache held, checking it was not written to.
func (c *bufferCache) letGo(b cachedBlock) {
	c.checkUnwritten(b)
	c.retire(b.data)
}

// take returns a block from the pool for the caller to fill.  What it holds
// is garbage.
func (c *bufferCache) take() []byte { return wire.GetBuf(BlockSize)[:BlockSize] }

// clone returns a block from take holding a copy of src.
func (c *bufferCache) clone(src []byte) []byte {
	b := c.take()
	copy(b, src)
	return b
}

// retire lets go of b; it goes back to the pool when the call ends (recycle).
func (c *bufferCache) retire(b []byte) {
	if &b[0] != &zeroBlock[0] && len(c.retired) < cap(c.retired) {
		c.retired = append(c.retired, b)
	}
}

// recycle returns the retired blocks to the pool.  endCallLocked calls it
// just before it releases fs.mu, when no slice lent before can be used any
// more.
func (c *bufferCache) recycle() {
	for i, b := range c.retired {
		wire.PutBuf(b)
		c.retired[i] = nil
	}
	c.retired = c.retired[:0]
}

// inodeCache holds decoded inodes.  Because it sits above the buffer cache
// its effect on disk I/O is indirect, but it models the "Ficus directory
// inode ... must be loaded" accounting of paper §6 and lets experiments
// separate decode hits from block hits.
type inodeCache struct {
	cache[Ino, dinode]
	fs *FS
}

func newInodeCache(fs *FS, capacity int, enabled bool) *inodeCache {
	return &inodeCache{cache: newCache[Ino, dinode](capacity, enabled), fs: fs}
}

// get reads through: a miss decodes the inode from its table block.
func (c *inodeCache) get(ino Ino) (dinode, error) {
	if din, ok := c.cache.get(ino); ok {
		return din, nil
	}
	din, err := c.fs.readInodeFromDisk(ino)
	if err != nil {
		return dinode{}, err
	}
	c.put(ino, din)
	return din, nil
}

// nameCache is the directory name lookup cache (DNLC).  An entry maps
// (directory inode, component name) to the child inode and the slot that
// holds the name (ncEntry), so a call that finds a name rewrites its slot
// without walking the directory (dirFindLocked).  The slot is written with
// its entry: a repointed slot replaces it, a freed one drops it.  There are no
// negative entries: a name not there is found absent by a walk, which also
// finds the slot an add of it takes.
type nameCache struct {
	cache[ncKey, ncEntry]
}

type ncKey struct {
	dir  Ino
	name string
}

type ncEntry struct {
	ino  Ino
	slot uint64
}

func newNameCache(capacity int, enabled bool) *nameCache {
	return &nameCache{newCache[ncKey, ncEntry](capacity, enabled)}
}

// dropDir removes every entry under a directory (used by rmdir of the
// directory itself, where its children entries are already gone).
func (c *nameCache) dropDir(dir Ino) {
	c.lru.DropFunc(func(k ncKey, e ncEntry) bool { return k.dir == dir || e.ino == dir })
}
