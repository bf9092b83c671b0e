package ufs

import (
	"hash/crc32"

	"repro/internal/disk"
	"repro/internal/invariant"
	"repro/internal/lru"
)

// cache is what the three UFS caches share: the one LRU (internal/lru), a
// switch, and hit/miss counters.  While it is off every get misses without
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

func (c *cache[K, V]) setEnabled(on bool) {
	c.enabled = on
	if !on {
		c.flush()
	}
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
// One rule makes it copy-free: a block in the cache is never written to.
// read lends the cached slice itself, so a reader may only look; a caller
// that means to change a block takes a private copy first (bytes.Clone at the
// read-modify-write sites) and hands it to write, which takes ownership — the
// caller must not touch the buffer again.  A lent slice therefore stays a
// faithful snapshot of the block as it was read, even after the block is
// rewritten or evicted.  Mutating cached blocks in place would save the copy
// but make every slice a reader holds change under it; the rule that would
// replace this one (who may hold what across which call) is neither as short
// nor checkable.  This one is checked in a cache made under FICUS_INVARIANTS:
// each block is cached with a checksum, compared on every hit and before the
// block is replaced or evicted.
type bufferCache struct {
	cache[uint32, cachedBlock]
	dev     *disk.Device
	checked bool
}

// cachedBlock is a block and, in a checked cache, its checksum as cached.
type cachedBlock struct {
	data []byte
	sum  uint32
}

func newBufferCache(dev *disk.Device, capacity int, enabled bool) *bufferCache {
	return &bufferCache{cache: newCache[uint32, cachedBlock](capacity, enabled), dev: dev, checked: invariant.Enabled()}
}

func (c *bufferCache) checkUnwritten(bn uint32, b cachedBlock) {
	if c.checked {
		invariant.Checkf(b.sum == crc32.ChecksumIEEE(b.data), "ufs: cached block %d was written to while lent", bn)
	}
}

// read lends block bn, from the cache or, on a miss, from the device through
// it.  The caller must not write to the slice.
func (c *bufferCache) read(bn uint32) ([]byte, error) {
	if b, ok := c.get(bn); ok {
		c.checkUnwritten(bn, b)
		return b.data, nil
	}
	p := make([]byte, BlockSize)
	if err := c.dev.Read(int(bn), p); err != nil {
		return nil, err
	}
	c.insert(bn, p)
	return p, nil
}

// write stores data as block bn, writing through to the device, and takes
// ownership of data.
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

// insert caches data itself as block bn.
func (c *bufferCache) insert(bn uint32, data []byte) {
	if !c.enabled {
		return
	}
	b := cachedBlock{data: data}
	if c.checked {
		// The put replaces block bn or may evict the coldest one, the last a
		// walk visits: check both while they are still here.
		var coldest uint32
		var cold cachedBlock
		c.lru.DropFunc(func(k uint32, old cachedBlock) bool {
			if k == bn {
				c.checkUnwritten(k, old)
			}
			coldest, cold = k, old
			return false
		})
		c.checkUnwritten(coldest, cold)
		b.sum = crc32.ChecksumIEEE(data)
	}
	c.put(bn, b)
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

// nameCache is the directory name lookup cache (DNLC).  Entries map
// (directory inode, component name) to the child inode and are invalidated
// on unlink/rename/rmdir of that name.
type nameCache struct {
	cache[ncKey, Ino]
}

type ncKey struct {
	dir  Ino
	name string
}

func newNameCache(capacity int, enabled bool) *nameCache {
	return &nameCache{newCache[ncKey, Ino](capacity, enabled)}
}

// dropDir removes every entry under a directory (used by rmdir of the
// directory itself, where its children entries are already gone).
func (c *nameCache) dropDir(dir Ino) {
	c.lru.DropFunc(func(k ncKey, child Ino) bool { return k.dir == dir || child == dir })
}
