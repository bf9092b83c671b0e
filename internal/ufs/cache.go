package ufs

import (
	"repro/internal/disk"
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

// bufferCache is a write-through LRU block cache.  Write-through keeps
// crash semantics trivial (every completed write is on the device) while
// still giving the read-path locality wins the paper's dual-mapping design
// relies on (§2.6).
type bufferCache struct {
	cache[uint32, []byte]
	dev *disk.Device
}

func newBufferCache(dev *disk.Device, capacity int, enabled bool) *bufferCache {
	return &bufferCache{cache: newCache[uint32, []byte](capacity, enabled), dev: dev}
}

// read returns a copy of block bn, consulting the cache first.
func (c *bufferCache) read(bn uint32) ([]byte, error) {
	p := make([]byte, BlockSize)
	if data, ok := c.get(bn); ok {
		copy(p, data)
		return p, nil
	}
	if err := c.dev.Read(int(bn), p); err != nil {
		return nil, err
	}
	c.insert(bn, p)
	return p, nil
}

// write stores data as block bn, writing through to the device.
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

// insert caches a private copy of data, so the caller may keep writing to
// its buffer.
func (c *bufferCache) insert(bn uint32, data []byte) {
	if !c.enabled {
		return
	}
	cp := make([]byte, BlockSize)
	copy(cp, data)
	c.put(bn, cp)
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
