// Package logical implements the Ficus logical layer (paper §2.5): it
// "presents its clients (normally the Unix system call family) with the
// abstraction that each file has only a single copy, although it may
// actually have many physical replicas."
//
// The layer
//
//   - performs replica selection under the one-copy availability policy:
//     by default "select the most recent copy available", falling over to
//     any accessible replica — an update succeeds "if any copy of a file is
//     accessible" (§1);
//   - performs concurrency control on logical files;
//   - sends the asynchronous update notifications that feed the physical
//     layers' new-version caches (§3.2);
//   - ships open/close through the Lookup service so they survive the NFS
//     transport (§2.3), and consequently enforces the shortened name budget
//     of MaxName bytes per component;
//   - intercepts graft points during pathname translation and hands them to
//     the autograft hook (§4.4).
//
// Each replica is reached through the vnode interface; whether that path is
// a co-resident physical layer or an NFS client to a remote one is
// invisible here — the defining property of the stackable architecture.
package logical

import (
	"sync"

	"repro/internal/ids"
	"repro/internal/lru"
	"repro/internal/physical"
	"repro/internal/vnode"
)

// MaxName is the longest name component the logical layer accepts: the
// open/close-over-lookup encoding must fit the substrate's 255-byte name
// field, shrinking the client budget "from 255 to about 200" (§2.3 fn2).
const MaxName = physical.MaxEncodedName

// Replica is one physical replica of the volume, reached through a vnode
// stack (a co-resident *physical.Layer or an nfs.Client to a remote one).
type Replica struct {
	ID ids.ReplicaID
	FS vnode.VFS
}

// Policy selects among accessible replicas.
type Policy int

// Selection policies.
const (
	// MostRecent queries every accessible replica and picks the one whose
	// copy has seen the most updates — the paper's default one-copy
	// availability policy ("select the most recent copy available").
	MostRecent Policy = iota
	// FirstAvailable uses the first replica (in configuration order) that
	// answers.  Cheaper — no per-operation polling — at the cost of
	// possibly serving older data; used by the E5 ablation.
	FirstAvailable
)

// Notifier carries an update notification: file (in directory dirPath) has
// a new version at replica origin.  The host glue multicasts it to every
// other host storing a replica (§2.5: "an asynchronous multicast datagram
// is sent to all available replicas").
type Notifier func(dirPath []ids.FileID, file ids.FileID, origin ids.ReplicaID)

// GraftHook is invoked when pathname translation encounters a graft point;
// it returns the root vnode of the (auto)grafted volume (§4.4).  The hook
// receives the graft point's directory vnode on the selected replica so it
// can read the graft table entries.
type GraftHook func(target ids.VolumeHandle, graftPoint vnode.Vnode) (vnode.Vnode, error)

// Layer is one volume's logical layer as seen by one client host.
type Layer struct {
	vol      ids.VolumeHandle
	replicas []Replica
	policy   Policy
	notify   Notifier
	graft    GraftHook
	cacheTTL uint64

	mu     sync.Mutex
	locks  map[string]*fileMutex      // per-file concurrency control, held or awaited
	clock  uint64                     // op counter driving cache expiry
	rcache *lru.Cache[rcKey, rcEntry] // resolved-vnode cache (the layer's DNLC)
}

// fileMutex is one logical file's lock, kept while refs goroutines hold or await it.
type fileMutex struct {
	sync.Mutex
	l    *Layer
	key  string
	refs int // under l.mu
}

// rcKey addresses one (logical path, replica) resolution.
type rcKey struct {
	path string
	rep  ids.ReplicaID
}

type rcEntry struct {
	vn    vnode.Vnode
	stamp uint64
	plain bool // a Getattr of vn said it is no graft point, which its fid keeps (§4.3)
}

// Options configures a logical layer.
type Options struct {
	Policy Policy
	Notify Notifier  // nil: no notifications sent
	Graft  GraftHook // nil: graft points appear as ordinary directories
	// CacheTTLOps bounds how many layer operations a cached path
	// resolution stays fresh for (default 128; negative disables the
	// cache).  The cache is the logical layer's DNLC: it keeps the vnodes
	// the 1990 kernel would have held per open file, so repeated access
	// does not re-walk the replica stacks.  Stale entries self-heal: an
	// operation on a stale vnode fails retriably and triggers a fresh
	// resolution.
	CacheTTLOps int
}

// New builds the logical layer for volume vol over the given replicas
// (order is the FirstAvailable preference order; by convention a
// co-resident replica comes first).
func New(vol ids.VolumeHandle, replicas []Replica, opts Options) *Layer {
	ttl := uint64(128)
	if opts.CacheTTLOps > 0 {
		ttl = uint64(opts.CacheTTLOps)
	} else if opts.CacheTTLOps < 0 {
		ttl = 0
	}
	return &Layer{
		vol:      vol,
		replicas: replicas,
		policy:   opts.Policy,
		notify:   opts.Notify,
		graft:    opts.Graft,
		cacheTTL: ttl,
		locks:    make(map[string]*fileMutex),
		rcache:   lru.New[rcKey, rcEntry](4096), // entries also age out by TTL
	}
}

// tick advances the cache clock.
func (l *Layer) tick() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clock++
	return l.clock
}

func (l *Layer) cacheGet(path string, rep ids.ReplicaID) (vnode.Vnode, bool) {
	if l.cacheTTL == 0 {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.rcache.Get(rcKey{path, rep})
	if !ok || l.clock-e.stamp >= l.cacheTTL { // a stale entry waits for cachePut or eviction
		return nil, false
	}
	return e.vn, true
}

func (l *Layer) cachePut(path string, rep ids.ReplicaID, vn vnode.Vnode) {
	if l.cacheTTL == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rcache.Put(rcKey{path, rep}, rcEntry{vn: vn, stamp: l.clock})
}

// cachePlain reports whether vn is path's cached resolution on rep and known
// to be no graft point.
func (l *Layer) cachePlain(path string, rep ids.ReplicaID, vn vnode.Vnode) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.rcache.Get(rcKey{path, rep})
	return ok && e.plain && e.vn == vn
}

// cacheMarkPlain records that vn, if it is still path's cached resolution on
// rep, is no graft point; a cachePut of another vnode forgets it.
func (l *Layer) cacheMarkPlain(path string, rep ids.ReplicaID, vn vnode.Vnode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := rcKey{path, rep}
	if e, ok := l.rcache.Get(k); ok && e.vn == vn {
		e.plain = true
		l.rcache.Put(k, e)
	}
}

func (l *Layer) cacheDrop(path string, rep ids.ReplicaID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rcache.Drop(rcKey{path, rep})
}

// cacheDropSubtree evicts a path and everything beneath it on all replicas
// (used after renames and removals, whose descendants' resolutions all
// change).
func (l *Layer) cacheDropSubtree(path string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rcache.DropFunc(func(k rcKey, _ rcEntry) bool {
		return k.path == path || (len(k.path) > len(path) && k.path[:len(path)] == path && (path == "" || k.path[len(path)] == '/'))
	})
}

// Volume returns the volume this layer serves.
func (l *Layer) Volume() ids.VolumeHandle { return l.vol }

// Replicas returns the replica set (for inspection).
func (l *Layer) Replicas() []Replica { return append([]Replica(nil), l.replicas...) }

// Root returns the one-copy root vnode.
func (l *Layer) Root() (vnode.Vnode, error) {
	return &lvnode{l: l}, nil
}

// Sync is forwarded to every accessible replica.
func (l *Layer) Sync() error {
	for _, r := range l.replicas {
		_ = r.FS.Sync()
	}
	return nil
}

// lockFile takes the concurrency-control lock of a logical file; its entry goes with the last unlock.
func (l *Layer) lockFile(key string) *fileMutex {
	l.mu.Lock()
	m := l.locks[key]
	if m == nil {
		m = &fileMutex{l: l, key: key}
		l.locks[key] = m
	}
	m.refs++
	l.mu.Unlock()
	m.Lock()
	return m
}

func (m *fileMutex) unlock() {
	m.Unlock()
	m.l.mu.Lock()
	if m.refs--; m.refs == 0 {
		delete(m.l.locks, m.key)
	}
	m.l.mu.Unlock()
}

// sendNotify emits an update notification if configured.
func (l *Layer) sendNotify(handle string, origin ids.ReplicaID) {
	if l.notify == nil {
		return
	}
	_, dirPath, fid, err := physical.ParseHandle(handle)
	if err != nil {
		return
	}
	l.notify(dirPath, fid, origin)
}

// encodeOpen renders the open/close-over-lookup string (§2.3).
func encodeOpen(open bool, f vnode.OpenFlags, issuer ids.VolumeHandle, name string) string {
	return physical.EncodeOpenLookup(open, f, issuer, name)
}

// retriable reports whether an error on one replica justifies trying the
// next one: the replica is unreachable, or does not store the file.
func retriable(err error) bool {
	switch vnode.AsErrno(err) {
	case vnode.EUNAVAIL, vnode.ENOSTOR, vnode.ESTALE:
		return true
	}
	return false
}
