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
	"repro/internal/wire"
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

	mu        sync.Mutex
	locks     map[string]*fileMutex       // per-file concurrency control, held or awaited
	idleLocks []*fileMutex                // released ones, for the next lockFile of another file
	clock     uint64                      // op counter driving cache expiry
	rcache    *lru.Cache[rcKey, rcEntry]  // resolved-vnode cache (the layer's DNLC)
	vnodes    *lru.Cache[string, *lvnode] // one logical vnode per path, handed out while no session holds it

	names *wire.Interner // the child paths and encoded opens and closes it renders
}

// cacheEntries bounds the resolution cache and the vnode table alike.
const cacheEntries = 4096

// rcacheTTL is how many layer operations a cached path resolution stays fresh
// for (Options.DisableCache).
const rcacheTTL = 128

// idleLockEntries bounds the released file locks a layer keeps for reuse.
const idleLockEntries = 16

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
	// DisableCache turns off the resolution cache, the logical layer's
	// DNLC: it keeps the vnodes the 1990 kernel would have held per open
	// file, so repeated access does not re-walk the replica stacks.  A
	// cached resolution stays fresh for rcacheTTL layer operations, and a
	// stale one self-heals: an operation on it fails retriably and triggers
	// a fresh resolution.
	DisableCache bool
}

// New builds the logical layer for volume vol over the given replicas
// (order is the FirstAvailable preference order; by convention a
// co-resident replica comes first).
func New(vol ids.VolumeHandle, replicas []Replica, opts Options) *Layer {
	ttl := uint64(rcacheTTL)
	if opts.DisableCache {
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
		rcache:   lru.New[rcKey, rcEntry](cacheEntries), // entries also age out by TTL
		vnodes:   lru.New[string, *lvnode](cacheEntries),
		names:    wire.NewInterner(internEntries),
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

// cachePut keeps what is known of vn if the entry it replaces holds vn too: the
// layers below hand out one vnode per copy, so a re-resolution that ages out
// finds the same one.
func (l *Layer) cachePut(path string, rep ids.ReplicaID, vn vnode.Vnode) {
	if l.cacheTTL == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := rcKey{path, rep}
	old, ok := l.rcache.Get(k)
	l.rcache.Put(k, rcEntry{vn: vn, stamp: l.clock, plain: ok && old.plain && old.vn == vn})
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
	return l.vnodeFor(""), nil
}

// vnodeFor is the vnode Root, a Lookup, a Create or a Mkdir hands out for
// path: the table's, unless a session holds that one, which then keeps it to
// itself and the walk gets a fresh vnode (DESIGN.md §3.1).
func (l *Layer) vnodeFor(path string) *lvnode {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.vnodes.Get(path)
	if ok && v.opens.Load() == 0 && v.pin.Load() == nil {
		return v
	}
	fresh := &lvnode{l: l, path: path}
	if !ok {
		l.vnodes.Put(path, fresh)
	}
	return fresh
}

// Sync is forwarded to every accessible replica.
func (l *Layer) Sync() error {
	for _, r := range l.replicas {
		_ = r.FS.Sync()
	}
	return nil
}

// lockFile takes the concurrency-control lock of a logical file; its entry goes
// with the last unlock, to be reused for another file.
func (l *Layer) lockFile(key string) *fileMutex {
	l.mu.Lock()
	m := l.locks[key]
	if m == nil {
		if n := len(l.idleLocks); n > 0 {
			m, l.idleLocks = l.idleLocks[n-1], l.idleLocks[:n-1]
		} else {
			m = &fileMutex{l: l}
		}
		m.key = key
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
		if len(m.l.idleLocks) < idleLockEntries { // nobody holds or awaits it now
			m.l.idleLocks = append(m.l.idleLocks, m)
		}
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

// internEntries bounds the strings a layer's interner holds: room for the
// paths of a thousand files and the open and close names of each under every
// mode it is opened with, before a new string empties it.
const internEntries = 8192

// encodeOpen renders the open/close-over-lookup string (§2.3) for name, whose
// length checkLogicalName has bounded, on the stack, and reads it back through
// the interner: the open or close of a file is made once, not per session.
func (l *Layer) encodeOpen(open bool, f vnode.OpenFlags, name string) string {
	var buf [physical.SubstrateMaxName]byte
	return l.names.Intern(physical.AppendOpenLookup(buf[:0], open, f, l.vol, name))
}

// childPath is the path of the child name of the directory at path, joined on
// the stack and read back through the interner like an encoded open.
func (l *Layer) childPath(path, name string) string {
	if path == "" {
		return name
	}
	var buf [physical.SubstrateMaxName]byte // a longer path spills to the heap
	return l.names.Intern(append(append(append(buf[:0], path...), '/'), name...))
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
