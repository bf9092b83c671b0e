// Package physical implements the Ficus physical layer (paper §2.6, §3):
// the concept of a file replica.  One Layer manages one volume replica and
// stores every Ficus file replica in it as UFS files reached through the
// vnode interface, exactly as the paper prescribes:
//
//   - Each file replica is a UFS file plus an auxiliary file holding the
//     replication attributes (version vector, type, link count) that would
//     live in the inode "if we were to modify the UFS".
//
//   - Ficus directories are stored as UFS *files*, not UFS directories.  A
//     Ficus directory entry maps a name to a Ficus file handle, which is
//     then mapped to UFS storage by encoding the handle as a hexadecimal
//     string used as a UFS name (the dual mapping of §2.6).
//
//   - The on-disk organization closely parallels the logical name space —
//     each Ficus directory owns a UFS directory container holding its
//     entries file, its children's data and auxiliary files, and its child
//     directories' containers — so the UFS caches keep exploiting the
//     locality of reference the paper's performance argument rests on.
//
// The layer also implements the update-side machinery of §3.2: version
// vectors bumped on every local mutation, a new-version cache fed by update
// notifications, a single-file atomic commit (shadow file + atomic rename)
// used by update propagation, and a conflict log where concurrent file
// updates are "detected and reported to the owner".
package physical

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/lru"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// UFS names inside a directory container.
const (
	dirFileName  = "dir"  // the Ficus directory contents file
	dirAttrName  = "attr" // the directory's own auxiliary attribute file
	metaFileName = "meta" // volume-replica metadata, at the store root only
)

// Container-member name prefixes; the rest of the name is the hexadecimal
// file id (the paper's "encoding the Ficus file handle into a hexadecimal
// string used by the UFS as a pathname").
const (
	prefixDir    = "D" // child directory container (UFS directory)
	prefixData   = "F" // child file data (UFS file)
	prefixAux    = "A" // child file auxiliary attributes and seal (UFS file)
	suffixShadow = ".shadow"
)

// memberName is the container member prefix names for file id fid, built in
// one allocation.
func memberName(prefix string, fid ids.FileID) string {
	var b [1 + ids.FileIDLen]byte
	return string(ids.AppendFileID(append(b[:0], prefix...), fid))
}

// idBatch is how many ids one commit of meta reserves: meta records a
// high-water mark this far ahead of the sequencer and is rewritten only when
// the sequencer reaches it, so a crash skips at most idBatch ids and never
// reissues one.
const idBatch = 64

// Errors specific to the physical layer.
var (
	// ErrNotStored reports a directory entry whose file this volume replica
	// does not store ("a volume replica ... need not store a replica of any
	// particular file", §4.1).  The logical layer reacts by trying another
	// replica.
	ErrNotStored = errors.New("physical: file not stored in this volume replica")
	// ErrNotFicus reports a store that has no volume-replica metadata.
	ErrNotFicus = errors.New("physical: store holds no ficus volume replica")
)

// Layer is one volume replica's physical layer.
type Layer struct {
	mu      sync.Mutex
	store   vnode.VFS
	root    vnode.Vnode // store root (holds meta + root container)
	vol     ids.VolumeHandle
	replica ids.ReplicaID
	seq     *ids.Sequencer
	idHigh  uint64 // sequence numbers up to here are reserved in meta

	nvc        map[nvcKey]NewVersion
	conflicts  []Conflict
	opens      map[ids.FileID]int
	openTotal  uint64
	daemonTick uint64 // virtual clock, one tick per propagation pass

	// Integrity state (sidecar.go, quarantine.go, scrub.go).  The quarantine
	// set is in-memory only: after a restart the scrubber re-detects what is
	// still corrupt, so durability would buy nothing.
	quar  map[ids.FileID]bool
	integ IntegrityStats

	bstats BlockStats // delta propagation counters (pull.go)

	conts *lru.Cache[string, vnode.Vnode] // fid path → the directory's container (dircache.go)
	dirs  *lru.Cache[string, *dirImage]   // container's store handle → the directory, decoded
	auxs  *lru.Cache[string, auxEntry]    // aux member's store handle → its attributes, decoded

	rootv  *pvnode                       // the volume root's vnode (Root)
	vnodes *lru.Cache[vnodeKey, *pvnode] // a node → its one vnode, identity only (pvnode.go)
}

type nvcKey struct {
	file ids.FileID
}

// NewVersion is one new-version cache entry: a remote replica announced a
// newer version of file; the propagation daemon may fetch it from Origin.
type NewVersion struct {
	File   ids.FileID
	Dir    []ids.FileID // fid path of the containing directory from the root
	Origin ids.ReplicaID
	Seen   int // how many times re-announced (bursty updates coalesce here)

	// Retry bookkeeping kept by the propagation daemon: a flapping or
	// partitioned origin degrades gracefully instead of being polled on
	// every pass.
	Attempts  int    // failed propagation attempts so far
	NotBefore uint64 // earliest daemon tick for the next attempt (backoff)
}

// Conflict is a detected concurrent-update conflict on a regular file,
// recorded for the owner (paper: "conflicting updates to ordinary files are
// detected and reported to the owner").
type Conflict struct {
	File     ids.FileID
	Dir      []ids.FileID
	LocalVV  vv.Vector
	RemoteVV vv.Vector
	Remote   ids.ReplicaID
	Note     string
}

// Format initializes a fresh volume replica on an empty store and returns
// its layer.  The root directory (well-known file id) is created; every
// volume replica must store the root (§4.1).
func Format(store vnode.VFS, vol ids.VolumeHandle, replica ids.ReplicaID) (*Layer, error) {
	root, err := store.Root()
	if err != nil {
		return nil, err
	}
	l := &Layer{
		store:   store,
		root:    root,
		vol:     vol,
		replica: replica,
		seq:     ids.NewSequencer(replica, 2),
		nvc:     make(map[nvcKey]NewVersion),
		opens:   make(map[ids.FileID]int),
		quar:    make(map[ids.FileID]bool),
		conts:   lru.New[string, vnode.Vnode](contCacheSize),
		dirs:    lru.New[string, *dirImage](dirCacheSize),
		auxs:    lru.New[string, auxEntry](auxCacheSize),
		vnodes:  lru.New[vnodeKey, *pvnode](vnodeTableSize),
	}
	l.rootv = l.newPvnode(KDir, nil, ids.RootFileID)
	if err := l.writeMetaLocked(l.seq.Last()); err != nil {
		return nil, err
	}
	// The fresh root has performed no updates: an empty version vector.
	// (A creation bump here would make a newly added replica's root look
	// more recent than its seed after the histories merge.)
	if err := l.newContainerLocked(root, ids.RootFileID, &Aux{Type: KDir, Nlink: 1}); err != nil {
		return nil, err
	}
	return l, nil
}

// Open mounts an existing volume replica, running crash recovery (Recover)
// first, so that a crash inside a commit of meta is settled before meta is
// read.  The new-version cache starts empty: it is a hint (§3.2), and what a
// crash dropped from it the restart's reconciliation pass finds again.
func Open(store vnode.VFS) (*Layer, error) {
	root, err := store.Root()
	if err != nil {
		return nil, err
	}
	l := &Layer{
		store:  store,
		root:   root,
		nvc:    make(map[nvcKey]NewVersion),
		opens:  make(map[ids.FileID]int),
		quar:   make(map[ids.FileID]bool),
		conts:  lru.New[string, vnode.Vnode](contCacheSize),
		dirs:   lru.New[string, *dirImage](dirCacheSize),
		auxs:   lru.New[string, auxEntry](auxCacheSize),
		vnodes: lru.New[vnodeKey, *pvnode](vnodeTableSize),
	}
	l.rootv = l.newPvnode(KDir, nil, ids.RootFileID)
	if err := l.Recover(); err != nil {
		return nil, err
	}
	if err := l.readMetaLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// Volume returns the logical volume this replica belongs to.
func (l *Layer) Volume() ids.VolumeHandle { return l.vol }

// Replica returns this volume replica's id.
func (l *Layer) Replica() ids.ReplicaID { return l.replica }

// VolumeReplica returns the fully qualified volume replica handle.
func (l *Layer) VolumeReplica() ids.VolumeReplicaHandle {
	return ids.VolumeReplicaHandle{Vol: l.vol, Replica: l.replica}
}

// Store exposes the backing vnode file system (for experiments).
func (l *Layer) Store() vnode.VFS { return l.store }

// writeMetaLocked commits the metadata file,
// "<vol>\n<replica-hex>\n<id-high-water-hex>\n", reserving ids up to high.
// It is written in place, without a shadow: every field has a fixed width,
// so the record's length never changes, and a rewrite changes only the
// high-water mark, to a larger one.  A write torn after a prefix therefore
// leaves a new prefix of that mark's hex digits before an old suffix: equal
// to the old mark if the tear came before the first digit that differs,
// larger otherwise.  Either way every id issued under the old mark stays at
// or below the mark read back, so none is reissued.
func (l *Layer) writeMetaLocked(high uint64) error {
	data := fmt.Sprintf("%s\n%08x\n%016x\n", l.vol, uint32(l.replica), high)
	f, err := l.root.Create(metaFileName, false)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte(data), 0); err != nil {
		return err
	}
	l.idHigh = high
	return nil
}

func (l *Layer) readMetaLocked() error {
	f, err := l.root.Lookup(metaFileName)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrNotFicus, err)
	}
	data, err := vnode.ReadFile(f)
	if err != nil {
		return err
	}
	var volStr string
	var rep uint32
	if _, err := fmt.Sscanf(string(data), "%s\n%x\n%x\n", &volStr, &rep, &l.idHigh); err != nil {
		return fmt.Errorf("%w: bad meta: %w", ErrNotFicus, err)
	}
	vh, err := ids.ParseVolumeHandle(volStr)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrNotFicus, err)
	}
	l.vol = vh
	l.replica = ids.ReplicaID(rep)
	l.seq = ids.NewSequencer(l.replica, 2)
	// Every id the last run may have issued lies at or below the mark.
	l.seq.Resume(l.idHigh)
	return nil
}

// nextIDLocked allocates a fresh file/entry id, first reserving the next
// batch in meta when the sequencer has used up the last one, so ids are never
// reissued after a crash.
func (l *Layer) nextIDLocked() (ids.FileID, error) {
	if l.seq.Last() >= l.idHigh {
		if err := l.writeMetaLocked(l.seq.Last() + idBatch); err != nil {
			return ids.FileID{}, err
		}
	}
	return l.seq.Next(), nil
}

// rootContainer returns the UFS directory containing the volume root's
// storage.
func (l *Layer) rootContainer() (vnode.Vnode, error) {
	return l.root.Lookup(memberName(prefixDir, ids.RootFileID))
}

// containerOf returns the container of the directory a full fid path (beginning
// with the root fid) names, remembered or walked down to.  Store handles are bare
// inode numbers, reused: what removes or moves a container flushes conts.
func (l *Layer) containerOf(dirPath []ids.FileID) (vnode.Vnode, error) {
	var buf [8 * handleFieldLen]byte // a deeper path spills to the heap
	key := buf[:0]
	for _, fid := range dirPath {
		key = ids.AppendFileID(append(key, '|'), fid)
	}
	return l.containerAt(string(key), dirPath)
}

// containerAt is containerOf with the fid path also spelled as a handle spells
// it, the key conts keeps: a vnode's handle holds its own, so a warm one's
// container makes no string.
func (l *Layer) containerAt(key string, dirPath []ids.FileID) (vnode.Vnode, error) {
	if c, ok := l.conts.Get(key); ok {
		return c, nil
	}
	c := l.root
	for _, fid := range dirPath {
		next, err := c.Lookup(memberName(prefixDir, fid))
		if err != nil {
			if vnode.AsErrno(err) == vnode.ENOENT {
				return nil, ErrNotStored
			}
			return nil, err
		}
		c = next
	}
	l.conts.Put(key, c)
	return c, nil
}
