package logical

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/nfs"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/simnet"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

// Selection is per open (DESIGN.md §3.1).  These tests stand a counting layer
// between the logical layer and each replica and hold it to that: who is
// polled, when, and where each operation of a file session goes.

// call is one operation the logical layer sent down to a replica.
type call struct {
	op   string // "root", "lookup", "open", "close", "getattr", "readat", ...
	name string // the name looked up, when there is one
}

// countFS is a vnode.VFS that logs every call crossing it.
type countFS struct {
	lower  vnode.VFS
	onCall func(call) // if set, runs before each call is forwarded; it may block
	mu     sync.Mutex
	log    []call
}

func (f *countFS) note(op, name string) {
	f.mu.Lock()
	f.log = append(f.log, call{op, name})
	f.mu.Unlock()
	if f.onCall != nil {
		f.onCall(call{op, name})
	}
}

// count reports how many logged calls were one of ops.
func (f *countFS) count(ops ...string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.log {
		for _, op := range ops {
			if c.op == op {
				n++
			}
		}
	}
	return n
}

func (f *countFS) reset() {
	f.mu.Lock()
	f.log = nil
	f.mu.Unlock()
}

func (f *countFS) calls() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprint(f.log)
}

func (f *countFS) Root() (vnode.Vnode, error) {
	f.note("root", "")
	v, err := f.lower.Root()
	return f.wrap(v, err)
}

func (f *countFS) Sync() error { return f.lower.Sync() }

func (f *countFS) wrap(v vnode.Vnode, err error) (vnode.Vnode, error) {
	if err != nil {
		return nil, err
	}
	return &countVnode{Vnode: v, fs: f}, nil
}

// countVnode forwards everything; the operations these tests count are logged.
type countVnode struct {
	vnode.Vnode
	fs *countFS
}

func (v *countVnode) Lookup(name string) (vnode.Vnode, error) {
	switch {
	case !strings.HasPrefix(name, vnode.EncodedLookupPrefix):
		v.fs.note("lookup", name)
	case strings.Contains(name, ":open.:"):
		v.fs.note("open", name)
	default:
		v.fs.note("close", name)
	}
	return v.fs.wrap(v.Vnode.Lookup(name))
}

func (v *countVnode) Create(name string, excl bool) (vnode.Vnode, error) {
	v.fs.note("create", name)
	return v.fs.wrap(v.Vnode.Create(name, excl))
}

func (v *countVnode) Mkdir(name string) (vnode.Vnode, error) {
	v.fs.note("mkdir", name)
	return v.fs.wrap(v.Vnode.Mkdir(name))
}

func (v *countVnode) Getattr() (vnode.Attr, error) {
	v.fs.note("getattr", "")
	return v.Vnode.Getattr()
}

func (v *countVnode) ReadAt(p []byte, off int64) (int, error) {
	v.fs.note("readat", "")
	return v.Vnode.ReadAt(p, off)
}

func (v *countVnode) WriteAt(p []byte, off int64) (int, error) {
	v.fs.note("writeat", "")
	return v.Vnode.WriteAt(p, off)
}

func (v *countVnode) Readdir() ([]vnode.Dirent, error) {
	v.fs.note("readdir", "")
	return v.Vnode.Readdir()
}

// sessionRig is n replicas of one volume — replica 1 co-resident with the
// client, the rest on hosts of their own reached through NFS clients with
// their caches on — each behind a countFS.
type sessionRig struct {
	net     *simnet.Network
	phys    []*physical.Layer
	clients []*nfs.Client // clients[i] reaches phys[i]; nil for the co-resident one
	counts  []*countFS
}

func serverAddr(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("srv%d", i)) }

func newSessionRig(t *testing.T, n int) *sessionRig {
	t.Helper()
	r := &sessionRig{net: simnet.New(1)}
	client := r.net.Host("client")
	for i := 0; i < n; i++ {
		p := newPhysical(t, ids.ReplicaID(i+1))
		r.phys = append(r.phys, p)
		var fs vnode.VFS = p
		var cl *nfs.Client
		if i > 0 {
			nfs.Serve(r.net.Host(serverAddr(i)), p, p)
			cl = nfs.Dial(client, serverAddr(i), nil)
			fs = cl
		}
		r.clients = append(r.clients, cl)
		r.counts = append(r.counts, &countFS{lower: fs})
	}
	return r
}

// layer is a fresh logical layer over the rig: nothing resolved, nothing open.
func (r *sessionRig) layer(policy Policy, graft GraftHook) vnode.Vnode {
	return r.layerOver(policy, graft, 0)
}

// layerOver is layer without the replicas before first: first > 0 gives a
// client with no co-resident copy, whose every replica can be cut off.
func (r *sessionRig) layerOver(policy Policy, graft GraftHook, first int) vnode.Vnode {
	root, _ := r.logicalOver(policy, graft, first).Root()
	return root
}

// logicalOver is layerOver's Layer itself.
func (r *sessionRig) logicalOver(policy Policy, graft GraftHook, first int) *Layer {
	var reps []Replica
	for i, c := range r.counts[first:] {
		reps = append(reps, Replica{ID: ids.ReplicaID(first + i + 1), FS: c})
	}
	return New(testVol, reps, Options{Policy: policy, Graft: graft})
}

// sync reconciles every replica against every other until all hold the same.
func (r *sessionRig) sync(t *testing.T) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for i, a := range r.phys {
			for j, b := range r.phys {
				if i != j {
					if _, err := recon.ReconcileVolume(a, b); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func (r *sessionRig) resetCounts() {
	for _, c := range r.counts {
		c.reset()
	}
}

// cut partitions server i away from the client (and everyone else).
func (r *sessionRig) cut(i int) {
	rest := []simnet.Addr{"client"}
	for j := 1; j < len(r.phys); j++ {
		if j != i {
			rest = append(rest, serverAddr(j))
		}
	}
	r.net.Partition(rest, []simnet.Addr{serverAddr(i)})
}

// physWrite overwrites path in replica i behind the logical layer's back, as
// another host's client would have, and lets the attributes this client's NFS
// layer has cached for that server run out (they would hide the new version
// from a poll for the 32 operations they live, §2.2; these tests are about
// what the logical layer does with what it is told).
func (r *sessionRig) physWrite(t *testing.T, i int, path, data string) {
	t.Helper()
	root, _ := r.phys[i].Root()
	v, err := vnode.Walk(root, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(v, []byte(data)); err != nil {
		t.Fatal(err)
	}
	if r.clients[i] != nil {
		r.clients[i].FlushCaches()
	}
}

// fidOf is the file id of path in replica i.
func (r *sessionRig) fidOf(t *testing.T, i int, path string) ids.FileID {
	t.Helper()
	root, _ := r.phys[i].Root()
	v, err := vnode.Walk(root, path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, fid, err := physical.ParseHandle(v.Handle())
	if err != nil {
		t.Fatal(err)
	}
	return fid
}

// populate makes a/b/f = data through a throwaway layer and spreads it.
func (r *sessionRig) populate(t *testing.T, data string) {
	t.Helper()
	root := r.layer(FirstAvailable, nil)
	dir, err := vnode.MkdirAll(root, "a/b")
	if err != nil {
		t.Fatal(err)
	}
	f, err := dir.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(data), 0); err != nil {
		t.Fatal(err)
	}
	r.sync(t)
	r.resetCounts()
}

// readSession is what a client does to read a file: walk (an empty path is
// root itself), open, stat, k reads, close.  It returns the last read's bytes.
func readSession(t *testing.T, root vnode.Vnode, path string, k int) (data []byte) {
	t.Helper()
	v, err := vnode.Walk(root, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Open(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	a, err := v.Getattr()
	if err != nil {
		t.Fatal(err)
	}
	data = make([]byte, a.Size)
	for i := 0; i < k; i++ {
		if _, err := v.ReadAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMostRecentPollsOncePerOpen: under the default policy a whole read
// session polls each replica exactly once, at Open; the open, the stat, every
// read and the close all go to the copy that poll chose; and nothing is
// resolved again after Open.
func TestMostRecentPollsOncePerOpen(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d-replicas", n), func(t *testing.T) {
			r := newSessionRig(t, n)
			r.populate(t, "v1")
			newest := n - 1 // a remote copy, last in configuration order
			r.physWrite(t, newest, "a/b/f", "v2")
			const k = 5
			root := r.layer(MostRecent, nil)
			v, err := vnode.Walk(root, "a/b/f")
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range r.counts {
				if g := c.count("getattr"); g != 0 {
					t.Fatalf("the walk polled replica %d: %s", i, c.calls())
				}
			}
			if err := v.Open(vnode.OpenRead); err != nil {
				t.Fatal(err)
			}
			for i, c := range r.counts {
				if g := c.count("getattr"); g != 1 {
					t.Fatalf("Open polled replica %d %d times, want once: %s", i, g, c.calls())
				}
			}
			resolved := make([]int, n)
			for i, c := range r.counts {
				resolved[i] = c.count("root", "lookup")
			}
			a, err := v.Getattr()
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, a.Size)
			for i := 0; i < k; i++ {
				if _, err := v.ReadAt(buf, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := v.Close(vnode.OpenRead); err != nil {
				t.Fatal(err)
			}
			if string(buf) != "v2" {
				t.Fatalf("read %q, want the newest copy's v2", buf)
			}
			for i, c := range r.counts {
				wantOps, wantPolls := 0, 1
				if i == newest {
					wantOps, wantPolls = 1, 2 // the poll, and the client's own Getattr
				}
				if c.count("open") != wantOps || c.count("close") != wantOps || c.count("readat") != wantOps*k || c.count("getattr") != wantPolls {
					t.Errorf("replica %d (newest is %d): %d open, %d close, %d readat, %d getattr: %s", i, newest,
						c.count("open"), c.count("close"), c.count("readat"), c.count("getattr"), c.calls())
				}
				if got := c.count("root", "lookup"); got != resolved[i] {
					t.Errorf("replica %d: %d resolution calls after Open: %s", i, got-resolved[i], c.calls())
				}
			}
			if got := r.phys[newest].TotalOpens(); got != 1 || r.phys[newest].OpenFiles() != 0 {
				t.Errorf("chosen replica: %d opens, %d still open", got, r.phys[newest].OpenFiles())
			}
		})
	}
}

// TestFirstAvailableLeavesTheRestAlone: candidates are produced lazily, so
// while replica 0 answers, no other replica receives a call of any kind.
func TestFirstAvailableLeavesTheRestAlone(t *testing.T) {
	for _, n := range []int{2, 3} {
		r := newSessionRig(t, n)
		r.populate(t, "v1")
		root := r.layer(FirstAvailable, nil)
		data := readSession(t, root, "a/b/f", 4)
		if string(data) != "v1" {
			t.Fatalf("read %q", data)
		}
		if st, err := root.Lookup("a"); err != nil {
			t.Fatal(err)
		} else if _, err := st.Readdir(); err != nil {
			t.Fatal(err)
		}
		if r.counts[0].count("open") != 1 || r.counts[0].count("readat") != 4 {
			t.Fatalf("replica 0 did not serve the session: %s", r.counts[0].calls())
		}
		for i := 1; i < n; i++ {
			if c := r.counts[i]; len(c.log) != 0 {
				t.Errorf("%d replicas: replica %d was touched while replica 0 answered: %s", n, i, c.calls())
			}
		}
	}
}

// TestLookupDoesNotPoll: a walk asks whether some replica holds each name.
// With no graft hook it issues no Getattr at all.  With one it must learn
// whether the child is a graft point, which the vnode interface tells only
// through Getattr: it asks the one copy it found, never a second replica.
func TestLookupDoesNotPoll(t *testing.T) {
	r := newSessionRig(t, 3)
	r.populate(t, "v1")
	if _, err := vnode.Walk(r.layer(MostRecent, nil), "a/b/f"); err != nil {
		t.Fatal(err)
	}
	for i, c := range r.counts {
		if c.count("getattr") != 0 {
			t.Errorf("no hook: the walk sent Getattr to replica %d: %s", i, c.calls())
		}
		if i > 0 && len(c.log) != 0 {
			t.Errorf("no hook: the walk touched replica %d though replica 0 holds every name: %s", i, c.calls())
		}
	}
	r.resetCounts()
	hook := func(ids.VolumeHandle, vnode.Vnode) (vnode.Vnode, error) {
		t.Error("graft hook called where there is no graft point")
		return nil, vnode.EINVAL
	}
	if _, err := vnode.Walk(r.layer(MostRecent, hook), "a/b/f"); err != nil {
		t.Fatal(err)
	}
	if g := r.counts[0].count("getattr"); g != 3 {
		t.Errorf("hook installed: %d Getattr to the copy found, want one a component: %s", g, r.counts[0].calls())
	}
	for i := 1; i < 3; i++ {
		if c := r.counts[i]; len(c.log) != 0 {
			t.Errorf("hook installed: the walk touched replica %d: %s", i, c.calls())
		}
	}
}

// TestWarmWalkAsksNothing: what a walk learned it keeps.  A copy once found
// to be no graft point is not asked again while its resolution is cached — a
// file id's graft-ness is fixed when it is made (§4.3) — so a warm walk of
// a/b/f over two replicas reached through NFS, hook installed, sends nothing
// at all.  And once f's resolution has aged out while its parent's has not,
// re-resolving f is one Lookup RPC from the parent, not a walk from the root.
func TestWarmWalkAsksNothing(t *testing.T) {
	r := newSessionRig(t, 3)
	r.populate(t, "v1")
	hook := func(ids.VolumeHandle, vnode.Vnode) (vnode.Vnode, error) {
		t.Error("graft hook called where there is no graft point")
		return nil, vnode.EINVAL
	}
	lay := r.logicalOver(MostRecent, hook, 1) // replicas 2 and 3, both across NFS
	root, _ := lay.Root()
	walk := func(path string) (rpcs uint64) {
		t.Helper()
		r.resetCounts()
		before := r.net.Stats().RPCs
		if _, err := vnode.Walk(root, path); err != nil {
			t.Fatal(err)
		}
		return r.net.Stats().RPCs - before
	}
	walk("a/b/f")
	if rpcs := walk("a/b/f"); rpcs != 0 || r.counts[1].count("getattr") != 0 {
		t.Errorf("a warm walk sent %d RPCs: %s", rpcs, r.counts[1].calls())
	}
	for range lay.cacheTTL {
		lay.tick()
	}
	walk("a/b") // the parent resolves afresh; f's resolution stays aged out
	r.clients[1].FlushCaches()
	if rpcs := walk("a/b/f"); rpcs != 1 || r.counts[1].count("lookup") != 1 || r.counts[1].count("root") != 0 {
		t.Errorf("re-resolving f below a cached parent cost %d RPCs, want one Lookup: %s", rpcs, r.counts[1].calls())
	}
	if c := r.counts[2]; len(c.log) != 0 {
		t.Errorf("the walks touched replica 3: %s", c.calls())
	}
}

// TestWalkBelowAMovedParentAnswersAsFromTheRoot: a parent's cached resolution
// can outlive the parent's place in the replica's tree.  A name looked up
// below it that fails is looked up once more from the root, so the walk fails
// as a walk from the root would, and the stale parent is forgotten.
func TestWalkBelowAMovedParentAnswersAsFromTheRoot(t *testing.T) {
	r := newSessionRig(t, 2)
	r.populate(t, "v1")
	lay := r.logicalOver(MostRecent, nil, 1) // replica 2 alone, across NFS
	root, _ := lay.Root()
	if _, err := vnode.Walk(root, "a/b/f"); err != nil {
		t.Fatal(err)
	}
	lay.cacheDrop("a/b/f", 2)
	// b moves out of a on the replica, behind the layer's back.
	proot, _ := r.phys[1].Root()
	c, err := proot.Mkdir("c")
	if err != nil {
		t.Fatal(err)
	}
	a, err := proot.Lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Rename("b", c, "b"); err != nil {
		t.Fatal(err)
	}
	r.clients[1].FlushCaches()
	_, err = vnode.Walk(root, "a/b/f")
	fresh, _ := r.layerOver(MostRecent, nil, 1).Lookup("a")
	_, want := vnode.Walk(fresh, "b/f")
	if want == nil || vnode.AsErrno(err) != vnode.AsErrno(want) {
		t.Fatalf("the walk below the moved parent said %v; from the root: %v", err, want)
	}
	if _, ok := lay.cacheGet("a/b", 2); ok {
		t.Error("the moved parent's resolution is still cached")
	}
	if _, err := vnode.Walk(root, "c/b/f"); err != nil {
		t.Errorf("the file at its new path: %v", err)
	}
}

// TestGraftHookGetsTheSelectedCopy is the one place Lookup runs the policy:
// the hook reads the graft table out of the vnode it is handed, so when two
// replicas' tables differ it must be handed the MostRecent one.
func TestGraftHookGetsTheSelectedCopy(t *testing.T) {
	r := newSessionRig(t, 2)
	root0, _ := r.phys[0].Root()
	type grafter interface {
		MkGraft(name string, target ids.VolumeHandle) (vnode.Vnode, error)
	}
	target := ids.VolumeHandle{Allocator: 3, Volume: 2}
	if _, err := root0.(grafter).MkGraft("mnt", target); err != nil {
		t.Fatal(err)
	}
	r.sync(t)
	// Replica 1's table gains a row replica 0 has not heard of.
	root1, _ := r.phys[1].Root()
	gp1, err := root1.Lookup("mnt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gp1.Create("row-only-at-1", true); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy Policy
		rows   int
	}{{MostRecent, 1}, {FirstAvailable, 0}} {
		var got ids.VolumeHandle
		rows := -1
		hook := func(vol ids.VolumeHandle, gp vnode.Vnode) (vnode.Vnode, error) {
			got = vol
			ents, err := gp.Readdir()
			if err != nil {
				return nil, err
			}
			rows = len(ents)
			return r.phys[0].Root() // any vnode will do
		}
		if _, err := r.layer(tc.policy, hook).Lookup("mnt"); err != nil {
			t.Fatal(err)
		}
		if got != target || rows != tc.rows {
			t.Errorf("policy %d: hook got volume %v and a table of %d rows, want %v and %d", tc.policy, got, rows, target, tc.rows)
		}
	}
}

// TestGraftPointFoundBehindALostReplica: a walk that has crossed a graft point
// keeps crossing it after the first-configured replica is partitioned away.
// That replica's copy still resolves — from the layer's resolution cache, no
// RPC — but once the NFS attributes cached for it have run out (32 operations)
// it cannot say that the name is a graft point; Lookup must ask on, not hand
// back the graft point's own directory.  While those attributes last they
// vouch for the lost server (§2.2, as they did for the poll before this
// change) and the hook may be handed its copy; afterwards, under either
// policy, the hook gets a copy whose graft table it can read.
func TestGraftPointFoundBehindALostReplica(t *testing.T) {
	for _, policy := range []Policy{MostRecent, FirstAvailable} {
		r := newSessionRig(t, 3)
		root0, _ := r.phys[0].Root()
		target := ids.VolumeHandle{Allocator: 3, Volume: 2}
		if _, err := root0.(interface {
			MkGraft(string, ids.VolumeHandle) (vnode.Vnode, error)
		}).MkGraft("mnt", target); err != nil {
			t.Fatal(err)
		}
		r.sync(t)
		grafted, _ := r.phys[0].Root() // stands in for the grafted volume's root
		hooked := 0
		var tableErr error
		hook := func(vol ids.VolumeHandle, gp vnode.Vnode) (vnode.Vnode, error) {
			hooked++
			_, tableErr = gp.Readdir()
			return grafted, nil
		}
		root := r.layerOver(policy, hook, 1) // replicas 1 and 2, both across NFS
		if got, err := root.Lookup("mnt"); err != nil || got != grafted {
			t.Fatalf("policy %d, before the cut: %v, %v", policy, got, err)
		}
		r.cut(1)
		for i := 0; i < 48; i++ { // each one ages client 1's caches by an operation or two
			got, err := root.Lookup("mnt")
			if err != nil || got != grafted {
				t.Fatalf("policy %d, lookup %d after the cut: got %v, %v; want the grafted root", policy, i, got, err)
			}
		}
		if hooked != 49 || tableErr != nil {
			t.Errorf("policy %d: the hook ran %d times in 49 lookups of the graft point; reading the last table it was handed: %v", policy, hooked, tableErr)
		}
	}
}

// TestPinnedReplicaLostMidSession: one-copy availability inside a session is
// what it was between sessions.  The pinned copy's server is cut off after
// Open; the next read comes from the other copy, later operations keep
// working, and Close succeeds.
func TestPinnedReplicaLostMidSession(t *testing.T) {
	r := newSessionRig(t, 2)
	r.populate(t, "v1")
	r.physWrite(t, 1, "a/b/f", "v2")
	v, err := vnode.Walk(r.layer(MostRecent, nil), "a/b/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Open(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := v.ReadAt(buf, 0); err != nil || string(buf) != "v2" {
		t.Fatalf("before the cut: %q, %v", buf, err)
	}
	r.cut(1)
	if _, err := v.ReadAt(buf, 0); err != nil || string(buf) != "v1" {
		t.Fatalf("first read after the cut: %q, %v; want the surviving copy's v1", buf, err)
	}
	r.resetCounts()
	for i := 0; i < 3; i++ {
		if _, err := v.ReadAt(buf, 0); err != nil || string(buf) != "v1" {
			t.Fatalf("read %d after the cut: %q, %v", i, buf, err)
		}
	}
	if _, err := v.Getattr(); err != nil {
		t.Fatalf("Getattr after the cut: %v", err)
	}
	if err := v.Close(vnode.OpenRead); err != nil {
		t.Fatalf("Close after the cut: %v", err)
	}
	// The session is over for the vnode too: the next open selects afresh.
	r.net.Heal()
	if data := readSession(t, v, "", 1); string(data) != "v2" {
		t.Fatalf("a new session after the heal read %q, want v2", data)
	}
}

// TestCloseFollowsItsOpen: the close goes where the open went, not where a
// second vote — over the parent directory — would send it.  At the parent
// commit of this change the close was sent to replica 1 (whose copy of the
// directory is newer) and replica 0 kept the file open for ever:
// OpenCount at 0 stayed 1, TotalOpens at 1 stayed 0.
func TestCloseFollowsItsOpen(t *testing.T) {
	r := newSessionRig(t, 2)
	r.populate(t, "v1")
	fid := r.fidOf(t, 0, "a/b/f")
	v, err := vnode.Walk(r.layer(MostRecent, nil), "a/b/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Open(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if r.phys[0].OpenCount(fid) != 1 || r.phys[1].OpenCount(fid) != 0 {
		t.Fatalf("after Open: %d open at replica 0, %d at replica 1; want 1, 0",
			r.phys[0].OpenCount(fid), r.phys[1].OpenCount(fid))
	}
	// The directory advances at replica 1 and nowhere else; replica 1 holds
	// everything replica 0 does, so it could serve the close.
	root1, _ := r.phys[1].Root()
	dir1, err := vnode.Walk(root1, "a/b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir1.Create("newer-sibling", true); err != nil {
		t.Fatal(err)
	}
	r.clients[1].FlushCaches() // or the poll the parent commit made would not see it
	if err := v.Close(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if got := r.phys[0].OpenCount(fid); got != 0 {
		t.Errorf("replica 0 still counts %d opens after the close", got)
	}
	if r.phys[1].OpenCount(fid) != 0 || r.phys[1].TotalOpens() != 0 || r.counts[1].count("open", "close") != 0 {
		t.Errorf("replica 1 heard of a session that was never its: %s", r.counts[1].calls())
	}
}

// TestOpenFileKeepsItsCopy states what a client can and cannot see: a reader
// holding a file open keeps reading the copy it opened while another replica
// advances; whoever opens next sees the newest.
func TestOpenFileKeepsItsCopy(t *testing.T) {
	r := newSessionRig(t, 2)
	r.populate(t, "v1")
	root := r.layer(MostRecent, nil)
	held, err := vnode.Walk(root, "a/b/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := held.Open(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	r.physWrite(t, 1, "a/b/f", "v2")
	buf := make([]byte, 2)
	if _, err := held.ReadAt(buf, 0); err != nil || string(buf) != "v1" {
		t.Fatalf("the open file read %q, %v; want the copy it opened, v1", buf, err)
	}
	if data := readSession(t, root, "a/b/f", 1); string(data) != "v2" {
		t.Fatalf("a fresh open read %q, want v2", data)
	}
	if _, err := held.ReadAt(buf, 0); err != nil || string(buf) != "v1" {
		t.Fatalf("the open file then read %q, %v", buf, err)
	}
	if err := held.Close(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	// Closed, the same vnode selects per operation again.
	if _, err := held.ReadAt(buf, 0); err != nil || string(buf) != "v2" {
		t.Fatalf("after Close the vnode read %q, %v; want v2", buf, err)
	}
}

// TestNestedOpensUnpinAtTheLastClose: opens are counted.
func TestNestedOpensUnpinAtTheLastClose(t *testing.T) {
	r := newSessionRig(t, 2)
	r.populate(t, "v1")
	v, err := vnode.Walk(r.layer(MostRecent, nil), "a/b/f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := v.Open(vnode.OpenRead); err != nil {
			t.Fatal(err)
		}
	}
	if g := r.counts[1].count("getattr"); g != 1 {
		t.Fatalf("two opens of one vnode polled replica 1 %d times, want once", g)
	}
	r.physWrite(t, 1, "a/b/f", "v2")
	buf := make([]byte, 2)
	if err := v.Close(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadAt(buf, 0); err != nil || string(buf) != "v1" {
		t.Fatalf("one open left: read %q, %v; want the pinned v1", buf, err)
	}
	if err := v.Close(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadAt(buf, 0); err != nil || string(buf) != "v2" {
		t.Fatalf("no open left: read %q, %v; want v2", buf, err)
	}
	fid := r.fidOf(t, 0, "a/b/f")
	if r.phys[0].TotalOpens() != 2 || r.phys[0].OpenCount(fid) != 0 || r.phys[1].TotalOpens() != 0 {
		t.Fatalf("replica 0: %d opens, %d outstanding; replica 1: %d opens; want 2, 0, 0",
			r.phys[0].TotalOpens(), r.phys[0].OpenCount(fid), r.phys[1].TotalOpens())
	}
}

// TestConcurrentFirstOpensShareOnePin: two goroutines open a shared vnode
// that nobody holds open yet, and the newest copy changes while the first open
// is still on its way.  Both closes follow the one pin, so both opens must
// have gone where it points: the second Open waits for the first and takes
// its choice.  (Selecting independently, the second went to replica 1, which
// then kept the file open for ever, and replica 0 was sent two closes for one
// open.)
func TestConcurrentFirstOpensShareOnePin(t *testing.T) {
	r := newSessionRig(t, 2)
	r.populate(t, "v1")
	fid := r.fidOf(t, 0, "a/b/f")
	v, err := vnode.Walk(r.layer(MostRecent, nil), "a/b/f")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	r.counts[0].onCall = func(c call) {
		if c.op == "open" && first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	errs := make(chan error, 2)
	go func() { errs <- v.Open(vnode.OpenRead) }()
	<-entered
	r.physWrite(t, 1, "a/b/f", "v2") // a poll taken now would choose replica 1
	go func() { errs <- v.Open(vnode.OpenRead) }()
	time.Sleep(50 * time.Millisecond) // long enough for an Open that does not wait to finish
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if a, b := r.phys[0].OpenCount(fid), r.phys[1].OpenCount(fid); a != 2 || b != 0 {
		t.Errorf("after both opens: %d open at replica 0, %d at replica 1; want 2, 0", a, b)
	}
	for i := 0; i < 2; i++ {
		if err := v.Close(vnode.OpenRead); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := r.phys[0].OpenCount(fid), r.phys[1].OpenCount(fid); a != 0 || b != 0 {
		t.Errorf("after both closes: %d still open at replica 0, %d at replica 1", a, b)
	}
	if r.counts[0].count("open") != 2 || r.counts[0].count("close") != 2 || r.counts[1].count("open", "close") != 0 {
		t.Errorf("replica 0 was sent %s\nreplica 1 was sent %s", r.counts[0].calls(), r.counts[1].calls())
	}
}

// TestSharedOpenVnodeUnderChurn is the -race test: eight goroutines read
// through one opened vnode while a ninth opens and closes it and the pinned
// copy's server is cut off and healed.  Replica 0 is always reachable, so no
// operation may fail, and every read returns one of the two copies whole.
func TestSharedOpenVnodeUnderChurn(t *testing.T) {
	r := newSessionRig(t, 2)
	r.populate(t, "copy-at-0")
	r.physWrite(t, 1, "a/b/f", "copy-at-1")
	v, err := vnode.Walk(r.layer(MostRecent, nil), "a/b/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Open(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len("copy-at-0"))
			for i := 0; i < 400; i++ {
				if _, err := v.ReadAt(buf, 0); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(buf, []byte("copy-at-0")) && !bytes.Equal(buf, []byte("copy-at-1")) {
					t.Errorf("read %q, neither copy", buf)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := v.Open(vnode.OpenRead); err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if err := v.Close(vnode.OpenRead); err != nil {
				t.Errorf("close: %v", err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if err := v.Close(vnode.OpenRead); err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		r.cut(1)
		if _, err := v.Getattr(); err != nil {
			t.Errorf("getattr during a cut: %v", err)
		}
		r.net.Heal()
	}
}

// TestLayerKeepsNoGarbage: the per-file locks go with their last holder and
// the resolution cache stays within its bound, however many names a layer
// has seen.  (At the parent commit this left one mutex per path ever
// mutated — 10 033 of them.)
func TestLayerKeepsNoGarbage(t *testing.T) {
	if testing.Short() {
		t.Skip("10 000 create/write/remove cycles")
	}
	fs, err := ufs.Mkfs(disk.New(65536), 32768, nil)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := physical.Format(ufsvn.New(fs), testVol, 1)
	if err != nil {
		t.Fatal(err)
	}
	lay := New(testVol, []Replica{{ID: 1, FS: phys}}, Options{})
	root, _ := lay.Root()
	const dirs, cycles = 32, 10000
	var dir [dirs]vnode.Vnode
	for d := range dir {
		var err error
		if dir[d], err = root.Mkdir(fmt.Sprintf("d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	cached := func() int {
		n := 0
		lay.rcache.DropFunc(func(rcKey, rcEntry) bool { n++; return false })
		return n
	}
	most := 0
	for i := 0; i < cycles; i++ {
		name := fmt.Sprintf("f%d", i)
		f, err := dir[i%dirs].Create(name, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		// Every other file stays, and with it its resolution — until the
		// bound evicts it.
		if i%2 == 0 {
			if err := dir[i%dirs].Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		if i%100 == 99 {
			most = max(most, cached())
		}
	}
	if n := len(lay.locks); n != 0 {
		t.Errorf("%d file locks left behind with nobody holding one", n)
	}
	if most > 4096 || most < 4000 {
		t.Errorf("the resolution cache peaked at %d entries; its bound is 4096 and %d files stayed", most, cycles/2)
	}
}
