package nfs

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/physical"
	"repro/internal/simnet"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vntest"
)

// TestConformanceOverPhysicalLayer runs the shared vnode suite through the
// exact remote stack of paper Figure 2: NFS client -> NFS server -> Ficus
// physical layer -> UFS.  The physical layer's fid-path handles are
// re-resolved statelessly per request, so this also exercises
// physical.Resolve under every operation.
func TestConformanceOverPhysicalLayer(t *testing.T) {
	vntest.Run(t, vntest.Config{MaxName: physical.SubstrateMaxName - 1},
		func(t *testing.T) vnode.VFS {
			c, _ := newPhysicalRig(t, &ClientOptions{DisableCaches: true})
			return c
		})
}

// physicalVol is the volume the physical rig's replica belongs to.
var physicalVol = ids.VolumeHandle{Allocator: 5, Volume: 5}

// newPhysicalRig is paper Figure 2's remote stack on one simulated network: a
// client on host cli of a server on host srv exporting a Ficus physical layer
// over UFS.
func newPhysicalRig(t testing.TB, opts *ClientOptions) (*Client, *simnet.Network) {
	fs, err := ufs.Mkfs(disk.New(8192), 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := physical.Format(ufsvn.New(fs), physicalVol, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(1)
	Serve(net.Host("srv"), phys, phys)
	return Dial(net.Host("cli"), "srv", opts), net
}

// TestEncodedLookupBypassesNameCache: a Lookup that carries an open or a
// close (§2.3) is a request, not a name.  With the caches on, each one costs
// an RPC, and none of them enters the name cache or is answered from it.
// (That each reaches the physical layer is the logical rig's and the root
// package's test.)
func TestEncodedLookupBypassesNameCache(t *testing.T) {
	c, net := newPhysicalRig(t, nil)
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Create("f", true); err != nil {
		t.Fatal(err)
	}
	open := physical.EncodeOpenLookup(true, vnode.OpenRead, physicalVol, "f")
	shut := physical.EncodeOpenLookup(false, vnode.OpenRead, physicalVol, "f")
	const pairs = 4
	net.ResetStats()
	for i := 0; i < pairs; i++ {
		for _, enc := range []string{open, shut} {
			if _, err := root.Lookup(enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := net.Stats().RPCs; got != 2*pairs {
		t.Fatalf("%d encoded lookups cost %d RPCs", 2*pairs, got)
	}
	c.mu.Lock()
	_, cached := c.names.Get(nameKey{root.Handle(), open})
	c.mu.Unlock()
	if cached {
		t.Fatal("an encoded lookup entered the name cache")
	}
	// The plain name beside it is cached as before.
	if _, err := root.Lookup("f"); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().RPCs; got != 2*pairs {
		t.Fatalf("the plain name, cached by Create, went to the wire: %d RPCs", got)
	}
}

// remoteRead is a warm remote ReadFile's round trips over the physical rig,
// one function each, in the order the logical layer makes them: Getattr, the
// open encoded in a Lookup (§2.3), the read and the encoded close.  The client
// caches nothing, so each is an RPC.
func remoteRead(t testing.TB) []struct {
	name   string
	allocs float64 // the most a warm one may allocate
	op     func() error
} {
	c, _ := newPhysicalRig(t, &ClientOptions{DisableCaches: true})
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	open := physical.EncodeOpenLookup(true, vnode.OpenRead, physicalVol, "f")
	shut := physical.EncodeOpenLookup(false, vnode.OpenRead, physicalVol, "f")
	buf := make([]byte, 4096)
	rows := []struct {
		name   string
		allocs float64
		op     func() error
	}{
		// Warm, none allocates: both messages are lent by wire's pool and go
		// back to it, the read's data is copied into buf, and the vnode an
		// encoded open or close returns is the client's one for its handle.
		{"getattr", 0, func() error { _, err := f.Getattr(); return err }},
		{"open", 0, func() error { _, err := root.Lookup(open); return err }},
		{"read", 0, func() error { _, err := f.ReadAt(buf, 0); return err }},
		{"close", 0, func() error { _, err := root.Lookup(shut); return err }},
		// The slice a listing returns, at the server and at the client: the
		// names and FileIDs in it are the ones each side read before.
		{"readdir", 2, func() error { _, err := root.Readdir(); return err }},
	}
	for _, r := range rows { // warm every layer's caches and tables
		if err := r.op(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	return rows
}

// TestWarmRemoteRoundTripAllocs pins what a warm round trip of a remote read
// allocates: nothing.  Nothing a layer already holds — a handle, a name, a
// member name, a FileID, a physical or client vnode, a decoded message's
// struct, a message buffer — is made again.  Invariants re-encode a directory
// on every hit, so they are disarmed.
func TestWarmRemoteRoundTripAllocs(t *testing.T) {
	defer invariant.ForceForTest(false)()
	for _, r := range remoteRead(t) {
		n := testing.AllocsPerRun(100, func() {
			if err := r.op(); err != nil {
				t.Fatal(err)
			}
		})
		if n > r.allocs {
			t.Errorf("a warm %s round trip allocates %v times, want at most %v", r.name, n, r.allocs)
		}
	}
}
