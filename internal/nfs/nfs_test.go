package nfs

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/simnet"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vntest"
)

// rig wires client -> simnet -> server -> ufs.
type rig struct {
	net    *simnet.Network
	server *ufsvn.VFS
	client *Client
	hook   *vnode.HookVFS // interposed below the server, sees forwarded ops
}

func newRig(t testing.TB, copts *ClientOptions) *rig {
	t.Helper()
	fs, err := ufs.Mkfs(disk.New(4096), 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := ufsvn.New(fs)
	hook := vnode.NewHook(base, nil)
	net := simnet.New(1)
	srvHost := net.Host("server")
	Serve(srvHost, hook, base) // hook for the vnode path, base for handle resolution
	cliHost := net.Host("client")
	return &rig{
		net:    net,
		server: base,
		client: Dial(cliHost, "server", copts),
		hook:   hook,
	}
}

// TestConformance runs the shared vnode suite across the wire.  Caches are
// disabled here: with them on, NFS intentionally violates strict coherence
// (that is the point of the paper's §2.2 complaints), which the suite's
// single-client workload would not notice anyway — but disabling makes the
// pass unambiguous.
func TestConformance(t *testing.T) {
	vntest.Run(t, vntest.Config{SupportsHardLinks: true, MaxName: ufs.MaxNameLen},
		func(t *testing.T) vnode.VFS {
			return newRig(t, &ClientOptions{DisableCaches: true}).client
		})
}

func TestConformanceWithCaches(t *testing.T) {
	vntest.Run(t, vntest.Config{SupportsHardLinks: true, MaxName: ufs.MaxNameLen},
		func(t *testing.T) vnode.VFS { return newRig(t, nil).client })
}

// TestOpenCloseNeverReachServer reproduces the paper's central NFS
// complaint (§2.2): "the vnode services open and close are not supported by
// the NFS definition, and so are ignored: a layer intending to receive an
// open will never get it if NFS is in between."
func TestOpenCloseNeverReachServer(t *testing.T) {
	r := newRig(t, nil)
	root, err := r.client.Root()
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	r2 := newRig(t, nil)
	_ = r2
	before := r.hook.Ops()
	if err := f.Open(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if got := r.hook.Ops(); got != before {
		t.Fatalf("open/close leaked to the server: %d extra ops %v", got-before, seen)
	}
}

// TestAttributeCacheServesStale reproduces the "not fully controllable"
// cache behaviour: after a server-side change, a client with a warm
// attribute cache keeps reporting the old size until the entry ages out.
func TestAttributeCacheServesStale(t *testing.T) {
	r := newRig(t, &ClientOptions{AttrTTLOps: 1000})
	root, _ := r.client.Root()
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("12345"), 0); err != nil {
		t.Fatal(err)
	}
	a, err := f.Getattr()
	if err != nil || a.Size != 5 {
		t.Fatalf("initial attr: %+v, %v", a, err)
	}
	// Server-side change the client doesn't see.
	srvRoot, _ := r.server.Root()
	sf, err := srvRoot.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Truncate(0); err != nil {
		t.Fatal(err)
	}
	a, err = f.Getattr()
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != 5 {
		t.Fatalf("expected stale size 5 from cache, got %d", a.Size)
	}
	// Flushing reveals the truth.
	r.client.FlushCaches()
	a, err = f.Getattr()
	if err != nil || a.Size != 0 {
		t.Fatalf("after flush: %+v, %v", a, err)
	}
}

func TestAttrCacheExpiryByOps(t *testing.T) {
	r := newRig(t, &ClientOptions{AttrTTLOps: 3})
	root, _ := r.client.Root()
	f, _ := root.Create("f", true)
	f.WriteAt([]byte("12345"), 0)
	if a, _ := f.Getattr(); a.Size != 5 {
		t.Fatalf("size %d", a.Size)
	}
	srvRoot, _ := r.server.Root()
	sf, _ := srvRoot.Lookup("f")
	sf.Truncate(0)
	// Burn through the TTL with unrelated ops.
	for i := 0; i < 5; i++ {
		root.Readdir()
	}
	if a, _ := f.Getattr(); a.Size != 0 {
		t.Fatalf("cache did not expire: size %d", a.Size)
	}
}

// TestLookupCacheServesStaleName shows the DNLC-style client cache
// resolving a name that no longer exists server-side.
func TestLookupCacheServesStaleName(t *testing.T) {
	r := newRig(t, &ClientOptions{AttrTTLOps: 1000})
	root, _ := r.client.Root()
	if _, err := root.Create("f", true); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Lookup("f"); err != nil {
		t.Fatal(err)
	}
	// Remove server-side, bypassing this client.
	srvRoot, _ := r.server.Root()
	if err := srvRoot.Remove("f"); err != nil {
		t.Fatal(err)
	}
	// The stale cache entry still resolves the name.
	v, err := root.Lookup("f")
	if err != nil {
		t.Fatalf("expected stale hit, got %v", err)
	}
	// Getattr is served from the (equally stale) attribute cache...
	if _, err := v.Getattr(); err != nil {
		t.Fatalf("cached getattr: %v", err)
	}
	// ... but an operation that must hit the wire reveals the staleness.
	if _, err := v.WriteAt([]byte("x"), 0); vnode.AsErrno(err) != vnode.ESTALE {
		t.Fatalf("stale handle use: %v", err)
	}
}

func TestStaleHandle(t *testing.T) {
	r := newRig(t, &ClientOptions{DisableCaches: true})
	root, _ := r.client.Root()
	f, _ := root.Create("f", true)
	if err := root.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Getattr(); vnode.AsErrno(err) != vnode.ESTALE {
		t.Fatalf("err = %v, want ESTALE", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); vnode.AsErrno(err) != vnode.ESTALE {
		t.Fatalf("write: %v, want ESTALE", err)
	}
}

func TestPartitionMapsToUnavailable(t *testing.T) {
	r := newRig(t, &ClientOptions{DisableCaches: true})
	root, err := r.client.Root()
	if err != nil {
		t.Fatal(err)
	}
	r.net.Partition([]simnet.Addr{"client"}, []simnet.Addr{"server"})
	if _, err := root.Readdir(); vnode.AsErrno(err) != vnode.EUNAVAIL {
		t.Fatalf("err = %v, want EUNAVAIL", err)
	}
	r.net.Heal()
	if _, err := root.Readdir(); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestLookupStringsPassUninterpreted verifies the property the Ficus
// open/close encoding depends on (§2.3): the NFS layer forwards arbitrary
// name strings without interpretation.
func TestLookupStringsPassUninterpreted(t *testing.T) {
	r := newRig(t, nil)
	var lastLookup string
	hookFS := vnode.NewHook(r.server, nil)
	_ = hookFS
	// Re-serve with a recording hook below the server.
	weird := ".f:open:rw:00000001.00000002.0000000100000000000000000001"
	root, _ := r.client.Root()
	_, err := root.Lookup(weird)
	if vnode.AsErrno(err) != vnode.ENOENT {
		t.Fatalf("weird name lookup: %v (want ENOENT from the substrate, proving it arrived)", err)
	}
	_ = lastLookup
}

func TestCachedLookupSkipsWire(t *testing.T) {
	r := newRig(t, nil)
	root, _ := r.client.Root()
	if _, err := root.Create("f", true); err != nil {
		t.Fatal(err)
	}
	r.net.ResetStats()
	if _, err := root.Lookup("f"); err != nil {
		t.Fatal(err)
	}
	afterFirst := r.net.Stats().RPCs
	if _, err := root.Lookup("f"); err != nil {
		t.Fatal(err)
	}
	if got := r.net.Stats().RPCs; got != afterFirst {
		t.Fatalf("second lookup went to the wire: %d -> %d RPCs", afterFirst, got)
	}
}

func TestWireOpString(t *testing.T) {
	if OpLookup.String() != "lookup" || Op(99).String() == "" {
		t.Fatal("op names broken")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	r := newRig(t, nil)
	respBytes, err := r.net.Host("client").Call("server", Service, []byte("not a request"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeResponse(respBytes)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Errno != vnode.EINVAL.Code() {
		t.Fatalf("garbage request answered errno %d, want EINVAL", resp.Errno)
	}
}
