package nfs

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
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
	vol := ids.VolumeHandle{Allocator: 5, Volume: 5}
	vntest.Run(t, vntest.Config{SupportsHardLinks: true, MaxName: physical.SubstrateMaxName - 1},
		func(t *testing.T) vnode.VFS {
			fs, err := ufs.Mkfs(disk.New(8192), 2048, nil)
			if err != nil {
				t.Fatal(err)
			}
			phys, err := physical.Format(ufsvn.New(fs), vol, 1)
			if err != nil {
				t.Fatal(err)
			}
			net := simnet.New(1)
			Serve(net.Host("srv"), phys, phys)
			return Dial(net.Host("cli"), "srv", &ClientOptions{DisableCaches: true})
		})
}

// TestEncodedLookupBypassesNameCache: a Lookup that carries an open or a
// close (§2.3) is a request, not a name.  With the caches on, each one costs
// an RPC, and none of them enters the name cache or is answered from it.
// (That each reaches the physical layer is the logical rig's and the root
// package's test.)
func TestEncodedLookupBypassesNameCache(t *testing.T) {
	vol := ids.VolumeHandle{Allocator: 5, Volume: 5}
	fs, err := ufs.Mkfs(disk.New(8192), 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := physical.Format(ufsvn.New(fs), vol, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(1)
	Serve(net.Host("srv"), phys, phys)
	c := Dial(net.Host("cli"), "srv", nil)
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Create("f", true); err != nil {
		t.Fatal(err)
	}
	open := physical.EncodeOpenLookup(true, vnode.OpenRead, vol, "f")
	shut := physical.EncodeOpenLookup(false, vnode.OpenRead, vol, "f")
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
	_, cached := c.names.Get(root.Handle() + "/" + open)
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
