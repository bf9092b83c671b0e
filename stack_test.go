package ficus

// The §7 claim in its maximal form: "layers can indeed be transparently
// inserted between other layers, and even surround other layers."  This
// test assembles every layer in the repository into one stack —
//
//	authentication → encryption → monitoring → logical → NFS → physical → UFS
//
// — and runs the full vnode conformance suite through it, then checks the
// cross-layer side effects (ciphertext on disk, opens registered at the
// bottom, operations counted in the middle, EPERM at the top).

import (
	"bytes"
	"testing"

	"repro/internal/authfs"
	"repro/internal/cryptfs"
	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/logical"
	"repro/internal/nfs"
	"repro/internal/physical"
	"repro/internal/simnet"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vntest"
)

type megaStack struct {
	top   vnode.VFS
	hook  *vnode.HookVFS
	phys  *physical.Layer
	dev   *disk.Device
	store vnode.VFS
}

func buildMegaStack(t testing.TB, cred string, acl *authfs.ACL) *megaStack {
	t.Helper()
	vol := ids.VolumeHandle{Allocator: 7, Volume: 7}
	dev := disk.New(16384)
	fs, err := ufs.Mkfs(dev, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := ufsvn.New(fs)
	phys, err := physical.Format(store, vol, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(1)
	nfs.Serve(net.Host("srv"), phys, phys)
	client := nfs.Dial(net.Host("cli"), "srv", nil)
	lay := logical.New(vol, []logical.Replica{{ID: 1, FS: client}}, logical.Options{})
	hook := vnode.NewHook(lay, nil)
	crypt := cryptfs.New(hook, []byte("mega-stack secret"))
	auth := authfs.New(crypt, acl, authfs.Credential{User: cred})
	return &megaStack{top: auth, hook: hook, phys: phys, dev: dev, store: store}
}

func TestSixLayerStackConformance(t *testing.T) {
	vntest.Run(t, vntest.Config{SupportsHardLinks: true, MaxName: logical.MaxName},
		func(t *testing.T) vnode.VFS {
			return buildMegaStack(t, "root", authfs.NewACL(authfs.PermAll)).top
		})
}

func TestSixLayerStackSideEffects(t *testing.T) {
	acl := authfs.NewACL(0,
		authfs.Rule{User: authfs.Anyone, Prefix: "/", Perm: authfs.PermAll},
	)
	m := buildMegaStack(t, "user", acl)
	root, err := m.top.Root()
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("secret.txt", true)
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("through six layers and back")
	if err := f.Open(vnode.OpenWrite); err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, plain); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(vnode.OpenWrite); err != nil {
		t.Fatal(err)
	}
	got, err := vnode.ReadFile(f)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("round trip: %q %v", got, err)
	}

	// Bottom: the physical layer saw the open (shipped through the lookup
	// encoding across NFS, initiated four layers up).
	if m.phys.TotalOpens() != 1 {
		t.Fatalf("physical layer saw %d opens", m.phys.TotalOpens())
	}
	// Bottom: the UFS data file holds ciphertext, not plaintext.
	physRoot, _ := m.phys.Root()
	pv, err := physRoot.Lookup("secret.txt")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := vnode.ReadFile(pv)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("layers")) {
		t.Fatal("plaintext leaked below the encryption layer")
	}
	// Middle: the monitoring layer counted the traffic.
	if m.hook.Ops() == 0 {
		t.Fatal("monitoring layer saw nothing")
	}
	// Top: the ACL bites (the administrator seals the directory after
	// creating it).
	if _, err := root.Mkdir("sealed"); err != nil {
		t.Fatal(err)
	}
	acl.Append(authfs.Rule{User: authfs.Anyone, Prefix: "/sealed", Perm: authfs.PermRead})
	sealed, err := root.Lookup("sealed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sealed.Create("x", true); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("ACL not enforced through the stack: %v", err)
	}
	// Bottom: real disk blocks moved for all of it.
	if m.dev.Stats().Total() == 0 {
		t.Fatal("no device I/O recorded")
	}
}

// TestEveryOpenCrossesTheSixLayerStack: the open shipped through Lookup
// exists to get past NFS (§2.3), so the NFS client's name cache must not
// answer it.  It did: the second and third open of one file inside the
// cache's lifetime never left the client, and the bottom layer counted 1.
func TestEveryOpenCrossesTheSixLayerStack(t *testing.T) {
	m := buildMegaStack(t, "root", authfs.NewACL(authfs.PermAll))
	root, err := m.top.Root()
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 3
	for i := 0; i < pairs; i++ {
		if err := f.Open(vnode.OpenRead); err != nil {
			t.Fatal(err)
		}
		if got := m.phys.OpenFiles(); got != 1 {
			t.Fatalf("pair %d: %d files open at the bottom while the top holds one", i, got)
		}
		if err := f.Close(vnode.OpenRead); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.phys.TotalOpens(); got != pairs {
		t.Fatalf("physical layer saw %d opens, want %d", got, pairs)
	}
	if got := m.phys.OpenFiles(); got != 0 {
		t.Fatalf("%d files still open after the last close", got)
	}
}
