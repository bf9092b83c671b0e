package authfs

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vntest"
)

func newUFS(t testing.TB) vnode.VFS {
	t.Helper()
	fs, err := ufs.Mkfs(disk.New(4096), 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ufsvn.New(fs)
}

// TestConformanceFullAccess: with an all-granting ACL the layer is a pure
// pass-through — the whole suite must hold.
func TestConformanceFullAccess(t *testing.T) {
	vntest.Run(t, vntest.Config{MaxName: ufs.MaxNameLen},
		func(t *testing.T) vnode.VFS {
			return New(newUFS(t), NewACL(PermAll), Credential{User: "root"})
		})
}

// TestConformanceOverFicusStack: the auth layer above a complete Ficus
// logical layer.
func TestConformanceOverFicusStack(t *testing.T) {
	vol := ids.VolumeHandle{Allocator: 6, Volume: 6}
	vntest.Run(t, vntest.Config{MaxName: logical.MaxName},
		func(t *testing.T) vnode.VFS {
			fs, err := ufs.Mkfs(disk.New(8192), 2048, nil)
			if err != nil {
				t.Fatal(err)
			}
			phys, err := physical.Format(ufsvn.New(fs), vol, 1)
			if err != nil {
				t.Fatal(err)
			}
			lay := logical.New(vol, []logical.Replica{{ID: 1, FS: phys}}, logical.Options{})
			return New(lay, NewACL(PermAll), Credential{User: "root"})
		})
}

func TestReadOnlyCredential(t *testing.T) {
	lower := newUFS(t)
	// Seed content as an unrestricted principal.
	admin, _ := New(lower, NewACL(PermAll), Credential{User: "admin"}).Root()
	f, err := admin.Create("doc", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("published")); err != nil {
		t.Fatal(err)
	}

	acl := NewACL(PermRead) // everyone may read, nobody may write
	guest, _ := New(lower, acl, Credential{User: "guest"}).Root()
	g, err := guest.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	data, err := vnode.ReadFile(g)
	if err != nil || string(data) != "published" {
		t.Fatalf("%q %v", data, err)
	}
	if _, err := g.WriteAt([]byte("defaced"), 0); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("write: %v, want EPERM", err)
	}
	if _, err := guest.Create("new", true); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("create: %v, want EPERM", err)
	}
	if err := guest.Remove("doc"); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("remove: %v, want EPERM", err)
	}
	if err := g.Open(vnode.OpenWrite); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("open for write: %v, want EPERM", err)
	}
	if err := g.Open(vnode.OpenRead); err != nil {
		t.Fatalf("open for read: %v", err)
	}
	if err := g.Access(0o2); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("access(w): %v", err)
	}
	if err := g.Access(0o4); err != nil {
		t.Fatalf("access(r): %v", err)
	}
}

func TestPerPrefixGrants(t *testing.T) {
	lower := newUFS(t)
	admin, _ := New(lower, NewACL(PermAll), Credential{User: "admin"}).Root()
	for _, d := range []string{"home", "public"} {
		if _, err := admin.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := admin.Lookup("home")
	if _, err := h.(interface {
		Mkdir(string) (vnode.Vnode, error)
	}).Mkdir("alice"); err != nil {
		t.Fatal(err)
	}

	acl := NewACL(0,
		Rule{User: Anyone, Prefix: "/", Perm: PermRead},
		Rule{User: "alice", Prefix: "/home/alice", Perm: PermAll},
	)
	alice, _ := New(lower, acl, Credential{User: "alice"}).Root()
	// Alice writes in her home...
	home, err := vnode.Walk(alice, "home/alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.Create("diary", true); err != nil {
		t.Fatalf("alice in her home: %v", err)
	}
	// ... but not elsewhere.
	pub, err := alice.Lookup("public")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Create("x", true); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("alice outside her home: %v", err)
	}
	// Bob cannot write in alice's home.
	bob, _ := New(lower, acl, Credential{User: "bob"}).Root()
	bhome, err := vnode.Walk(bob, "home/alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bhome.Create("graffiti", true); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("bob in alice's home: %v", err)
	}
	// Everyone reads everywhere.
	if _, err := vnode.ReadFile(mustWalk(t, bob, "home/alice/diary")); err != nil {
		t.Fatalf("bob reading: %v", err)
	}
}

func mustWalk(t *testing.T, root vnode.Vnode, path string) vnode.Vnode {
	t.Helper()
	v, err := vnode.Walk(root, path)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLaterRulesOverride(t *testing.T) {
	acl := NewACL(0,
		Rule{User: Anyone, Prefix: "/", Perm: PermAll},
		Rule{User: Anyone, Prefix: "/frozen", Perm: PermRead},
	)
	if !acl.Allowed("x", "/anything", PermWrite) {
		t.Fatal("general grant lost")
	}
	if acl.Allowed("x", "/frozen/file", PermWrite) {
		t.Fatal("override ignored")
	}
	if !acl.Allowed("x", "/frozen/file", PermRead) {
		t.Fatal("read under override lost")
	}
	// Prefix matching is component-wise, not string-wise.
	if acl.Allowed("x", "/frozenlake", PermWrite) == false {
		t.Fatal("/frozenlake wrongly matched prefix /frozen")
	}
	acl.Append(Rule{User: "x", Prefix: "/frozen", Perm: PermAll})
	if !acl.Allowed("x", "/frozen/f", PermWrite) {
		t.Fatal("Append rule not honored")
	}
}

func TestRenameNeedsBothSides(t *testing.T) {
	lower := newUFS(t)
	admin, _ := New(lower, NewACL(PermAll), Credential{User: "admin"}).Root()
	admin.Mkdir("rw")
	admin.Mkdir("ro")
	rw, _ := admin.Lookup("rw")
	if _, err := rw.(interface {
		Create(string, bool) (vnode.Vnode, error)
	}).Create("f", true); err != nil {
		t.Fatal(err)
	}

	acl := NewACL(0,
		Rule{User: Anyone, Prefix: "/", Perm: PermRead},
		Rule{User: Anyone, Prefix: "/rw", Perm: PermAll},
	)
	user, _ := New(lower, acl, Credential{User: "u"}).Root()
	urw, _ := user.Lookup("rw")
	uro, _ := user.Lookup("ro")
	if err := urw.Rename("f", uro, "f"); vnode.AsErrno(err) != vnode.EPERM {
		t.Fatalf("rename into read-only dir: %v", err)
	}
	if err := urw.Rename("f", urw, "g"); err != nil {
		t.Fatalf("rename within writable dir: %v", err)
	}
}
