package ficus

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/vnode"
)

func newTestCluster(t *testing.T, n int, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewCluster(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQuickstartFlow(t *testing.T) {
	c := newTestCluster(t, 3)
	m0, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.MkdirAll("/projects/ficus"); err != nil {
		t.Fatal(err)
	}
	if err := m0.WriteFile("/projects/ficus/README", []byte("optimistic replication")); err != nil {
		t.Fatal(err)
	}
	// Another host reads it immediately (most-recent selection reads
	// through to the replica holding the update).
	m2, err := c.Mount(2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m2.ReadFile("/projects/ficus/README")
	if err != nil || string(data) != "optimistic replication" {
		t.Fatalf("%q %v", data, err)
	}
	// Propagation makes every replica self-sufficient.
	if _, err := c.Propagate(); err != nil {
		t.Fatal(err)
	}
	st, err := m2.Stat("/projects/ficus/README")
	if err != nil || st.IsDir || st.Size != 22 {
		t.Fatalf("%+v %v", st, err)
	}
}

func TestPartitionConflictResolveCycle(t *testing.T) {
	c := newTestCluster(t, 2)
	m0, _ := c.Mount(0)
	m1, _ := c.Mount(1)
	if err := m0.WriteFile("/doc", []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	c.Partition([]int{0}, []int{1})
	if err := m0.WriteFile("/doc", []byte("from host 0")); err != nil {
		t.Fatalf("one-copy availability violated: %v", err)
	}
	if err := m1.WriteFile("/doc", []byte("from host 1")); err != nil {
		t.Fatalf("one-copy availability violated: %v", err)
	}
	c.Heal()
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	confs := c.Conflicts()
	if len(confs) == 0 {
		t.Fatal("conflict not reported")
	}
	if confs[0].FileID == "" || confs[0].LocalVV == "" {
		t.Fatalf("conflict lacks detail: %+v", confs[0])
	}
	if err := c.Resolve(confs[0], []byte("owner merged")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, _ := c.Mount(i)
		data, err := m.ReadFile("/doc")
		if err != nil || string(data) != "owner merged" {
			t.Fatalf("host %d: %q %v", i, data, err)
		}
	}
	if n := len(c.Conflicts()); n != 0 {
		t.Fatalf("%d conflicts after resolve", n)
	}
}

func TestResolveRequiresRealConflict(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.Resolve(Conflict{}, nil); err == nil {
		t.Fatal("resolved a zero conflict")
	}
}

func TestDirectoryConflictAutoRepairEndToEnd(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.Settle(5); err != nil {
		t.Fatal(err)
	}
	c.Partition([]int{0}, []int{1})
	m0, _ := c.Mount(0)
	m1, _ := c.Mount(1)
	if err := m0.WriteFile("/report", []byte("host0 version")); err != nil {
		t.Fatal(err)
	}
	if err := m1.WriteFile("/report", []byte("host1 version")); err != nil {
		t.Fatal(err)
	}
	c.Heal()
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	ents, err := m0.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("entries %v", ents)
	}
	// No file conflict: these are distinct files under repaired names.
	if n := len(c.Conflicts()); n != 0 {
		t.Fatalf("%d conflicts", n)
	}
}

func TestFileCursorSemantics(t *testing.T) {
	c := newTestCluster(t, 1)
	m, _ := c.Mount(0)
	f, err := m.Open("/f", ReadWrite|Create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("%q %v", got, err)
	}
	if pos, err := f.Seek(-5, io.SeekEnd); err != nil || pos != 6 {
		t.Fatalf("seek end: %d %v", pos, err)
	}
	tail := make([]byte, 5)
	if _, err := io.ReadFull(f, tail); err != nil || string(tail) != "world" {
		t.Fatalf("%q %v", tail, err)
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Fatal("bad whence accepted")
	}
	if _, err := f.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek accepted")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("double close accepted")
	}
	if _, err := f.Read(tail); err == nil {
		t.Fatal("read after close accepted")
	}
	if _, err := f.Write(tail); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestOpenTruncateAndReadAtWriteAt(t *testing.T) {
	c := newTestCluster(t, 1)
	m, _ := c.Mount(0)
	if err := m.WriteFile("/f", []byte("old contents")); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open("/f", ReadWrite|Truncate)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("xy"), 3); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 'x', 'y'}) {
		t.Fatalf("%v", got)
	}
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	st, _ := m.Stat("/f")
	if st.Size != 3 {
		t.Fatalf("size %d", st.Size)
	}
	if _, err := m.Open("/missing", ReadOnly); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
}

func TestRenameRemoveReadDir(t *testing.T) {
	c := newTestCluster(t, 2)
	m, _ := c.Mount(0)
	m.MkdirAll("/a/b")
	m.WriteFile("/a/b/one", []byte("1"))
	m.WriteFile("/a/b/two", []byte("2"))
	if err := m.Rename("/a/b/one", "/a/uno"); err != nil {
		t.Fatal(err)
	}
	ents, _ := m.ReadDir("/a")
	if len(ents) != 2 || ents[0].Name != "b" || ents[1].Name != "uno" {
		t.Fatalf("%v", ents)
	}
	if err := m.Remove("/a/b/two"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rmdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("/a/b"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat removed dir: %v", err)
	}
}

func TestSymlinkAndLink(t *testing.T) {
	c := newTestCluster(t, 1)
	m, _ := c.Mount(0)
	m.WriteFile("/data", []byte("x"))
	if err := m.Symlink("/data", "/ln"); err != nil {
		t.Fatal(err)
	}
	got, err := m.Readlink("/ln")
	if err != nil || got != "/data" {
		t.Fatalf("%q %v", got, err)
	}
	if err := m.Link("/data", "/alias"); err != nil {
		t.Fatal(err)
	}
	data, err := m.ReadFile("/alias")
	if err != nil || string(data) != "x" {
		t.Fatalf("%q %v", data, err)
	}
}

func TestVolumesAndGrafting(t *testing.T) {
	c := newTestCluster(t, 3)
	proj, err := c.NewVolume(2)
	if err != nil {
		t.Fatal(err)
	}
	if proj.String() == "" || proj == c.RootVolume() {
		t.Fatal("volume identity")
	}
	pm, err := c.MountVolume(2, proj)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.WriteFile("/notes", []byte("volume data")); err != nil {
		t.Fatal(err)
	}
	// Replicate the project volume onto host 1 as well.
	if err := c.ReplicateVolume(proj, 1); err != nil {
		t.Fatal(err)
	}
	// Graft it into the root namespace, created at host 0.
	if err := c.Graft(0, "/", "proj", proj); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	// Every host can now walk into the project volume transparently.
	for i := 0; i < 3; i++ {
		m, err := c.Mount(i)
		if err != nil {
			t.Fatal(err)
		}
		data, err := m.ReadFile("/proj/notes")
		if err != nil || string(data) != "volume data" {
			t.Fatalf("host %d: %q %v", i, data, err)
		}
	}
	// Pruning and regrafting.
	c.Tick()
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	if n := c.PruneGrafts(5); n == 0 {
		t.Fatal("nothing pruned")
	}
	m0, _ := c.Mount(0)
	if _, err := m0.ReadFile("/proj/notes"); err != nil {
		t.Fatalf("regraft failed: %v", err)
	}
}

func TestGraftUnknownVolumeErrors(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.Graft(0, "/", "x", Volume{}); err == nil {
		t.Fatal("grafted unknown volume")
	}
	if err := c.ReplicateVolume(Volume{}, 0); err == nil {
		t.Fatal("replicated unknown volume")
	}
}

func TestHostDownFailover(t *testing.T) {
	c := newTestCluster(t, 3, WithPolicy(FirstAvailable))
	m0, _ := c.Mount(0)
	if err := m0.WriteFile("/f", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	// Crash host 0's... rather read from host 1 with host 2 down.
	c.SetHostDown(2, true)
	m1, _ := c.Mount(1)
	data, err := m1.ReadFile("/f")
	if err != nil || string(data) != "v" {
		t.Fatalf("%q %v", data, err)
	}
	c.SetHostDown(2, false)
}

func TestMaxNameConstant(t *testing.T) {
	if MaxName < 190 || MaxName > 230 {
		t.Fatalf("MaxName = %d, want about 200 (paper §2.3 fn2)", MaxName)
	}
	c := newTestCluster(t, 1)
	m, _ := c.Mount(0)
	long := make([]byte, MaxName+1)
	for i := range long {
		long[i] = 'a'
	}
	if err := m.WriteFile("/"+string(long), nil); err == nil {
		t.Fatal("over-long name accepted")
	}
	if err := m.WriteFile("/"+string(long[:MaxName]), nil); err != nil {
		t.Fatalf("max-len name rejected: %v", err)
	}
}

func TestClusterOptions(t *testing.T) {
	c := newTestCluster(t, 2, WithSeed(7), WithPolicy(FirstAvailable), WithStorage(8192, 1024))
	if c.NumHosts() != 2 {
		t.Fatal("NumHosts")
	}
	if c.Host(0) == nil {
		t.Fatal("Host accessor")
	}
	m, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("/x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	// Every replica's disk is the size WithStorage asked for, a side
	// volume's as well as the root volume's.
	side, err := c.NewVolume(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReplicateVolume(side, 0); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		for _, l := range c.Host(h).LocalReplicas() {
			if got := c.Host(h).Device(l.VolumeReplica()).Blocks(); got != 8192 {
				t.Fatalf("host %d replica %v: %d-block disk, want 8192", h, l.VolumeReplica(), got)
			}
		}
	}
}

func TestStatRoot(t *testing.T) {
	c := newTestCluster(t, 1)
	m, _ := c.Mount(0)
	st, err := m.Stat("/")
	if err != nil || !st.IsDir || st.Name != "/" {
		t.Fatalf("%+v %v", st, err)
	}
}

// TestHugeTruncateIsRefused: a truncate to a size no UFS inode can map used
// to be accepted by the substrate, and the physical layer's reseal then sized
// a buffer from it and took the process down — and the size arrives unchecked
// in an NFS request, so a client could stop the serving host.  It must be an
// error that leaves the file as it was, through a co-resident replica and
// through one reached over NFS, and the host must keep serving.
func TestHugeTruncateIsRefused(t *testing.T) {
	c := newTestCluster(t, 2)
	side, err := c.NewVolume(1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.MountVolume(0, side) // host 0 stores no replica of side
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *Mount
	}{{"co-resident", local}, {"over NFS", remote}} {
		m := tc.m
		if err := m.WriteFile("/f", []byte("contents")); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		v, err := vnode.Walk(m.Root(), "/f")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		before, err := v.Getattr() // Mtime is the version vector's total
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f, err := m.Open("/f", ReadWrite)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, size := range []uint64{1 << 62, 1 << 40} {
			size := size
			if err := f.Truncate(size); err == nil {
				t.Errorf("%s: Truncate(%d) succeeded", tc.name, size)
			}
			if err := v.Setattr(vnode.SetAttr{Size: &size}); err == nil {
				t.Errorf("%s: Setattr(size=%d) succeeded", tc.name, size)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if after, err := v.Getattr(); err != nil || after != before {
			t.Errorf("%s: attributes moved: %+v -> %+v, %v", tc.name, before, after, err)
		}
		if data, err := m.ReadFile("/f"); err != nil || string(data) != "contents" {
			t.Errorf("%s: contents after the refused truncates: %q, %v", tc.name, data, err)
		}
		if err := m.WriteFile("/g", []byte("still serving")); err != nil {
			t.Errorf("%s: host stopped serving: %v", tc.name, err)
		}
	}
	if problems, err := c.Fsck(); err != nil || len(problems) != 0 {
		t.Fatalf("Fsck: %v, %v", problems, err)
	}
}
