package cryptfs

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vntest"
)

func newUFS(t *testing.T) vnode.VFS {
	t.Helper()
	fs, err := ufs.Mkfs(disk.New(4096), 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ufsvn.New(fs)
}

// TestConformance: the encryption layer is just another layer — the full
// suite must pass through it unchanged.
func TestConformance(t *testing.T) {
	vntest.Run(t, vntest.Config{MaxName: ufs.MaxNameLen},
		func(t *testing.T) vnode.VFS { return New(newUFS(t), []byte("secret")) })
}

// TestConformanceOverFicus stacks the crypt layer ABOVE a complete Ficus
// logical layer: the §1 "slip in a layer" claim end to end.
func TestConformanceOverFicus(t *testing.T) {
	vol := ids.VolumeHandle{Allocator: 8, Volume: 8}
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
			return New(lay, []byte("layered secret"))
		})
}

func TestCiphertextOnSubstrate(t *testing.T) {
	lower := newUFS(t)
	cfs := New(lower, []byte("key"))
	root, _ := cfs.Root()
	f, err := root.Create("secret.txt", true)
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("attack at dawn, repeatedly: attack at dawn attack at dawn")
	if err := vnode.WriteFile(f, plain); err != nil {
		t.Fatal(err)
	}
	// Through the layer: plaintext.
	got, err := vnode.ReadFile(f)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("through layer: %q %v", got, err)
	}
	// On the substrate: ciphertext of the same length.
	lroot, _ := lower.Root()
	lf, err := lroot.Lookup("secret.txt")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := vnode.ReadFile(lf)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(plain) {
		t.Fatalf("size changed: %d vs %d", len(raw), len(plain))
	}
	if bytes.Equal(raw, plain) {
		t.Fatal("plaintext leaked to the substrate")
	}
	if bytes.Contains(raw, []byte("attack")) {
		t.Fatal("plaintext fragment leaked")
	}
}

func TestRandomOffsetReadWriteRoundTrip(t *testing.T) {
	cfs := New(newUFS(t), []byte("key"))
	root, _ := cfs.Root()
	f, _ := root.Create("f", true)
	// Property: any (data, offset) write reads back identically.
	check := func(data []byte, off16 uint16) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(off16 % 5000)
		if _, err := f.WriteAt(data, off); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(got, off); err != nil && len(got) > 0 && !bytes.Equal(got, data) {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestUnalignedOffsetsConsistent(t *testing.T) {
	cfs := New(newUFS(t), []byte("key"))
	root, _ := cfs.Root()
	f, _ := root.Create("f", true)
	full := make([]byte, 100)
	for i := range full {
		full[i] = byte(i)
	}
	if err := vnode.WriteFile(f, full); err != nil {
		t.Fatal(err)
	}
	// Reading any sub-range must match, regardless of CTR block alignment.
	for _, off := range []int64{0, 1, 15, 16, 17, 31, 33, 63, 99} {
		p := make([]byte, 1)
		if _, err := f.ReadAt(p, off); err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		if p[0] != byte(off) {
			t.Fatalf("off %d: got %d", off, p[0])
		}
	}
}

func TestDistinctFilesDistinctStreams(t *testing.T) {
	lower := newUFS(t)
	cfs := New(lower, []byte("key"))
	root, _ := cfs.Root()
	a, _ := root.Create("a", true)
	b, _ := root.Create("b", true)
	plain := []byte("identical plaintext")
	vnode.WriteFile(a, plain)
	vnode.WriteFile(b, plain)
	lroot, _ := lower.Root()
	la, _ := lroot.Lookup("a")
	lb, _ := lroot.Lookup("b")
	ra, _ := vnode.ReadFile(la)
	rb, _ := vnode.ReadFile(lb)
	if bytes.Equal(ra, rb) {
		t.Fatal("two files share a keystream")
	}
}

func TestWrongKeyReadsGarbage(t *testing.T) {
	lower := newUFS(t)
	good := New(lower, []byte("right key"))
	root, _ := good.Root()
	f, _ := root.Create("f", true)
	vnode.WriteFile(f, []byte("sensitive"))

	bad := New(lower, []byte("wrong key"))
	broot, _ := bad.Root()
	bf, _ := broot.Lookup("f")
	got, err := vnode.ReadFile(bf)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, []byte("sensitive")) {
		t.Fatal("wrong key decrypted the data")
	}
}

func TestSymlinkTargetEncrypted(t *testing.T) {
	lower := newUFS(t)
	cfs := New(lower, []byte("key"))
	root, _ := cfs.Root()
	if err := root.Symlink("ln", "/very/secret/path"); err != nil {
		t.Fatal(err)
	}
	l, _ := root.Lookup("ln")
	got, err := l.Readlink()
	if err != nil || got != "/very/secret/path" {
		t.Fatalf("%q %v", got, err)
	}
	lroot, _ := lower.Root()
	ll, _ := lroot.Lookup("ln")
	raw, _ := ll.Readlink()
	if raw == "/very/secret/path" {
		t.Fatal("symlink target leaked to substrate")
	}
}

func TestRenameKeepsKey(t *testing.T) {
	cfs := New(newUFS(t), []byte("key"))
	root, _ := cfs.Root()
	f, _ := root.Create("a", true)
	vnode.WriteFile(f, []byte("stable across rename"))
	if err := root.Rename("a", root, "b"); err != nil {
		t.Fatal(err)
	}
	g, err := root.Lookup("b")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vnode.ReadFile(g)
	if err != nil || string(got) != "stable across rename" {
		t.Fatalf("%q %v (key derivation must follow identity, not name)", got, err)
	}
}

// TestConcurrentFirstReads: two goroutines read one freshly looked-up vnode
// at once, so both find its file identity not yet known and fetch it.  The
// vnode is safe for concurrent use, as every vnode must be: under -race
// this test holds the identity cache to that, and both reads decrypt.
func TestConcurrentFirstReads(t *testing.T) {
	cfs := New(newUFS(t), []byte("key"))
	root, _ := cfs.Root()
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("read by two at once")
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	g, err := root.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := [2][]byte{make([]byte, len(want)), make([]byte, len(want))}
	errs := [2]error{}
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = g.ReadAt(got[i], 0)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil && errs[i] != io.EOF {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("reader %d read %q, want %q", i, got[i], want)
		}
	}
}
