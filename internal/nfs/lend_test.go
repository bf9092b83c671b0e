package nfs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/invariant"
	"repro/internal/ufs"
	"repro/internal/vnode"
)

// TestConcurrentReadsOwnTheirBytes: every message buffer is lent by one pool
// that all goroutines share, and a read's data is a view of its reply until
// the client copies it out (DESIGN.md §9.2).  Several goroutines read files of
// different sizes and contents through one client, whole and past their ends,
// with the pool's poison armed: a reply returned before its data was copied,
// or lent to two readers at once, shows as a wrong byte.  make race runs it
// under the race detector.
func TestConcurrentReadsOwnTheirBytes(t *testing.T) {
	defer invariant.ForceForTest(true)()
	r := newRig(t, nil)
	root, err := r.client.Root()
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 200, 4096, 5000, 8192, 20000}
	files := make([]vnode.Vnode, len(sizes))
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		if files[i], err = root.Create(fmt.Sprintf("f%d", i), true); err != nil {
			t.Fatal(err)
		}
		want[i] = make([]byte, n)
		for j := range want[i] {
			want[i][j] = byte(i*31 + j*7 + 1)
		}
		if err := vnode.WriteFile(files[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	const readers, rounds = 4, 60
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (g + k) % len(files)
				// Odd rounds ask for more than the file holds: the reply
				// comes back short, behind room sized for the whole ask.
				p := make([]byte, len(want[i])+k%2*300)
				n, err := files[i].ReadAt(p, 0)
				if err != nil && err != io.EOF {
					errs <- err
					return
				}
				if !bytes.Equal(p[:n], want[i]) {
					errs <- fmt.Errorf("reader %d round %d: f%d read %d bytes that differ from the %d written", g, k, i, n, len(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFileSystemsShareOnePool: the UFS buffer cache takes its blocks from the
// pool that lends NFS its messages, so a block one file system retires may be
// lent to another as a block, or to the server as a reply.  Two file systems,
// one with its caches off so that every block it reads or writes is retired,
// rewrite and patch their own files on two goroutines while a third reads the
// server's files through NFS, all with the pool's poison armed; every byte
// read is compared with a model of what was last written.  make race runs it
// under the race detector.
func TestFileSystemsShareOnePool(t *testing.T) {
	defer invariant.ForceForTest(true)()
	r := newRig(t, nil)
	root, err := r.client.Root()
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 4096, 5000, 20000}
	files := make([]vnode.Vnode, len(sizes))
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		if files[i], err = root.Create(fmt.Sprintf("f%d", i), true); err != nil {
			t.Fatal(err)
		}
		want[i] = make([]byte, n)
		for j := range want[i] {
			want[i][j] = byte(i*31 + j*7 + 1)
		}
		if err := vnode.WriteFile(files[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 60
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g, opts := range []*ufs.Options{{DisableCaches: true}, nil} {
		fs, err := ufs.Mkfs(disk.New(1024), 64, opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := churn(fs, g, rounds); err != nil {
				errs <- fmt.Errorf("file system %d: %w", g, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < rounds; k++ {
			i := k % len(files)
			p := make([]byte, len(want[i]))
			if n, err := files[i].ReadAt(p, 0); err != nil && err != io.EOF || !bytes.Equal(p[:n], want[i]) {
				errs <- fmt.Errorf("NFS round %d: f%d read %d bytes (%v) that differ from the %d written", k, i, n, err, len(want[i]))
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// churn rewrites three files of fs in turn, each with contents of up to five
// blocks that name the round, patches 100 bytes of it at an offset that may
// run past its end, and after each round reads every file back whole,
// comparing it with the model of what was last written.
func churn(fs *ufs.FS, g, rounds int) error {
	inos := make([]ufs.Ino, 3)
	model := make([][]byte, len(inos))
	for i := range inos {
		var err error
		if inos[i], err = fs.Create(fs.Root(), fmt.Sprintf("f%d", i)); err != nil {
			return err
		}
	}
	for k := 0; k < rounds; k++ {
		i := k % len(inos)
		data := make([]byte, 1+k*1237%(5*ufs.BlockSize))
		for j := range data {
			data[j] = byte(g*97 + k*13 + j*7 + 1)
		}
		if err := fs.WriteFile(inos[i], data); err != nil {
			return err
		}
		patch, off := bytes.Repeat([]byte{byte(k)}, 100), k*311%len(data)
		if _, err := fs.WriteAt(inos[i], patch, int64(off)); err != nil {
			return err
		}
		if end := off + len(patch); end > len(data) {
			data = append(data, make([]byte, end-len(data))...)
		}
		copy(data[off:], patch)
		model[i] = data
		for i, want := range model {
			if want == nil {
				continue
			}
			if got, err := fs.ReadFile(inos[i]); err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("round %d: f%d read %d bytes (%v) that differ from the %d written", k, i, len(got), err, len(want))
			}
		}
	}
	return nil
}
