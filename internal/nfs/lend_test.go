package nfs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/invariant"
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
