package repl

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// The bytes of a pull answer are lent by wire's pool (DESIGN.md §9.2): the
// serving layer reads them into a lent buffer, which the repl server releases
// once the reply is encoded and a co-resident puller once the answer is
// installed, and the puller assembles a delta version in a lent buffer that
// goes back once the commit has written it.

// sourceOf is the pull source a test propagates from: the serving layer itself
// (co-resident) or the repl server in front of it (served).
func sourceOf(r *rig, served bool) recon.Peer {
	if served {
		return r.client
	}
	return r.lB
}

// countReplies re-registers b's repl service so that it adds the capacity of
// every reply it encodes to *n: the reply is the receiver's, allocated per
// call, and a test of the lent bytes leaves it out.
func countReplies(r *rig, n *uint64) {
	r.net.Host("b").HandleRPC(Service, func(req []byte) ([]byte, error) {
		out, err := r.server.handle(req)
		*n += uint64(cap(out))
		return out, err
	})
}

// TestDeltaPullInstallAllocs: a warm pull of a one-block change to a 64 KiB
// file of distinct blocks and its install — the serving side's read, the delta
// install's assembly and its commit — allocate under 4 KiB, from a co-resident
// source and from a served one, whose reply, the receiver's, is left out.
// Reading the shipped block and assembling the version were a fresh 4 KiB and
// a fresh 64 KiB per pull before both were lent.  Warm means the pool holds
// buffers, every block of the simulated devices has been written once (the
// device allocates a block's bytes at its first write), and the puller's
// 256-block buffer cache is full, so a commit recycles the blocks it evicts.
// Invariants re-encode what the aux cache lends on every hit, so they are
// disarmed.
func TestDeltaPullInstallAllocs(t *testing.T) {
	defer invariant.ForceForTest(false)()
	const size, warm, runs = 64 << 10, 32, 20
	for _, served := range []bool{false, true} {
		t.Run(map[bool]string{false: "co-resident", true: "served"}[served], func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			r := newRig(t)
			r.lA, r.lB = touchedLayer(t, 1), touchedLayer(t, 2)
			r.server.Register(r.lB)
			fid := writeFile(t, r.lB, "big", string(bytes.Repeat([]byte{'a'}, size)))
			if _, err := recon.ReconcileVolume(r.lA, r.client); err != nil {
				t.Fatal(err)
			}
			var reply uint64
			countReplies(r, &reply)
			src := sourceOf(r, served)
			rootB, _ := r.lB.Root()
			f, err := rootB.Lookup("big")
			if err != nil {
				t.Fatal(err)
			}
			var total uint64
			for i := 0; i < warm+runs; i++ {
				// A one-byte change inside one block: the pull ships that block,
				// and after the first 16 passes every block is distinct.
				if _, err := f.WriteAt([]byte{byte('b' + i)}, int64(i%16)*physical.ChecksumBlockSize); err != nil {
					t.Fatal(err)
				}
				base := physical.DeltaBase{}
				req, _, err := r.lA.PullRequestFor(physical.RootPath(), fid, base)
				if err != nil {
					t.Fatal(err)
				}
				reqs, have := []physical.PullRequest{req}, base.Have()
				reply = 0
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				res, err := src.PullBatchDelta(reqs, have)
				if err == nil {
					err = r.lA.InstallPulled(physical.RootPath(), fid, &res[0], base)
					res[0].Release()
				}
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatalf("pass %d: %v", i, err)
				}
				if len(res[0].Missing) != 1 {
					t.Fatalf("pass %d shipped %d blocks, want 1", i, len(res[0].Missing))
				}
				if i >= warm {
					total += m1.TotalAlloc - m0.TotalAlloc - reply
				}
			}
			if per := total / runs; per >= 4<<10 {
				t.Errorf("a warm one-block delta pull and install of a %d-byte file allocates %d bytes, want under 4 KiB", size, per)
			}
			want, _ := vnode.ReadFile(f)
			if got := readBack(t, r.lA, "big"); !bytes.Equal(got, want) {
				t.Fatal("installed bytes differ from the origin's")
			}
		})
	}
}

// touchedLayer is a replica of testVol on a device every block of which has
// been written once, so that a commit's fresh shadow blocks allocate nothing
// in the simulated device.
func touchedLayer(t *testing.T, r ids.ReplicaID) *physical.Layer {
	t.Helper()
	dev := disk.New(2048)
	zero := make([]byte, disk.BlockSize)
	for bn := 0; bn < dev.Blocks(); bn++ {
		if err := dev.Write(bn, zero); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := ufs.Mkfs(dev, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := physical.Format(ufsvn.New(fs), testVol, r)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// readBack reads file name of l's root whole.
func readBack(t *testing.T, l *physical.Layer, name string) []byte {
	t.Helper()
	root, _ := l.Root()
	f, err := root.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := vnode.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConcurrentPullsOwnTheirBytes: rigs on separate goroutines propagate
// files of different sizes — under a block, whole blocks, and past the pool's
// largest buffer — whole and as deltas, co-resident and served, all through
// the one shared pool, with the poison armed: a buffer returned while its
// bytes were still to be encoded or installed would be handed to another rig
// or overwritten, and the bytes compared at the end would differ.
func TestConcurrentPullsOwnTheirBytes(t *testing.T) {
	defer invariant.ForceForTest(true)()
	sizes := []int{1, 3000, 4096, 20000, 64 << 10, 80 << 10}
	const rigs, rounds = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, rigs)
	for g := 0; g < rigs; g++ {
		r := newRig(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pullRounds(r, g, sizes, rounds); err != nil {
				errs <- fmt.Errorf("rig %d: %w", g, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// pullRounds writes rounds versions of one file per size at r's server, each
// a pattern of rig g, and propagates every round to r's puller, alternating
// the co-resident and the served source; each installed version must match
// what was written byte for byte.
func pullRounds(r *rig, g int, sizes []int, rounds int) error {
	rootB, _ := r.lB.Root()
	want := make(map[string][]byte)
	for round := 0; round < rounds; round++ {
		for k, n := range sizes {
			name := fmt.Sprintf("f%d", k)
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(g*31 + k*7 + i/physical.ChecksumBlockSize)
			}
			data[(round*977)%n] = byte(round) // later rounds change one block
			f, err := rootB.Lookup(name)
			if vnode.AsErrno(err) == vnode.ENOENT {
				f, err = rootB.Create(name, false)
			}
			if err != nil {
				return err
			}
			if err := vnode.WriteFile(f, data); err != nil {
				return err
			}
			want[name] = data
		}
		// The first round reconciles (whole versions), the rest propagate
		// (deltas against the versions they replace).
		src := sourceOf(r, round%2 == 1)
		if round == 0 {
			if _, err := recon.ReconcileVolume(r.lA, src); err != nil {
				return err
			}
		} else {
			ents, err := r.lB.DirEntries(physical.RootPath())
			if err != nil {
				return err
			}
			for _, e := range ents.Entries {
				r.lA.NoteNewVersion(physical.RootPath(), e.Child, 2)
			}
			if _, err := recon.PropagateOnce(r.lA, func(ids.ReplicaID) recon.Peer { return src }); err != nil {
				return err
			}
		}
		rootA, _ := r.lA.Root()
		for name, data := range want {
			f, err := rootA.Lookup(name)
			if err != nil {
				return err
			}
			got, err := vnode.ReadFile(f)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("round %d: %s installed %d bytes that differ from the %d written", round, name, len(got), len(data))
			}
		}
	}
	return nil
}

// TestRequestEncodedLenIsExact: a request is lent a buffer of exactly its
// encoded length, so its encoding never grows the buffer — an advertisement
// of many blocks used to grow the pool's smallest buffer on every pull.
func TestRequestEncodedLenIsExact(t *testing.T) {
	reqs := []*request{sampleRequest(), {}}
	for _, n := range []int{1, 127, 128, 1000} {
		req := &request{Op: opPullBatchDelta, Dir: make([]ids.FileID, n%9),
			Pulls: make([]physical.PullRequest, n%130), Have: make([]physical.BlockAddr, n)}
		for i := range req.Pulls {
			req.Pulls[i] = physical.PullRequest{Dir: make([]ids.FileID, i%4), HasLocal: i%2 == 0,
				LocalVV: vv.Of(map[ids.ReplicaID]uint64{ids.ReplicaID(i + 1): uint64(i + 1)})}
		}
		reqs = append(reqs, req)
	}
	for i, req := range reqs {
		if got, want := req.encodedLen(), len(req.encode(nil)); got != want {
			t.Errorf("request %d: encodedLen %d, encoding %d bytes", i, got, want)
		}
	}
}
