package physical

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
)

// TestAdvertisementOrderDoesNotMatter: the serving side looks addresses up in
// the advertisement by binary search, so one a peer sent out of order is
// sorted first — it ships exactly what the same advertisement in order ships,
// and the bytes it reads go back to the pool with the answer.
func TestAdvertisementOrderDoesNotMatter(t *testing.T) {
	data := slices.Concat(blockOf('a'), blockOf('b'), blockOf('c'), blockOf('d'))
	_, l, fid := newBlockLayer(t, data)
	m := ComputeManifest(data)
	held := []BlockAddr{m.Blocks[0], m.Blocks[2], m.Blocks[3]}
	slices.SortFunc(held, compareAddrs)
	req := []PullRequest{{Dir: RootPath(), File: fid}}
	for _, have := range [][]BlockAddr{held, {held[2], held[0], held[1]}} {
		res, err := l.PullBatchDelta(req, have)
		if err != nil {
			t.Fatal(err)
		}
		r := &res[0]
		if r.Status != PullData || len(r.Missing) != 1 || r.Missing[0].Addr != m.Blocks[1] ||
			!bytes.Equal(r.Missing[0].Data, blockOf('b')) {
			t.Fatalf("advertisement %x: answer ships %d blocks, want block 1 alone", have, len(r.Missing))
		}
		r.Release()
		r.Release() // a second release does nothing
	}
}

// TestDeltaBaseHolders: an address's holders are kept in the order the
// request was built, each file once however often the block repeats inside
// it, and every one of them is found.
func TestDeltaBaseHolders(t *testing.T) {
	var addr BlockAddr
	var files []*baseFile
	var want []ids.FileID
	for seq := uint64(1); seq <= 4; seq++ {
		files = append(files, &baseFile{fid: ids.FileID{Issuer: 1, Seq: seq}})
		want = append(want, files[len(files)-1].fid)
	}
	base := DeltaBase{}
	for _, f := range files {
		base.offer(addr, f, 0)
		base.offer(addr, f, 1) // a repeat inside the same file
	}
	var got []ids.FileID
	first := base[addr]
	for h := &first; h != nil; h = h.next {
		if h.block != 0 {
			t.Errorf("file %s offers block %d, want its first mention, block 0", h.file.fid, h.block)
		}
		got = append(got, h.file.fid)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("holders %v, want %v in order", got, want)
	}
}

// stampedBlock is a full-size block whose content names version v and
// position i, so no two (v, i) share an address.
func stampedBlock(v byte, i int) []byte {
	b := blockOf(v)
	binary.BigEndian.PutUint32(b, uint32(i))
	return b
}

// TestDeltaInstallManyBlocks: a delta install of a 1 024-block file, every
// other block rewritten, takes the rewritten blocks from the answer in any
// order they arrive (a repeated address among them) and the rest from the
// base, reading each base block once: one device read more per reused block
// than a whole-file install of the same version, and the few indirect blocks
// that map the holder's.
func TestDeltaInstallManyBlocks(t *testing.T) {
	const n = 1024
	var old, newData []byte
	for i := 0; i < n; i++ {
		old = append(old, stampedBlock('o', i)...)
		switch {
		case i%2 == 0:
			newData = append(newData, stampedBlock('o', i)...)
		case i == n-1: // repeats block 1's new content
			newData = append(newData, stampedBlock('n', 1)...)
		default:
			newData = append(newData, stampedBlock('n', i)...)
		}
	}
	devD, lD, fid := newBlockLayer(t, old)
	devW, lW, fidW := newBlockLayer(t, old)
	if fidW != fid {
		t.Fatal("the stores diverged before the pull")
	}
	base := baseOf(lD, fid)
	m, missing := deltaAnswer(newData, base.Have())
	if len(missing) != n/2-1 {
		t.Fatalf("the answer ships %d blocks, want %d", len(missing), n/2-1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(missing), func(i, j int) { missing[i], missing[j] = missing[j], missing[i] })
	vvNew := nextVV(t, lD, fid)
	baseOf(lW, fid)
	r0 := devD.Stats().Reads
	if err := installDelta(lD, fid, m, missing, vvNew, base); err != nil {
		t.Fatal(err)
	}
	deltaReads := devD.Stats().Reads - r0
	r0 = devW.Stats().Reads
	if err := installAll(lW, fid, newData, vvNew, m); err != nil {
		t.Fatal(err)
	}
	wholeReads := devW.Stats().Reads - r0
	if got := lD.BlockStats().BlocksReused; got != n/2 {
		t.Errorf("the install reused %d blocks, want %d", got, n/2)
	}
	if got := deltaReads - wholeReads; got > n/2+4 {
		t.Errorf("the delta install read %d device blocks, the whole install %d: %d more, want the %d it reuses and at most 4 indirect blocks", deltaReads, wholeReads, got, n/2)
	}
	if members := fileMembers(t, lD, fid); !bytes.Equal(members[0], newData) {
		t.Error("the delta install did not leave the new version")
	}
}

// TestAnswerReadsEachRunOnce: serving an answer reads each run of
// consecutive shipped blocks with one store read, so an answer that ships
// every block reads the file once.
func TestAnswerReadsEachRunOnce(t *testing.T) {
	fs, err := ufs.Mkfs(disk.New(8192), 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	l, err := Format(vnode.NewHook(ufsvn.New(fs), func(op string) {
		if op == "read" {
			reads++
		}
	}), testVol, 1)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := l.Root()
	for _, c := range []struct {
		name    string
		data    []byte
		held    []byte // a block the pull advertises, nil for none
		shipped int
		reads   int
	}{
		{"every block", slices.Concat(blockOf('a'), blockOf('b'), blockOf('c'), blockOf('d')[:9]), nil, 4, 1},
		{"a hole in the middle", slices.Concat(blockOf('a'), blockOf('b'), blockOf('c'), blockOf('d')[:9]), blockOf('b'), 3, 2},
		{"a repeated block", slices.Concat(blockOf('a'), blockOf('b'), blockOf('a'), blockOf('c')), nil, 3, 2},
		{"nothing", nil, nil, 0, 0},
	} {
		f, err := root.Create(c.name, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, c.data); err != nil {
			t.Fatal(err)
		}
		req := []PullRequest{{Dir: RootPath(), File: mustFid(t, f)}}
		var have []BlockAddr
		if c.held != nil {
			have = []BlockAddr{HashBlock(c.held)}
		}
		l.PullBatchDelta(req, nil) // warms the aux cache
		reads = 0
		res, _ := l.PullBatchDelta(req, have)
		if res[0].Status != PullData || len(res[0].Missing) != c.shipped {
			t.Fatalf("%s: answer %v shipping %d blocks, want %d", c.name, res[0].Status, len(res[0].Missing), c.shipped)
		}
		if reads != c.reads {
			t.Errorf("%s: serving read the store %d times, want %d", c.name, reads, c.reads)
		}
		res[0].Release()
	}
}

// TestShipsEachAddressOnceAtItsFirstPosition: an answer ships each address
// the advertisement lacks once, at its first position in the manifest, in
// manifest order — with the zero block and a non-zero block each repeated,
// under an empty and a non-empty advertisement, and against a set-based
// reading of the same rule over random manifests.
func TestShipsEachAddressOnceAtItsFirstPosition(t *testing.T) {
	zero, a, b, c := HashBlock(make([]byte, ChecksumBlockSize)), HashBlock(blockOf('a')), HashBlock(blockOf('b')), HashBlock(blockOf('c'))
	m := &BlockManifest{Blocks: []BlockAddr{zero, a, zero, b, a, zero, c, b}}
	for _, tc := range []struct {
		name string
		have []BlockAddr
		want []int
	}{
		{"an empty advertisement", nil, []int{0, 1, 3, 6}},
		{"one listing the zero block", []BlockAddr{zero}, []int{1, 3, 6}},
		{"one listing a repeated block", []BlockAddr{a}, []int{0, 3, 6}},
		{"one listing every block", []BlockAddr{zero, a, b, c}, []int{}},
	} {
		slices.SortFunc(tc.have, compareAddrs)
		ad := &advert{have: tc.have}
		if got := ad.ships(m); !slices.Equal(got, tc.want) {
			t.Errorf("%s: ships %v, want %v", tc.name, got, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	pool := []BlockAddr{zero, a, b, c, HashBlock(blockOf('d')), HashBlock(blockOf('e'))}
	ad := &advert{}
	for range 500 {
		m := &BlockManifest{}
		for range rng.Intn(20) {
			m.Blocks = append(m.Blocks, pool[rng.Intn(len(pool))])
		}
		ad.have = ad.have[:0]
		for _, addr := range pool {
			if rng.Intn(3) == 0 {
				ad.have = append(ad.have, addr)
			}
		}
		slices.SortFunc(ad.have, compareAddrs)
		var want []int
		seen := map[BlockAddr]bool{}
		for i, addr := range m.Blocks {
			if !seen[addr] && !slices.Contains(ad.have, addr) {
				want = append(want, i)
			}
			seen[addr] = true
		}
		if got := ad.ships(m); !slices.Equal(got, want) {
			t.Fatalf("manifest %d blocks, advertisement %d: ships %v, want %v", len(m.Blocks), len(ad.have), got, want)
		}
	}
}

// TestUnadvertisedPullAllocs pins what serving a warm one-file unadvertised
// pull of a 16-block file allocates: the batch's answers, the file's member
// names and container, the chosen indices and the shipped blocks — 5 objects,
// none to choose the blocks (9 while a map per batch chose them).
func TestUnadvertisedPullAllocs(t *testing.T) {
	defer invariant.ForceForTest(false)()
	var data []byte
	for i := range 16 {
		data = append(data, stampedBlock('v', i)...)
	}
	_, l, fid := newBlockLayer(t, data)
	req := []PullRequest{{Dir: RootPath(), File: fid}}
	pull := func() {
		res, _ := l.PullBatchDelta(req, nil)
		if res[0].Status != PullData || len(res[0].Missing) != 16 {
			t.Fatalf("answer %v shipping %d blocks, want all 16", res[0].Status, len(res[0].Missing))
		}
		res[0].Release()
	}
	pull() // warms the aux cache
	if n := testing.AllocsPerRun(50, pull); n > 5 {
		t.Errorf("serving the pull allocates %v objects, want at most 5", n)
	}
}
