package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// blockSize is the unit of file content: the UFS block, the physical
// layer's checksum/manifest chunk, and the granule of a one-block update.
const blockSize = 4096

// smallFile is the size of the scratch files the names cycle creates.
const smallFile = 512

// opKind is one client call shape.
type opKind uint8

const (
	opRead         opKind = iota // ReadFile: open + read + close
	opStat                       // Stat
	opReadDir                    // ReadDir
	opOverwrite                  // WriteFile over an existing file, all blocks new
	opBlockUpdate                // Open RDWR + WriteAt of one 4 KiB block + Close
	opCreate                     // WriteFile of a new file
	opRename                     // Rename across directories
	opRemove                     // Remove
	opMkdir                      // Mkdir
	opRmdir                      // Rmdir
	opCreateRename               // WriteFile of a new file, then Rename (two calls, one op)
)

// class groups op kinds into the four latency classes the metrics report.
type class uint8

const (
	clsRead class = iota
	clsWrite
	clsNames
	clsStat
	numClasses
)

var classNames = [numClasses]string{"read", "write", "names", "stat"}

func (k opKind) class() class {
	switch k {
	case opRead:
		return clsRead
	case opStat, opReadDir:
		return clsStat
	case opOverwrite, opBlockUpdate:
		return clsWrite
	default:
		return clsNames
	}
}

// op is one generated client operation.  It names everything the executor
// needs; contents are materialized from (id, ver, block) just before the
// call, so the stream itself stays small.
type op struct {
	kind  opKind
	side  int    // which mount issues it (partition_heal alternates 0/1)
	path  string // target
	path2 string // rename destination
	id    uint32 // content identity of the file written
	ver   uint32 // version stamped into the blocks written
	block int    // opBlockUpdate: which block
	size  int    // opCreate/opCreateRename/opOverwrite: bytes written
}

// fileState is the shadow model's record of one file: which version of
// each block a correct system must return.
type fileState struct {
	id   uint32
	size int
	vers []uint32 // per block
}

// model is the shadow file system: path -> expected contents, directory ->
// expected names.  The generator evolves one copy while it emits ops; the
// executor evolves a second copy as ops are acknowledged and checks every
// read against it.
type model struct {
	seed  int64
	files map[string]*fileState
	dirs  map[string]map[string]bool
}

func newModel(seed int64) *model {
	return &model{seed: seed, files: map[string]*fileState{}, dirs: map[string]map[string]bool{"": {}}}
}

func splitDir(path string) (dir, name string) {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i], path[i+1:]
		}
	}
	return "", path
}

func (m *model) addFile(path string, id uint32, size int, ver uint32) {
	nb := (size + blockSize - 1) / blockSize
	vers := make([]uint32, nb)
	for i := range vers {
		vers[i] = ver
	}
	m.files[path] = &fileState{id: id, size: size, vers: vers}
	d, n := splitDir(path)
	m.dirs[d][n] = true
}

func (m *model) addDir(path string) {
	m.dirs[path] = map[string]bool{}
	d, n := splitDir(path)
	m.dirs[d][n] = true
}

// apply advances the model by one acknowledged op.
func (m *model) apply(o *op) {
	switch o.kind {
	case opOverwrite:
		f := m.files[o.path]
		for i := range f.vers {
			f.vers[i] = o.ver
		}
	case opBlockUpdate:
		m.files[o.path].vers[o.block] = o.ver
	case opCreate:
		m.addFile(o.path, o.id, o.size, o.ver)
	case opCreateRename:
		m.addFile(o.path2, o.id, o.size, o.ver)
	case opRename:
		f := m.files[o.path]
		delete(m.files, o.path)
		d, n := splitDir(o.path)
		delete(m.dirs[d], n)
		m.files[o.path2] = f
		d, n = splitDir(o.path2)
		m.dirs[d][n] = true
	case opRemove:
		delete(m.files, o.path)
		d, n := splitDir(o.path)
		delete(m.dirs[d], n)
	case opMkdir:
		m.addDir(o.path)
	case opRmdir:
		delete(m.dirs, o.path)
		d, n := splitDir(o.path)
		delete(m.dirs[d], n)
	}
}

// names returns the sorted expected listing of a directory.
func (m *model) names(dir string) []string {
	out := make([]string, 0, len(m.dirs[dir]))
	for n := range m.dirs[dir] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// userBytes is the live user data the model holds.
func (m *model) userBytes() uint64 {
	var n uint64
	for _, f := range m.files {
		n += uint64(f.size)
	}
	return n
}

// fillBlock writes the contents of block bi of file id at version ver.  The
// identifying triple is stamped into the leading bytes (as
// workload.DeltaBlock does), so two blocks are equal only when they are the
// same block of the same version and the block pool never dedups by
// accident; the rest is a splitmix64 stream keyed by the same triple.
func fillBlock(p []byte, seed int64, id, ver uint32, bi int) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(id)<<40 ^ uint64(ver)<<16 ^ uint64(bi)
	i := 0
	for ; i+8 <= len(p); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(p[i:], z^z>>31)
	}
	for ; i < len(p); i++ {
		p[i] = byte(x >> (8 * uint(i&7)))
	}
	if len(p) >= 24 {
		binary.LittleEndian.PutUint64(p[0:], uint64(seed))
		binary.LittleEndian.PutUint64(p[8:], uint64(id)<<32|uint64(ver))
		binary.LittleEndian.PutUint64(p[16:], uint64(bi))
	}
}

// content renders a file's expected bytes into buf (grown as needed).
func (m *model) content(f *fileState, buf []byte) []byte {
	if cap(buf) < f.size {
		buf = make([]byte, f.size)
	}
	buf = buf[:f.size]
	for bi := range f.vers {
		end := (bi + 1) * blockSize
		if end > f.size {
			end = f.size
		}
		fillBlock(buf[bi*blockSize:end], m.seed, f.id, f.vers[bi], bi)
	}
	return buf
}

// mixEntry is one row of a workload's operation mix, in percent.
type mixEntry struct {
	kind opKind // opCreate stands for "one step of the names cycle"
	pct  int
}

// spec sizes one workload.  Populations, mixes and passEvery never change
// with -scale; only ops does.
type spec struct {
	name       string
	hosts      int
	files      int
	fileBlocks int
	dirs       int
	ops        int    // measured client ops at scale 1
	passEvery  int    // P: client ops between daemon passes (0: no daemon steps)
	storage    [2]int // WithStorage(blocks, inodes); zero: the default disk
	mix        []mixEntry
	// sideVolume: the volume lives on hosts 1 and 2 and is mounted from host
	// 0, which stores no replica of it (paper Figure 2).  Read-only, so
	// there is nothing to converge.
	sideVolume bool
	// partitioned: hosts {0,1} and {2,3} are separated for the measured
	// phase, both sides update, and host 3 power-fails before the heal.
	partitioned bool
}

var specs = []spec{
	{
		name: "local_mix", hosts: 1, files: 1024, fileBlocks: 2, dirs: 32,
		ops: 24000, passEvery: 256, storage: [2]int{131072, 32768},
		mix: []mixEntry{{opRead, 55}, {opStat, 15}, {opReadDir, 5}, {opOverwrite, 10}, {opBlockUpdate, 5}, {opCreate, 10}},
	},
	{
		name: "remote_read", hosts: 3, files: 64, fileBlocks: 2, dirs: 8,
		ops: 48000, sideVolume: true,
		mix: []mixEntry{{opRead, 70}, {opStat, 25}, {opReadDir, 5}},
	},
	{
		name: "update_propagate", hosts: 3, files: 128, fileBlocks: 16, dirs: 8,
		ops: 1280, passEvery: 64, storage: [2]int{131072, 32768},
		mix: []mixEntry{{opRead, 25}, {opStat, 10}, {opOverwrite, 20}, {opBlockUpdate, 35}, {opCreate, 10}},
	},
	{
		name: "partition_heal", hosts: 4, files: 256, fileBlocks: 2, dirs: 8,
		ops: 1152, passEvery: 128, partitioned: true,
		// The mix is fixed in genPartition: 45 % overwrite (5 % of them
		// planted conflicts), 30 % create, 10 % create-then-rename,
		// 10 % mkdir, 5 % remove.
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

func dirName(d int) string { return fmt.Sprintf("d%02d", d) }

// filePath places file i in directory i mod dirs, so consecutive
// popularity ranks (already scattered by the permutation) never share a
// directory.
func (s *spec) filePath(i int) string {
	return fmt.Sprintf("%s/f%04d", dirName(i%s.dirs), i)
}

// populate returns the ops that build the initial population (all
// directories, then every file at version 1) and the model they lead to.
func (s *spec) populate(seed int64) ([]op, *model) {
	m := newModel(seed)
	var ops []op
	for d := 0; d < s.dirs; d++ {
		ops = append(ops, op{kind: opMkdir, path: dirName(d)})
	}
	for i := 0; i < s.files; i++ {
		ops = append(ops, op{kind: opCreate, path: s.filePath(i), id: uint32(i), ver: 1, size: s.fileBlocks * blockSize})
	}
	for i := range ops {
		m.apply(&ops[i])
	}
	return ops, m
}

// stream generates warm warm-up ops and then n measured ops over a freshly
// populated model, and the paths written on both sides of the partition (nil
// without one).
func (s *spec) stream(seed int64, warm, n int) ([]op, map[string]bool) {
	_, m := s.populate(seed)
	if s.partitioned {
		return s.genPartition(seed, warm, n, m)
	}
	return s.generate(seed, warm, n, m), nil
}

// rankPerm maps popularity rank to file index.  It is the same for every
// seed: the seed varies the order of references, not which files are hot.
func rankPerm(n int) []int { return rand.New(rand.NewSource(0x5eed)).Perm(n) }

// zipfS is the exponent of the file-popularity law.
const zipfS = 1.1

// apportion splits n into len(weights) whole parts proportional to the
// weights (largest remainder), so the parts always sum to n.
func apportion(n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	parts := make([]int, len(weights))
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, len(weights))
	given := 0
	for i, w := range weights {
		x := float64(n) * w / total
		parts[i] = int(x)
		given += parts[i]
		rems[i] = rem{i, x - float64(parts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for k := 0; given < n; k++ {
		parts[rems[k%len(rems)].i]++
		given++
	}
	return parts
}

// zipfWeights is the Zipf(s) law over n ranks.
func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	for r := range w {
		w[r] = math.Pow(float64(r+1), -zipfS)
	}
	return w
}

// draw is one shuffled (kind, rank) pair.
type draw struct {
	kind opKind
	rank int
}

// deck returns n draws whose kinds follow mix exactly and whose ranks
// follow Zipf over nranks exactly (both to within one, by largest
// remainder), in an order shuffled by rng.  Every seed therefore issues
// the same multiset of references -- the same number of overwrites of the
// hottest file, the same number of reads of the coldest -- and differs
// only in their order, which keeps whole-run metrics comparable across
// seeds while no two seeds see the same stream.
func deck(rng *rand.Rand, n int, mix []mixEntry, nranks int) []draw {
	w := make([]float64, len(mix))
	for i, e := range mix {
		w[i] = float64(e.pct)
	}
	zw := zipfWeights(nranks)
	out := make([]draw, 0, n)
	for i, nk := range apportion(n, w) {
		for rank, c := range apportion(nk, zw) {
			for ; c > 0; c-- {
				out = append(out, draw{mix[i].kind, rank})
			}
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// scratchSlots is how many create->rename->remove / mkdir->rmdir cycles are
// in flight at once; each names op advances one of them by one step.
const scratchSlots = 4

type scratch struct {
	step int // 0 idle; file cycle: 1 created, 2 renamed; dir cycle: 1 made
	dir  bool
	path string
}

// generate emits warm warm-up ops and then n measured ops of the spec's
// mix over the populated model m (which it advances).  The two parts are
// separate decks, so the measured phase holds the exact mix whatever the
// warm-up's length.
func (s *spec) generate(seed int64, warm, n int, m *model) []op {
	rng := rand.New(rand.NewSource(seed))
	perm := rankPerm(s.files)
	vers := make([]uint32, s.files) // last version written per file
	for i := range vers {
		vers[i] = 1
	}
	var slots [scratchSlots]scratch
	nextID := uint32(s.files)
	serial := 0

	draws := append(deck(rng, warm, s.mix, s.files), deck(rng, n, s.mix, s.files)...)
	ops := make([]op, 0, len(draws))
	for _, d := range draws {
		f := perm[d.rank]
		var o op
		switch d.kind {
		case opRead, opStat:
			o = op{kind: d.kind, path: s.filePath(f)}
		case opReadDir:
			o = op{kind: opReadDir, path: dirName(f % s.dirs)}
		case opOverwrite:
			vers[f]++
			o = op{kind: opOverwrite, path: s.filePath(f), id: uint32(f), ver: vers[f], size: s.fileBlocks * blockSize}
		case opBlockUpdate:
			vers[f]++
			o = op{kind: opBlockUpdate, path: s.filePath(f), id: uint32(f), ver: vers[f], block: rng.Intn(s.fileBlocks)}
		default: // one step of a names cycle
			sl := &slots[rng.Intn(scratchSlots)]
			switch {
			case sl.step == 0:
				serial++
				sl.dir = rng.Intn(5) < 2
				if sl.dir {
					sl.path = fmt.Sprintf("%s/sd%06d", dirName(rng.Intn(s.dirs)), serial)
					o = op{kind: opMkdir, path: sl.path}
				} else {
					sl.path = fmt.Sprintf("%s/s%06d", dirName(rng.Intn(s.dirs)), serial)
					o = op{kind: opCreate, path: sl.path, id: nextID, ver: 1, size: smallFile}
					nextID++
				}
				sl.step = 1
			case sl.dir:
				o = op{kind: opRmdir, path: sl.path}
				sl.step = 0
			case sl.step == 1:
				from, _ := splitDir(sl.path)
				to := dirName(rng.Intn(s.dirs))
				for to == from {
					to = dirName(rng.Intn(s.dirs))
				}
				serial++
				dst := fmt.Sprintf("%s/r%06d", to, serial)
				o = op{kind: opRename, path: sl.path, path2: dst}
				sl.path = dst
				sl.step = 2
			default:
				o = op{kind: opRemove, path: sl.path}
				sl.step = 0
			}
		}
		m.apply(&o)
		ops = append(ops, o)
	}
	return ops
}

// partitionMix is partition_heal's update mix.  opBlockUpdate stands for a
// planted conflict: an overwrite of a file the other side has written.
var partitionMix = []mixEntry{
	{opOverwrite, 4275}, {opBlockUpdate, 225}, // 45 %, of which 5 % conflicts
	{opCreate, 3000}, {opCreateRename, 1000}, {opMkdir, 1000}, {opRemove, 500},
}

// genPartition emits warm+n updates for partition_heal, alternating between
// the two sides of the partition.  Side k owns the files whose index is k
// mod 2 and creates names tagged with its letter, so the sides never
// collide on a name; the only cross-side writes are the planted conflicts,
// each an overwrite of a file the other side has already overwritten during
// the partition.  It returns the ops and the set of paths written on both
// sides, which is exactly what Conflicts() must report after the heal.
//
// A conflict drawn before the other side has written anything, or a remove
// drawn before this side has created anything, is issued as a plain
// overwrite or create and owed: the next overwrite or create that can be
// turned into it is, so the totals stay those of the deck.
//
// The model m is advanced with the merged outcome, except that a conflict
// file's contents are undefined until the harness resolves it.
func (s *spec) genPartition(seed int64, warm, n int, m *model) ([]op, map[string]bool) {
	rng := rand.New(rand.NewSource(seed))
	perm := rankPerm(s.files / 2)
	vers := make([]uint32, s.files)
	for i := range vers {
		vers[i] = 1
	}
	var written [2][]int    // files each side overwrote, in order
	var created [2][]string // files each side created and still holds
	var owedConflicts, owedRemoves [2]int
	conflicts := map[string]bool{}
	nextID := uint32(s.files)
	serial := 0

	// One deck per side and part, interleaved so the sides alternate.
	var draws []draw
	for _, part := range []int{warm, n} {
		a := deck(rng, (part+1)/2, partitionMix, s.files/2)
		b := deck(rng, part/2, partitionMix, s.files/2)
		for i := range a {
			draws = append(draws, a[i])
			if i < len(b) {
				draws = append(draws, b[i])
			}
		}
	}
	ops := make([]op, 0, len(draws))
	for i, d := range draws {
		side := i % 2
		tag := string(rune('a' + side))
		kind := d.kind
		switch {
		case kind == opBlockUpdate && len(written[1-side]) == 0:
			kind = opOverwrite
			owedConflicts[side]++
		case kind == opOverwrite && owedConflicts[side] > 0 && len(written[1-side]) > 0:
			kind = opBlockUpdate
			owedConflicts[side]--
		case kind == opRemove && len(created[side]) == 0:
			kind = opCreate
			owedRemoves[side]++
		case kind == opCreate && owedRemoves[side] > 0 && len(created[side]) > 0:
			kind = opRemove
			owedRemoves[side]--
		}
		var o op
		switch kind {
		case opOverwrite, opBlockUpdate:
			f := perm[d.rank]*2 + side
			if kind == opBlockUpdate {
				f = written[1-side][rng.Intn(len(written[1-side]))]
				conflicts[s.filePath(f)] = true
			} else {
				written[side] = append(written[side], f)
			}
			vers[f]++
			// The side is folded into the version so the two sides'
			// concurrent versions of a conflict file differ in content.
			o = op{kind: opOverwrite, path: s.filePath(f), id: uint32(f), ver: vers[f]<<1 | uint32(side), size: s.fileBlocks * blockSize}
		case opCreate:
			serial++
			p := fmt.Sprintf("%s/%sc%06d", dirName(rng.Intn(s.dirs)), tag, serial)
			o = op{kind: opCreate, path: p, id: nextID, ver: 1, size: blockSize}
			nextID++
			created[side] = append(created[side], p)
		case opCreateRename:
			serial++
			from := rng.Intn(s.dirs)
			to := (from + 1 + rng.Intn(s.dirs-1)) % s.dirs
			o = op{kind: opCreateRename,
				path:  fmt.Sprintf("%s/%st%06d", dirName(from), tag, serial),
				path2: fmt.Sprintf("%s/%sr%06d", dirName(to), tag, serial),
				id:    nextID, ver: 1, size: blockSize}
			nextID++
			created[side] = append(created[side], o.path2)
		case opMkdir:
			serial++
			o = op{kind: opMkdir, path: fmt.Sprintf("%s/%sd%06d", dirName(rng.Intn(s.dirs)), tag, serial)}
		default:
			k := rng.Intn(len(created[side]))
			o = op{kind: opRemove, path: created[side][k]}
			created[side] = append(created[side][:k], created[side][k+1:]...)
		}
		o.side = side
		m.apply(&o)
		ops = append(ops, o)
	}
	return ops, conflicts
}
