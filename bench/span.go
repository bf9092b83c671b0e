package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/nfs"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/repl"
	"repro/internal/vnode"
)

// span is one timed call across a layer boundary.
type span struct {
	parent int32  // index of the span that caused it, -1 for a root
	op     int32  // id of the client op or daemon pass that caused it
	layer  string // "op", "pass", "logical"..."ufs", "repl"
	call   string // method, or the op class / pass kind on a root
	start  int64  // ns since the recorder started
	end    int64
}

// recorder keeps spans in memory.  Everything the rig runs is sequential
// (simnet delivers RPCs in the caller's goroutine and the rig propagates
// with one worker), so the span being timed is always the top of one
// stack; the mutex only orders the hand-off to recon's worker goroutine.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	stack []int32
	op    int32
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now()}
}

// begin opens a span under the current one and returns its index, or -1
// when recording is off.
func (r *recorder) begin(layer, call string) int32 {
	if !r.on {
		return -1
	}
	r.mu.Lock()
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.stack = append(r.stack, i)
	// The clock is read last, so the bookkeeping falls in the parent.
	r.spans = append(r.spans, span{parent: parent, op: r.op, layer: layer, call: call, start: int64(time.Since(r.t0))})
	r.mu.Unlock()
	return i
}

func (r *recorder) finish(i int32) {
	if i < 0 {
		return
	}
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[i].end = end
	r.stack = r.stack[:len(r.stack)-1]
	r.mu.Unlock()
}

// write dumps the spans as JSON, one span per line.
func (r *recorder) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"spans\":[\n", workload, seed)
	for i, s := range r.spans {
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":\"%s.%s\",\"start\":%d,\"end\":%d}%s\n",
			i, s.parent, s.op, s.layer, s.call, s.start, s.end, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanVFS is a pass-through layer, like vnode.HookVFS, that records a span
// around every call into the layer below it.  It also forwards the
// stateless-server Resolve, so an NFS server handed a spanVFS as both its
// file system and its resolver cannot reach the lower layer unobserved.
type spanVFS struct {
	lower vnode.VFS
	rec   *recorder
	layer string
}

func newSpanVFS(lower vnode.VFS, rec *recorder, layer string) *spanVFS {
	return &spanVFS{lower: lower, rec: rec, layer: layer}
}

func (s *spanVFS) wrap(v vnode.Vnode) vnode.Vnode { return &spanVnode{fs: s, lower: v} }

func (s *spanVFS) Root() (vnode.Vnode, error) {
	i := s.rec.begin(s.layer, "Root")
	v, err := s.lower.Root()
	s.rec.finish(i)
	if err != nil {
		return nil, err
	}
	return s.wrap(v), nil
}

func (s *spanVFS) Sync() error {
	i := s.rec.begin(s.layer, "Sync")
	err := s.lower.Sync()
	s.rec.finish(i)
	return err
}

var _ nfs.Resolver = (*spanVFS)(nil)

func (s *spanVFS) Resolve(handle string) (vnode.Vnode, error) {
	i := s.rec.begin(s.layer, "Resolve")
	v, err := s.lower.(nfs.Resolver).Resolve(handle)
	s.rec.finish(i)
	if err != nil {
		return nil, err
	}
	return s.wrap(v), nil
}

type spanVnode struct {
	fs    *spanVFS
	lower vnode.Vnode
}

func (v *spanVnode) begin(call string) int32 { return v.fs.rec.begin(v.fs.layer, call) }
func (v *spanVnode) finish(i int32)          { v.fs.rec.finish(i) }

// unwrap hands the lower layer its own vnode in two-vnode operations.
func (v *spanVnode) unwrap(peer vnode.Vnode) vnode.Vnode {
	if p, ok := peer.(*spanVnode); ok && p.fs == v.fs {
		return p.lower
	}
	return peer
}

func (v *spanVnode) child(c vnode.Vnode, err error) (vnode.Vnode, error) {
	if err != nil {
		return nil, err
	}
	return v.fs.wrap(c), nil
}

func (v *spanVnode) Handle() string { return v.lower.Handle() }

func (v *spanVnode) Lookup(name string) (vnode.Vnode, error) {
	i := v.begin("Lookup")
	c, err := v.lower.Lookup(name)
	v.finish(i)
	return v.child(c, err)
}

func (v *spanVnode) Create(name string, excl bool) (vnode.Vnode, error) {
	i := v.begin("Create")
	c, err := v.lower.Create(name, excl)
	v.finish(i)
	return v.child(c, err)
}

func (v *spanVnode) Mkdir(name string) (vnode.Vnode, error) {
	i := v.begin("Mkdir")
	c, err := v.lower.Mkdir(name)
	v.finish(i)
	return v.child(c, err)
}

func (v *spanVnode) Symlink(name, target string) error {
	i := v.begin("Symlink")
	err := v.lower.Symlink(name, target)
	v.finish(i)
	return err
}

func (v *spanVnode) Readlink() (string, error) {
	i := v.begin("Readlink")
	t, err := v.lower.Readlink()
	v.finish(i)
	return t, err
}

func (v *spanVnode) Open(f vnode.OpenFlags) error {
	i := v.begin("Open")
	err := v.lower.Open(f)
	v.finish(i)
	return err
}

func (v *spanVnode) Close(f vnode.OpenFlags) error {
	i := v.begin("Close")
	err := v.lower.Close(f)
	v.finish(i)
	return err
}

func (v *spanVnode) ReadAt(p []byte, off int64) (int, error) {
	i := v.begin("ReadAt")
	n, err := v.lower.ReadAt(p, off)
	v.finish(i)
	return n, err
}

func (v *spanVnode) WriteAt(p []byte, off int64) (int, error) {
	i := v.begin("WriteAt")
	n, err := v.lower.WriteAt(p, off)
	v.finish(i)
	return n, err
}

func (v *spanVnode) Truncate(size uint64) error {
	i := v.begin("Truncate")
	err := v.lower.Truncate(size)
	v.finish(i)
	return err
}

func (v *spanVnode) Fsync() error {
	i := v.begin("Fsync")
	err := v.lower.Fsync()
	v.finish(i)
	return err
}

func (v *spanVnode) Getattr() (vnode.Attr, error) {
	i := v.begin("Getattr")
	a, err := v.lower.Getattr()
	v.finish(i)
	return a, err
}

func (v *spanVnode) Setattr(sa vnode.SetAttr) error {
	i := v.begin("Setattr")
	err := v.lower.Setattr(sa)
	v.finish(i)
	return err
}

func (v *spanVnode) Access(mode uint16) error {
	i := v.begin("Access")
	err := v.lower.Access(mode)
	v.finish(i)
	return err
}

func (v *spanVnode) Remove(name string) error {
	i := v.begin("Remove")
	err := v.lower.Remove(name)
	v.finish(i)
	return err
}

func (v *spanVnode) Rmdir(name string) error {
	i := v.begin("Rmdir")
	err := v.lower.Rmdir(name)
	v.finish(i)
	return err
}

func (v *spanVnode) Link(name string, target vnode.Vnode) error {
	i := v.begin("Link")
	err := v.lower.Link(name, v.unwrap(target))
	v.finish(i)
	return err
}

func (v *spanVnode) Rename(oldName string, dstDir vnode.Vnode, newName string) error {
	i := v.begin("Rename")
	err := v.lower.Rename(oldName, v.unwrap(dstDir), newName)
	v.finish(i)
	return err
}

func (v *spanVnode) Readdir() ([]vnode.Dirent, error) {
	i := v.begin("Readdir")
	ents, err := v.lower.Readdir()
	v.finish(i)
	return ents, err
}

// spanPeer records a span around every reconciliation pull.  It forwards
// every optional capability recon type-asserts for: a wrapper that offers
// only recon.Peer silently demotes propagation to the sequential
// whole-file protocol.
type spanPeer struct {
	c   *repl.Client
	rec *recorder
}

var (
	_ recon.Peer            = (*spanPeer)(nil)
	_ recon.BatchPuller     = (*spanPeer)(nil)
	_ recon.DeltaPuller     = (*spanPeer)(nil)
	_ recon.LatencyReporter = (*spanPeer)(nil)
	_ recon.SlowReporter    = (*spanPeer)(nil)
	_ recon.AddrKeyer       = (*spanPeer)(nil)
)

func (p *spanPeer) Replica() ids.ReplicaID { return p.c.Replica() }
func (p *spanPeer) LastElapsed() uint64    { return p.c.LastElapsed() }
func (p *spanPeer) SlowPeer() bool         { return false } // the rig tracks no peer health
func (p *spanPeer) PeerKey() string        { return string(p.c.Addr()) }

func (p *spanPeer) DirEntries(dirPath []ids.FileID) (physical.DirState, error) {
	i := p.rec.begin("repl", "DirEntries")
	ds, err := p.c.DirEntries(dirPath)
	p.rec.finish(i)
	return ds, err
}

func (p *spanPeer) FileInfo(dirPath []ids.FileID, fid ids.FileID) (physical.FileState, error) {
	i := p.rec.begin("repl", "FileInfo")
	st, err := p.c.FileInfo(dirPath, fid)
	p.rec.finish(i)
	return st, err
}

func (p *spanPeer) FileData(dirPath []ids.FileID, fid ids.FileID) ([]byte, physical.FileState, error) {
	i := p.rec.begin("repl", "FileData")
	data, st, err := p.c.FileData(dirPath, fid)
	p.rec.finish(i)
	return data, st, err
}

func (p *spanPeer) PullBatch(reqs []physical.PullRequest) ([]physical.PullResult, error) {
	i := p.rec.begin("repl", "PullBatch")
	res, err := p.c.PullBatch(reqs)
	p.rec.finish(i)
	return res, err
}

func (p *spanPeer) PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	i := p.rec.begin("repl", "PullBatchDelta")
	res, err := p.c.PullBatchDelta(reqs, have)
	p.rec.finish(i)
	return res, err
}
