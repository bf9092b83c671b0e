// Package repl carries the replication-control traffic between Ficus
// physical layers on different hosts: the pulls issued by the update
// propagation daemon and the reconciliation protocol (paper §3.2–§3.3),
// plus the volume-replica probes autografting needs (§4.4).
//
// It is deliberately separate from the NFS transport: NFS carries the
// client data path between logical and physical layers, while repl is the
// physical-to-physical back channel reconciliation runs over.  (In the real
// Ficus this traffic ran through customized user-level daemons; the
// separation of data path and reconciliation path is faithful.)
//
// A file version moves by one op, the batched conditional pull
// (opPullBatchDelta), whose answer has one shape: the version's block
// manifest plus the blocks the puller's advertisement lacks — every block
// when it advertises nothing.  The other ops are a ping, a directory's
// entries and a host's replica list.
//
// Messages use the compact hand-rolled codec in codec.go.  Peer-side
// failures travel with a class tag (transient / permanent / not-stored /
// no-replica) and are rebuilt as errors of the matching kind client-side,
// so retry classification works identically for local and remote failures.
package repl

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/retry"
	"repro/internal/simnet"
	"repro/internal/vv"
	"repro/internal/wire"
)

// Service is the simnet RPC service name.
const Service = "ficus-repl"

// Errors returned by clients.
var (
	// ErrUnreachable reports that the peer host cannot be contacted.
	ErrUnreachable = errors.New("repl: peer unreachable")
	// ErrNoReplica reports that the peer host stores no such volume replica.
	ErrNoReplica = errors.New("repl: no such volume replica at peer")
	// ErrDeadline reports a call abandoned at the client's per-RPC deadline:
	// the peer was reachable but too slow (or its reply hung).  Deadline
	// errors are transient — and they also match ErrUnreachable, because to
	// health tracking a peer that cannot answer in time is failing.
	ErrDeadline = errors.New("repl: rpc deadline exceeded")
)

// unreachableError marks a transport failure: it matches ErrUnreachable
// via Is and keeps the transport cause on the Unwrap chain, so callers
// (and retry.Transient) can still see simnet.ErrUnreachable underneath.
type unreachableError struct{ cause error }

func (e *unreachableError) Error() string { return ErrUnreachable.Error() + ": " + e.cause.Error() }

// In an Is implementation the sentinel identity test is the idiom —
// errors.Is itself supplies the unwrapping.
func (e *unreachableError) Is(target error) bool { return target == ErrUnreachable } //ficusvet:ignore errclass

func (e *unreachableError) Unwrap() error { return e.cause }

// deadlineError marks a call that ran out its deadline.  It matches both
// ErrDeadline (so callers can tell slowness from absence) and
// ErrUnreachable (so every existing failure path treats it as a failed
// exchange); the transport cause stays on the Unwrap chain, where
// retry.Transient finds simnet.ErrDeadline.
type deadlineError struct{ cause error }

func (e *deadlineError) Error() string { return ErrDeadline.Error() + ": " + e.cause.Error() }

func (e *deadlineError) Is(target error) bool { //ficusvet:ignore errclass
	return target == ErrDeadline || target == ErrUnreachable
}

func (e *deadlineError) Unwrap() error { return e.cause }

// peerError is a failure that happened at the peer, rebuilt from the wire:
// the class tag decides transience, so retry.Transient classifies a remote
// transient failure exactly as it would a local one.
type peerError struct {
	msg       string
	transient bool
}

func (e *peerError) Error() string { return "repl: peer error: " + e.msg }

// Transient implements the retry package's classification interface.
func (e *peerError) Transient() bool { return e.transient }

// noReplicaError matches ErrNoReplica and classifies as transient: a
// replica the peer does not (currently) serve — mid-autograft, or just
// unregistered — should defer the work item, not poison the daemon pass.
type noReplicaError struct{}

func (noReplicaError) Error() string { return ErrNoReplica.Error() }

func (noReplicaError) Is(target error) bool { return target == ErrNoReplica } //ficusvet:ignore errclass

func (noReplicaError) Transient() bool { return true }

// classOf maps a peer-side error onto its wire class.
func classOf(err error) byte {
	switch {
	case err == nil:
		return classOK
	case errors.Is(err, physical.ErrNotStored):
		return classNotStored
	case errors.Is(err, ErrNoReplica):
		return classNoReplica
	case retry.Transient(err):
		return classTransient
	default:
		return classPermanent
	}
}

// errFromClass rebuilds the client-side error for a wire class.
func errFromClass(class byte, msg string) error {
	switch class {
	case classOK:
		return nil
	case classNotStored:
		return physical.ErrNotStored
	case classNoReplica:
		return noReplicaError{}
	case classTransient:
		return &peerError{msg: msg, transient: true}
	default:
		return &peerError{msg: msg}
	}
}

type opCode byte

const (
	opPing opCode = iota
	opDirEntries
	opListReplicas
	opPullBatchDelta // the conditional pull, with the puller's held-block advertisement
	opEnd            // one past the last op: a test sends every op below it to a server
)

type request struct {
	Op      opCode
	Vol     ids.VolumeHandle
	Replica ids.ReplicaID
	Dir     []ids.FileID
	File    ids.FileID
	Pulls   []physical.PullRequest // opPullBatchDelta
	Have    []physical.BlockAddr   // opPullBatchDelta: blocks the puller holds
}

type response struct {
	Class    byte   // classOK = success; otherwise the error class
	Err      string // message for classTransient/classPermanent
	Entries  []physical.Entry
	VV       vv.Vector
	Aux      physical.Aux
	Replicas []ids.ReplicaID
	Pulls    []wirePull // opPullBatchDelta only; one per request entry

	// served is what the layer answered a pull with, whose bytes Pulls points
	// into: the server releases it once the reply is encoded.  Not encoded.
	served []physical.PullResult
}

// wirePull is one pull answer on the wire: physical.PullResult with the
// error flattened to (class, message).
type wirePull struct {
	Status   byte
	Class    byte
	Err      string
	Aux      physical.Aux
	RemoteVV vv.Vector
	Manifest *physical.BlockManifest // the shipped version's verifier
	Missing  []physical.Block        // the blocks the advertisement lacked, in manifest order
}

// Server exports the volume replicas registered on one host.
type Server struct {
	mu     sync.Mutex
	layers map[ids.VolumeReplicaHandle]*physical.Layer
}

// NewServer installs a repl server on the host.
func NewServer(host *simnet.Host) *Server {
	s := &Server{layers: make(map[ids.VolumeReplicaHandle]*physical.Layer)}
	host.HandleRPC(Service, s.handle)
	return s
}

// Register exports a volume replica.
func (s *Server) Register(l *physical.Layer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.layers[l.VolumeReplica()] = l
}

// Unregister withdraws a volume replica.
func (s *Server) Unregister(vr ids.VolumeReplicaHandle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.layers, vr)
}

func (s *Server) layerFor(vol ids.VolumeHandle, r ids.ReplicaID) *physical.Layer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.layers[ids.VolumeReplicaHandle{Vol: vol, Replica: r}]
}

func (s *Server) handle(reqBytes []byte) ([]byte, error) {
	req, err := decodeRequest(reqBytes)
	if err != nil {
		bad := response{Class: classPermanent, Err: "bad request"}
		return bad.encode(nil), nil
	}
	resp := s.dispatch(&req)
	out := resp.encode(make([]byte, 0, resp.encodedLen()))
	for i := range resp.served {
		resp.served[i].Release()
	}
	return out, nil
}

func (s *Server) dispatch(req *request) response {
	if req.Op == opListReplicas {
		s.mu.Lock()
		var reps []ids.ReplicaID
		for vr := range s.layers {
			if vr.Vol == req.Vol {
				reps = append(reps, vr.Replica)
			}
		}
		s.mu.Unlock()
		sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
		return response{Replicas: reps}
	}
	l := s.layerFor(req.Vol, req.Replica)
	if l == nil {
		return response{Class: classNoReplica}
	}
	switch req.Op {
	case opPing:
		return response{}
	case opDirEntries:
		ds, err := l.DirEntries(req.Dir)
		if err != nil {
			return errResponse(err)
		}
		return response{Entries: ds.Entries, VV: ds.VV, Aux: ds.Aux}
	case opPullBatchDelta:
		// The layer answers per entry and never fails the whole batch.
		results, _ := l.PullBatchDelta(req.Pulls, req.Have)
		return response{Pulls: pullsToWire(results), served: results}
	default:
		return response{Class: classPermanent, Err: "unknown op"}
	}
}

// pullsToWire flattens a batch of pull results for the wire.
func pullsToWire(results []physical.PullResult) []wirePull {
	wps := make([]wirePull, len(results))
	for i := range results {
		r := &results[i]
		wps[i] = wirePull{Status: byte(r.Status), Aux: r.Aux, RemoteVV: r.RemoteVV, Manifest: r.Manifest, Missing: r.Missing}
		if r.Err != nil {
			wps[i].Class = classOf(r.Err)
			wps[i].Err = r.Err.Error()
		}
	}
	return wps
}

// pullsFromWire rebuilds the per-entry results of a pull, with each entry's
// error reconstructed from its wire class.  The manifest is mandatory where
// it enters: a PullData answer without one cannot be verified, so it becomes
// a per-entry error and never reaches an install.
func pullsFromWire(nreq int, resp response) ([]physical.PullResult, error) {
	if len(resp.Pulls) != nreq {
		return nil, fmt.Errorf("repl: pull batch: sent %d entries, got %d answers", nreq, len(resp.Pulls))
	}
	out := make([]physical.PullResult, len(resp.Pulls))
	for i := range resp.Pulls {
		w := &resp.Pulls[i]
		out[i] = physical.PullResult{
			Status:   physical.PullStatus(w.Status),
			Aux:      w.Aux,
			RemoteVV: w.RemoteVV,
			Manifest: w.Manifest,
			Missing:  w.Missing,
		}
		if out[i].Status == physical.PullError {
			out[i].Err = errFromClass(w.Class, w.Err)
			if out[i].Err == nil {
				out[i].Err = &peerError{msg: "unspecified pull error"}
			}
		}
		if out[i].Status == physical.PullData && w.Manifest == nil {
			out[i] = physical.PullResult{Status: physical.PullError,
				Err: fmt.Errorf("%w: repl: pull answer ships data without a manifest", physical.ErrCorrupt)}
		}
	}
	return out, nil
}

func errResponse(err error) response {
	class := classOf(err)
	resp := response{Class: class}
	if class == classTransient || class == classPermanent {
		resp.Err = err.Error()
	}
	return resp
}

// Client is a recon.Peer backed by RPC to a remote host's repl server.
//
// Every repl operation is an idempotent pull (reads of remote replica
// state), so the client transparently retries transport failures under its
// retry policy: a link whose requests or replies are occasionally lost —
// including the at-most-once ambiguity of a reply lost after the handler
// ran — degrades to extra traffic instead of a failed daemon pass.
type Client struct {
	host   *simnet.Host
	addr   simnet.Addr
	vr     ids.VolumeReplicaHandle
	policy retry.Policy

	// deadline bounds each RPC attempt in virtual ticks (0 = none): a slow
	// or hung peer costs at most deadline ticks per attempt instead of an
	// unbounded wait, surfacing as a transient ErrDeadline.
	deadline uint64

	// lastElapsed records the summed virtual ticks of the most recent
	// operation's attempts — the latency sample the caller's health EWMA
	// feeds on.  A pointer: WithDeadline copies the struct, and every copy
	// must share the sample.
	lastElapsed *atomic.Uint64
}

var _ recon.Peer = (*Client)(nil)

// NewClient builds a peer for the volume replica vr served at addr,
// issuing calls from host, retrying under retry.Default().
func NewClient(host *simnet.Host, addr simnet.Addr, vr ids.VolumeReplicaHandle) *Client {
	return &Client{host: host, addr: addr, vr: vr, policy: retry.Default(), lastElapsed: new(atomic.Uint64)}
}

// WithDeadline returns a copy of the client whose every RPC attempt is
// bounded by d virtual ticks (0 disables the bound).  The receiver is left
// untouched.
func (c *Client) WithDeadline(d uint64) *Client {
	cp := *c
	cp.deadline = d
	return &cp
}

// LastElapsed returns the virtual ticks the most recent operation spent on
// the wire, summed over its in-call retries.
func (c *Client) LastElapsed() uint64 { return c.lastElapsed.Load() }

// Addr returns the peer host address.
func (c *Client) Addr() simnet.Addr { return c.addr }

// Replica implements recon.Peer.
func (c *Client) Replica() ids.ReplicaID { return c.vr.Replica }

func (c *Client) call(req *request) (response, error) {
	req.Vol = c.vr.Vol
	req.Replica = c.vr.Replica
	buf := req.encode(wire.GetBuf(req.encodedLen()))
	var respBytes []byte
	var elapsed uint64
	err := c.policy.Do(func() error {
		var err error
		var ticks uint64
		respBytes, ticks, err = c.host.CallT(c.addr, Service, buf, c.deadline)
		elapsed += ticks
		if err != nil {
			if errors.Is(err, simnet.ErrDeadline) {
				return &deadlineError{cause: err}
			}
			return &unreachableError{cause: err}
		}
		return nil
	})
	wire.PutBuf(buf)
	c.lastElapsed.Store(elapsed)
	if err != nil {
		return response{}, err
	}
	resp, err := decodeResponse(respBytes)
	if err == nil && resp.Class != classOK {
		err = errFromClass(resp.Class, resp.Err)
	}
	return resp, err
}

// Ping verifies the peer host serves this volume replica.
func (c *Client) Ping() error {
	_, err := c.call(&request{Op: opPing})
	return err
}

// DirEntries implements recon.Peer.
func (c *Client) DirEntries(dirPath []ids.FileID) (physical.DirState, error) {
	resp, err := c.call(&request{Op: opDirEntries, Dir: dirPath})
	if err != nil {
		return physical.DirState{}, err
	}
	return physical.DirState{Entries: resp.Entries, VV: resp.VV, Aux: resp.Aux}, nil
}

// FileInfo, FileData and PullBatch are the retired per-file and
// unadvertised pulls, rebuilt on the one pull op.  Nothing in recon or core calls them; the
// frozen bench/span.go compiles against them, which is the only reason they
// exist — the next benchmark PR deletes all three.

// FileInfo is file fid's attributes and size, from an unconditional pull.
func (c *Client) FileInfo(dirPath []ids.FileID, fid ids.FileID) (physical.FileState, error) {
	r, err := c.pullFile(dirPath, fid)
	if err != nil {
		return physical.FileState{}, err
	}
	st := physical.FileState{Aux: r.Aux}
	if r.Manifest != nil {
		st.Size = r.Manifest.Length
	}
	return st, nil
}

// FileData is file fid's contents and attributes, assembled from an
// unconditional pull and verified against its manifest.
func (c *Client) FileData(dirPath []ids.FileID, fid ids.FileID) ([]byte, physical.FileState, error) {
	r, err := c.pullFile(dirPath, fid)
	if err == nil && r.Status != physical.PullData {
		err = physical.ErrNotStored
	}
	if err != nil {
		return nil, physical.FileState{}, err
	}
	blocks := make(map[physical.BlockAddr][]byte, len(r.Missing))
	for _, b := range r.Missing {
		blocks[b.Addr] = b.Data
	}
	var data []byte
	for _, addr := range r.Manifest.Blocks {
		data = append(data, blocks[addr]...)
	}
	if !r.Manifest.Verify(data) {
		return nil, physical.FileState{}, fmt.Errorf("%w: repl: pull of %s does not assemble", physical.ErrCorrupt, fid)
	}
	return data, physical.FileState{Aux: r.Aux, Size: r.Manifest.Length}, nil
}

// PullBatch is PullBatchDelta advertising nothing.
func (c *Client) PullBatch(reqs []physical.PullRequest) ([]physical.PullResult, error) {
	return c.PullBatchDelta(reqs, nil)
}

// pullFile pulls file fid unconditionally, advertising nothing: its answer,
// with a not-stored or failed entry as the error.
func (c *Client) pullFile(dirPath []ids.FileID, fid ids.FileID) (physical.PullResult, error) {
	res, err := c.PullBatchDelta([]physical.PullRequest{{Dir: dirPath, File: fid}}, nil)
	if err != nil {
		return physical.PullResult{}, err
	}
	switch r := res[0]; r.Status {
	case physical.PullNotStored:
		return r, physical.ErrNotStored
	case physical.PullError:
		return r, r.Err
	default:
		return r, nil
	}
}

// PullBatchDelta implements recon.Peer: one RPC answers the whole batch of
// conditional pulls, advertising have, the block addresses this replica
// already holds.  Each version that ships arrives as its manifest plus the
// blocks have lacks, all of them when have is empty; per-entry errors are
// rebuilt from their wire class.  A transport failure (after retries) fails
// the whole call.
func (c *Client) PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	resp, err := c.call(&request{Op: opPullBatchDelta, Pulls: reqs, Have: have})
	if err != nil {
		return nil, err
	}
	return pullsFromWire(len(reqs), resp)
}

// ListReplicas asks which replicas of vol the host at addr serves (an
// idempotent probe, retried under the default policy).
func ListReplicas(host *simnet.Host, addr simnet.Addr, vol ids.VolumeHandle) ([]ids.ReplicaID, error) {
	req := request{Op: opListReplicas, Vol: vol}
	buf := req.encode(wire.GetBuf(req.encodedLen()))
	var respBytes []byte
	err := retry.Default().Do(func() error {
		var err error
		respBytes, err = host.Call(addr, Service, buf)
		if err != nil {
			return &unreachableError{cause: err}
		}
		return nil
	})
	wire.PutBuf(buf)
	if err != nil {
		return nil, err
	}
	resp, err := decodeResponse(respBytes)
	if err != nil {
		return nil, err
	}
	if resp.Class != classOK {
		return nil, errFromClass(resp.Class, resp.Err)
	}
	return resp.Replicas, nil
}
