// Package simnet is the simulated internetwork that stands in for the
// paper's campus/continental network.  Large-scale Ficus assumes "partial
// operation is the normal, not exceptional, status" (paper §1): hosts and
// links fail independently and communication outages partition the replica
// set.  The simulator makes partitions a first-class, scriptable object so
// the availability and reconciliation experiments (E4, E6) can create and
// heal them deterministically.
//
// Two communication primitives match what Ficus uses:
//
//   - synchronous RPC, which carries the NFS vnode traffic between logical
//     and physical layers on different hosts (paper §2.2), and
//   - best-effort multicast datagrams, which carry update notifications
//     ("an asynchronous multicast datagram is sent to all available
//     replicas", §2.5); these are silently dropped across partitions and
//     may additionally be dropped at a configurable rate.
//
// Beyond binary partitions the network carries a scriptable fault plane:
// probabilistic RPC failure, per-link one-shot fault schedules, a
// reply-loss mode in which the handler executes but the caller still sees
// ErrUnreachable (the classic at-most-once ambiguity), and datagram
// duplication and reordering.  Probabilistic RPC fault decisions draw from
// a per-link RNG seeded from (network seed, link); datagram decisions draw
// from the single network RNG.  A run with faults enabled is therefore
// exactly as reproducible as one without — per link even under concurrent
// callers on other links.
//
// The fault plane also has a time dimension, measured in *virtual ticks*
// (the same clock the daemons' backoff schedules use — no wall time):
// per-link latency distributions (base + seeded jitter), probabilistic
// latency spikes, scripted one-shot delays, and hung RPCs whose handler
// runs but whose reply never arrives.  CallT attaches a deadline to one
// call: a call whose virtual latency would exceed the deadline fails with
// ErrDeadline after exactly deadline ticks, so a slow or hung peer costs a
// bounded, accountable amount of virtual time instead of a stalled pass.
// Because latency is virtual, nothing ever blocks the simulation itself.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Addr names a host on the network.
type Addr string

// Errors returned by network operations.
var (
	// ErrUnreachable reports that the destination is partitioned away or
	// down; to a caller this is indistinguishable from a timeout.
	ErrUnreachable = errors.New("simnet: host unreachable")
	// ErrNoHost reports a destination that was never attached.
	ErrNoHost = errors.New("simnet: no such host")
	// ErrNoService reports an RPC to a service the host does not export.
	ErrNoService = errors.New("simnet: no such service")
	// ErrDeadline reports a call abandoned because its virtual latency
	// reached the caller's deadline.  The handler may or may not have run —
	// the same at-most-once ambiguity as a lost reply — so retrying is only
	// safe for idempotent operations.
	ErrDeadline = errors.New("simnet: rpc deadline exceeded")
)

// HangTicks is the virtual cost charged to a deadline-less caller whose
// reply was hung by the fault plane: effectively "waited forever".  Callers
// that attach deadlines never pay it.
const HangTicks uint64 = 1 << 32

// RPCHandler serves one synchronous request.
type RPCHandler func(req []byte) ([]byte, error)

// DatagramHandler receives one best-effort datagram.  It must not block.
type DatagramHandler func(from Addr, payload []byte)

// Stats counts network traffic.
type Stats struct {
	RPCs               uint64 // calls attempted
	RPCFailures        uint64 // calls that failed with ErrUnreachable et al.
	RPCBytes           uint64 // request+response payload bytes of successful calls
	Datagrams          uint64 // datagram deliveries attempted (per destination)
	DatagramsDropped   uint64 // dropped by partition, down host, or loss rate
	DatagramsDelivered uint64
	DatagramBytes      uint64 // payload bytes of delivered datagrams

	// Fault-plane activity.
	RPCFaultsInjected   uint64 // calls failed by the fault plane before the handler ran
	RPCRepliesLost      uint64 // calls whose handler ran but whose reply was dropped
	DatagramsDuplicated uint64 // extra deliveries created by duplication
	MulticastsReordered uint64 // multicast calls delivered in permuted order

	// Time-dimension activity (all in virtual ticks).
	RPCHangs          uint64 // calls whose reply was hung (handler ran, reply never arrived)
	RPCDeadlineMisses uint64 // calls abandoned at their deadline
	RPCLatencySpikes  uint64 // latency spikes injected into call legs
	RPCVirtualTicks   uint64 // summed virtual latency of all completed calls
}

// FaultKind selects what one scripted fault does to an RPC.
type FaultKind int

const (
	// FaultRequestLost drops the call before the handler runs; the caller
	// sees ErrUnreachable and the server never learns of the request.
	FaultRequestLost FaultKind = iota
	// FaultReplyLost runs the handler to completion but drops the reply;
	// the caller sees ErrUnreachable even though the operation executed —
	// the at-most-once ambiguity a client must tolerate (retry is only
	// safe for idempotent operations).
	FaultReplyLost
	// FaultHang runs the handler to completion but hangs the reply: with a
	// deadline the caller waits exactly deadline ticks and sees ErrDeadline;
	// without one it is charged HangTicks and sees ErrUnreachable.  This is
	// the stuck-peer case the paper's portable-machine scenario (§7) makes
	// routine — the peer is alive and did the work, but the caller must not
	// wait forever for the answer.
	FaultHang
)

// link identifies one directed sender->receiver pair.
type link struct{ from, to Addr }

// latencyProfile is one latency distribution: every call leg on the link
// costs base + seeded-uniform jitter ticks, plus spikeTicks with probability
// spikeRate (the heavy tail).  The zero value means instantaneous.
type latencyProfile struct {
	base       uint64
	jitter     uint64
	spikeRate  float64
	spikeTicks uint64
}

func (p latencyProfile) active() bool {
	return p.base > 0 || p.jitter > 0 || p.spikeRate > 0
}

// linkFaults is the per-link fault script and rates; zero value = no faults.
type linkFaults struct {
	failRate      float64     // probabilistic request loss
	hangRate      float64     // probabilistic hung reply
	dgramLossRate float64     // probabilistic datagram loss on this link
	script        []FaultKind // one-shot faults, consumed FIFO by matching calls

	lat       latencyProfile // overrides the network profile when latSet
	latSet    bool
	latScript []uint64 // one-shot extra request-leg delays, consumed FIFO

	// rng drives every probabilistic RPC fault decision on this link.  It
	// is seeded deterministically from (network seed, from, to), so the
	// fault sequence a link suffers depends only on that link's own call
	// order — concurrent callers on *distinct* links (the propagation
	// pipeline's per-origin workers) cannot perturb each other's draws.
	rng *rand.Rand
}

// Network connects hosts.  All methods are safe for concurrent use.
type Network struct {
	mu       sync.Mutex
	hosts    map[Addr]*Host
	group    map[Addr]int // partition group; hosts communicate iff equal
	seed     int64
	rng      *rand.Rand
	lossRate float64 // additional datagram loss probability
	stats    Stats

	// Fault plane (see SetRPCFaultRate etc.).
	rpcFailRate   float64
	replyLossRate float64
	hangRate      float64
	dupRate       float64
	reorderRate   float64
	lat           latencyProfile // network-wide latency; links may override
	links         map[link]*linkFaults
}

// New creates an empty, fully connected network.  The seed drives datagram
// loss decisions only, so runs are reproducible.
func New(seed int64) *Network {
	return &Network{
		hosts: make(map[Addr]*Host),
		group: make(map[Addr]int),
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[link]*linkFaults),
	}
}

// SetDatagramLossRate makes every datagram delivery fail independently with
// probability p, in addition to partition/down losses.
func (n *Network) SetDatagramLossRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossRate = p
}

// SetRPCFaultRate makes every RPC fail independently with probability p
// before its handler runs (request lost in transit), on every link.
func (n *Network) SetRPCFaultRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rpcFailRate = p
}

// SetReplyLossRate makes every RPC whose handler ran lose its reply with
// probability p: the server state changes, the caller sees ErrUnreachable.
func (n *Network) SetReplyLossRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.replyLossRate = p
}

// SetDatagramDuplicateRate makes each delivered datagram arrive twice with
// probability p (duplicate delivery, as UDP permits).
func (n *Network) SetDatagramDuplicateRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dupRate = p
}

// SetDatagramReorderRate makes each multicast deliver to its destinations
// in a random permutation with probability p (per multicast call).
func (n *Network) SetDatagramReorderRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reorderRate = p
}

// SetHangRate makes every RPC whose handler ran hang its reply with
// probability p: with a deadline the caller sees ErrDeadline at the
// deadline, without one it is charged HangTicks.
func (n *Network) SetHangRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hangRate = p
}

// SetLatency gives every call leg on every link a latency of base plus a
// seeded-uniform jitter in [0, jitter] virtual ticks (per-link RNG, so
// concurrent traffic on other links never shifts a link's draws).
func (n *Network) SetLatency(base, jitter uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lat.base, n.lat.jitter = base, jitter
}

// SetLatencySpikes adds ticks of extra delay to each call leg independently
// with probability rate — the heavy tail of a degraded link.
func (n *Network) SetLatencySpikes(rate float64, ticks uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lat.spikeRate, n.lat.spikeTicks = rate, ticks
}

// SetLinkLatency overrides the network latency profile on the directed link
// from -> to (the override replaces the whole profile for that link).
func (n *Network) SetLinkLatency(from, to Addr, base, jitter uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lf := n.linkFor(from, to)
	lf.lat.base, lf.lat.jitter = base, jitter
	lf.latSet = true
}

// SetLinkLatencySpikes sets the spike half of a per-link latency override.
func (n *Network) SetLinkLatencySpikes(from, to Addr, rate float64, ticks uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lf := n.linkFor(from, to)
	lf.lat.spikeRate, lf.lat.spikeTicks = rate, ticks
	lf.latSet = true
}

// SetLinkHangRate sets a hung-reply probability for the directed link
// from -> to, in addition to the global rate.  Rate 1 models a stuck peer:
// every request is accepted and executed, no reply ever returns.
func (n *Network) SetLinkHangRate(from, to Addr, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkFor(from, to).hangRate = p
}

// ScriptLatency appends one-shot extra delays to the directed link
// from -> to: each subsequent matching RPC consumes the next delay, added
// to its request leg.  Deterministic by construction.
func (n *Network) ScriptLatency(from, to Addr, ticks ...uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lf := n.linkFor(from, to)
	lf.latScript = append(lf.latScript, ticks...)
}

// SetLinkRPCFaultRate sets a request-loss probability for the directed
// link from -> to, in addition to the global rate.
func (n *Network) SetLinkRPCFaultRate(from, to Addr, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkFor(from, to).failRate = p
}

// ScriptFaults appends one-shot faults to the directed link from -> to:
// each subsequent matching RPC consumes (and suffers) the next scheduled
// fault until the script is exhausted.  Deterministic by construction —
// no RNG involved.
func (n *Network) ScriptFaults(from, to Addr, kinds ...FaultKind) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lf := n.linkFor(from, to)
	lf.script = append(lf.script, kinds...)
}

// ClearFaults removes every scripted and probabilistic fault (global and
// per-link); partitions and host crashes are untouched.
func (n *Network) ClearFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rpcFailRate, n.replyLossRate, n.dupRate, n.reorderRate = 0, 0, 0, 0
	n.lossRate, n.hangRate = 0, 0
	n.lat = latencyProfile{}
	n.links = make(map[link]*linkFaults)
}

func (n *Network) linkFor(from, to Addr) *linkFaults {
	lf, ok := n.links[link{from, to}]
	if !ok {
		lf = &linkFaults{}
		n.links[link{from, to}] = lf
	}
	return lf
}

// linkRNGLocked returns the directed link's private fault RNG, creating it
// on first use.  The seed hashes (network seed, from, to) through a
// splitmix64 finalizer, so each link replays its own independent,
// reproducible stream.
func (n *Network) linkRNGLocked(from, to Addr) *rand.Rand {
	lf := n.linkFor(from, to)
	if lf.rng == nil {
		h := uint64(n.seed)
		for _, b := range []byte(from) {
			h = h*1099511628211 ^ uint64(b)
		}
		h ^= 0x9e3779b97f4a7c15
		for _, b := range []byte(to) {
			h = h*1099511628211 ^ uint64(b)
		}
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		lf.rng = rand.New(rand.NewSource(int64(h)))
	}
	return lf.rng
}

// SetLinkDatagramLossRate makes datagram deliveries on the directed link
// from -> to fail independently with probability p, in addition to any
// network-wide loss rate.  Loss draws come from the link's own seeded RNG,
// so one lossy link's rumor fate never perturbs another link's stream —
// the property the gossip chaos runs rely on for per-seed reproducibility.
func (n *Network) SetLinkDatagramLossRate(from, to Addr, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkFor(from, to).dgramLossRate = p
}

// rpcFaultLocked decides the fate of one RPC about to be dispatched on
// from -> to: scripted faults fire first (FIFO), then probabilistic ones.
// Probabilistic draws — including the global rates — come from the link's
// own seeded RNG, so concurrent traffic on other links never shifts this
// link's fault sequence.  Returns (faulted, kind).
func (n *Network) rpcFaultLocked(from, to Addr) (bool, FaultKind) {
	if lf, ok := n.links[link{from, to}]; ok && len(lf.script) > 0 {
		k := lf.script[0]
		lf.script = lf.script[1:]
		return true, k
	}
	anyRate := n.rpcFailRate > 0 || n.replyLossRate > 0 || n.hangRate > 0
	if lf, ok := n.links[link{from, to}]; ok {
		anyRate = anyRate || lf.failRate > 0 || lf.hangRate > 0
	}
	if !anyRate {
		return false, 0
	}
	rng := n.linkRNGLocked(from, to)
	lf := n.links[link{from, to}]
	if lf.failRate > 0 && rng.Float64() < lf.failRate {
		return true, FaultRequestLost
	}
	if n.rpcFailRate > 0 && rng.Float64() < n.rpcFailRate {
		return true, FaultRequestLost
	}
	if n.replyLossRate > 0 && rng.Float64() < n.replyLossRate {
		return true, FaultReplyLost
	}
	if lf.hangRate > 0 && rng.Float64() < lf.hangRate {
		return true, FaultHang
	}
	if n.hangRate > 0 && rng.Float64() < n.hangRate {
		return true, FaultHang
	}
	return false, 0
}

// latencyLocked draws the virtual latency of one call's request and reply
// legs on from -> to.  The link's profile overrides the network's; scripted
// one-shot delays land on the request leg.  Draws come from the link's own
// seeded RNG — and only when a latency is actually configured, so latency-
// free runs consume no draws and replay historical fault sequences exactly.
func (n *Network) latencyLocked(from, to Addr) (reqLat, replyLat uint64) {
	prof := n.lat
	lf, haveLink := n.links[link{from, to}]
	if haveLink && lf.latSet {
		prof = lf.lat
	}
	if haveLink && len(lf.latScript) > 0 {
		reqLat += lf.latScript[0]
		lf.latScript = lf.latScript[1:]
	}
	if !prof.active() {
		return reqLat, 0
	}
	rng := n.linkRNGLocked(from, to)
	leg := func() uint64 {
		d := prof.base
		if prof.jitter > 0 {
			d += uint64(rng.Int63n(int64(prof.jitter) + 1))
		}
		if prof.spikeRate > 0 && rng.Float64() < prof.spikeRate {
			d += prof.spikeTicks
			n.stats.RPCLatencySpikes++
		}
		return d
	}
	reqLat += leg()
	replyLat = leg()
	return reqLat, replyLat
}

// Host attaches (or returns) the host at addr.
func (n *Network) Host(addr Addr) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hosts[addr]; ok {
		return h
	}
	h := &Host{
		net:      n,
		addr:     addr,
		rpc:      make(map[string]RPCHandler),
		datagram: make(map[string]DatagramHandler),
	}
	n.hosts[addr] = h
	n.group[addr] = 0
	return h
}

// Addrs lists attached hosts in deterministic (sorted) order.
func (n *Network) Addrs() []Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Addr, 0, len(n.hosts))
	for a := range n.hosts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Partition splits the network into the given groups; a host in no listed
// group lands in its own singleton.  Hosts communicate iff they share a
// group.  Calling with no arguments is equivalent to Heal.
func (n *Network) Partition(groups ...[]Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := 1
	assigned := make(map[Addr]int)
	for _, g := range groups {
		for _, a := range g {
			assigned[a] = next
		}
		next++
	}
	for a := range n.hosts {
		if g, ok := assigned[a]; ok {
			n.group[a] = g
		} else {
			n.group[a] = next
			next++
		}
	}
}

// Heal reconnects every host.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for a := range n.hosts {
		n.group[a] = 0
	}
}

// Connected reports whether a and b can currently communicate.
func (n *Network) Connected(a, b Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.connectedLocked(a, b)
}

func (n *Network) connectedLocked(a, b Addr) bool {
	ha, ok := n.hosts[a]
	if !ok {
		return false
	}
	hb, ok := n.hosts[b]
	if !ok {
		return false
	}
	if ha.down || hb.down {
		return false
	}
	return n.group[a] == n.group[b]
}

// Stats returns a traffic snapshot.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// Host is one attached machine.
type Host struct {
	net      *Network
	addr     Addr
	down     bool
	rpc      map[string]RPCHandler
	datagram map[string]DatagramHandler
}

// Addr returns the host's address.
func (h *Host) Addr() Addr { return h.addr }

// SetDown crashes or revives the host.  A down host neither sends nor
// receives; its state is untouched (storage survives, as with a real crash).
func (h *Host) SetDown(down bool) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	h.down = down
}

// Down reports whether the host is crashed.
func (h *Host) Down() bool {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	return h.down
}

// HandleRPC registers the handler for a named service.
func (h *Host) HandleRPC(service string, fn RPCHandler) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	h.rpc[service] = fn
}

// RemoveRPC withdraws a service; later calls fail with ErrNoService.
func (h *Host) RemoveRPC(service string) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	delete(h.rpc, service)
}

// HandleDatagram registers the handler for a named datagram port.
func (h *Host) HandleDatagram(port string, fn DatagramHandler) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	h.datagram[port] = fn
}

// Call performs a synchronous RPC to service on dst.  It fails with
// ErrUnreachable when the hosts cannot currently communicate.  A host can
// always call itself, even while partitioned from everyone else; loopback
// calls are exempt from the fault plane.
func (h *Host) Call(dst Addr, service string, req []byte) ([]byte, error) {
	resp, _, err := h.CallT(dst, service, req, 0)
	return resp, err
}

// CallT is Call with a deadline, both measured in virtual ticks: it returns
// the call's virtual elapsed time alongside the result.  deadline 0 means
// wait forever (a hung reply then costs HangTicks).  With deadline > 0, any
// call whose virtual latency reaches the deadline — slow legs, a lost
// request or reply, a hung reply — fails with ErrDeadline after exactly
// deadline ticks: from the caller's clock a timeout is a timeout, whatever
// the cause.  The handler may still have run (at-most-once ambiguity).
// Latency is virtual, so CallT never blocks real time.
func (h *Host) CallT(dst Addr, service string, req []byte, deadline uint64) ([]byte, uint64, error) {
	h.net.mu.Lock()
	h.net.stats.RPCs++
	target, ok := h.net.hosts[dst]
	if !ok {
		h.net.stats.RPCFailures++
		h.net.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %s", ErrNoHost, dst)
	}
	if h.down || (dst != h.addr && !h.net.connectedLocked(h.addr, dst)) {
		h.net.stats.RPCFailures++
		h.net.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %s -> %s", ErrUnreachable, h.addr, dst)
	}
	fn, ok := target.rpc[service]
	if !ok {
		h.net.stats.RPCFailures++
		h.net.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %s on %s", ErrNoService, service, dst)
	}
	var faulted bool
	var kind FaultKind
	var reqLat, replyLat uint64
	if dst != h.addr {
		faulted, kind = h.net.rpcFaultLocked(h.addr, dst)
		reqLat, replyLat = h.net.latencyLocked(h.addr, dst)
	}
	if faulted && kind == FaultRequestLost {
		h.net.stats.RPCFailures++
		h.net.stats.RPCFaultsInjected++
		if deadline > 0 {
			// The caller cannot see the loss; it waits out the deadline.
			h.net.stats.RPCDeadlineMisses++
			h.net.stats.RPCVirtualTicks += deadline
			h.net.mu.Unlock()
			return nil, deadline, fmt.Errorf("%w: %s -> %s (request lost)", ErrDeadline, h.addr, dst)
		}
		h.net.stats.RPCVirtualTicks += reqLat
		h.net.mu.Unlock()
		return nil, reqLat, fmt.Errorf("%w: %s -> %s (injected request loss)", ErrUnreachable, h.addr, dst)
	}
	if deadline > 0 && reqLat >= deadline {
		// The request is still in flight when the caller gives up; the
		// handler never runs from this call's perspective.
		h.net.stats.RPCFailures++
		h.net.stats.RPCDeadlineMisses++
		h.net.stats.RPCVirtualTicks += deadline
		h.net.mu.Unlock()
		return nil, deadline, fmt.Errorf("%w: %s -> %s (request leg %d >= deadline %d)", ErrDeadline, h.addr, dst, reqLat, deadline)
	}
	h.net.mu.Unlock()

	resp, err := fn(req)

	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	switch {
	case faulted && kind == FaultHang: // handler ran, reply never arrives
		h.net.stats.RPCFailures++
		h.net.stats.RPCHangs++
		if deadline > 0 {
			h.net.stats.RPCDeadlineMisses++
			h.net.stats.RPCVirtualTicks += deadline
			return nil, deadline, fmt.Errorf("%w: %s -> %s (reply hung)", ErrDeadline, h.addr, dst)
		}
		h.net.stats.RPCVirtualTicks += HangTicks
		return nil, HangTicks, fmt.Errorf("%w: %s -> %s (reply hung)", ErrUnreachable, h.addr, dst)
	case faulted: // FaultReplyLost: the handler ran, the caller learns nothing
		h.net.stats.RPCFailures++
		h.net.stats.RPCRepliesLost++
		if deadline > 0 {
			h.net.stats.RPCDeadlineMisses++
			h.net.stats.RPCVirtualTicks += deadline
			return nil, deadline, fmt.Errorf("%w: %s -> %s (reply lost)", ErrDeadline, h.addr, dst)
		}
		h.net.stats.RPCVirtualTicks += reqLat + replyLat
		return nil, reqLat + replyLat, fmt.Errorf("%w: %s -> %s (injected reply loss)", ErrUnreachable, h.addr, dst)
	case deadline > 0 && reqLat+replyLat >= deadline:
		// The reply is still in flight at the deadline; it is discarded.
		h.net.stats.RPCFailures++
		h.net.stats.RPCDeadlineMisses++
		h.net.stats.RPCVirtualTicks += deadline
		return nil, deadline, fmt.Errorf("%w: %s -> %s (latency %d >= deadline %d)", ErrDeadline, h.addr, dst, reqLat+replyLat, deadline)
	}
	if err == nil {
		h.net.stats.RPCBytes += uint64(len(req) + len(resp))
	}
	h.net.stats.RPCVirtualTicks += reqLat + replyLat
	return resp, reqLat + replyLat, err
}

// Multicast delivers a best-effort datagram to port on each destination.
// Unreachable destinations are silently skipped — exactly the fire-and-
// forget semantics of the paper's update notification (§2.5).  Delivery is
// synchronous in the caller's goroutine to keep simulations deterministic;
// handlers must be fast and must not call back into the sender.
//
// Under the fault plane a delivery may additionally be duplicated (the
// handler fires twice) and the destination order of one multicast may be
// permuted — receivers must treat notifications as idempotent, unordered
// hints, which is exactly the contract of the paper's new-version cache.
func (h *Host) Multicast(port string, payload []byte, dsts []Addr) {
	h.net.mu.Lock()
	if h.net.reorderRate > 0 && len(dsts) > 1 && h.net.rng.Float64() < h.net.reorderRate {
		shuffled := append([]Addr(nil), dsts...)
		h.net.rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		dsts = shuffled
		h.net.stats.MulticastsReordered++
	}
	h.net.mu.Unlock()
	for _, dst := range dsts {
		h.net.mu.Lock()
		h.net.stats.Datagrams++
		target, ok := h.net.hosts[dst]
		deliverable := ok && !h.down && (dst == h.addr || h.net.connectedLocked(h.addr, dst))
		if deliverable && h.net.lossRate > 0 && h.net.rng.Float64() < h.net.lossRate {
			deliverable = false
		}
		// Per-link loss draws from the link's own RNG, and only when that
		// link is configured lossy — links without it replay their historical
		// sequences untouched.
		if deliverable {
			if lf, ok := h.net.links[link{h.addr, dst}]; ok && lf.dgramLossRate > 0 &&
				h.net.linkRNGLocked(h.addr, dst).Float64() < lf.dgramLossRate {
				deliverable = false
			}
		}
		var fn DatagramHandler
		if deliverable {
			fn = target.datagram[port]
		}
		if fn == nil {
			h.net.stats.DatagramsDropped++
			h.net.mu.Unlock()
			continue
		}
		copies := 1
		if h.net.dupRate > 0 && h.net.rng.Float64() < h.net.dupRate {
			copies = 2
			h.net.stats.DatagramsDuplicated++
		}
		h.net.stats.DatagramsDelivered++
		h.net.stats.DatagramBytes += uint64(len(payload))
		h.net.mu.Unlock()
		for i := 0; i < copies; i++ {
			fn(h.addr, payload)
		}
	}
}
