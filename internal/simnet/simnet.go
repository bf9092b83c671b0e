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
// ErrUnreachable (the classic at-most-once ambiguity), and datagram loss,
// duplication and reordering.  One FaultProfile programs it: SetFaults
// installs a profile on every link, SetLinkFaults on one directed link,
// whose non-zero fields override the network's field by field.  Every
// link-level decision draws from a per-link RNG seeded from (network seed,
// link); only a multicast's reordering, a property of one fan-out, draws
// from the network RNG.  A run with faults enabled is therefore exactly as
// reproducible as one without — per link even under concurrent callers on
// other links.
//
// The fault plane also has a time dimension, measured in *virtual ticks*
// (the same clock the daemons' backoff schedules use — no wall time):
// per-link latency distributions (base + seeded jitter), probabilistic
// latency spikes, and hung RPCs whose handler runs but whose reply never
// arrives.  CallT attaches a deadline to one call: a call whose virtual
// latency would exceed the deadline fails with ErrDeadline after exactly
// deadline ticks, so a slow or hung peer costs a bounded, accountable
// amount of virtual time instead of a stalled pass.
// Because latency is virtual, nothing ever blocks the simulation itself.
package simnet

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
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

// callError is a call the network refused or failed: one value, whatever
// befell it, that renders its text only when asked.  errors.Is finds its
// cause, one of the four errors above.
type callError struct {
	cause           error
	from, to        Addr
	service         string // ErrNoService: the service asked for
	what            string // what befell a call that was sent, "" for a refusal
	ticks, deadline uint64 // a missed deadline's latency and deadline, when what names a leg
}

func (e *callError) Error() string {
	switch {
	case errors.Is(e.cause, ErrNoHost):
		return fmt.Sprintf("%v: %s", e.cause, e.to)
	case errors.Is(e.cause, ErrNoService):
		return fmt.Sprintf("%v: %s on %s", e.cause, e.service, e.to)
	case e.what == "":
		return fmt.Sprintf("%v: %s -> %s", e.cause, e.from, e.to)
	case e.ticks > 0:
		return fmt.Sprintf("%v: %s -> %s (%s %d >= deadline %d)", e.cause, e.from, e.to, e.what, e.ticks, e.deadline)
	}
	return fmt.Sprintf("%v: %s -> %s (%s)", e.cause, e.from, e.to, e.what)
}

func (e *callError) Unwrap() error { return e.cause }

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

// FaultProfile is the fault plane in force on a link: probabilities in
// [0, 1] and latencies in virtual ticks.  The zero value is a perfect link.
// Every draw comes from the link's own seeded RNG, so faulty runs stay
// deterministic.
type FaultProfile struct {
	// RPCFailRate is the chance an RPC request is lost before the remote
	// handler runs: the caller sees ErrUnreachable.
	RPCFailRate float64
	// ReplyLossRate is the chance an RPC reply is lost after the handler
	// ran: the remote side did the work, the caller sees failure — the
	// at-most-once ambiguity retries must tolerate.
	ReplyLossRate float64
	// HangRate is the chance an RPC's handler runs and its reply never
	// arrives (FaultHang).  Rate 1 models a stuck peer.
	HangRate float64
	// DatagramLossRate drops a datagram delivery, in addition to partition
	// and down-host losses.
	DatagramLossRate float64
	// DatagramDupRate delivers a datagram twice, as UDP permits.
	DatagramDupRate float64
	// ReorderRate permutes the destination order of one multicast.  It is a
	// property of a fan-out, not of a link: only the network's value counts.
	ReorderRate float64
	// BaseTicks is the latency of each RPC leg, request and reply.
	BaseTicks uint64
	// JitterTicks adds a uniform draw in [0, JitterTicks] to each leg.
	JitterTicks uint64
	// SpikeRate is the chance a leg costs SpikeTicks more: the heavy tail
	// of a degraded link.
	SpikeRate  float64
	SpikeTicks uint64
}

// over returns p with each zero field taken from base: a link's non-zero
// fields override the network's, field by field.
func (p FaultProfile) over(base FaultProfile) FaultProfile {
	return FaultProfile{
		RPCFailRate:      cmp.Or(p.RPCFailRate, base.RPCFailRate),
		ReplyLossRate:    cmp.Or(p.ReplyLossRate, base.ReplyLossRate),
		HangRate:         cmp.Or(p.HangRate, base.HangRate),
		DatagramLossRate: cmp.Or(p.DatagramLossRate, base.DatagramLossRate),
		DatagramDupRate:  cmp.Or(p.DatagramDupRate, base.DatagramDupRate),
		ReorderRate:      cmp.Or(p.ReorderRate, base.ReorderRate),
		BaseTicks:        cmp.Or(p.BaseTicks, base.BaseTicks),
		JitterTicks:      cmp.Or(p.JitterTicks, base.JitterTicks),
		SpikeRate:        cmp.Or(p.SpikeRate, base.SpikeRate),
		SpikeTicks:       cmp.Or(p.SpikeTicks, base.SpikeTicks),
	}
}

// link identifies one directed sender->receiver pair.
type link struct{ from, to Addr }

// linkState is one directed link's own profile, fault script and RNG.
type linkState struct {
	faults FaultProfile // zero fields inherit the network's profile
	script []FaultKind  // one-shot faults, consumed FIFO by matching calls

	// rng drives every fault decision on this link.  It is seeded from
	// (network seed, from, to), so the faults a link suffers depend only on
	// that link's own traffic — adding, dropping or reordering traffic on
	// other links leaves this link's draws where they were.
	rng *rand.Rand
}

// Network connects hosts.  All methods are safe for concurrent use.
type Network struct {
	mu    sync.Mutex
	hosts map[Addr]*Host
	group map[Addr]int // partition group; hosts communicate iff equal
	seed  int64
	rng   *rand.Rand // multicast reordering only
	stats Stats

	faults FaultProfile // in force on every link, less what a link overrides
	links  map[link]*linkState
}

// New creates an empty, fully connected network.  The seed drives every
// fault decision, so runs are reproducible.
func New(seed int64) *Network {
	return &Network{
		hosts: make(map[Addr]*Host),
		group: make(map[Addr]int),
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[link]*linkState),
	}
}

// SetFaults installs p on every link.  A link's own non-zero fields
// (SetLinkFaults) still override it there.
func (n *Network) SetFaults(p FaultProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = p
}

// SetLinkFaults installs p on the directed link from -> to: its non-zero
// fields override the network's profile, its zero fields inherit it.
func (n *Network) SetLinkFaults(from, to Addr, p FaultProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.attachLocked(from, to).faults = p
}

// ScriptFaults appends one-shot faults to the directed link from -> to:
// each subsequent matching RPC consumes (and suffers) the next scheduled
// fault until the script is exhausted.  Deterministic by construction —
// no RNG involved.
func (n *Network) ScriptFaults(from, to Addr, kinds ...FaultKind) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.attachLocked(from, to)
	l.script = append(l.script, kinds...)
}

// ClearFaults removes every scripted and probabilistic fault (network-wide
// and per-link); partitions, host crashes and hangs are untouched.
func (n *Network) ClearFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = FaultProfile{}
	n.links = make(map[link]*linkState)
}

// attachLocked returns the directed link's state, creating it on first use.
// The RNG's seed hashes (network seed, from, to) through a splitmix64
// finalizer, so each link replays its own independent, reproducible stream.
func (n *Network) attachLocked(from, to Addr) *linkState {
	l, ok := n.links[link{from, to}]
	if !ok {
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
		l = &linkState{rng: rand.New(rand.NewSource(int64(h)))}
		n.links[link{from, to}] = l
	}
	return l
}

// faultsLocked returns the directed link's state and the profile in force
// on it.  A link is attached on first use only once some fault is in force,
// so a fault-free network keeps no per-link state.
func (n *Network) faultsLocked(from, to Addr) (*linkState, FaultProfile) {
	l := n.links[link{from, to}]
	if l == nil {
		if n.faults == (FaultProfile{}) {
			return nil, n.faults
		}
		l = n.attachLocked(from, to)
	}
	return l, l.faults.over(n.faults)
}

// rpcFateLocked decides one RPC on from -> to, whose receiver is hung or
// not: whether and how it faults, and the virtual latency of its request and
// reply legs.  Draws come from the link's RNG in a fixed order — a scripted
// fault (FIFO, no draw), then request loss, reply loss and hang, then the two
// legs — and only for what is in force, so a link with nothing in force draws
// nothing.  A hung receiver puts HangRate 1 in force on the link, for this
// call, over whatever else the link's profile says: the hang takes its place
// in the order and draws as a profile's HangRate would.
func (n *Network) rpcFateLocked(from, to Addr, hung bool) (faulted bool, kind FaultKind, reqLat, replyLat uint64) {
	l, p := n.faultsLocked(from, to)
	if hung {
		if l == nil {
			l = n.attachLocked(from, to)
		}
		p.HangRate = 1
	}
	if l == nil {
		return false, 0, 0, 0
	}
	if len(l.script) > 0 {
		faulted, kind = true, l.script[0]
		l.script = l.script[1:]
	}
	rng := l.rng
	if !faulted {
		switch {
		case p.RPCFailRate > 0 && rng.Float64() < p.RPCFailRate:
			faulted, kind = true, FaultRequestLost
		case p.ReplyLossRate > 0 && rng.Float64() < p.ReplyLossRate:
			faulted, kind = true, FaultReplyLost
		case p.HangRate > 0 && rng.Float64() < p.HangRate:
			faulted, kind = true, FaultHang
		}
	}
	leg := func() uint64 {
		d := p.BaseTicks
		if p.JitterTicks > 0 {
			d += uint64(rng.Int63n(int64(p.JitterTicks) + 1))
		}
		if p.SpikeRate > 0 && rng.Float64() < p.SpikeRate {
			d += p.SpikeTicks
			n.stats.RPCLatencySpikes++
		}
		return d
	}
	reqLat = leg()
	replyLat = leg()
	return faulted, kind, reqLat, replyLat
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
	hung     bool // RPCs from other hosts run, and their replies never arrive
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

// SetHung makes the host a hung peer, or a live one again.  An RPC another
// host sends it runs its handler, but the reply never arrives, as under a
// HangRate of 1 on the link in (rpcFateLocked).  Datagrams and the host's own
// calls still flow.  No link's profile is touched, so what else is injected
// on the links in outlives the hang; ClearFaults leaves a hang, as it leaves
// a crash.
func (h *Host) SetHung(hung bool) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	h.hung = hung
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
		return nil, 0, &callError{cause: ErrNoHost, to: dst}
	}
	if h.down || (dst != h.addr && !h.net.connectedLocked(h.addr, dst)) {
		h.net.stats.RPCFailures++
		h.net.mu.Unlock()
		return nil, 0, &callError{cause: ErrUnreachable, from: h.addr, to: dst}
	}
	fn, ok := target.rpc[service]
	if !ok {
		h.net.stats.RPCFailures++
		h.net.mu.Unlock()
		return nil, 0, &callError{cause: ErrNoService, to: dst, service: service}
	}
	var faulted bool
	var kind FaultKind
	var reqLat, replyLat uint64
	if dst != h.addr {
		faulted, kind, reqLat, replyLat = h.net.rpcFateLocked(h.addr, dst, target.hung)
	}
	if faulted && kind == FaultRequestLost {
		h.net.stats.RPCFailures++
		h.net.stats.RPCFaultsInjected++
		if deadline > 0 {
			// The caller cannot see the loss; it waits out the deadline.
			h.net.stats.RPCDeadlineMisses++
			h.net.stats.RPCVirtualTicks += deadline
			h.net.mu.Unlock()
			return nil, deadline, &callError{cause: ErrDeadline, from: h.addr, to: dst, what: "request lost"}
		}
		h.net.stats.RPCVirtualTicks += reqLat
		h.net.mu.Unlock()
		return nil, reqLat, &callError{cause: ErrUnreachable, from: h.addr, to: dst, what: "injected request loss"}
	}
	if deadline > 0 && reqLat >= deadline {
		// The request is still in flight when the caller gives up; the
		// handler never runs from this call's perspective.
		h.net.stats.RPCFailures++
		h.net.stats.RPCDeadlineMisses++
		h.net.stats.RPCVirtualTicks += deadline
		h.net.mu.Unlock()
		return nil, deadline, &callError{cause: ErrDeadline, from: h.addr, to: dst, what: "request leg", ticks: reqLat, deadline: deadline}
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
			return nil, deadline, &callError{cause: ErrDeadline, from: h.addr, to: dst, what: "reply hung"}
		}
		h.net.stats.RPCVirtualTicks += HangTicks
		return nil, HangTicks, &callError{cause: ErrUnreachable, from: h.addr, to: dst, what: "reply hung"}
	case faulted: // FaultReplyLost: the handler ran, the caller learns nothing
		h.net.stats.RPCFailures++
		h.net.stats.RPCRepliesLost++
		if deadline > 0 {
			h.net.stats.RPCDeadlineMisses++
			h.net.stats.RPCVirtualTicks += deadline
			return nil, deadline, &callError{cause: ErrDeadline, from: h.addr, to: dst, what: "reply lost"}
		}
		h.net.stats.RPCVirtualTicks += reqLat + replyLat
		return nil, reqLat + replyLat, &callError{cause: ErrUnreachable, from: h.addr, to: dst, what: "injected reply loss"}
	case deadline > 0 && reqLat+replyLat >= deadline:
		// The reply is still in flight at the deadline; it is discarded.
		h.net.stats.RPCFailures++
		h.net.stats.RPCDeadlineMisses++
		h.net.stats.RPCVirtualTicks += deadline
		return nil, deadline, &callError{cause: ErrDeadline, from: h.addr, to: dst, what: "latency", ticks: reqLat + replyLat, deadline: deadline}
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
	if r := h.net.faults.ReorderRate; r > 0 && len(dsts) > 1 && h.net.rng.Float64() < r {
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
		// Loss, then duplication, draw from the link's own RNG.
		l, p := h.net.faultsLocked(h.addr, dst)
		if deliverable && p.DatagramLossRate > 0 && l.rng.Float64() < p.DatagramLossRate {
			deliverable = false
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
		if p.DatagramDupRate > 0 && l.rng.Float64() < p.DatagramDupRate {
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
