// Package retry is the reusable failure-handling policy shared by the
// replication stack: an error classifier (transient vs. permanent), capped
// exponential backoff with deterministic jitter, and a per-peer health
// tracker.  The paper's premise is that "partial operation is the normal,
// not exceptional, status" (§1) — daemons therefore must not treat a failed
// peer as fatal, but neither may they hammer an unreachable host on every
// pass.  Time here is *virtual*: backoff and cool-downs are measured in
// daemon ticks (one tick per daemon pass), so simulations stay fully
// deterministic — no wall clocks, no real sleeping.
package retry

import (
	"errors"
	"sync"

	"repro/internal/simnet"
	"repro/internal/ufs"
	"repro/internal/vnode"
)

// Transient reports whether err is worth retrying: communication failures
// (partition, crash, injected fault, lost reply), deadline misses (a peer
// too slow to answer in time may answer later), and exhausted disks (space
// frees up: users delete files, GC collects tombstones) are transient;
// everything else — protocol errors, corruption-class storage errors — is
// permanent.  Errors may also opt in by implementing
// interface{ Transient() bool }.
//
// ENOSPC is matched by sentinel before the interface check on purpose: the
// ufsvn error map wraps unknown disk errors in vnode.EIO, and an errors.As
// walk would surface the outer error's verdict instead of the disk-full
// condition underneath.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, simnet.ErrUnreachable) || errors.Is(err, simnet.ErrDeadline) {
		return true
	}
	if errors.Is(err, vnode.ENOSPC) || errors.Is(err, ufs.ErrNoSpace) {
		return true
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// Policy spaces retries of an operation against one peer.  The zero value
// is unusable; start from Default.
type Policy struct {
	// MaxAttempts bounds the immediate, in-call retries of an idempotent
	// operation (>= 1; the first try counts).
	MaxAttempts int
	// BaseBackoff is the deferral, in virtual ticks, after the first
	// failed attempt of a queued work item; it doubles per attempt.
	BaseBackoff uint64
	// MaxBackoff caps the exponential growth.
	MaxBackoff uint64
}

// Default returns the stack's standard policy: three in-call attempts,
// backoff 1, 2, 4, ... ticks capped at 8.
func Default() Policy {
	return Policy{MaxAttempts: 3, BaseBackoff: 1, MaxBackoff: 8}
}

// Backoff returns how many virtual ticks to wait after the attempt-th
// consecutive failure (attempt >= 1) of the work item identified by key.
// The schedule is capped exponential plus a deterministic jitter derived
// from (key, attempt), so distinct items retrying after the same outage
// spread out instead of stampeding in the same later pass.
func (p Policy) Backoff(attempt int, key uint64) uint64 {
	if attempt < 1 {
		attempt = 1
	}
	base := p.BaseBackoff
	if base == 0 {
		base = 1
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	// Jitter in [0, d/2], deterministic in (key, attempt).
	jitter := mix(key ^ uint64(attempt)*0x9e3779b97f4a7c15)
	if d >= 2 {
		d += jitter % (d/2 + 1)
	}
	return d
}

// Do runs op up to p.MaxAttempts times, stopping on success or on the
// first permanent error.  It is only for *idempotent* operations: a lost
// reply (the at-most-once ambiguity) means op may have executed on the
// peer even though the caller saw a failure.
func (p Policy) Do(op func() error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if err = op(); err == nil || !Transient(err) {
			return err
		}
	}
	return err
}

// mix is splitmix64's finalizer: a cheap deterministic hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// State is a peer's health as seen by the tracker.
type State int

// Peer health states: Healthy peers are probed freely; Slow peers answer —
// but with a latency EWMA above the slow threshold, so load should be shed
// toward faster replicas before the peer degrades further; Suspect peers
// have failed recently but are still probed; Dead peers failed repeatedly
// and are skipped until a cool-down expires, then reprobed.
const (
	Healthy State = iota
	Slow
	Suspect
	Dead
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Slow:
		return "slow"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Tracker maintains per-peer health: healthy -> suspect (first failure) ->
// dead (DeadAfter consecutive failures), with a cool-down reprobe while
// dead.  All methods are safe for concurrent use.  Time is virtual ticks
// supplied by the caller.
type Tracker struct {
	deadAfter int
	cooldown  uint64

	mu        sync.Mutex
	slowAfter uint64 // EWMA ticks above which a failure-free peer is Slow; 0 = off
	peers     map[string]*peerHealth
}

type peerHealth struct {
	fails     int
	nextProbe uint64 // while dead: earliest tick to reprobe

	// Latency profile, fed by ObserveLatency.  float64 EWMA arithmetic on
	// integer tick samples is deterministic across platforms (IEEE 754).
	ewma    float64
	hasEwma bool

	deadlineMisses uint64 // exchanges abandoned at their RPC deadline
}

// ewmaAlpha weights new latency samples: 1/4 new, 3/4 history — reactive
// enough to flag a peer within a few slow pulls, calm enough that one
// spike doesn't flap the state.
const ewmaAlpha = 0.25

// NewTracker builds a tracker: a peer is dead after deadAfter consecutive
// failures and is then reprobed every cooldown ticks.
func NewTracker(deadAfter int, cooldown uint64) *Tracker {
	if deadAfter < 1 {
		deadAfter = 1
	}
	if cooldown < 1 {
		cooldown = 1
	}
	return &Tracker{deadAfter: deadAfter, cooldown: cooldown, peers: make(map[string]*peerHealth)}
}

func (t *Tracker) peer(key string) *peerHealth {
	ph, ok := t.peers[key]
	if !ok {
		ph = &peerHealth{}
		t.peers[key] = ph
	}
	return ph
}

// Reset forgets all peer state (a rebooted kernel starts with no health
// knowledge).
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers = make(map[string]*peerHealth)
}

// SetSlowThreshold enables latency-aware health: a peer whose latency EWMA
// exceeds ticks counts Slow even while every exchange succeeds.  0 disables.
func (t *Tracker) SetSlowThreshold(ticks uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slowAfter = ticks
}

// ObserveLatency feeds one latency sample (virtual ticks) into the peer's
// EWMA.  Call it for completed exchanges — including deadline misses, whose
// elapsed time (the deadline) is exactly the slowness being measured.
func (t *Tracker) ObserveLatency(key string, ticks uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := t.peer(key)
	if !ph.hasEwma {
		ph.ewma, ph.hasEwma = float64(ticks), true
		return
	}
	ph.ewma = (1-ewmaAlpha)*ph.ewma + ewmaAlpha*float64(ticks)
}

// DeadlineMiss counts an exchange abandoned at its RPC deadline.  It is a
// counter only; callers record the failure itself via Fail.
func (t *Tracker) DeadlineMiss(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peer(key).deadlineMisses++
}

// Latency returns the peer's current latency EWMA in ticks, if any samples
// have been observed.
func (t *Tracker) Latency(key string) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph, ok := t.peers[key]
	if !ok || !ph.hasEwma {
		return 0, false
	}
	return uint64(ph.ewma), true
}

// OK records a successful exchange with the peer: fully healthy again.
// The latency profile survives — a slow peer does not become fast by
// answering — only the failure streak resets.
func (t *Tracker) OK(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph, ok := t.peers[key]
	if !ok {
		return
	}
	if !ph.hasEwma && ph.deadlineMisses == 0 {
		delete(t.peers, key)
		return
	}
	ph.fails, ph.nextProbe = 0, 0
}

// Fail records a failed exchange at tick now; while dead the next reprobe
// is scheduled cooldown ticks out.
func (t *Tracker) Fail(key string, now uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := t.peer(key)
	ph.fails++
	if ph.fails >= t.deadAfter {
		ph.nextProbe = now + t.cooldown
	}
}

// State reports the peer's current health.
func (t *Tracker) State(key string) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stateLocked(key)
}

func (t *Tracker) stateLocked(key string) State {
	ph, ok := t.peers[key]
	switch {
	case !ok:
		return Healthy
	case ph.fails == 0:
		if t.slowAfter > 0 && ph.hasEwma && ph.ewma > float64(t.slowAfter) {
			return Slow
		}
		return Healthy
	case ph.fails < t.deadAfter:
		return Suspect
	default:
		return Dead
	}
}

// HealthInfo is one peer's full tracked profile.
type HealthInfo struct {
	State          State
	Fails          int    // consecutive failures
	EWMATicks      uint64 // latency EWMA (valid iff HasLatency)
	HasLatency     bool
	DeadlineMisses uint64
}

// Snapshot returns the peer's full health profile in one consistent read.
func (t *Tracker) Snapshot(key string) HealthInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	info := HealthInfo{State: t.stateLocked(key)}
	if ph, ok := t.peers[key]; ok {
		info.Fails = ph.fails
		info.HasLatency = ph.hasEwma
		info.EWMATicks = uint64(ph.ewma)
		info.DeadlineMisses = ph.deadlineMisses
	}
	return info
}

// ShouldProbe reports whether the caller should spend effort contacting
// the peer at tick now.  Healthy and suspect peers: always.  Dead peers:
// only when the cool-down has expired (and then the next reprobe is
// rescheduled, so exactly one pass per cool-down window pays the probe).
func (t *Tracker) ShouldProbe(key string, now uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph, ok := t.peers[key]
	if !ok || ph.fails < t.deadAfter {
		return true
	}
	if now >= ph.nextProbe {
		ph.nextProbe = now + t.cooldown
		return true
	}
	return false
}
