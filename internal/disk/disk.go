// Package disk provides the simulated block device underneath the UFS
// substrate.  The 1990 Ficus evaluation (paper §6) is expressed in disk
// I/O counts — "four I/Os beyond the normal Unix overhead occur" on a cold
// open — so the device keeps exact per-operation counters that the E3
// experiment reads back.  It also supports fault injection: a device can be
// made to fail after a chosen number of writes, which the physical layer's
// shadow-file atomic commit tests use to prove that a crash before the
// shadow substitution retains the original replica (paper §3.2 fn5).
package disk

import (
	"errors"
	"fmt"
	"sync"
)

// BlockSize is the size of every device block in bytes.  4 KiB matches the
// page-sized I/O granularity the paper's I/O accounting assumes.
const BlockSize = 4096

// Errors returned by devices.
var (
	// ErrOutOfRange reports a block number beyond the device.
	ErrOutOfRange = errors.New("disk: block number out of range")
	// ErrFaulted reports that the device has hit its injected fault and
	// refuses all further I/O, emulating a crash.
	ErrFaulted = errors.New("disk: injected fault: device crashed")
	// ErrBadSize reports a buffer whose length is not exactly one block.
	ErrBadSize = errors.New("disk: buffer must be exactly one block")
	// ErrIO reports an injected transient I/O error: the operation failed
	// but the device remains in service, so retrying may succeed.  Errors
	// wrapping it implement Transient() bool, which internal/retry uses to
	// classify them as retryable.
	ErrIO = errors.New("disk: injected transient I/O error")
)

// ioFault wraps ErrIO so the retry machinery sees a transient error without
// the disk package importing it.
type ioFault struct{ err error }

func (f ioFault) Error() string   { return f.err.Error() }
func (f ioFault) Unwrap() error   { return f.err }
func (f ioFault) Transient() bool { return true }

func ioError(op string, bn int) error {
	return ioFault{fmt.Errorf("%w: %s block %d", ErrIO, op, bn)}
}

// Stats counts device operations.  Reads and writes are block-granularity:
// one call, one block, one I/O.  Failed operations are counted in the fault
// counters, not in Reads/Writes.  Corrupted operations SUCCEED from the
// caller's point of view — that is what makes the corruption silent — so
// they count in Reads/Writes as well as in CorruptReads/CorruptWrites.
type Stats struct {
	Reads  uint64
	Writes uint64

	// Fault-injection counters.
	ReadFaults    uint64 // reads failed with an injected transient error
	WriteFaults   uint64 // writes failed with an injected transient error
	TornWrites    uint64 // crashing writes that persisted a partial block
	CorruptReads  uint64 // reads that silently returned garbled bytes
	CorruptWrites uint64 // writes that silently persisted garbled bytes
}

// Total returns Reads + Writes.
func (s Stats) Total() uint64 { return s.Reads + s.Writes }

// Add accumulates (aggregation across the devices of a host).
func (s *Stats) Add(t Stats) {
	s.Reads += t.Reads
	s.Writes += t.Writes
	s.ReadFaults += t.ReadFaults
	s.WriteFaults += t.WriteFaults
	s.TornWrites += t.TornWrites
	s.CorruptReads += t.CorruptReads
	s.CorruptWrites += t.CorruptWrites
}

// Sub returns s - t componentwise; used to measure the I/O cost of a single
// operation by snapshotting stats before and after.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:         s.Reads - t.Reads,
		Writes:        s.Writes - t.Writes,
		ReadFaults:    s.ReadFaults - t.ReadFaults,
		WriteFaults:   s.WriteFaults - t.WriteFaults,
		TornWrites:    s.TornWrites - t.TornWrites,
		CorruptReads:  s.CorruptReads - t.CorruptReads,
		CorruptWrites: s.CorruptWrites - t.CorruptWrites,
	}
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("%dR+%dW", s.Reads, s.Writes)
}

// FaultKind selects a scripted one-shot fault.
type FaultKind int

// Scripted fault kinds, consumed FIFO by the next matching operation.
const (
	// FaultReadError fails the next read with a transient I/O error.
	FaultReadError FaultKind = iota
	// FaultWriteError fails the next write with a transient I/O error.
	FaultWriteError
	// FaultCorruptRead silently garbles the bytes the next read returns;
	// the stored block is untouched and the call reports success.
	FaultCorruptRead
	// FaultCorruptWrite silently garbles the bytes the next write persists;
	// the call reports success, so the caller believes its data is safe.
	FaultCorruptWrite
)

// FaultProfile programs steady-state probabilistic faults on a device.
// Rates are probabilities in [0, 1] drawn from a per-device RNG seeded by
// Seed, so faulty runs stay deterministic.
type FaultProfile struct {
	Seed             int64
	ReadErrRate      float64 // chance a read fails with a transient I/O error
	WriteErrRate     float64 // chance a write fails with a transient I/O error
	CorruptReadRate  float64 // chance a read silently returns garbled bytes
	CorruptWriteRate float64 // chance a write silently persists garbled bytes
}

func (p FaultProfile) active() bool {
	return p.ReadErrRate > 0 || p.WriteErrRate > 0 ||
		p.CorruptReadRate > 0 || p.CorruptWriteRate > 0
}

// Device is a fixed-size array of blocks with I/O accounting and fault
// injection.  All methods are safe for concurrent use.
type Device struct {
	mu     sync.Mutex
	blocks [][]byte
	stats  Stats

	// Fault injection: when writesUntilFault reaches zero the device
	// "crashes": every subsequent operation fails with ErrFaulted until
	// ClearFault.  -1 means no fault armed.  A crashing write is normally
	// LOST entirely; with tornBytes > 0 it instead persists the first
	// tornBytes bytes of the buffer — a torn write.
	writesUntilFault int64
	faulted          bool
	tornBytes        int

	// Transient-fault injection: scripted one-shot faults drain first,
	// then the probabilistic profile draws from rng.
	scripted []FaultKind
	profile  FaultProfile
	rng      uint64
}

// New creates a device with n blocks, all zero.
func New(n int) *Device {
	d := &Device{blocks: make([][]byte, n), writesUntilFault: -1}
	return d
}

// Blocks returns the device capacity in blocks.
func (d *Device) Blocks() int { return len(d.blocks) }

// drawScripted consumes and reports the scripted fault at the head of the
// queue if it matches want.  Caller holds d.mu.
func (d *Device) drawScripted(want FaultKind) bool {
	if len(d.scripted) > 0 && d.scripted[0] == want {
		d.scripted = d.scripted[1:]
		return true
	}
	return false
}

// drawRate draws the per-device RNG against a profile rate.  Caller holds
// d.mu.
func (d *Device) drawRate(rate float64) bool {
	if !d.profile.active() || rate <= 0 {
		return false
	}
	// splitmix64 step; uniform in [0, 1) from the top 53 bits.
	d.rng += 0x9e3779b97f4a7c15
	x := d.rng
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < rate
}

// drawFault decides whether the current operation (a read when read=true)
// should fail with an injected transient error: scripted faults first, then
// the probabilistic profile.  Caller holds d.mu.
func (d *Device) drawFault(read bool) bool {
	want, rate := FaultWriteError, d.profile.WriteErrRate
	if read {
		want, rate = FaultReadError, d.profile.ReadErrRate
	}
	return d.drawScripted(want) || d.drawRate(rate)
}

// drawCorrupt decides whether the current operation should silently garble
// its bytes: scripted corruption first, then the profile.  Caller holds d.mu.
func (d *Device) drawCorrupt(read bool) bool {
	want, rate := FaultCorruptWrite, d.profile.CorruptWriteRate
	if read {
		want, rate = FaultCorruptRead, d.profile.CorruptReadRate
	}
	return d.drawScripted(want) || d.drawRate(rate)
}

// garble deterministically damages p in place: a handful of bit-flips at
// RNG-chosen offsets, each guaranteed to change the byte, emulating silent
// media bit rot.  Caller holds d.mu.
func (d *Device) garble(p []byte) {
	if len(p) == 0 {
		return
	}
	for i := 0; i < 3; i++ {
		d.rng += 0x9e3779b97f4a7c15
		x := d.rng
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		p[x%uint64(len(p))] ^= byte(x>>8) | 1
	}
}

// Read copies block bn into p (which must be exactly BlockSize bytes).
// A block never written reads as zeros.
func (d *Device) Read(bn int, p []byte) error {
	if len(p) != BlockSize {
		return ErrBadSize
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.faulted {
		return ErrFaulted
	}
	if bn < 0 || bn >= len(d.blocks) {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, bn, len(d.blocks))
	}
	if d.drawFault(true) {
		d.stats.ReadFaults++
		return ioError("read", bn)
	}
	d.stats.Reads++
	if b := d.blocks[bn]; b != nil {
		copy(p, b)
	} else {
		for i := range p {
			p[i] = 0
		}
	}
	// Silent read corruption: the stored block is intact, but the copy the
	// caller receives is garbled and the call still reports success.
	if d.drawCorrupt(true) {
		d.garble(p)
		d.stats.CorruptReads++
	}
	return nil
}

// Write stores p (exactly BlockSize bytes) as block bn.  If a fault is
// armed, the write that exhausts the budget is LOST (the crash happened
// before it reached the platter) and the device enters the faulted state —
// unless torn-write mode is armed, in which case the crashing write persists
// a partial block (the prefix that made it to the platter).
func (d *Device) Write(bn int, p []byte) error {
	if len(p) != BlockSize {
		return ErrBadSize
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.faulted {
		return ErrFaulted
	}
	if bn < 0 || bn >= len(d.blocks) {
		return fmt.Errorf("%w: %d of %d", ErrOutOfRange, bn, len(d.blocks))
	}
	// A transient failure is not a completed write, so it does not consume
	// the crash countdown budget.
	if d.drawFault(false) {
		d.stats.WriteFaults++
		return ioError("write", bn)
	}
	if d.writesUntilFault == 0 {
		d.faulted = true
		if d.tornBytes > 0 {
			b := d.blocks[bn]
			if b == nil {
				b = make([]byte, BlockSize)
				d.blocks[bn] = b
			}
			copy(b[:d.tornBytes], p)
			d.stats.TornWrites++
		}
		return ErrFaulted
	}
	if d.writesUntilFault > 0 {
		d.writesUntilFault--
	}
	d.stats.Writes++
	b := d.blocks[bn]
	if b == nil {
		b = make([]byte, BlockSize)
		d.blocks[bn] = b
	}
	copy(b, p)
	// Silent write corruption: the caller's buffer is untouched and the call
	// reports success, but what reached the platter is garbled.
	if d.drawCorrupt(false) {
		d.garble(b)
		d.stats.CorruptWrites++
	}
	return nil
}

// Stats returns a snapshot of the operation counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters (the capacity and contents are untouched).
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// FaultAfterWrites arms a crash fault: the next n writes succeed, the one
// after is lost and the device refuses all further I/O.  n < 0 disarms.
func (d *Device) FaultAfterWrites(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writesUntilFault = int64(n)
	d.faulted = false
	d.tornBytes = 0
}

// FaultAfterWritesTorn is FaultAfterWrites with torn-write semantics: the
// crashing write persists the first keep bytes of the buffer (the prefix
// that reached the platter before power was lost) instead of being lost
// entirely.  keep is clamped to (0, BlockSize).
func (d *Device) FaultAfterWritesTorn(n, keep int) {
	if keep < 1 {
		keep = 1
	}
	if keep > BlockSize {
		keep = BlockSize
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writesUntilFault = int64(n)
	d.faulted = false
	d.tornBytes = keep
}

// Fault crashes the device immediately: all further I/O fails with
// ErrFaulted until ClearFault.  Host.Crash uses it so stale file-system
// handles from before the crash cannot touch the platter.
func (d *Device) Fault() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faulted = true
	d.writesUntilFault = -1
}

// InjectFaults installs a probabilistic fault profile (replacing any
// previous one); the zero profile disables probabilistic faults.
func (d *Device) InjectFaults(p FaultProfile) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.profile = p
	d.rng = uint64(p.Seed)
}

// ScriptFault queues a one-shot fault consumed by the next matching
// operation; scripted faults fire before the probabilistic profile draws.
func (d *Device) ScriptFault(kinds ...FaultKind) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.scripted = append(d.scripted, kinds...)
}

// ClearInjectedFaults drops the probabilistic profile and any unconsumed
// scripted faults; the crash countdown (FaultAfterWrites) is untouched.
func (d *Device) ClearInjectedFaults() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.profile = FaultProfile{}
	d.scripted = nil
}

// ClearFault returns a crashed device to service ("reboot"): contents
// written before the crash survive, the lost write does not reappear.
func (d *Device) ClearFault() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faulted = false
	d.writesUntilFault = -1
	d.tornBytes = 0
}

// Faulted reports whether the device is currently refusing I/O.
func (d *Device) Faulted() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faulted
}

// Snapshot returns a deep copy of the device contents, preserving stats at
// zero and no fault.  Tests use it to diff on-disk state across a crash.
func (d *Device) Snapshot() *Device {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := New(len(d.blocks))
	for i, b := range d.blocks {
		if b != nil {
			nb := make([]byte, BlockSize)
			copy(nb, b)
			c.blocks[i] = nb
		}
	}
	return c
}
