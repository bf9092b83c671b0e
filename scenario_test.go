package ficus

// One chaos scenario (DESIGN.md §7.1): every whole-system chaos gate is a
// row of chaosRows, a cluster and an event list, scripted or drawn from the
// row's seed before the run.  An event whose precondition fails is a no-op,
// so any sub-list is a scenario; one oracle judges every run, and a failing
// row prints the shrunk list that still fails as a row to paste.

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/simnet"
	"repro/internal/vnode"
)

// evKind is what one event does; Host, Name and Arg are its operands.
type evKind uint8

const (
	evWrite       evKind = iota // write Name on Host, stamped with Arg
	evDeepWrite                 // the same, below a directory
	evMkdir                     // MkdirAll Name on Host
	evRead                      // read Name on Host
	evRemove                    // remove Name on Host
	evRename                    // rename Name to /f<Arg> on Host
	evPropagate                 // one propagation pass on every host
	evReconcile                 // one reconciliation pass on every host
	evPartition                 // Name "split": hosts < Arg apart; "mod": hosts h%Arg == 0 apart
	evHeal                      // reconnect every host
	evCrash                     // power-fail Host while the row's maxDown allows
	evRestart                   // reboot Host if it is down; Name "any": the first down host at or after Host
	evBitRot                    // flip a bit at byte Arg of Host's copy of Name; never host 0
	evScrub                     // one integrity pass on Host
	evHang                      // Host stops answering RPCs, if no host hangs yet
	evUnhang                    // the hung host answers again
	evLinkLatency               // a persistently slow link Host -> Arg: 40 to 50 ticks a leg
	evLinkLoss                  // datagram loss 0.9 on the link Host -> Arg
	evSide                      // side volume, Name "write" from a holder, "add" Host, "drop" a holder
	evCount
)

var kindNames = [evCount]string{
	"evWrite", "evDeepWrite", "evMkdir", "evRead", "evRemove", "evRename",
	"evPropagate", "evReconcile", "evPartition", "evHeal", "evCrash", "evRestart",
	"evBitRot", "evScrub", "evHang", "evUnhang", "evLinkLatency", "evLinkLoss", "evSide",
}

func (k evKind) String() string { return kindNames[k] }

// event is one step of a scenario.
type event struct {
	Kind evKind
	Host int
	Name string
	Arg  int
}

// String renders e as the Go literal a replay row holds.
func (e event) String() string { return fmt.Sprintf("{%v, %d, %q, %d}", e.Kind, e.Host, e.Name, e.Arg) }

// mix weighs the event kinds a row's generator draws.
type mix [evCount]int

// row is one chaos gate.  A replay row names a base row and carries only
// seeds and events; every other field comes from the base.
type row struct {
	name, base string
	seeds      []int64
	events     []event // scripted list; nil = drawn per seed from steps and mix

	hosts, steps int
	mix          mix
	names, dirs  int   // files /f0.. and directories /d0.. the generator draws from
	owned        bool  // names are host-owned (/h<host>-f<n>), never contended
	writers      []int // the hosts writes are drawn on; nil = every host
	keep         int   // files /keep0.. settled before the run, never rewritten
	maxDown      int   // hosts down at once; 0 = all but one
	restartAny   bool  // a restart reboots any down host, not only its own
	lossyLinks   int   // links drawn to lose datagrams at 0.9
	side         []int // side-volume holders; the first creates it
	opts         []Option
	faults       FaultConfig
	slow         SlowPeerConfig
	gossip       GossipConfig
	keepFaults   bool // faults stay on through convergence
}

// chaosRows is the table TestChaos runs.  Paste a printed replay row at its
// end to replay a shrunk failure.
var chaosRows = []row{
	{name: "convergence", seeds: []int64{1, 2, 3, 4, 5, 6}, hosts: 3, steps: 120, names: 12, dirs: 4,
		mix: mix{evWrite: 3, evMkdir: 1, evDeepWrite: 1, evRemove: 1, evRename: 1, evRead: 2,
			evPartition: 1, evHeal: 1, evPropagate: 1}},
	{name: "flaky-links", seeds: []int64{1, 2, 3, 4}, hosts: 3, steps: 100, names: 10, dirs: 1,
		mix: mix{evWrite: 8, evMkdir: 2, evDeepWrite: 2, evRemove: 2, evRead: 2,
			evPartition: 1, evHeal: 1, evPropagate: 2},
		faults: FaultConfig{RPCFailRate: 0.05, ReplyLossRate: 0.05, DatagramLossRate: 0.25,
			DatagramDupRate: 0.2, ReorderRate: 0.5},
		keepFaults: true},
	{name: "crash", seeds: []int64{1, 2, 3, 4, 5}, hosts: 3, steps: 150, names: 10, keep: 3,
		mix: mix{evWrite: 4, evRead: 1, evRemove: 1, evPropagate: 2, evReconcile: 1,
			evCrash: 2, evRestart: 1},
		faults: FaultConfig{RPCFailRate: 0.05, ReplyLossRate: 0.05, DatagramLossRate: 0.10,
			DatagramDupRate: 0.05, ReorderRate: 0.10}},
	{name: "scrub", seeds: []int64{1, 2, 3}, hosts: 3, steps: 150, names: 10, keep: 4,
		mix: mix{evWrite: 3, evRead: 1, evRemove: 1, evPropagate: 2, evReconcile: 1,
			evBitRot: 2, evScrub: 1, evCrash: 1, evRestart: 2},
		faults: FaultConfig{RPCFailRate: 0.05, ReplyLossRate: 0.05, DatagramLossRate: 0.10,
			ReorderRate: 0.10}},
	{name: "slow", seeds: []int64{7}, hosts: 4, owned: true, events: slowEvents(),
		faults:     FaultConfig{BaseTicks: 8, JitterTicks: 6, SpikeRate: 0.15, SpikeTicks: 150},
		slow:       SlowPeerConfig{RPCDeadline: 60, SlowAfter: 25, HedgeAfter: 30, TickBudget: 600},
		keepFaults: true},
	{name: "gossip", seeds: []int64{1, 2, 3}, hosts: 256, steps: 90, names: 4, owned: true,
		writers: []int{0, 16, 48, 90, 128, 170, 200, 255}, maxDown: 12, lossyLinks: 8,
		restartAny: true, side: []int{1, 33, 77, 130},
		opts: []Option{WithPolicy(FirstAvailable), WithStorage(4096, 512)},
		mix: mix{evWrite: 15, evSide: 6, evCrash: 3, evRestart: 3, evPartition: 2, evHeal: 1,
			evPropagate: 3, evReconcile: 3},
		faults: FaultConfig{RPCFailRate: 0.02, DatagramLossRate: 0.15, DatagramDupRate: 0.05,
			ReorderRate: 0.2},
		gossip: GossipConfig{Fanout: 3, TTL: 6, ReconPeers: 2}},
	{name: "composed", seeds: []int64{1, 2, 3}, hosts: 4, steps: 150, names: 10, dirs: 2, keep: 4,
		mix: mix{evWrite: 4, evDeepWrite: 1, evMkdir: 1, evRead: 1, evRemove: 1, evRename: 1,
			evPropagate: 2, evReconcile: 1, evPartition: 1, evHeal: 1, evCrash: 1, evRestart: 1,
			evBitRot: 1, evScrub: 1, evHang: 1, evUnhang: 1},
		faults: FaultConfig{RPCFailRate: 0.05, ReplyLossRate: 0.05, DatagramLossRate: 0.10,
			DatagramDupRate: 0.05, ReorderRate: 0.10,
			BaseTicks: 8, JitterTicks: 6, SpikeRate: 0.15, SpikeTicks: 150},
		slow:   SlowPeerConfig{RPCDeadline: 60, SlowAfter: 25, HedgeAfter: 30, TickBudget: 600},
		gossip: GossipConfig{Fanout: 2, TTL: 3}},
}

// slowEvents is the slow row's script: the link 1 -> 0 is persistently slow,
// so host 1's pulls from host 0 cross the hedging threshold; three rounds of
// distinct writes propagate; then host 3 hangs with its last write unpulled,
// four passes run against it, and a reconciliation — never health-gated —
// pays the deadline instead of waiting forever.
func slowEvents() []event {
	evs, pass := []event{{evLinkLatency, 1, "", 0}}, event{Kind: evPropagate}
	write := func(h, s int) { evs = append(evs, event{evWrite, h, fmt.Sprintf("/h%d-s%d", h, s), s}) }
	for s := 0; s < 3; s++ {
		for h := 0; h < 4; h++ {
			write(h, s)
		}
		evs = append(evs, pass)
	}
	write(3, 100)
	evs = append(evs, event{Kind: evHang, Host: 3})
	for h := 0; h < 3; h++ {
		write(h, 101)
	}
	return append(evs, pass, pass, pass, pass, event{Kind: evReconcile})
}

// resolved returns r with a replay row's fields taken from its base.
func (r row) resolved() row {
	if r.base == "" {
		return r
	}
	for _, b := range chaosRows {
		if b.name == r.base {
			b.name, b.base, b.seeds, b.events = r.name, r.base, r.seeds, r.events
			return b
		}
	}
	panic("chaos row " + r.name + ": no base row " + r.base)
}

// has reports whether r's events can include kind k.
func (r *row) has(k evKind) bool {
	return r.mix[k] > 0 || slices.ContainsFunc(r.events, func(e event) bool { return e.Kind == k })
}

// list returns the event list r plays under seed.
func (r *row) list(seed int64) []event {
	if r.events != nil {
		return r.events
	}
	rng := rand.New(rand.NewSource(seed))
	var evs []event
	for i := 0; i < r.lossyLinks; i++ {
		evs = append(evs, event{evLinkLoss, rng.Intn(r.hosts), "", rng.Intn(r.hosts)})
	}
	total := 0
	for _, w := range r.mix {
		total += w
	}
	file := func(h int) string {
		if r.owned {
			return fmt.Sprintf("/h%d-f%d", h, rng.Intn(r.names))
		}
		return fmt.Sprintf("/f%d", rng.Intn(r.names))
	}
	for step := 0; step < r.steps; step++ {
		e := event{Host: rng.Intn(r.hosts)}
		for n := rng.Intn(total); n >= r.mix[e.Kind]; e.Kind++ {
			n -= r.mix[e.Kind]
		}
		switch e.Kind {
		case evWrite:
			if r.writers != nil {
				e.Host = r.writers[rng.Intn(len(r.writers))]
			}
			e.Name, e.Arg = file(e.Host), step
		case evDeepWrite:
			e.Name, e.Arg = fmt.Sprintf("/d%d/f%d", rng.Intn(r.dirs), rng.Intn(r.names)), step
		case evMkdir:
			e.Name = fmt.Sprintf("/d%d", rng.Intn(r.dirs))
		case evRead, evRemove:
			e.Name = file(e.Host)
		case evRename:
			e.Name, e.Arg = file(e.Host), rng.Intn(r.names)
		case evPartition:
			e.Name, e.Arg = "split", 1+rng.Intn(r.hosts-1)
			if rng.Intn(2) == 0 {
				e.Name, e.Arg = "mod", 2+rng.Intn(min(7, r.hosts-2))
			}
		case evRestart:
			if r.restartAny {
				e.Name = "any"
			}
		case evBitRot:
			e.Name, e.Arg = keepPath(rng.Intn(r.keep)), rng.Intn(8)
		case evSide:
			e.Name = [...]string{"write", "write", "add", "drop"}[rng.Intn(4)]
		}
		evs = append(evs, e)
	}
	return evs
}

// tolerated is the union of the error classes the row's planes let an event
// fail with: outcomes of racing a namespace, a partition, a crash or a hang —
// never corruption.  A row whose only availability plane is a hang tolerates
// nothing until the host hangs.
func (w *world) tolerated() []error {
	r := w.r
	var errs []error
	if !r.owned || r.has(evPartition) || r.has(evCrash) || r.faults.RPCFailRate+r.faults.ReplyLossRate > 0 || w.hung >= 0 {
		errs = append(errs, ErrUnavailable, ErrNotExist, ErrConflict)
	}
	if !r.owned || r.has(evPartition) {
		errs = append(errs, ErrExist, vnode.ENOTEMPTY, vnode.ESTALE, vnode.ENOSTOR)
	}
	if !r.owned {
		errs = append(errs, vnode.EISDIR, vnode.ENOTDIR)
	}
	if r.faults.RPCFailRate > 0 || r.faults.ReplyLossRate > 0 {
		errs = append(errs, simnet.ErrUnreachable, repl.ErrUnreachable)
	}
	if r.has(evCrash) {
		errs = append(errs, core.ErrHostDown)
	}
	if r.has(evBitRot) {
		errs = append(errs, core.ErrNoLocalReplica)
	}
	return errs
}

// failure is a failed check of one run; check names which, so a shrink keeps
// only lists that fail the same way.
type failure struct{ check, msg string }

func (f *failure) Error() string { return f.check + ": " + f.msg }

// world is one run of a row: its cluster and what the events did to it.
type world struct {
	r       *row
	c       *Cluster
	mounts  []*Mount
	side    Volume
	holders map[int]bool
	hung    int // the hung host, -1 for none
	did     [evCount]uint64
}

func (w *world) fail(check, format string, args ...any) {
	panic(&failure{check, fmt.Sprintf(format, args...)})
}

func (w *world) tolerate(err error) {
	for _, class := range w.tolerated() {
		if errors.Is(err, class) {
			return
		}
	}
	if err != nil {
		w.fail("op", "unexpected error class: %v", err)
	}
}

// play runs evs on a fresh cluster for r under seed and renders what it
// converged to: host 0's tree and every host's counters.  A failed check
// returns a *failure.
func play(r *row, seed int64, evs []event) (out string, err error) {
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(*failure)
			if !ok {
				panic(p)
			}
			err = f
		}
	}()
	w := &world{r: r, mounts: make([]*Mount, r.hosts), holders: map[int]bool{}, hung: -1}
	w.setup(seed)
	for _, e := range evs {
		w.step(e)
	}
	out = w.converge()
	for h := 0; h < r.hosts; h++ {
		out += fmt.Sprintf("\nhost %d: %#v %#v %#v", h, w.c.PropagationStatsFor(h), w.c.GossipStatsFor(h), w.c.IntegrityStatsFor(h))
	}
	return out, nil
}

func (w *world) setup(seed int64) {
	r := w.r
	c, err := NewCluster(r.hosts, append([]Option{WithSeed(seed)}, r.opts...)...)
	if err != nil {
		w.fail("setup", "%v", err)
	}
	w.c = c
	c.ConfigureGossip(r.gossip)
	c.ConfigureSlowPeers(r.slow)
	c.InjectFaults(r.faults)
	for i, h := range r.side {
		if i == 0 {
			w.side, err = c.NewVolume(h)
		} else {
			err = c.ReplicateVolume(w.side, h)
		}
		if err != nil {
			w.fail("setup", "side replica on host %d: %v", h, err)
		}
		w.holders[h] = true
	}
	if r.keep > 0 {
		m := w.mount(0)
		for i := 0; i < r.keep; i++ {
			if err := m.WriteFile(keepPath(i), []byte(keepPath(i))); err != nil {
				w.fail("setup", "keep file: %v", err)
			}
		}
		if err := c.Settle(20); err != nil {
			w.fail("setup", "%v", err)
		}
	}
}

// keepPath is keep file i's path, and its contents.
func keepPath(i int) string { return fmt.Sprintf("/keep%d", i) }

// mount returns host h's root-volume mount, taking a new one after a crash.
func (w *world) mount(h int) *Mount {
	if w.mounts[h] == nil {
		m, err := w.c.Mount(h)
		if err != nil {
			w.tolerate(err)
			return nil
		}
		w.mounts[h] = m
	}
	return w.mounts[h]
}

// step plays one event; it returns early, doing nothing, when the event's
// precondition fails.
func (w *world) step(e event) {
	c, n := w.c, w.r.hosts
	switch e.Kind {
	case evWrite, evDeepWrite, evMkdir, evRead, evRemove, evRename:
		m := w.mount(e.Host)
		if m == nil {
			return
		}
		var err error
		switch e.Kind {
		case evMkdir:
			err = m.MkdirAll(e.Name)
		case evRead:
			_, err = m.ReadFile(e.Name)
		case evRemove:
			err = m.Remove(e.Name)
		case evRename:
			err = m.Rename(e.Name, fmt.Sprintf("/f%d", e.Arg))
		default:
			err = m.WriteFile(e.Name, []byte(fmt.Sprintf("h%d s%d", e.Host, e.Arg)))
		}
		w.tolerate(err)
	case evPropagate:
		w.propagate()
	case evReconcile:
		w.reconcile()
	case evPartition:
		k := max(e.Arg, 1)
		if e.Name == "mod" {
			c.PartitionFunc(func(h int) bool { return h%k == 0 })
		} else {
			c.PartitionSplit(k)
		}
	case evHeal:
		c.Heal()
	case evCrash:
		down := 0
		for h := 0; h < n; h++ {
			if c.HostDown(h) {
				down++
			}
		}
		if c.HostDown(e.Host) || down >= cmp.Or(w.r.maxDown, n-1) {
			return
		}
		c.CrashHost(e.Host)
		w.mounts[e.Host] = nil
	case evRestart:
		h := e.Host
		for i := 0; e.Name == "any" && i < n && !c.HostDown(h); i++ {
			h = (h + 1) % n
		}
		if !c.HostDown(h) {
			return
		}
		if err := c.RestartHost(h); err != nil {
			w.fail("restart", "host %d: %v", h, err)
		}
	case evBitRot:
		if e.Host == 0 {
			return
		}
		if err := c.InjectBitRot(e.Host, e.Name, uint64(e.Arg)); err != nil {
			w.tolerate(err)
			return
		}
	case evScrub:
		if _, err := c.ScrubHost(e.Host); err != nil {
			w.tolerate(err)
		}
	case evHang:
		if w.hung >= 0 {
			return
		}
		c.HangHost(e.Host)
		w.hung = e.Host
	case evUnhang:
		if w.hung < 0 {
			return
		}
		c.UnhangHost(w.hung)
		w.hung = -1
	case evLinkLatency:
		c.InjectLinkFaults(e.Host, e.Arg, FaultConfig{BaseTicks: 40, JitterTicks: 10})
	case evLinkLoss:
		c.InjectLinkFaults(e.Host, e.Arg, FaultConfig{DatagramLossRate: 0.9})
	case evSide:
		if !w.sideStep(e) {
			return
		}
	}
	w.did[e.Kind]++
}

// sideStep plays a side-volume event, reporting whether its precondition
// held: a write needs an up holder, an add an up host outside the set while
// the creator is up to seed it, a drop more than two holders.
func (w *world) sideStep(e event) bool {
	c, first := w.c, w.r.side[0]
	var up []int // up holders, less the creator for a drop
	for h := range w.holders {
		if !c.HostDown(h) && (e.Name != "drop" || h != first) {
			up = append(up, h)
		}
	}
	sort.Ints(up)
	var err error
	switch {
	case e.Name == "write" && len(up) > 0:
		h := up[e.Host%len(up)]
		var m *Mount
		if m, err = c.MountVolume(h, w.side); err == nil {
			err = m.WriteFile(fmt.Sprintf("/side-h%d", h), []byte(fmt.Sprintf("h%d", e.Host)))
		}
	case e.Name == "add" && !w.holders[e.Host] && !c.HostDown(e.Host) && !c.HostDown(first):
		if err = c.ReplicateVolume(w.side, e.Host); err == nil {
			w.holders[e.Host] = true
		}
	case e.Name == "drop" && len(w.holders) > 2 && len(up) > 0:
		h := up[e.Host%len(up)]
		if err = c.DropReplica(w.side, h); err == nil {
			delete(w.holders, h)
		}
	default:
		return false
	}
	w.tolerate(err)
	return true
}

// propagate runs one propagation pass per host.  Under a tick budget the
// check runs before each origin's pull, so a pass may overshoot by at most
// the last pull it admitted: with three in-call attempts, a few deadlines at
// worst.
func (w *world) propagate() {
	for h := 0; h < w.r.hosts; h++ {
		s, err := w.c.Host(h).PropagateOnce()
		if err != nil {
			w.fail("propagate", "host %d: %v", h, err)
		}
		if b := w.r.slow.TickBudget; b > 0 && s.PassTicks > b+8*w.r.slow.RPCDeadline {
			w.fail("ticks", "host %d: PassTicks %d exceeds budget bound %d", h, s.PassTicks, b+8*w.r.slow.RPCDeadline)
		}
	}
}

// reconcile runs one reconciliation pass on every host and reports whether
// it changed anything.
func (w *world) reconcile() bool {
	s, err := w.c.Reconcile()
	if err != nil {
		w.fail("reconcile", "%v", err)
	}
	return s.Changed()
}

// settle reconciles until a pass changes nothing, within 40 rounds.  While
// link faults stay on a pull can fail transiently, so it then takes three
// unchanged passes in a row, within 200 rounds.
func (w *world) settle() {
	quiet, limit := 1, 40
	f := w.r.faults
	rates := FaultConfig{RPCFailRate: f.RPCFailRate, ReplyLossRate: f.ReplyLossRate, HangRate: f.HangRate,
		DatagramLossRate: f.DatagramLossRate, DatagramDupRate: f.DatagramDupRate, ReorderRate: f.ReorderRate}
	if w.r.keepFaults && rates != (FaultConfig{}) {
		quiet, limit = 3, 200
	}
	for round, unchanged := 0, 0; unchanged < quiet; round++ {
		if round == limit {
			w.fail("settle", "not quiescent after %d rounds", limit)
		}
		if w.reconcile() {
			unchanged = 0
		} else {
			unchanged++
		}
	}
}

// settleUntil reconciles until done holds, judged every eighth pass.  Where a
// pass visits only a budget of peers, an unchanged pass proves nothing (it
// may have visited two in-sync peers), so such a row settles on the
// condition it waits for instead.
func (w *world) settleUntil(done func() bool) {
	for pass := 0; pass < 240; pass++ {
		if w.reconcile(); pass%8 == 7 && done() {
			return
		}
	}
	w.fail("settle", "not converged after 240 budgeted passes")
}

// trees renders every replica as replicaTree does.  It returns host 0's
// root-volume tree and describes the first replica that differs from its
// volume's reference copy — host 0's for the root volume, the lowest
// holder's for the side volume — or returns "" when every replica agrees.
func (w *world) trees(contents bool) (root, diff string) {
	all := make([]int, w.r.hosts)
	for h := range all {
		all[h] = h
	}
	var side []int
	for h := range w.holders {
		side = append(side, h)
	}
	sort.Ints(side)
	for i, hosts := range [][]int{all, side} {
		vol := []Volume{w.c.RootVolume(), w.side}[i]
		var ref string
		for j, h := range hosts {
			got, err := replicaTree(w.c, h, vol, contents)
			if err != nil {
				w.fail("trees", "host %d: %v", h, err)
			}
			if j == 0 {
				ref = got
			} else if got != ref {
				return "", fmt.Sprintf("volume %v: host %d and host %d differ:\n--- host %d:\n%s\n--- host %d:\n%s",
					vol, hosts[0], h, hosts[0], ref, h, got)
			}
		}
		if i == 0 {
			root = ref
		}
	}
	return root, ""
}

// converge is the oracle; it returns host 0's converged tree.
func (w *world) converge() string {
	c, r := w.c, w.r
	for h := 0; h < r.hosts; h++ {
		if c.HostDown(h) {
			if err := c.RestartHost(h); err != nil {
				w.fail("restart", "final restart of host %d: %v", h, err)
			}
		}
	}
	if w.hung >= 0 {
		c.UnhangHost(w.hung)
	}
	c.Heal()
	if !r.keepFaults {
		c.ClearFaults()
	}
	// A row whose passes visit a budget of peers settles on the condition
	// it waits for; any other row on unchanged passes.
	settle := func(done func() bool) {
		if r.gossip.ReconPeers > 0 {
			w.settleUntil(done)
		} else {
			w.settle()
		}
	}
	agree := func(contents bool) func() bool {
		return func() bool { _, d := w.trees(contents); return d == "" }
	}
	if r.has(evBitRot) {
		// Quarantine state and integrity counters are in memory, so a crash
		// forgets them: one rot after the last reboot makes the final
		// accounting independent of which detections survived.
		if err := c.InjectBitRot(1, "/keep0", 3); err != nil {
			w.fail("rot", "post-restart bit rot: %v", err)
		}
		w.drain()
	}
	w.propagate()
	settle(agree(false))
	if _, d := w.trees(false); d != "" {
		w.fail("trees", "%s", d)
	}
	// Several hosts report one conflict; a second, independent resolution
	// of the same file would itself be a concurrent update.
	for round := 0; round < 5 && len(c.Conflicts()) > 0; round++ {
		resolved := map[string]bool{}
		for _, conf := range c.Conflicts() {
			if !resolved[conf.FileID] {
				resolved[conf.FileID] = true
				if err := c.Resolve(conf, []byte("chaos-resolved")); err != nil {
					w.fail("resolve", "%v", err)
				}
			}
		}
		settle(func() bool { return len(c.Conflicts()) == 0 })
	}
	if n := len(c.Conflicts()); n != 0 {
		w.fail("conflicts", "%d conflicts survived resolution", n)
	}
	// Agreeing names do not make agreeing bytes where a pass visits only a
	// budget of peers.
	settle(agree(true))
	before, d := w.trees(true)
	if d != "" {
		w.fail("contents", "%s", d)
	}
	for h := 0; h < r.hosts; h++ {
		m, err := c.Mount(h)
		if err != nil {
			w.fail("keep", "mount host %d: %v", h, err)
		}
		// A read through host 0's logical layer serves what the replicas hold.
		if h == 0 {
			if got, err := tree(m.root, true); err != nil || got != before {
				w.fail("mounted", "host 0's mounted tree is not its replica's (%v):\n%s", err, got)
			}
		}
		for i := 0; i < r.keep; i++ {
			path := keepPath(i)
			if data, err := m.ReadFile(path); err != nil || string(data) != path {
				w.fail("keep", "host %d serves %s as %q, %v", h, path, data, err)
			}
		}
	}
	if _, err := c.CollectGarbage(); err != nil {
		w.fail("gc", "%v", err)
	}
	settle(agree(true))
	if after, d := w.trees(true); after != before {
		w.fail("gc", "GC changed the namespace:\nbefore:\n%s\nafter:\n%s%s", before, after, d)
	}
	probs, err := c.Fsck()
	if err != nil || len(probs) != 0 {
		w.fail("fsck", "%v %s", err, strings.Join(probs, "\n"))
	}
	w.exercised()
	return before
}

// drain scrubs until every damaged replica is detected and healed from a
// peer.
func (w *world) drain() {
	for pass := 0; pass < 25; pass++ {
		if _, err := w.c.Scrub(); err != nil {
			w.fail("scrub", "pass %d: %v", pass, err)
		}
		var quarantined uint64
		for h := 0; h < w.r.hosts; h++ {
			quarantined += w.c.IntegrityStatsFor(h).Quarantined
		}
		if quarantined == 0 {
			return
		}
	}
	w.fail("scrub", "quarantine never drained despite healthy peers")
}

// exercised fails the run if an enabled plane never fired, or if what the
// gossip and integrity planes did breaks their bounds.
func (w *world) exercised() {
	r, c, ns := w.r, w.c, w.c.NetworkStats()
	var hedges, misses int
	var integrity IntegrityStats
	var gossip GossipStats
	for h := 0; h < r.hosts; h++ {
		hedges += c.PropagationStatsFor(h).Hedges
		for _, ph := range c.PeerHealthFor(h) {
			misses += int(ph.DeadlineMisses)
		}
		integrity.Add(c.IntegrityStatsFor(h))
		g := c.GossipStatsFor(h)
		gossip.Add(g)
		// Origin cost is O(fanout): never the flat n-1 per rumor.
		if f := uint64(r.gossip.Fanout); f > 0 && g.NoticesSent > f*g.RumorsOriginated {
			w.fail("gossip", "host %d sent %d notices for %d rumors: origin cost above fanout", h, g.NoticesSent, g.RumorsOriginated)
		}
	}
	hang := r.has(evHang)
	for _, p := range []struct {
		on   bool
		n    uint64
		what string
	}{
		{r.faults.RPCFailRate > 0, ns.RPCFaultsInjected, "RPC faults injected"},
		{r.faults.ReplyLossRate > 0, ns.RPCRepliesLost, "RPC replies lost"},
		{r.faults.DatagramLossRate+r.faults.DatagramDupRate+r.faults.ReorderRate > 0,
			ns.DatagramsDropped + ns.DatagramsDuplicated + ns.MulticastsReordered, "datagram faults"},
		{r.has(evPartition), w.did[evPartition], "partitions"},
		{r.has(evCrash), w.did[evCrash], "crashes"},
		{r.has(evRestart), w.did[evRestart], "restarts"},
		{r.has(evBitRot), integrity.CorruptionsDetected, "corruptions detected"},
		{r.has(evBitRot), integrity.Repaired, "versions healed from a peer"},
		{r.faults.SpikeRate > 0, ns.RPCLatencySpikes, "latency spikes"},
		{hang, ns.RPCHangs, "hung RPCs"},
		{hang, ns.RPCDeadlineMisses, "deadline misses"},
		// Peer health dies with a crash, so only a row without crashes
		// can count on the misses it tracked.
		{hang && !r.has(evCrash), uint64(misses), "tracked per-peer deadline misses"},
		{r.has(evLinkLatency), uint64(hedges), "hedged pulls"},
		{r.gossip.Fanout > 0, gossip.NoticesSent, "notices sent"},
		{r.gossip.TTL > 0, gossip.RumorsRelayed, "rumors relayed"},
	} {
		if p.on && p.n == 0 {
			w.fail("exercised", "plane idle: no %s", p.what)
		}
	}
}

// shrinkRuns bounds the reruns one shrink makes.
const shrinkRuns = 64

// shrink returns a sub-list of evs on which fails still holds: it drops
// halves, then smaller chunks, then single events, keeping each drop after
// which the failure persists, until no single drop helps or shrinkRuns
// reruns are spent.
func shrink(evs []event, fails func([]event) bool) []event {
	runs := 0
	for chunk := len(evs) / 2; chunk >= 1 && runs < shrinkRuns; {
		dropped := false
		for i := 0; i < len(evs) && runs < shrinkRuns; {
			sub := append(evs[:i:i], evs[min(i+chunk, len(evs)):]...)
			runs++
			if fails(sub) {
				evs, dropped = sub, true
			} else {
				i += chunk
			}
		}
		if chunk > 1 || !dropped {
			chunk /= 2
		}
	}
	return evs
}

// replay renders evs as a row of chaosRows that replays them under seed.
func (r *row) replay(seed int64, evs []event) string {
	base := cmp.Or(r.base, r.name)
	lines := []string{fmt.Sprintf("{name: \"%s-%d-min\", base: %q, seeds: []int64{%d}, events: []event{", base, seed, base, seed)}
	for _, e := range evs {
		lines = append(lines, fmt.Sprintf("\t%v,", e))
	}
	return strings.Join(append(lines, "}},"), "\n")
}

// TestChaos runs every row of chaosRows, each seed on a fresh cluster; under
// -short each row runs its first seed only.
func TestChaos(t *testing.T) {
	for _, tab := range chaosRows {
		r := tab.resolved()
		t.Run(r.name, func(t *testing.T) {
			if testing.Short() {
				r.seeds = r.seeds[:1]
			}
			for _, seed := range r.seeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					evs := r.list(seed)
					_, err := play(&r, seed, evs)
					if err == nil {
						return
					}
					// Record the failure before the reruns of the shrink.
					t.Error(err)
					check := err.(*failure).check
					least := shrink(evs, func(sub []event) bool {
						_, err := play(&r, seed, sub)
						f, ok := err.(*failure)
						return ok && f.check == check
					})
					t.Fatalf("%d of %d events still fail %q; as a row of chaosRows:\n%s",
						len(least), len(evs), check, r.replay(seed, least))
				})
			}
		})
	}
}

// TestChaosDeterministic: at every listed seed of the rows that crash,
// scrub, hedge and shed, a row's list and run are pure functions of its seed,
// and its printed replay row plays the same run — what makes shrinking sound.
func TestChaosDeterministic(t *testing.T) {
	for _, r := range chaosRows {
		if !slices.Contains([]string{"crash", "scrub", "slow", "composed"}, r.name) {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			for _, seed := range r.seeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					evs := r.list(seed)
					if !slices.Equal(evs, r.list(seed)) {
						t.Fatal("two draws of one seed differ")
					}
					a, err := play(&r, seed, evs)
					if err != nil {
						t.Fatal(err)
					}
					replay := row{name: r.name + "-replay", base: r.name, seeds: []int64{seed}, events: evs}.resolved()
					b, err := play(&replay, seed, replay.list(seed))
					if err != nil {
						t.Fatal(err)
					}
					if a != b {
						t.Fatalf("runs differ:\n%s\nvs\n%s", a, b)
					}
				})
			}
		})
	}
}

// TestShrinkFindsThePair: a failure that needs events A and B, hidden in a
// list of 40, shrinks to exactly [A B] within the rerun budget.
func TestShrinkFindsThePair(t *testing.T) {
	var evs []event
	for i := 0; i < 40; i++ {
		evs = append(evs, event{evWrite, i % 3, fmt.Sprintf("/f%d", i), i})
	}
	a, b := event{evCrash, 1, "", 0}, event{evBitRot, 2, "/keep0", 3}
	evs[7], evs[29] = a, b
	runs := 0
	got := shrink(evs, func(sub []event) bool {
		runs++
		return slices.Contains(sub, a) && slices.Contains(sub, b)
	})
	if !slices.Equal(got, []event{a, b}) {
		t.Fatalf("shrank to %v, want [%v %v]", got, a, b)
	}
	if runs > shrinkRuns {
		t.Fatalf("%d reruns, budget %d", runs, shrinkRuns)
	}
}

// replicaTree renders host's local replica of vol as tree does, walking the
// store directly — no logical layer, no NFS.  It is faster than a mounted
// walk at hundreds of hosts and a stronger convergence check: each replica's
// own on-disk state must agree, not merely the merged logical view.
func replicaTree(c *Cluster, host int, vol Volume, contents bool) (string, error) {
	l := c.Host(host).LocalReplica(vol.h)
	if l == nil {
		return "", fmt.Errorf("no replica of volume %s", vol.h)
	}
	root, err := l.Root()
	if err != nil {
		return "", err
	}
	return tree(root, contents)
}

// tree renders the namespace under root as sorted lines, one per directory
// ("/d/") or file ("/f", or /f="contents" with contents); it opens each file
// for its read, as a mount does.
func tree(root vnode.Vnode, contents bool) (string, error) {
	var lines []string
	var walk func(dir vnode.Vnode, path string) error
	walk = func(dir vnode.Vnode, path string) error {
		ents, err := dir.Readdir()
		if err != nil {
			return fmt.Errorf("readdir %s: %w", path, err)
		}
		for _, e := range ents {
			full := path + "/" + e.Name
			child, err := dir.Lookup(e.Name)
			if err != nil {
				return fmt.Errorf("lookup %s: %w", full, err)
			}
			switch {
			case e.Type == vnode.VDir:
				lines = append(lines, full+"/")
				err = walk(child, full)
			case contents:
				var data []byte
				if err = child.Open(vnode.OpenRead); err == nil {
					data, err = vnode.ReadFile(child)
					err = errors.Join(err, child.Close(vnode.OpenRead))
				}
				lines = append(lines, fmt.Sprintf("%s=%q", full, data))
			default:
				lines = append(lines, full)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", full, err)
			}
		}
		return nil
	}
	if err := walk(root, ""); err != nil {
		return "", err
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), nil
}
