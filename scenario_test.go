package ficus

// One chaos scenario (DESIGN.md §7.1): every whole-system chaos gate is a
// row of chaosRows, a cluster and a list of steps — lines of the cluster
// script (script.go), scripted or drawn from the row's seed before the run.
// The world lowers each step to the line that runs; a step whose
// precondition fails is skipped, so any sub-list is a scenario.  One oracle
// judges every run, and a failing row prints the shrunk run that still
// fails, as a row to paste and as a script for ficusctl.

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/simnet"
	"repro/internal/vnode"
)

// mix weighs the generator's draws by name.
type mix map[string]int

// row is one chaos gate.  A replay row names a base row and carries only
// seeds and a script; every other field comes from the base.
type row struct {
	name, base string
	seeds      []int64
	script     []string // scripted steps; nil = drawn per seed from steps and mix

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
		mix: mix{"write": 3, "mkdir": 1, "deepwrite": 1, "rm": 1, "mv": 1, "read": 2,
			"partition": 1, "heal": 1, "propagate": 1}},
	{name: "flaky-links", seeds: []int64{1, 2, 3, 4}, hosts: 3, steps: 100, names: 10, dirs: 1,
		mix: mix{"write": 8, "mkdir": 2, "deepwrite": 2, "rm": 2, "read": 2,
			"partition": 1, "heal": 1, "propagate": 2},
		faults: FaultConfig{RPCFailRate: 0.05, ReplyLossRate: 0.05, DatagramLossRate: 0.25,
			DatagramDupRate: 0.2, ReorderRate: 0.5},
		keepFaults: true},
	{name: "crash", seeds: []int64{1, 2, 3, 4, 5}, hosts: 3, steps: 150, names: 10, keep: 3,
		mix: mix{"write": 4, "read": 1, "rm": 1, "propagate": 2, "reconcile": 1,
			"crash": 2, "restart": 1},
		faults: FaultConfig{RPCFailRate: 0.05, ReplyLossRate: 0.05, DatagramLossRate: 0.10,
			DatagramDupRate: 0.05, ReorderRate: 0.10}},
	{name: "scrub", seeds: []int64{1, 2, 3}, hosts: 3, steps: 150, names: 10, keep: 4,
		mix: mix{"write": 3, "read": 1, "rm": 1, "propagate": 2, "reconcile": 1,
			"bitrot": 2, "scrub": 1, "crash": 1, "restart": 2},
		faults: FaultConfig{RPCFailRate: 0.05, ReplyLossRate: 0.05, DatagramLossRate: 0.10,
			ReorderRate: 0.10}},
	{name: "slow", seeds: []int64{7}, hosts: 4, owned: true, script: slowScript(),
		faults:     FaultConfig{BaseTicks: 8, JitterTicks: 6, SpikeRate: 0.15, SpikeTicks: 150},
		slow:       SlowPeerConfig{RPCDeadline: 60, SlowAfter: 25, HedgeAfter: 30, TickBudget: 600},
		keepFaults: true},
	{name: "gossip", seeds: []int64{1, 2, 3}, hosts: 256, steps: 90, names: 4, owned: true,
		writers: []int{0, 16, 48, 90, 128, 170, 200, 255}, maxDown: 12, lossyLinks: 8,
		restartAny: true, side: []int{1, 33, 77, 130},
		opts: []Option{WithPolicy(FirstAvailable), WithStorage(4096, 512)},
		mix: mix{"write": 15, "side": 6, "crash": 3, "restart": 3, "partition": 2, "heal": 1,
			"propagate": 3, "reconcile": 3},
		faults: FaultConfig{RPCFailRate: 0.02, DatagramLossRate: 0.15, DatagramDupRate: 0.05,
			ReorderRate: 0.2},
		gossip: GossipConfig{Fanout: 3, TTL: 6, ReconPeers: 2}},
	{name: "composed", seeds: []int64{1, 2, 3}, hosts: 4, steps: 150, names: 10, dirs: 2, keep: 4,
		mix: mix{"write": 4, "deepwrite": 1, "mkdir": 1, "read": 1, "rm": 1, "mv": 1,
			"propagate": 2, "reconcile": 1, "partition": 1, "heal": 1, "crash": 1, "restart": 1,
			"bitrot": 1, "scrub": 1, "hang": 1, "unhang": 1},
		faults: FaultConfig{RPCFailRate: 0.05, ReplyLossRate: 0.05, DatagramLossRate: 0.10,
			DatagramDupRate: 0.05, ReorderRate: 0.10,
			BaseTicks: 8, JitterTicks: 6, SpikeRate: 0.15, SpikeTicks: 150},
		slow:   SlowPeerConfig{RPCDeadline: 60, SlowAfter: 25, HedgeAfter: 30, TickBudget: 600},
		gossip: GossipConfig{Fanout: 2, TTL: 3}},
}

// slowScript is the slow row's script: the link 1 -> 0 is persistently slow,
// so host 1's pulls from host 0 cross the hedging threshold; three rounds of
// distinct writes propagate; then host 3 hangs with its last write unpulled,
// four passes run against it, and a reconciliation — never health-gated —
// pays the deadline instead of waiting forever.
func slowScript() []string {
	s := []string{"linkfaults 1 0 base=40 jitter=10"}
	write := func(h, i int) { s = append(s, fmt.Sprintf("write %d /h%[1]d-s%d h%[1]d s%[2]d", h, i)) }
	for i := 0; i < 3; i++ {
		for h := 0; h < 4; h++ {
			write(h, i)
		}
		s = append(s, "propagate")
	}
	write(3, 100)
	s = append(s, "hang 3")
	for h := 0; h < 3; h++ {
		write(h, 101)
	}
	return append(s, "propagate", "propagate", "propagate", "propagate", "reconcile")
}

// resolved returns r with a replay row's fields taken from its base.
func (r row) resolved() row {
	if r.base == "" {
		return r
	}
	for _, b := range chaosRows {
		if b.name == r.base {
			b.name, b.base, b.seeds, b.script = r.name, r.base, r.seeds, r.script
			return b
		}
	}
	panic("chaos row " + r.name + ": no base row " + r.base)
}

// has reports whether r's steps can include the draw or command name.
func (r *row) has(name string) bool {
	return r.mix[name] > 0 || slices.ContainsFunc(r.script, func(l string) bool { return command(l) == name })
}

// command returns a line's command.
func command(line string) string { name, _, _ := strings.Cut(line, " "); return name }

// gen draws one row's steps from its seed.
type gen struct {
	*rand.Rand
	r *row
}

// file draws a file name for host h.
func (g gen) file(h int) string {
	if g.r.owned {
		return fmt.Sprintf("/h%d-f%d", h, g.Intn(g.r.names))
	}
	return fmt.Sprintf("/f%d", g.Intn(g.r.names))
}

// draw is one entry of the generator's table: picked by its weight in the
// row's mix, it renders the step for host h at step i.
type draw struct {
	name string
	step func(g gen, h, i int) string
}

// draws is the generator's table, in draw order.  A side step, "<command>
// <host> side", stands for a side-volume write, add or drop the world lowers.
var draws = []draw{
	{"write", func(g gen, h, i int) string {
		if g.r.writers != nil {
			h = g.r.writers[g.Intn(len(g.r.writers))]
		}
		return fmt.Sprintf("write %d %s h%[1]d s%[3]d", h, g.file(h), i)
	}},
	{"deepwrite", func(g gen, h, i int) string {
		return fmt.Sprintf("write %d /d%d/f%d h%[1]d s%[4]d", h, g.Intn(g.r.dirs), g.Intn(g.r.names), i)
	}},
	{"mkdir", func(g gen, h, i int) string { return fmt.Sprintf("mkdir %d /d%d", h, g.Intn(g.r.dirs)) }},
	{"read", func(g gen, h, i int) string { return fmt.Sprintf("read %d %s", h, g.file(h)) }},
	{"rm", func(g gen, h, i int) string { return fmt.Sprintf("rm %d %s", h, g.file(h)) }},
	{"mv", func(g gen, h, i int) string { return fmt.Sprintf("mv %d %s /f%d", h, g.file(h), g.Intn(g.r.names)) }},
	{"propagate", func(g gen, h, i int) string { return "propagate" }},
	{"reconcile", func(g gen, h, i int) string { return "reconcile" }},
	{"partition", func(g gen, h, i int) string {
		k, mod := 1+g.Intn(g.r.hosts-1), g.Intn(2) == 0 // hosts < k apart, or with mod hosts h%k == 0
		if mod {
			k = 2 + g.Intn(min(7, g.r.hosts-2))
		}
		var apart, rest []string
		for h := 0; h < g.r.hosts; h++ {
			if mod && h%k == 0 || !mod && h < k {
				apart = append(apart, strconv.Itoa(h))
			} else {
				rest = append(rest, strconv.Itoa(h))
			}
		}
		return "partition " + strings.Join(apart, ",") + ";" + strings.Join(rest, ",")
	}},
	{"heal", func(g gen, h, i int) string { return "heal" }},
	{"crash", func(g gen, h, i int) string { return fmt.Sprintf("crash %d", h) }},
	{"restart", func(g gen, h, i int) string { return fmt.Sprintf("restart %d", h) }},
	{"bitrot", func(g gen, h, i int) string {
		return fmt.Sprintf("bitrot %d %s %d", h, keepPath(g.Intn(g.r.keep)), g.Intn(8))
	}},
	{"scrub", func(g gen, h, i int) string { return fmt.Sprintf("scrub %d", h) }},
	{"hang", func(g gen, h, i int) string { return fmt.Sprintf("hang %d", h) }},
	{"unhang", func(g gen, h, i int) string { return "unhang" }},
	{"side", func(g gen, h, i int) string {
		return fmt.Sprintf("%s %d side", [...]string{"volwrite", "volwrite", "replicate", "drop"}[g.Intn(4)], h)
	}},
}

// list returns the steps r plays under seed.
func (r *row) list(seed int64) []string {
	if r.script != nil {
		return r.script
	}
	g := gen{rand.New(rand.NewSource(seed)), r}
	var steps []string
	for i := 0; i < r.lossyLinks; i++ {
		steps = append(steps, fmt.Sprintf("linkfaults %d %d dgloss=0.9", g.Intn(r.hosts), g.Intn(r.hosts)))
	}
	total := 0
	for _, w := range r.mix {
		total += w
	}
	for i := 0; i < r.steps; i++ {
		h, n, d := g.Intn(r.hosts), g.Intn(total), 0
		for ; n >= r.mix[draws[d].name]; d++ {
			n -= r.mix[draws[d].name]
		}
		steps = append(steps, draws[d].step(g, h, i))
	}
	return steps
}

// tolerated is the union of the error classes the row's planes let a step
// fail with: outcomes of racing a namespace, a partition, a crash or a hang —
// never corruption.  A row whose only availability plane is a hang tolerates
// nothing until the host hangs.
func (w *world) tolerated() []error {
	r := w.r
	var errs []error
	if !r.owned || r.has("partition") || r.has("crash") || r.faults.RPCFailRate+r.faults.ReplyLossRate > 0 || w.hung() >= 0 {
		errs = append(errs, ErrUnavailable, ErrNotExist, ErrConflict)
	}
	if !r.owned || r.has("partition") {
		errs = append(errs, ErrExist, vnode.ENOTEMPTY, vnode.ESTALE, vnode.ENOSTOR)
	}
	if !r.owned {
		errs = append(errs, vnode.EISDIR, vnode.ENOTDIR)
	}
	if r.faults.RPCFailRate > 0 || r.faults.ReplyLossRate > 0 {
		errs = append(errs, simnet.ErrUnreachable, repl.ErrUnreachable)
	}
	if r.has("crash") {
		errs = append(errs, core.ErrHostDown)
	}
	if r.has("bitrot") {
		errs = append(errs, core.ErrNoLocalReplica)
	}
	return errs
}

// failure is a failed check of one run; check names which, so a shrink keeps
// only lists that fail the same way.
type failure struct{ check, msg string }

func (f *failure) Error() string { return f.check + ": " + f.msg }

// world is one run of a row: its cluster, the interpreter its lines run on,
// and the lines it ran.
type world struct {
	r     *row
	c     *Cluster
	s     *interp
	ran   []string // the row's setup, then the steps that ran, lowered
	setup int      // how many lines of ran set the row up; -1 while they run
}

func newWorld(r *row, c *Cluster) *world {
	return &world{r: r, c: c, s: newInterp(c, io.Discard), setup: -1}
}

func (w *world) fail(check, format string, args ...any) {
	panic(&failure{check, fmt.Sprintf(format, args...)})
}

func (w *world) tolerate(err error) {
	if err != nil && !slices.ContainsFunc(w.tolerated(), func(class error) bool { return errors.Is(err, class) }) {
		w.fail("op", "unexpected error class: %v", err)
	}
}

// catch runs f and returns the *failure it panics with.
func catch(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(*failure)
			if !ok {
				panic(p)
			}
			err = f
		}
	}()
	f()
	return nil
}

// play runs steps on a fresh cluster for r under seed and renders what it
// converged to (converge).  A failed check returns a *failure.
func play(r *row, seed int64, steps []string) (w *world, out string, err error) {
	c, err := NewCluster(r.hosts, append([]Option{WithSeed(seed)}, r.opts...)...)
	if err != nil {
		return nil, "", &failure{"setup", err.Error()}
	}
	w = newWorld(r, c)
	err = catch(func() {
		w.setUp()
		for _, s := range steps {
			w.step(s)
		}
		out = w.converge()
	})
	return w, out, err
}

// replay runs script, a row's run as play printed it, through RunScript on
// a fresh cluster of hosts under seed, and judges it as play does.
func replay(r *row, hosts int, seed int64, script string) (out string, err error) {
	c, err := NewCluster(hosts, WithSeed(seed))
	if err != nil {
		return "", err
	}
	if err := c.RunScript(strings.NewReader(script), io.Discard); err != nil {
		return "", err
	}
	w := newWorld(r, c)
	w.ran = strings.Split(script, "\n")
	err = catch(func() { out = w.converge() })
	return out, err
}

// setUp plays the row's setup as lines: its gossip, slow-peer and fault
// settings, the side volume, and the keep files, settled.
func (w *world) setUp() {
	r := w.r
	var lines []string
	if g := r.gossip; g != (GossipConfig{}) {
		lines = append(lines, fmt.Sprintf("gossipcfg %d %d %d", g.Fanout, g.TTL, g.ReconPeers))
	}
	if s := r.slow; s != (SlowPeerConfig{}) {
		lines = append(lines, fmt.Sprintf("slowcfg %d %d %d %d", s.RPCDeadline, s.SlowAfter, s.HedgeAfter, s.TickBudget))
	}
	if f := r.faults; f != (FaultConfig{}) {
		lines = append(lines, fmt.Sprintf("faults rpc=%v reply=%v hang=%v dgloss=%v dgdup=%v reorder=%v spikerate=%v base=%d jitter=%d spiketicks=%d",
			f.RPCFailRate, f.ReplyLossRate, f.HangRate, f.DatagramLossRate, f.DatagramDupRate, f.ReorderRate, f.SpikeRate,
			f.BaseTicks, f.JitterTicks, f.SpikeTicks))
	}
	for i, h := range r.side {
		lines = append(lines, fmt.Sprintf([]string{"newvol %d", "replicate %d side"}[min(i, 1)], h))
	}
	for i := 0; i < r.keep; i++ {
		lines = append(lines, fmt.Sprintf("write 0 %s %[1]s", keepPath(i)))
	}
	if r.keep > 0 {
		lines = append(lines, "settle")
	}
	for _, l := range lines {
		w.step(l)
	}
	w.setup = len(w.ran)
}

// keepPath is keep file i's path, and its contents.
func keepPath(i int) string { return fmt.Sprintf("/keep%d", i) }

// step lowers a step to the line that runs and runs it.  A failed setup
// line, propagate, reconcile or restart fails the run; any other line may
// fail only with a tolerated class.
func (w *world) step(step string) {
	line := w.lower(step)
	if line == "" {
		return
	}
	w.ran = append(w.ran, line)
	cmd := command(line)
	if cmd == "propagate" {
		w.propagate()
		return
	}
	err := w.s.exec(line)
	if err != nil && w.setup < 0 {
		w.fail("setup", "%s: %v", line, err)
	}
	if err != nil && (cmd == "reconcile" || cmd == "restart") {
		w.fail(cmd, "%s: %v", line, err)
	}
	w.tolerate(err)
}

// lower returns the line a step runs as, or "" when its precondition fails:
// a crash of a down host or past the row's maxDown, a restart of an up host
// (under restartAny, of the first down host at or after it), bit rot on
// host 0 (one replica of every keep file stays pristine), a second hang, an
// unhang with none hung, or a side-volume step with no eligible holder.
func (w *world) lower(step string) string {
	c, n, f := w.c, w.r.hosts, strings.Fields(step)
	h, _ := strconv.Atoi(f[min(1, len(f)-1)]) // the host a step names first
	switch {
	case f[len(f)-1] == "side":
		return w.lowerSide(f[0], h)
	case f[0] == "crash":
		down := 0
		for i := 0; i < n; i++ {
			if c.HostDown(i) {
				down++
			}
		}
		if c.HostDown(h) || down >= cmp.Or(w.r.maxDown, n-1) {
			return ""
		}
	case f[0] == "restart":
		for i := 0; w.r.restartAny && i < n && !c.HostDown(h); i++ {
			h = (h + 1) % n
		}
		if !c.HostDown(h) {
			return ""
		}
		return fmt.Sprintf("restart %d", h)
	case f[0] == "bitrot" && h == 0, f[0] == "hang" && w.hung() >= 0, f[0] == "unhang" && w.hung() < 0:
		return ""
	case f[0] == "unhang":
		return fmt.Sprintf("unhang %d", w.hung())
	}
	return step
}

// lowerSide lowers a side-volume step drawn for host h: a write needs an up
// holder, an add an up host outside the set while the creator is up to seed
// it, a drop more than two holders.
func (w *world) lowerSide(cmd string, h int) string {
	c, first := w.c, w.r.side[0]
	side, holders := w.holders()
	var up []int // up holders, less the creator for a drop
	for _, x := range holders {
		if !c.HostDown(x) && (cmd != "drop" || x != first) {
			up = append(up, x)
		}
	}
	switch {
	case cmd == "volwrite" && len(up) > 0:
		x := up[h%len(up)]
		return fmt.Sprintf("volwrite %d %v /side-h%[1]d h%[3]d", x, side, h)
	case cmd == "replicate" && !slices.Contains(holders, h) && !c.HostDown(h) && !c.HostDown(first):
		return fmt.Sprintf("replicate %v %d", side, h)
	case cmd == "drop" && len(holders) > 2 && len(up) > 0:
		return fmt.Sprintf("drop %v %d", side, up[h%len(up)])
	}
	return ""
}

// holders returns the side volume — the cluster's one volume beside the
// root — and the hosts holding a replica of it, in order.
func (w *world) holders() (side Volume, hosts []int) {
	for v, locs := range w.c.volumes {
		if v != w.c.RootVolume() {
			side = v
			for _, l := range locs {
				hosts = append(hosts, w.c.hostIndex(l.Addr))
			}
		}
	}
	sort.Ints(hosts)
	return side, hosts
}

// hung returns the host the run's lines left hung, -1 for none.
func (w *world) hung() (h int) {
	h = -1
	for _, l := range w.ran {
		if f := strings.Fields(l); f[0] == "hang" {
			h, _ = strconv.Atoi(f[1])
		} else if f[0] == "unhang" {
			h = -1
		}
	}
	return h
}

// count returns how many lines of command cmd the run ran.
func (w *world) count(cmd string) (n uint64) {
	for _, l := range w.ran {
		if command(l) == cmd {
			n++
		}
	}
	return n
}

// propagate runs one propagation pass on every host.  Under a tick budget the
// check runs before each origin's pull, so a pass may overshoot by at most
// the last pull it admitted: with three in-call attempts, a few deadlines at
// worst.
func (w *world) propagate() {
	before := make([]uint64, w.r.hosts)
	for h := range before {
		before[h] = w.c.PropagationStatsFor(h).PassTicks
	}
	if err := w.s.exec("propagate"); err != nil {
		w.fail("propagate", "%v", err)
	}
	bound := w.r.slow.TickBudget + 8*w.r.slow.RPCDeadline
	for h, b := range before {
		if t := w.c.PropagationStatsFor(h).PassTicks - b; w.r.slow.TickBudget > 0 && t > bound {
			w.fail("ticks", "host %d: PassTicks %d exceeds budget bound %d", h, t, bound)
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
	side, holders := w.holders()
	for i, hosts := range [][]int{all, holders} {
		vol := []Volume{w.c.RootVolume(), side}[i]
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

// converge is the oracle.  It renders what the run converged to: host 0's
// tree and every host's counters.
func (w *world) converge() string {
	c, r := w.c, w.r
	for h := 0; h < r.hosts; h++ {
		if c.HostDown(h) {
			if err := c.RestartHost(h); err != nil {
				w.fail("restart", "final restart of host %d: %v", h, err)
			}
		}
	}
	if h := w.hung(); h >= 0 {
		c.UnhangHost(h)
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
	if r.has("bitrot") {
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
	for h := 0; h < r.hosts; h++ {
		before += fmt.Sprintf("\nhost %d: %#v %#v %#v", h, c.PropagationStatsFor(h), c.GossipStatsFor(h), c.IntegrityStatsFor(h))
	}
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
	hang := r.has("hang")
	for _, p := range []struct {
		on   bool
		n    uint64
		what string
	}{
		{r.faults.RPCFailRate > 0, ns.RPCFaultsInjected, "RPC faults injected"},
		{r.faults.ReplyLossRate > 0, ns.RPCRepliesLost, "RPC replies lost"},
		{r.faults.DatagramLossRate+r.faults.DatagramDupRate+r.faults.ReorderRate > 0,
			ns.DatagramsDropped + ns.DatagramsDuplicated + ns.MulticastsReordered, "datagram faults"},
		{r.has("partition"), w.count("partition"), "partitions"},
		{r.has("crash"), w.count("crash"), "crashes"},
		{r.has("restart"), w.count("restart"), "restarts"},
		{r.has("bitrot"), integrity.CorruptionsDetected, "corruptions detected"},
		{r.has("bitrot"), integrity.Repaired, "versions healed from a peer"},
		{r.faults.SpikeRate > 0, ns.RPCLatencySpikes, "latency spikes"},
		{hang, ns.RPCHangs, "hung RPCs"},
		{hang, ns.RPCDeadlineMisses, "deadline misses"},
		// Peer health dies with a crash, so only a row without crashes
		// can count on the misses it tracked.
		{hang && !r.has("crash"), uint64(misses), "tracked per-peer deadline misses"},
		{r.slow.HedgeAfter > 0 && r.has("linkfaults"), uint64(hedges), "hedged pulls"},
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

// shrink returns a sub-list of steps on which fails still holds: it drops
// halves, then smaller chunks, then single steps, keeping each drop after
// which the failure persists, until no single drop helps or shrinkRuns
// reruns are spent.
func shrink(steps []string, fails func([]string) bool) []string {
	runs := 0
	for chunk := len(steps) / 2; chunk >= 1 && runs < shrinkRuns; {
		dropped := false
		for i := 0; i < len(steps) && runs < shrinkRuns; {
			sub := append(steps[:i:i], steps[min(i+chunk, len(steps)):]...)
			runs++
			if fails(sub) {
				steps, dropped = sub, true
			} else {
				i += chunk
			}
		}
		if chunk > 1 || !dropped {
			chunk /= 2
		}
	}
	return steps
}

// shrunk shrinks steps, on which r fails check under seed, and renders the
// least run that still fails: its steps as a row of chaosRows and, for a row
// without options, its lines as a script for ficusctl.
func shrunk(r *row, seed int64, steps []string, check string) string {
	least := shrink(steps, func(sub []string) bool {
		_, _, err := play(r, seed, sub)
		f, ok := err.(*failure)
		return ok && f.check == check
	})
	w, _, _ := play(r, seed, least)
	base := cmp.Or(r.base, r.name)
	msg := fmt.Sprintf("%d of %d steps still fail %q; as a row of chaosRows:\n{name: \"%s-%d-min\", base: %q, seeds: []int64{%d}, script: %#v},",
		len(least), len(steps), check, base, seed, base, seed, w.ran[w.setup:])
	if r.opts == nil {
		msg += fmt.Sprintf("\nas a script, run by ficusctl -hosts %d -seed %d -f <file>:\n%s", r.hosts, seed, strings.Join(w.ran, "\n"))
	}
	return msg
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
					steps := r.list(seed)
					_, _, err := play(&r, seed, steps)
					if err == nil {
						return
					}
					// Record the failure before the reruns of the shrink.
					t.Error(err)
					t.Fatal(shrunk(&r, seed, steps, err.(*failure).check))
				})
			}
		})
	}
}

// TestChaosDeterministic: at every listed seed of the rows that crash,
// scrub, hedge and shed, a row's list and run are pure functions of its seed,
// and the run replays to the same end both as the replay row and as the
// ficusctl script a shrunk failure prints — what makes shrinking sound.
func TestChaosDeterministic(t *testing.T) {
	for _, r := range chaosRows {
		if !slices.Contains([]string{"crash", "scrub", "slow", "composed"}, r.name) {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			for _, seed := range r.seeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					steps := r.list(seed)
					if !slices.Equal(steps, r.list(seed)) {
						t.Fatal("two draws of one seed differ")
					}
					w, a, err := play(&r, seed, steps)
					if err != nil {
						t.Fatal(err)
					}
					again := row{name: r.name + "-replay", base: r.name, seeds: []int64{seed}, script: w.ran[w.setup:]}.resolved()
					_, b, errB := play(&again, seed, again.list(seed))
					c, errC := replay(&r, r.hosts, seed, strings.Join(w.ran, "\n"))
					if err := errors.Join(errB, errC); err != nil {
						t.Fatal(err)
					}
					if a != b || a != c {
						t.Fatalf("runs differ:\n%s\nvs replay row\n%s\nvs script\n%s", a, b, c)
					}
				})
			}
		})
	}
}

// TestShrunkScriptReplays: for every row ficusctl can build (one without
// options), a planted failure — host 0, restarted if down, removes a keep
// file last; a row without keep files gets one — shrinks, and the script it
// prints, run through RunScript on a cluster of the printed size and seed,
// fails the same check of the oracle.
func TestShrunkScriptReplays(t *testing.T) {
	for _, r := range chaosRows {
		if r.opts != nil {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			r.keep = max(r.keep, 1)
			seed := r.seeds[0]
			steps := append(r.list(seed), "restart 0", "rm 0 /keep0")
			_, _, err := play(&r, seed, steps)
			f, ok := err.(*failure)
			if !ok {
				t.Fatalf("the planted rm did not fail the run: %v", err)
			}
			msg := shrunk(&r, seed, steps, f.check)
			_, script, ok := strings.Cut(msg, fmt.Sprintf("ficusctl -hosts %d -seed %d -f <file>:\n", r.hosts, seed))
			if !ok {
				t.Fatalf("no ficusctl line in %s", msg)
			}
			_, err = replay(&r, r.hosts, seed, script)
			if g, ok := err.(*failure); !ok || g.check != f.check {
				t.Fatalf("the run failed %v; its printed script fails %v:\n%s", f, err, msg)
			}
		})
	}
}

// TestShrinkFindsThePair: a failure that needs steps A and B, hidden in a
// list of 40, shrinks to exactly [A B] within the rerun budget.
func TestShrinkFindsThePair(t *testing.T) {
	var steps []string
	for i := 0; i < 40; i++ {
		steps = append(steps, fmt.Sprintf("write %d /f%d h%[1]d s%[2]d", i%3, i))
	}
	a, b := "crash 1", "bitrot 2 /keep0 3"
	steps[7], steps[29] = a, b
	runs := 0
	got := shrink(steps, func(sub []string) bool {
		runs++
		return slices.Contains(sub, a) && slices.Contains(sub, b)
	})
	if !slices.Equal(got, []string{a, b}) {
		t.Fatalf("shrank to %q, want [%q %q]", got, a, b)
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
