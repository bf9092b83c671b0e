package ficus

// A cluster script drives a Cluster one command a line.  It is the language
// of cmd/ficusctl, of the chaos scenario's steps (scenario_test.go) and of
// the transcripts under testdata/scripts.  Each command is one entry of
// commands: its usage line, whose placeholders type its operands, and what it
// does with them.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// RunScript runs a script on c: one command a line; blank lines and lines
// starting with # are skipped, and "help" lists the commands.  What a
// command prints, and a failed line's error, go to out and the script goes
// on; only a failure to read in is returned.
func (c *Cluster) RunScript(in io.Reader, out io.Writer) error {
	s := newInterp(c, out)
	sc := bufio.NewScanner(in)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := s.exec(line); err != nil {
			fmt.Fprintf(out, "line %d (%s): error: %v\n", n, line, err)
		}
	}
	return sc.Err()
}

// interp runs script lines on one cluster.  It keeps one root-volume mount
// per host, taken on the host's first file command and dropped when the
// host crashes.
type interp struct {
	cluster *Cluster
	out     io.Writer
	mounts  []*Mount
}

func newInterp(c *Cluster, out io.Writer) *interp {
	return &interp{cluster: c, out: out, mounts: make([]*Mount, c.NumHosts())}
}

// operand is one parsed operand; its placeholder's name says which field
// holds it (see operand's parse).
type operand struct {
	host   int     // <host>, <from>, <to>; -1 for an absent [host]
	num    uint64  // <n>, <off> and the tick and count settings
	rate   float64 // the disk fault rates
	str    string  // a path or a name; the words of a <...> rest, joined
	vol    Volume
	faults FaultConfig // [key=value...]
	groups [][]int     // <groups>
	set    bool        // a [--flag] is given
}

// exec runs one script line.
func (s *interp) exec(line string) error {
	args := strings.Fields(line)
	if args[0] == "help" {
		for _, c := range commands {
			s.printf("%-52s %s\n", c.usage, c.what)
		}
		return nil
	}
	for _, c := range commands {
		if name, _, _ := strings.Cut(c.usage, " "); name == args[0] {
			ops, err := s.parse(c.usage, args[1:])
			if err != nil {
				return fmt.Errorf("%w (usage: %s)", err, c.usage)
			}
			return c.run(s, ops)
		}
	}
	return fmt.Errorf("unknown command %q (help lists them)", args[0])
}

// parse types args by usage's placeholders: <x> is required and [x]
// optional, a placeholder ending in ... takes the rest of the line, and
// [--x] is a flag.
func (s *interp) parse(usage string, args []string) ([]operand, error) {
	var ops []operand
	for _, p := range strings.Fields(usage)[1:] {
		name, o := strings.Trim(p, "<>[]"), operand{host: -1}
		var err error
		switch {
		case strings.HasPrefix(name, "--"):
			if o.set = len(args) > 0 && args[0] == name; o.set {
				args = args[1:]
			}
		case len(args) == 0:
			if p[0] == '<' {
				return nil, errors.New("too few operands")
			}
		case name == "key=value...":
			o.faults, err = faultConfig(args)
			args = nil
		case strings.HasSuffix(name, "..."):
			o.str, args = strings.Join(args, " "), nil
		default:
			o, err = s.operand(name, args[0])
			args = args[1:]
		}
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("too many operands: %q", args)
	}
	return ops, nil
}

// operand parses arg as the placeholder name: a host index of the cluster,
// a volume it knows, a rate in 0..1, a count of ticks or things, the
// partition's groups of hosts, or else a string.
func (s *interp) operand(name, arg string) (o operand, err error) {
	o.str = arg
	switch name {
	case "host", "from", "to":
		o.host, err = s.host(arg)
	case "vol":
		o.vol, err = s.volume(arg)
	case "read", "write", "cread", "cwrite":
		o.rate, err = strconv.ParseFloat(arg, 64)
		if err != nil || !(o.rate >= 0 && o.rate <= 1) {
			err = fmt.Errorf("bad rate %q (want 0..1)", arg)
		}
	case "n", "off", "deadline", "slowafter", "hedgeafter", "budget", "fanout", "ttl", "reconpeers":
		if o.num, err = strconv.ParseUint(arg, 10, 63); err != nil {
			err = fmt.Errorf("bad value %q", arg)
		}
	case "groups":
		for _, g := range strings.Split(arg, ";") {
			var group []int
			for _, h := range strings.Split(g, ",") {
				n, err := s.host(h)
				if err != nil {
					return o, err
				}
				group = append(group, n)
			}
			o.groups = append(o.groups, group)
		}
	}
	return o, err
}

func (s *interp) host(arg string) (int, error) {
	h, err := strconv.Atoi(arg)
	if err != nil || h < 0 || h >= s.cluster.NumHosts() {
		return 0, fmt.Errorf("bad host %q", arg)
	}
	return h, nil
}

// volume finds a volume of the cluster by its printed name.
func (s *interp) volume(name string) (Volume, error) {
	for v := range s.cluster.volumes {
		if v.String() == name {
			return v, nil
		}
	}
	return Volume{}, fmt.Errorf("unknown volume %q (create with newvol)", name)
}

// hosts returns the hosts [lo, hi) a [host] operand addresses: the one it
// names, or every host.
func (s *interp) hosts(o operand) (lo, hi int) {
	if o.host < 0 {
		return 0, s.cluster.NumHosts()
	}
	return o.host, o.host + 1
}

func (s *interp) printf(format string, args ...any) { fmt.Fprintf(s.out, format, args...) }

// onMount is a file command's run: it gets host o[0]'s mount.
func onMount(run func(s *interp, m *Mount, o []operand) error) func(*interp, []operand) error {
	return func(s *interp, o []operand) error {
		h := o[0].host
		if s.mounts[h] == nil {
			m, err := s.cluster.Mount(h)
			if err != nil {
				return err
			}
			s.mounts[h] = m
		}
		return run(s, s.mounts[h], o)
	}
}

// onVolume is a command's run on a fresh mount of volume o[1] from host o[0].
func onVolume(run func(s *interp, m *Mount, o []operand) error) func(*interp, []operand) error {
	return func(s *interp, o []operand) error {
		m, err := s.cluster.MountVolume(o[0].host, o[1].vol)
		if err != nil {
			return err
		}
		return run(s, m, o)
	}
}

// faultConfig parses key=value settings, one key per FaultConfig field;
// a key not named stays zero.
func faultConfig(args []string) (FaultConfig, error) {
	var f FaultConfig
	rates := map[string]*float64{
		"rpc": &f.RPCFailRate, "reply": &f.ReplyLossRate, "hang": &f.HangRate,
		"dgloss": &f.DatagramLossRate, "dgdup": &f.DatagramDupRate, "reorder": &f.ReorderRate,
		"spikerate": &f.SpikeRate,
	}
	ticks := map[string]*uint64{"base": &f.BaseTicks, "jitter": &f.JitterTicks, "spiketicks": &f.SpikeTicks}
	for _, a := range args {
		key, val, ok := strings.Cut(a, "=")
		if !ok {
			return f, fmt.Errorf("bad setting %q (want key=value)", a)
		}
		if r, ok := rates[key]; ok {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || !(v >= 0 && v <= 1) {
				return f, fmt.Errorf("bad rate %q (want 0..1)", a)
			}
			*r = v
		} else if t, ok := ticks[key]; ok {
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return f, fmt.Errorf("bad tick count %q", a)
			}
			*t = v
		} else {
			return f, fmt.Errorf("unknown fault key %q", key)
		}
	}
	return f, nil
}

// integrity sums the cumulative integrity counters of hosts [lo, hi).
func (s *interp) integrity(lo, hi int) IntegrityStats {
	var t IntegrityStats
	for h := lo; h < hi; h++ {
		t.Add(s.cluster.IntegrityStatsFor(h))
	}
	return t
}

// integrityDelta is what happened between two snapshots of the cumulative
// integrity counters; Quarantined, a gauge, keeps its later value.
func integrityDelta(before, after IntegrityStats) IntegrityStats {
	return IntegrityStats{
		ScrubbedFiles:       after.ScrubbedFiles - before.ScrubbedFiles,
		ScrubbedBlocks:      after.ScrubbedBlocks - before.ScrubbedBlocks,
		Resealed:            after.Resealed - before.Resealed,
		CorruptionsDetected: after.CorruptionsDetected - before.CorruptionsDetected,
		Cleared:             after.Cleared - before.Cleared,
		Repaired:            after.Repaired - before.Repaired,
		Quarantined:         after.Quarantined,
	}
}

// commands is the script language, in help's order.
var commands = []struct {
	usage, what string
	run         func(s *interp, o []operand) error
}{
	{"write <host> <path> <contents...>", "create or overwrite a file", onMount(func(s *interp, m *Mount, o []operand) error {
		return m.WriteFile(o[1].str, []byte(o[2].str))
	})},
	{"read <host> <path>", "print a file", onMount(func(s *interp, m *Mount, o []operand) error {
		data, err := m.ReadFile(o[1].str)
		if err == nil {
			s.printf("host %d %s: %q\n", o[0].host, o[1].str, data)
		}
		return err
	})},
	{"ls <host> <path>", "list a directory", onMount(func(s *interp, m *Mount, o []operand) error {
		ents, err := m.ReadDir(o[1].str)
		if err != nil {
			return err
		}
		s.printf("host %d %s:", o[0].host, o[1].str)
		for _, e := range ents {
			s.printf(" %s", e.Name)
			if e.IsDir {
				s.printf("/")
			}
		}
		s.printf("\n")
		return nil
	})},
	{"mkdir <host> <path>", "create a directory and its parents", onMount(func(s *interp, m *Mount, o []operand) error {
		return m.MkdirAll(o[1].str)
	})},
	{"rm <host> <path>", "remove a file", onMount(func(s *interp, m *Mount, o []operand) error {
		return m.Remove(o[1].str)
	})},
	{"mv <host> <old> <new>", "rename", onMount(func(s *interp, m *Mount, o []operand) error {
		return m.Rename(o[1].str, o[2].str)
	})},
	{"partition <groups>", "split the network, e.g. 0,1;2; unlisted hosts are isolated", func(s *interp, o []operand) error {
		s.cluster.Partition(o[0].groups...)
		s.printf("partitioned: %s\n", o[0].str)
		return nil
	}},
	{"heal", "reconnect every host", func(s *interp, o []operand) error {
		s.cluster.Heal()
		s.printf("healed\n")
		return nil
	}},
	{"propagate", "one propagation-daemon pass on every host", func(s *interp, o []operand) error {
		st, err := s.cluster.Propagate()
		if err == nil {
			s.printf("propagated: pulled %d file versions\n", st.FilesPulled)
		}
		return err
	}},
	{"reconcile", "one reconciliation pass on every host", func(s *interp, o []operand) error {
		st, err := s.cluster.Reconcile()
		if err == nil {
			s.printf("reconciled: adopted %d entries, pulled %d files, %d conflicts, %d failed passes\n",
				st.EntriesAdopted, st.FilesPulled, st.Conflicts, st.Failures)
		}
		return err
	}},
	{"settle", "reconcile until quiescent (at most 20 passes)", func(s *interp, o []operand) error {
		err := s.cluster.Settle(20)
		if err == nil {
			s.printf("settled (quiescent)\n")
		}
		return err
	}},
	{"conflicts", "list file conflicts", func(s *interp, o []operand) error {
		confs := s.cluster.Conflicts()
		if len(confs) == 0 {
			s.printf("no conflicts\n")
		}
		for i, c := range confs {
			s.printf("#%d host=%d file=%s local=%s remote=%s: %s\n", i, c.Host, c.FileID, c.LocalVV, c.RemoteVV, c.Note)
		}
		return nil
	}},
	{"resolve <n> <contents...>", "resolve conflict #n with new contents", func(s *interp, o []operand) error {
		confs, n := s.cluster.Conflicts(), o[0].num
		if n >= uint64(len(confs)) {
			return fmt.Errorf("no conflict #%d", n)
		}
		if err := s.cluster.Resolve(confs[n], []byte(o[1].str)); err != nil {
			return err
		}
		s.printf("resolved #%d\n", n)
		return nil
	}},
	{"newvol <host>", "create a volume; prints its name", func(s *interp, o []operand) error {
		v, err := s.cluster.NewVolume(o[0].host)
		if err == nil {
			s.printf("volume %s created on host %d\n", v, o[0].host)
		}
		return err
	}},
	{"replicate <vol> <host>", "add a replica of a volume", func(s *interp, o []operand) error {
		err := s.cluster.ReplicateVolume(o[0].vol, o[1].host)
		if err == nil {
			s.printf("volume %s replicated to host %d\n", o[0].vol, o[1].host)
		}
		return err
	}},
	{"drop <vol> <host>", "remove a host's replica of a volume", func(s *interp, o []operand) error {
		err := s.cluster.DropReplica(o[0].vol, o[1].host)
		if err == nil {
			s.printf("volume %s dropped from host %d\n", o[0].vol, o[1].host)
		}
		return err
	}},
	{"graft <host> <dir> <name> <vol>", "create a graft point", func(s *interp, o []operand) error {
		err := s.cluster.Graft(o[0].host, o[1].str, o[2].str, o[3].vol)
		if err == nil {
			s.printf("grafted %s at %s/%s\n", o[3].vol, o[1].str, o[2].str)
		}
		return err
	}},
	{"volread <host> <vol> <path>", "print a file of a named volume", onVolume(func(s *interp, m *Mount, o []operand) error {
		data, err := m.ReadFile(o[2].str)
		if err == nil {
			s.printf("host %d %s:%s: %q\n", o[0].host, o[1].vol, o[2].str, data)
		}
		return err
	})},
	{"volwrite <host> <vol> <path> <contents...>", "write a file of a named volume", onVolume(func(s *interp, m *Mount, o []operand) error {
		return m.WriteFile(o[2].str, []byte(o[3].str))
	})},
	{"evict <host> <path>", "drop the local copy, keep the name (§4.1)", func(s *interp, o []operand) error {
		err := s.cluster.Evict(o[0].host, o[1].str)
		if err == nil {
			s.printf("host %d no longer stores %s locally (name kept)\n", o[0].host, o[1].str)
		}
		return err
	}},
	{"gc", "collect tombstones (all replicas reachable)", func(s *interp, o []operand) error {
		n, err := s.cluster.CollectGarbage()
		if err == nil {
			s.printf("collected %d tombstones\n", n)
		}
		return err
	}},
	{"fsck", "run the UFS and Ficus consistency checks", func(s *interp, o []operand) error {
		probs, err := s.cluster.Fsck()
		if err == nil && len(probs) == 0 {
			s.printf("all replicas clean\n")
		}
		for _, p := range probs {
			s.printf("%s\n", p)
		}
		return err
	}},
	{"stats", "network traffic, fault and latency counters", func(s *interp, o []operand) error {
		n := s.cluster.NetworkStats()
		s.printf("rpcs=%d (failed %d, %d bytes) datagrams=%d (delivered %d, dropped %d)\n",
			n.RPCs, n.RPCFailures, n.RPCBytes, n.Datagrams, n.DatagramsDelivered, n.DatagramsDropped)
		s.printf("faults: rpc-injected=%d replies-lost=%d datagrams-duplicated=%d multicasts-reordered=%d\n",
			n.RPCFaultsInjected, n.RPCRepliesLost, n.DatagramsDuplicated, n.MulticastsReordered)
		s.printf("latency: hangs=%d deadline-misses=%d spikes=%d rpc-virtual-ticks=%d\n",
			n.RPCHangs, n.RPCDeadlineMisses, n.RPCLatencySpikes, n.RPCVirtualTicks)
		return nil
	}},
	{"faults [key=value...]", "fault profile of every link; keys rpc reply hang dgloss dgdup reorder spikerate (0..1), base jitter spiketicks (ticks a leg); unnamed keys are 0", func(s *interp, o []operand) error {
		s.cluster.InjectFaults(o[0].faults)
		return nil
	}},
	{"linkfaults <from> <to> [key=value...]", "the same keys on one directed link; an unnamed key inherits the network's", func(s *interp, o []operand) error {
		s.cluster.InjectLinkFaults(o[0].host, o[1].host, o[2].faults)
		return nil
	}},
	{"clearfaults", "remove every injected fault (a hang stays)", func(s *interp, o []operand) error {
		s.cluster.ClearFaults()
		return nil
	}},
	{"hang <host>", "RPCs to the host run but never answer", func(s *interp, o []operand) error {
		s.cluster.HangHost(o[0].host)
		s.printf("host %d hung (accepts RPCs, never replies)\n", o[0].host)
		return nil
	}},
	{"unhang <host>", "undo hang; the links' faults stay", func(s *interp, o []operand) error {
		s.cluster.UnhangHost(o[0].host)
		s.printf("host %d answering again\n", o[0].host)
		return nil
	}},
	{"slowcfg <deadline> <slowafter> <hedgeafter> [budget]", "RPC deadline, Slow threshold, hedging threshold and a propagation pass's tick budget", func(s *interp, o []operand) error {
		s.cluster.ConfigureSlowPeers(SlowPeerConfig{RPCDeadline: o[0].num, SlowAfter: o[1].num, HedgeAfter: o[2].num, TickBudget: o[3].num})
		return nil
	}},
	{"gossipcfg <fanout> <ttl> [reconpeers]", "rumor fanout, relay hops and anti-entropy peers a pass (0: every holder, no relay, every peer)", func(s *interp, o []operand) error {
		g := GossipConfig{Fanout: int(o[0].num), TTL: int(o[1].num), ReconPeers: int(o[2].num)}
		s.cluster.ConfigureGossip(g)
		s.printf("gossip: fanout=%d ttl=%d recon-peers=%d\n", g.Fanout, g.TTL, g.ReconPeers)
		return nil
	}},
	{"gossip [host]", "notification-plane counters and settings", func(s *interp, o []operand) error {
		lo, hi := s.hosts(o[0])
		cfg := s.cluster.Host(lo).GossipSettings()
		s.printf("gossip config: fanout=%d ttl=%d recon-peers=%d\n", cfg.Fanout, cfg.TTL, cfg.ReconPeers)
		var total GossipStats
		for h := 0; h < s.cluster.NumHosts(); h++ {
			g := s.cluster.GossipStatsFor(h)
			total.Add(g)
			if h >= lo && h < hi {
				s.printf("host %d gossip: originated=%d sent=%d relayed=%d accepted=%d suppressed=%d foreign=%d expired=%d seen=%d codec-errors=%d\n",
					h, g.RumorsOriginated, g.NoticesSent, g.RumorsRelayed, g.RumorsAccepted,
					g.RumorsSuppressed, g.RumorsForeign, g.RumorsExpired, g.NotificationsSeen, g.NotifyCodecErrors)
			}
		}
		s.printf("cluster gossip: sent=%d relayed=%d accepted=%d suppressed=%d datagram-bytes=%d\n",
			total.NoticesSent, total.RumorsRelayed, total.RumorsAccepted, total.RumorsSuppressed,
			s.cluster.NetworkStats().DatagramBytes)
		return nil
	}},
	{"peers [--stale] [host]", "each host's view of its peers; --stale: the anti-entropy priority order", func(s *interp, o []operand) error {
		lo, hi := s.hosts(o[1])
		for h := lo; h < hi; h++ {
			switch {
			case s.cluster.HostDown(h):
				s.printf("host %d: down\n", h)
			case o[0].set:
				for rank, p := range s.cluster.StalePeersFor(h) {
					s.printf("host %d #%d: host %d replica=%d %s score=%d last-sync=%d last-attempt=%d\n",
						h, rank, p.Peer, p.Replica, p.Health, p.Score, p.LastSync, p.LastAttempt)
				}
			default:
				for _, ph := range s.cluster.PeerHealthFor(h) {
					s.printf("host %d sees host %d: %s\n", h, ph.Peer, ph.State)
				}
			}
		}
		return nil
	}},
	{"health", "per-peer health, latency EWMA, deadline misses, and propagation totals", func(s *interp, o []operand) error {
		for h := 0; h < s.cluster.NumHosts(); h++ {
			if s.cluster.HostDown(h) {
				s.printf("host %d: down\n", h)
				continue
			}
			for _, ph := range s.cluster.PeerHealthFor(h) {
				s.printf("host %d sees host %d: %s fails=%d deadline-misses=%d", h, ph.Peer, ph.State, ph.Fails, ph.DeadlineMisses)
				if ph.HasLatency {
					s.printf(" ewma=%dt", ph.EWMATicks)
				}
				s.printf("\n")
			}
			s.printf("host %d propagation: %s\n", h, s.cluster.PropagationStatsFor(h))
		}
		return nil
	}},
	{"crash <host>", "power-fail a host (its disks survive)", func(s *interp, o []operand) error {
		s.cluster.CrashHost(o[0].host)
		s.mounts[o[0].host] = nil
		s.printf("host %d crashed (disks survive; restart to remount)\n", o[0].host)
		return nil
	}},
	{"restart <host>", "remount a crashed host from its disks", func(s *interp, o []operand) error {
		err := s.cluster.RestartHost(o[0].host)
		if err == nil {
			s.printf("host %d restarted (rescan pending)\n", o[0].host)
		}
		return err
	}},
	{"pending", "each replica's new-version cache, and per-peer health", func(s *interp, o []operand) error {
		for h := 0; h < s.cluster.NumHosts(); h++ {
			if s.cluster.HostDown(h) {
				s.printf("host %d: down\n", h)
				continue
			}
			pvs := s.cluster.PendingVersionsFor(h)
			if len(pvs) == 0 {
				s.printf("host %d: nvc empty\n", h)
			}
			for _, pv := range pvs {
				s.printf("host %d replica=%s file=%s origin=%d seen=%d attempts=%d notbefore=%d\n",
					h, pv.Replica, pv.File, pv.Origin, pv.Seen, pv.Attempts, pv.NotBefore)
			}
			for _, ph := range s.cluster.PeerHealthFor(h) {
				s.printf("host %d sees host %d: %s\n", h, ph.Peer, ph.State)
			}
		}
		return nil
	}},
	{"diskfaults <host> <read> <write> [cread] [cwrite]", "a host's disk error and silent-corruption rates (0..1)", func(s *interp, o []operand) error {
		s.cluster.InjectDiskFaults(o[0].host, DiskFaultConfig{Seed: 1,
			ReadErrRate: o[1].rate, WriteErrRate: o[2].rate, CorruptReadRate: o[3].rate, CorruptWriteRate: o[4].rate})
		return nil
	}},
	{"bitrot <host> <path> <off>", "silently flip a stored data bit", func(s *interp, o []operand) error {
		err := s.cluster.InjectBitRot(o[0].host, o[1].str, o[2].num)
		if err == nil {
			s.printf("host %d %s: bit flipped at offset %d (silently)\n", o[0].host, o[1].str, o[2].num)
		}
		return err
	}},
	{"scrub [host]", "one integrity pass: the counters it moved, and the stats of the reconciliation that heals", func(s *interp, o []operand) error {
		lo, hi := s.hosts(o[0])
		scrub := s.cluster.Scrub
		if o[0].host >= 0 {
			scrub = func() (SyncStats, error) { return s.cluster.ScrubHost(lo) }
		}
		before := s.integrity(lo, hi)
		st, err := scrub()
		if err == nil {
			s.printf("scrub: %s\nrepair: %s\n", integrityDelta(before, s.integrity(lo, hi)), st)
		}
		return err
	}},
	{"integrity [host]", "cumulative disk and integrity counters", func(s *interp, o []operand) error {
		lo, hi := s.hosts(o[0])
		for h := lo; h < hi; h++ {
			d := s.cluster.DiskStatsFor(h)
			s.printf("host %d disk: corrupt-reads=%d corrupt-writes=%d torn=%d\n", h, d.CorruptReads, d.CorruptWrites, d.TornWrites)
			s.printf("host %d scrub: %s\n", h, s.cluster.IntegrityStatsFor(h))
		}
		return nil
	}},
	{"blocks [host]", "delta-transfer counters: blocks shipped, and blocks reused", func(s *interp, o []operand) error {
		lo, hi := s.hosts(o[0])
		for h := lo; h < hi; h++ {
			b := s.cluster.BlockStatsFor(h)
			s.printf("host %d delta: shipped=%d (%d bytes) reused=%d (%d bytes saved)\n",
				h, b.BlocksShipped, b.BytesShipped, b.BlocksReused, b.BytesSaved)
		}
		return nil
	}},
	{"help", "list the commands", nil},
}
