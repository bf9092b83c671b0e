// Command ficusctl drives a simulated Ficus cluster from a command script,
// for poking at replication, partitions, reconciliation and grafting by
// hand.  Commands are read from stdin (or a file via -f), one per line:
//
//	write <host> <path> <contents...>    create/overwrite a file
//	read <host> <path>                   print a file
//	ls <host> <path>                     list a directory
//	mkdir <host> <path>                  create a directory
//	rm <host> <path>                     remove a file
//	mv <host> <old> <new>                rename
//	partition <group>;<group>            e.g. "partition 0,1;2"
//	heal                                 reconnect everything
//	propagate                            one propagation-daemon pass
//	reconcile                            one reconciliation pass
//	settle                               reconcile until quiescent
//	conflicts                            list file conflicts
//	resolve <n> <contents...>            resolve conflict #n
//	newvol <host>                        create a volume, prints its id
//	replicate <vol> <host>               add a replica of a volume
//	graft <host> <dir> <name> <vol>      create a graft point
//	volread <host> <vol> <path>          read from a named volume
//	volwrite <host> <vol> <path> <c...>  write into a named volume
//	evict <host> <path>                  drop the local copy, keep the name (§4.1)
//	gc                                   collect tombstones (all replicas reachable)
//	fsck                                 run UFS + Ficus consistency checks
//	stats                                network traffic counters
//	faults <key>=<value>...              install a fault profile on every
//	                                     link; unnamed keys are zero.  Rates
//	                                     (0..1): rpc (request lost), reply
//	                                     (reply lost), hang, dgloss, dgdup,
//	                                     reorder, spikerate; virtual ticks per
//	                                     RPC leg: base, jitter, spiketicks
//	linkfaults <from> <to> <key>=<value>...
//	                                     the same keys for one directed link:
//	                                     a named key overrides the network's
//	                                     value there, an unnamed one inherits it
//	clearfaults                          remove all injected faults (a hang stays)
//	hang <host>                          RPCs to the host run but never answer
//	unhang <host>                        undo hang; the links' faults stay
//	slowcfg <deadline> <slowafter> <hedgeafter> [tickbudget]
//	                                     per-RPC deadlines, Slow threshold,
//	                                     hedged pulls, a propagation pass's
//	                                     tick budget
//	gossipcfg <fanout> <ttl> [reconpeers]
//	                                     epidemic update notification: rumor
//	                                     fanout and relay hop budget, plus the
//	                                     anti-entropy per-pass peer budget
//	                                     (fanout 0 = every holder, ttl 0 = no
//	                                     relay, reconpeers 0 = every peer)
//	gossip [host]                        notification-plane counters: rumors
//	                                     originated/relayed/suppressed, cache
//	                                     feeds, undecodable datagrams, and the
//	                                     configured fanout and TTL
//	peers [--stale] [host]               per-host peer view; with --stale, the
//	                                     anti-entropy scheduler's current
//	                                     priority order (stalest first)
//	health                               per-peer health state, latency EWMA,
//	                                     deadline misses, and each host's
//	                                     propagation totals (hedges included)
//	crash <host>                         power-fail a host (disks survive)
//	restart <host>                       remount a crashed host from its disks
//	pending                              dump each replica's new-version cache
//	                                     and per-peer health
//	diskfaults <host> <read> <write> [creadrate] [cwriterate]
//	                                     transient disk I/O error rates and
//	                                     silent-corruption rates (0..1)
//	bitrot <host> <path> <off>           silently flip a stored data bit
//	scrub [host]                         one integrity pass (verify, then
//	                                     reconcile a replica left holding a
//	                                     quarantined copy): what it changed in
//	                                     the integrity counters, and that
//	                                     reconciliation's stats (a healed copy
//	                                     is pulled); all hosts when no host given
//	integrity [host]                     per-host cumulative integrity
//	                                     counters (repaired = healed by a pull)
//	blocks [host]                        per-host delta-transfer counters: blocks
//	                                     shipped, and blocks reused from the
//	                                     versions being replaced
//	# comment                            ignored
//
// Example:
//
//	echo 'write 0 /hello world
//	settle
//	partition 0;1,2
//	write 0 /hello from-zero
//	write 1 /hello from-one
//	heal
//	settle
//	conflicts' | ficusctl -hosts 3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	ficus "repro"
)

func main() {
	hosts := flag.Int("hosts", 3, "number of hosts in the cluster")
	seed := flag.Int64("seed", 1, "simulation seed")
	file := flag.String("f", "", "command script (default stdin)")
	flag.Parse()

	cluster, err := ficus.NewCluster(*hosts, ficus.WithSeed(*seed))
	if err != nil {
		fatal("create cluster: %v", err)
	}
	in := os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		in = f
	}
	ctl := &controller{cluster: cluster, vols: map[string]ficus.Volume{}}
	scanner := bufio.NewScanner(in)
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if err := ctl.exec(text); err != nil {
			fmt.Printf("line %d (%s): error: %v\n", line, text, err)
		}
	}
	if err := scanner.Err(); err != nil {
		fatal("read script: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ficusctl: "+format+"\n", args...)
	os.Exit(1)
}

type controller struct {
	cluster *ficus.Cluster
	vols    map[string]ficus.Volume
}

func (c *controller) host(arg string) (int, error) {
	h, err := strconv.Atoi(arg)
	if err != nil || h < 0 || h >= c.cluster.NumHosts() {
		return 0, fmt.Errorf("bad host %q", arg)
	}
	return h, nil
}

// hostRange returns the hosts [lo, hi) a command addresses: the one named by
// args[0], or every host when args is empty.
func (c *controller) hostRange(args []string) (lo, hi int, err error) {
	if len(args) == 0 {
		return 0, c.cluster.NumHosts(), nil
	}
	h, err := c.host(args[0])
	return h, h + 1, err
}

// integrity sums the cumulative integrity counters of hosts [lo, hi).
func (c *controller) integrity(lo, hi int) ficus.IntegrityStats {
	var s ficus.IntegrityStats
	for h := lo; h < hi; h++ {
		s.Add(c.cluster.IntegrityStatsFor(h))
	}
	return s
}

// integrityDelta is what happened between two snapshots of the cumulative
// integrity counters; Quarantined, a gauge, keeps its later value.
func integrityDelta(before, after ficus.IntegrityStats) ficus.IntegrityStats {
	return ficus.IntegrityStats{
		ScrubbedFiles:       after.ScrubbedFiles - before.ScrubbedFiles,
		ScrubbedBlocks:      after.ScrubbedBlocks - before.ScrubbedBlocks,
		Resealed:            after.Resealed - before.Resealed,
		CorruptionsDetected: after.CorruptionsDetected - before.CorruptionsDetected,
		Cleared:             after.Cleared - before.Cleared,
		Repaired:            after.Repaired - before.Repaired,
		Quarantined:         after.Quarantined,
	}
}

func (c *controller) mount(hostArg string) (*ficus.Mount, int, error) {
	h, err := c.host(hostArg)
	if err != nil {
		return nil, 0, err
	}
	m, err := c.cluster.Mount(h)
	return m, h, err
}

func (c *controller) volume(name string) (ficus.Volume, error) {
	if v, ok := c.vols[name]; ok {
		return v, nil
	}
	return ficus.Volume{}, fmt.Errorf("unknown volume %q (create with newvol)", name)
}

// faultConfig parses key=value settings, one key per FaultConfig field;
// a key not named stays zero.
func faultConfig(args []string) (ficus.FaultConfig, error) {
	var f ficus.FaultConfig
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

func (c *controller) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%s needs %d arguments", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "write":
		if err := need(3); err != nil {
			return err
		}
		m, _, err := c.mount(args[0])
		if err != nil {
			return err
		}
		return m.WriteFile(args[1], []byte(strings.Join(args[2:], " ")))
	case "read":
		if err := need(2); err != nil {
			return err
		}
		m, h, err := c.mount(args[0])
		if err != nil {
			return err
		}
		data, err := m.ReadFile(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("host %d %s: %q\n", h, args[1], data)
		return nil
	case "ls":
		if err := need(2); err != nil {
			return err
		}
		m, h, err := c.mount(args[0])
		if err != nil {
			return err
		}
		ents, err := m.ReadDir(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("host %d %s:", h, args[1])
		for _, e := range ents {
			suffix := ""
			if e.IsDir {
				suffix = "/"
			}
			fmt.Printf(" %s%s", e.Name, suffix)
		}
		fmt.Println()
		return nil
	case "mkdir":
		if err := need(2); err != nil {
			return err
		}
		m, _, err := c.mount(args[0])
		if err != nil {
			return err
		}
		return m.MkdirAll(args[1])
	case "rm":
		if err := need(2); err != nil {
			return err
		}
		m, _, err := c.mount(args[0])
		if err != nil {
			return err
		}
		return m.Remove(args[1])
	case "mv":
		if err := need(3); err != nil {
			return err
		}
		m, _, err := c.mount(args[0])
		if err != nil {
			return err
		}
		return m.Rename(args[1], args[2])
	case "partition":
		if err := need(1); err != nil {
			return err
		}
		var groups [][]int
		for _, g := range strings.Split(args[0], ";") {
			var group []int
			for _, s := range strings.Split(g, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return fmt.Errorf("bad partition spec %q", args[0])
				}
				group = append(group, n)
			}
			groups = append(groups, group)
		}
		c.cluster.Partition(groups...)
		fmt.Printf("partitioned: %s\n", args[0])
		return nil
	case "heal":
		c.cluster.Heal()
		fmt.Println("healed")
		return nil
	case "propagate":
		s, err := c.cluster.Propagate()
		if err != nil {
			return err
		}
		fmt.Printf("propagated: pulled %d file versions\n", s.FilesPulled)
		return nil
	case "reconcile":
		s, err := c.cluster.Reconcile()
		if err != nil {
			return err
		}
		fmt.Printf("reconciled: adopted %d entries, pulled %d files, %d conflicts, %d failed passes\n",
			s.EntriesAdopted, s.FilesPulled, s.Conflicts, s.Failures)
		return nil
	case "settle":
		if err := c.cluster.Settle(20); err != nil {
			return err
		}
		fmt.Println("settled (quiescent)")
		return nil
	case "conflicts":
		confs := c.cluster.Conflicts()
		if len(confs) == 0 {
			fmt.Println("no conflicts")
			return nil
		}
		for i, conf := range confs {
			fmt.Printf("#%d host=%d file=%s local=%s remote=%s: %s\n",
				i, conf.Host, conf.FileID, conf.LocalVV, conf.RemoteVV, conf.Note)
		}
		return nil
	case "resolve":
		if err := need(2); err != nil {
			return err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		confs := c.cluster.Conflicts()
		if n < 0 || n >= len(confs) {
			return fmt.Errorf("no conflict #%d", n)
		}
		if err := c.cluster.Resolve(confs[n], []byte(strings.Join(args[1:], " "))); err != nil {
			return err
		}
		fmt.Printf("resolved #%d\n", n)
		return nil
	case "newvol":
		if err := need(1); err != nil {
			return err
		}
		h, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		v, err := c.cluster.NewVolume(h)
		if err != nil {
			return err
		}
		c.vols[v.String()] = v
		fmt.Printf("volume %s created on host %d\n", v, h)
		return nil
	case "replicate":
		if err := need(2); err != nil {
			return err
		}
		v, err := c.volume(args[0])
		if err != nil {
			return err
		}
		h, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		if err := c.cluster.ReplicateVolume(v, h); err != nil {
			return err
		}
		fmt.Printf("volume %s replicated to host %d\n", v, h)
		return nil
	case "graft":
		if err := need(4); err != nil {
			return err
		}
		h, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		v, err := c.volume(args[3])
		if err != nil {
			return err
		}
		if err := c.cluster.Graft(h, args[1], args[2], v); err != nil {
			return err
		}
		fmt.Printf("grafted %s at %s/%s\n", v, args[1], args[2])
		return nil
	case "volread":
		if err := need(3); err != nil {
			return err
		}
		h, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		v, err := c.volume(args[1])
		if err != nil {
			return err
		}
		m, err := c.cluster.MountVolume(h, v)
		if err != nil {
			return err
		}
		data, err := m.ReadFile(args[2])
		if err != nil {
			return err
		}
		fmt.Printf("host %d %s:%s: %q\n", h, v, args[2], data)
		return nil
	case "volwrite":
		if err := need(4); err != nil {
			return err
		}
		h, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		v, err := c.volume(args[1])
		if err != nil {
			return err
		}
		m, err := c.cluster.MountVolume(h, v)
		if err != nil {
			return err
		}
		return m.WriteFile(args[2], []byte(strings.Join(args[3:], " ")))
	case "evict":
		if err := need(2); err != nil {
			return err
		}
		h, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		if err := c.cluster.Evict(h, args[1]); err != nil {
			return err
		}
		fmt.Printf("host %d no longer stores %s locally (name kept)\n", h, args[1])
		return nil
	case "gc":
		n, err := c.cluster.CollectGarbage()
		if err != nil {
			return err
		}
		fmt.Printf("collected %d tombstones\n", n)
		return nil
	case "fsck":
		probs, err := c.cluster.Fsck()
		if err != nil {
			return err
		}
		if len(probs) == 0 {
			fmt.Println("all replicas clean")
			return nil
		}
		for _, p := range probs {
			fmt.Println(p)
		}
		return nil
	case "stats":
		s := c.cluster.NetworkStats()
		fmt.Printf("rpcs=%d (failed %d, %d bytes) datagrams=%d (delivered %d, dropped %d)\n",
			s.RPCs, s.RPCFailures, s.RPCBytes, s.Datagrams, s.DatagramsDelivered, s.DatagramsDropped)
		fmt.Printf("faults: rpc-injected=%d replies-lost=%d datagrams-duplicated=%d multicasts-reordered=%d\n",
			s.RPCFaultsInjected, s.RPCRepliesLost, s.DatagramsDuplicated, s.MulticastsReordered)
		fmt.Printf("latency: hangs=%d deadline-misses=%d spikes=%d rpc-virtual-ticks=%d\n",
			s.RPCHangs, s.RPCDeadlineMisses, s.RPCLatencySpikes, s.RPCVirtualTicks)
		return nil
	case "faults":
		f, err := faultConfig(args)
		if err != nil {
			return err
		}
		c.cluster.InjectFaults(f)
		return nil
	case "linkfaults":
		if err := need(2); err != nil {
			return err
		}
		from, err := c.host(args[0])
		if err != nil {
			return err
		}
		to, err := c.host(args[1])
		if err != nil {
			return err
		}
		f, err := faultConfig(args[2:])
		if err != nil {
			return err
		}
		c.cluster.InjectLinkFaults(from, to, f)
		return nil
	case "clearfaults":
		c.cluster.ClearFaults()
		return nil
	case "hang", "unhang":
		if err := need(1); err != nil {
			return err
		}
		h, err := c.host(args[0])
		if err != nil {
			return err
		}
		if cmd == "hang" {
			c.cluster.HangHost(h)
			fmt.Printf("host %d hung (accepts RPCs, never replies)\n", h)
		} else {
			c.cluster.UnhangHost(h)
			fmt.Printf("host %d answering again\n", h)
		}
		return nil
	case "slowcfg":
		if err := need(3); err != nil {
			return err
		}
		if len(args) > 4 {
			return fmt.Errorf("slowcfg takes at most 4 values")
		}
		vals := make([]uint64, 4)
		for i, a := range args {
			v, err := strconv.ParseUint(a, 10, 64)
			if err != nil {
				return fmt.Errorf("bad value %q", a)
			}
			vals[i] = v
		}
		c.cluster.ConfigureSlowPeers(ficus.SlowPeerConfig{
			RPCDeadline: vals[0],
			SlowAfter:   vals[1],
			HedgeAfter:  vals[2],
			TickBudget:  vals[3],
		})
		return nil
	case "gossipcfg":
		if err := need(2); err != nil {
			return err
		}
		if len(args) > 3 {
			return fmt.Errorf("gossipcfg takes at most 3 values")
		}
		vals := make([]int, 3)
		for i, a := range args {
			v, err := strconv.Atoi(a)
			if err != nil || v < 0 {
				return fmt.Errorf("bad value %q", a)
			}
			vals[i] = v
		}
		c.cluster.ConfigureGossip(ficus.GossipConfig{
			Fanout:     vals[0],
			TTL:        vals[1],
			ReconPeers: vals[2],
		})
		fmt.Printf("gossip: fanout=%d ttl=%d recon-peers=%d\n", vals[0], vals[1], vals[2])
		return nil
	case "gossip":
		lo, hi, err := c.hostRange(args)
		if err != nil {
			return err
		}
		cfg := c.cluster.Host(lo).GossipSettings()
		fmt.Printf("gossip config: fanout=%d ttl=%d recon-peers=%d\n",
			cfg.Fanout, cfg.TTL, cfg.ReconPeers)
		var total ficus.GossipStats
		for h := 0; h < c.cluster.NumHosts(); h++ {
			g := c.cluster.GossipStatsFor(h)
			total.Add(g)
			if h < lo || h >= hi {
				continue
			}
			fmt.Printf("host %d gossip: originated=%d sent=%d relayed=%d accepted=%d suppressed=%d foreign=%d expired=%d seen=%d codec-errors=%d\n",
				h, g.RumorsOriginated, g.NoticesSent, g.RumorsRelayed, g.RumorsAccepted,
				g.RumorsSuppressed, g.RumorsForeign, g.RumorsExpired, g.NotificationsSeen, g.NotifyCodecErrors)
		}
		fmt.Printf("cluster gossip: sent=%d relayed=%d accepted=%d suppressed=%d datagram-bytes=%d\n",
			total.NoticesSent, total.RumorsRelayed, total.RumorsAccepted, total.RumorsSuppressed,
			c.cluster.NetworkStats().DatagramBytes)
		return nil
	case "peers":
		stale := false
		rest := args
		if len(rest) > 0 && rest[0] == "--stale" {
			stale = true
			rest = rest[1:]
		}
		lo, hi, err := c.hostRange(rest)
		if err != nil {
			return err
		}
		for h := lo; h < hi; h++ {
			if c.cluster.HostDown(h) {
				fmt.Printf("host %d: down\n", h)
				continue
			}
			if !stale {
				for _, ph := range c.cluster.PeerHealthFor(h) {
					fmt.Printf("host %d sees host %d: %s\n", h, ph.Peer, ph.State)
				}
				continue
			}
			for rank, p := range c.cluster.StalePeersFor(h) {
				fmt.Printf("host %d #%d: host %d replica=%d %s score=%d last-sync=%d last-attempt=%d\n",
					h, rank, p.Peer, p.Replica, p.Health, p.Score, p.LastSync, p.LastAttempt)
			}
		}
		return nil
	case "health":
		for h := 0; h < c.cluster.NumHosts(); h++ {
			if c.cluster.HostDown(h) {
				fmt.Printf("host %d: down\n", h)
				continue
			}
			for _, ph := range c.cluster.PeerHealthFor(h) {
				line := fmt.Sprintf("host %d sees host %d: %s fails=%d deadline-misses=%d",
					h, ph.Peer, ph.State, ph.Fails, ph.DeadlineMisses)
				if ph.HasLatency {
					line += fmt.Sprintf(" ewma=%dt", ph.EWMATicks)
				}
				fmt.Println(line)
			}
			fmt.Printf("host %d propagation: %s\n", h, c.cluster.PropagationStatsFor(h))
		}
		return nil
	case "crash":
		if err := need(1); err != nil {
			return err
		}
		h, err := c.host(args[0])
		if err != nil {
			return err
		}
		c.cluster.CrashHost(h)
		fmt.Printf("host %d crashed (disks survive; restart to remount)\n", h)
		return nil
	case "restart":
		if err := need(1); err != nil {
			return err
		}
		h, err := c.host(args[0])
		if err != nil {
			return err
		}
		if err := c.cluster.RestartHost(h); err != nil {
			return err
		}
		fmt.Printf("host %d restarted (rescan pending)\n", h)
		return nil
	case "pending":
		for h := 0; h < c.cluster.NumHosts(); h++ {
			if c.cluster.HostDown(h) {
				fmt.Printf("host %d: down\n", h)
				continue
			}
			pvs := c.cluster.PendingVersionsFor(h)
			if len(pvs) == 0 {
				fmt.Printf("host %d: nvc empty\n", h)
			}
			for _, pv := range pvs {
				fmt.Printf("host %d replica=%s file=%s origin=%d seen=%d attempts=%d notbefore=%d\n",
					h, pv.Replica, pv.File, pv.Origin, pv.Seen, pv.Attempts, pv.NotBefore)
			}
			for _, ph := range c.cluster.PeerHealthFor(h) {
				fmt.Printf("host %d sees host %d: %s\n", h, ph.Peer, ph.State)
			}
		}
		return nil
	case "diskfaults":
		if err := need(3); err != nil {
			return err
		}
		h, err := c.host(args[0])
		if err != nil {
			return err
		}
		var rates [4]float64
		if len(args) > 1+len(rates) {
			return fmt.Errorf("diskfaults takes at most %d rates", len(rates))
		}
		for i, a := range args[1:] {
			r, err := strconv.ParseFloat(a, 64)
			if err != nil || r < 0 || r > 1 {
				return fmt.Errorf("bad rate %q (want 0..1)", a)
			}
			rates[i] = r
		}
		c.cluster.InjectDiskFaults(h, ficus.DiskFaultConfig{
			Seed:             1,
			ReadErrRate:      rates[0],
			WriteErrRate:     rates[1],
			CorruptReadRate:  rates[2],
			CorruptWriteRate: rates[3],
		})
		return nil
	case "bitrot":
		if err := need(3); err != nil {
			return err
		}
		h, err := c.host(args[0])
		if err != nil {
			return err
		}
		off, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad offset %q", args[2])
		}
		if err := c.cluster.InjectBitRot(h, args[1], off); err != nil {
			return err
		}
		fmt.Printf("host %d %s: bit flipped at offset %d (silently)\n", h, args[1], off)
		return nil
	case "scrub":
		lo, hi, err := c.hostRange(args)
		if err != nil {
			return err
		}
		scrub := c.cluster.Scrub
		if len(args) > 0 {
			scrub = func() (ficus.SyncStats, error) { return c.cluster.ScrubHost(lo) }
		}
		before := c.integrity(lo, hi)
		s, err := scrub()
		if err != nil {
			return err
		}
		fmt.Printf("scrub: %s\n", integrityDelta(before, c.integrity(lo, hi)))
		fmt.Printf("repair: %s\n", s)
		return nil
	case "integrity":
		lo, hi, err := c.hostRange(args)
		if err != nil {
			return err
		}
		for h := lo; h < hi; h++ {
			d := c.cluster.DiskStatsFor(h)
			fmt.Printf("host %d disk: corrupt-reads=%d corrupt-writes=%d torn=%d\n",
				h, d.CorruptReads, d.CorruptWrites, d.TornWrites)
			fmt.Printf("host %d scrub: %s\n", h, c.cluster.IntegrityStatsFor(h))
		}
		return nil
	case "blocks":
		lo, hi, err := c.hostRange(args)
		if err != nil {
			return err
		}
		for h := lo; h < hi; h++ {
			s := c.cluster.BlockStatsFor(h)
			fmt.Printf("host %d delta: shipped=%d (%d bytes) reused=%d (%d bytes saved)\n",
				h, s.BlocksShipped, s.BytesShipped, s.BlocksReused, s.BytesSaved)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
