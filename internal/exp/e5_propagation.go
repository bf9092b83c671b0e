package exp

import (
	"fmt"

	ficus "repro"
	"repro/internal/vnode"
	"repro/internal/workload"
)

// E5 — paper §3.2: "Rapid propagation enhances the availability of the new
// version of the file; delayed propagation may reduce the overall
// propagation cost when updates are bursty."
//
// The harness replays an identical bursty update schedule on host 0 of a
// two-host cluster under two daemon schedules:
//
//   - immediate: the remote host runs its propagation daemon after every
//     update step;
//   - delayed: the daemon runs once every `delay` steps, letting the
//     new-version cache coalesce a burst into one pull.
//
// Metrics: how many file versions the daemon actually pulled (propagation
// cost), bytes moved over the network, and staleness — the total number of
// (step × file) units during which the remote replica lacked the newest
// version.

// PropagationRow is one policy's outcome.
type PropagationRow struct {
	Policy    string
	Pulls     int    // file versions installed at the remote replica
	RPCBytes  uint64 // network payload bytes spent on propagation
	Staleness uint64 // step-units the remote copy was out of date
	Datagrams uint64 // update notifications sent
}

// PropagationConfig sizes the E5 workload.
type PropagationConfig struct {
	Files    int
	BurstLen int
	GapSteps int
	Bursts   int
	Delay    int // daemon period for the delayed policy
	Seed     int64
}

// DefaultPropagationConfig is the configuration EXPERIMENTS.md records.
func DefaultPropagationConfig() PropagationConfig {
	return PropagationConfig{Files: 8, BurstLen: 8, GapSteps: 4, Bursts: 12, Delay: 12, Seed: 1}
}

// RunPropagation measures one daemon schedule; period=1 is immediate.
func RunPropagation(cfg PropagationConfig, period int, label string) (PropagationRow, error) {
	row := PropagationRow{Policy: label}
	c, err := ficus.NewCluster(2, ficus.WithSeed(cfg.Seed), ficus.WithPolicy(ficus.FirstAvailable))
	if err != nil {
		return row, err
	}
	root, err := mountRoot(c, 0)
	if err != nil {
		return row, err
	}
	// Pre-create the files and settle so both replicas start identical.
	for i := 0; i < cfg.Files; i++ {
		f, err := root.Create(workload.NameFor(i), true)
		if err != nil {
			return row, err
		}
		if err := vnode.WriteFile(f, []byte("v0")); err != nil {
			return row, err
		}
	}
	if err := c.Settle(8); err != nil {
		return row, err
	}
	ups, err := workload.Bursts(workload.BurstConfig{
		Files: cfg.Files, BurstLen: cfg.BurstLen, GapSteps: cfg.GapSteps,
		Bursts: cfg.Bursts, Seed: cfg.Seed,
	})
	if err != nil {
		return row, err
	}
	c.ResetNetworkStats()

	// Replay, tracking per-file dirtiness at the remote replica.
	dirtySince := map[int]int{}
	version := map[int]int{}
	lastStep := 0
	// stalePulse charges, at daemon time now, the staleness accumulated by
	// every file the remote replica is still missing updates for.
	stalePulse := func(now int) {
		for _, since := range dirtySince {
			row.Staleness += uint64(now - since)
		}
	}
	for _, u := range ups {
		version[u.File]++
		f, err := vnode.Walk(root, workload.NameFor(u.File))
		if err != nil {
			return row, err
		}
		if _, err := f.WriteAt([]byte(fmt.Sprintf("v%d", version[u.File])), 0); err != nil {
			return row, err
		}
		if _, ok := dirtySince[u.File]; !ok {
			dirtySince[u.File] = u.Step
		}
		if period > 0 && (u.Step+1)%period == 0 {
			stalePulse(u.Step + 1)
			stats, err := c.Host(1).PropagateOnce()
			if err != nil {
				return row, err
			}
			row.Pulls += stats.FilesPulled
			dirtySince = map[int]int{}
		}
		lastStep = u.Step
	}
	// Final drain so both policies end converged.
	stalePulse(lastStep + 1)
	stats, err := c.Host(1).PropagateOnce()
	if err != nil {
		return row, err
	}
	row.Pulls += stats.FilesPulled
	ns := c.NetworkStats()
	row.RPCBytes = ns.RPCBytes
	row.Datagrams = ns.Datagrams
	return row, nil
}

// PropagationComparison runs the immediate-vs-delayed pair.
func PropagationComparison(cfg PropagationConfig) (immediate, delayed PropagationRow, err error) {
	immediate, err = RunPropagation(cfg, 1, "immediate (every update)")
	if err != nil {
		return
	}
	delayed, err = RunPropagation(cfg, cfg.Delay, fmt.Sprintf("delayed (every %d steps)", cfg.Delay))
	return
}
