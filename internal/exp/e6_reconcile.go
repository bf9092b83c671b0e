package exp

import (
	"fmt"

	ficus "repro"
	"repro/internal/vnode"
)

// E6 — paper §3.3/§1: after a partition with concurrent activity on both
// sides, the periodic reconciliation protocol converges all replicas;
// conflicting directory updates are repaired automatically and conflicting
// file updates are detected and reported.

// ReconcileResult summarizes one partition-churn-heal-reconcile run.
type ReconcileResult struct {
	Hosts          int
	UpdatesPerSide int
	Rounds         int // reconciliation rounds to quiescence
	EntriesAdopted int
	FilesPulled    int
	FileConflicts  int // concurrent file updates reported
	NameRepairs    int // directory collisions auto-repaired
	Converged      bool
}

// RunReconcileChurn partitions an n-host cluster into two halves, performs
// churn (creates, updates, deletes) independently on both sides, heals, and
// reconciles to quiescence.
func RunReconcileChurn(hosts, updatesPerSide int, seed int64) (ReconcileResult, error) {
	res := ReconcileResult{Hosts: hosts, UpdatesPerSide: updatesPerSide}
	c, err := ficus.NewCluster(hosts, ficus.WithSeed(seed), ficus.WithPolicy(ficus.FirstAvailable))
	if err != nil {
		return res, err
	}
	root0, err := mountRoot(c, 0)
	if err != nil {
		return res, err
	}
	// Shared base files (targets for conflicting updates).
	for i := 0; i < 4; i++ {
		f, err := root0.Create(fmt.Sprintf("shared-%d", i), true)
		if err != nil {
			return res, err
		}
		if err := vnode.WriteFile(f, []byte("base")); err != nil {
			return res, err
		}
	}
	if err := c.Settle(8); err != nil {
		return res, err
	}

	// Partition into two halves.
	var left, right []int
	for i := 0; i < hosts; i++ {
		if i < hosts/2 || hosts == 1 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	c.Partition(left, right)

	churn := func(host int, tag string) error {
		root, err := mountRoot(c, host)
		if err != nil {
			return err
		}
		for i := 0; i < updatesPerSide; i++ {
			switch i % 3 {
			case 0: // create a side-local file
				f, err := root.Create(fmt.Sprintf("%s-%d", tag, i), true)
				if err != nil {
					return err
				}
				if err := vnode.WriteFile(f, []byte(tag)); err != nil {
					return err
				}
			case 1: // update a shared file (conflict fodder)
				f, err := root.Lookup(fmt.Sprintf("shared-%d", i%4))
				if err != nil {
					return err
				}
				if _, err := f.WriteAt([]byte(tag), 0); err != nil {
					return err
				}
			case 2: // same-name create on both sides (directory conflict)
				if _, err := root.Create(fmt.Sprintf("both-%d", i), false); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := churn(left[0], "left"); err != nil {
		return res, err
	}
	if len(right) > 0 {
		if err := churn(right[0], "right"); err != nil {
			return res, err
		}
	}

	// Heal and reconcile to quiescence.
	c.Heal()
	for round := 1; round <= 20; round++ {
		stats, err := c.Reconcile()
		if err != nil {
			return res, err
		}
		res.EntriesAdopted += stats.EntriesAdopted
		res.FilesPulled += stats.FilesPulled
		if stats.NameRepairs > res.NameRepairs {
			res.NameRepairs = stats.NameRepairs
		}
		res.Rounds = round
		if !stats.Changed() {
			res.Converged = true
			break
		}
	}
	res.FileConflicts = len(c.Conflicts())
	// Convergence check: identical directory listings everywhere.
	if res.Converged {
		var ref string
		for i := 0; i < hosts; i++ {
			root, err := mountRoot(c, i)
			if err != nil {
				return res, err
			}
			s, err := listingOf(root)
			if err != nil {
				return res, err
			}
			if i == 0 {
				ref = s
			} else if s != ref {
				res.Converged = false
			}
		}
	}
	return res, nil
}

// mountRoot is the root volume's root vnode as host i sees it.
func mountRoot(c *ficus.Cluster, i int) (vnode.Vnode, error) {
	m, err := c.Mount(i)
	if err != nil {
		return nil, err
	}
	return m.Root(), nil
}

func listingOf(root vnode.Vnode) (string, error) {
	ents, err := root.Readdir()
	if err != nil {
		return "", err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	// Readdir order is deterministic (entry-id order), so join directly.
	out := ""
	for _, n := range names {
		out += n + "\n"
	}
	return out, nil
}
