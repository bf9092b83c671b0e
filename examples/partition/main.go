// Partition: the paper's headline scenario (§1).  The network partitions;
// both sides keep updating — "update during network partition if any copy
// of a file is accessible" — and after the partition heals, reconciliation
// (§3.3) merges the histories:
//
//   - independent directory updates merge silently;
//   - conflicting directory updates (the same name created on both sides)
//     are detected and automatically repaired;
//   - conflicting updates to one regular file are detected and reported to
//     the owner, who resolves them.
//
// Run with: go run ./examples/partition
package main

import (
	"fmt"
	"log"

	ficus "repro"
)

func main() {
	cluster, err := ficus.NewCluster(2)
	if err != nil {
		log.Fatal(err)
	}
	m0, _ := cluster.Mount(0)
	m1, _ := cluster.Mount(1)

	// Shared starting state on both replicas.
	if err := m0.WriteFile("/paper.tex", []byte("\\title{Ficus}")); err != nil {
		log.Fatal(err)
	}
	if err := cluster.Settle(10); err != nil {
		log.Fatal(err)
	}
	fmt.Println("base state replicated: /paper.tex on both hosts")

	// The network partitions — host 0 on one side, host 1 on the other.
	// Both hosts keep working.
	cluster.Partition([]int{0}, []int{1})
	fmt.Println("\n-- network partitioned --")

	// Conflicting file update: both sides edit paper.tex.
	must(m0.WriteFile("/paper.tex", []byte("\\title{Ficus} % edited at UCLA")))
	must(m1.WriteFile("/paper.tex", []byte("\\title{Ficus} % edited on the road")))
	fmt.Println("host 0 and host 1 both edited /paper.tex (one-copy availability)")

	// Conflicting directory update: both sides create the same name.
	must(m0.WriteFile("/notes", []byte("notes kept at UCLA")))
	must(m1.WriteFile("/notes", []byte("notes kept on the road")))
	fmt.Println("host 0 and host 1 both created /notes")

	// Independent updates: no conflict at all.
	must(m0.WriteFile("/only-at-ucla", []byte("a")))
	must(m1.WriteFile("/only-on-road", []byte("b")))

	// Heal; the periodic reconciliation protocol converges the replicas.
	cluster.Heal()
	fmt.Println("\n-- partition healed; reconciling --")
	if err := cluster.Settle(10); err != nil {
		log.Fatal(err)
	}

	// Directory conflicts were repaired automatically: both /notes survive
	// under deterministically disambiguated names.
	entries, err := m0.ReadDir("/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("directory after reconciliation:")
	for _, e := range entries {
		fmt.Printf(" %s", e.Name)
	}
	fmt.Println()

	// The file conflict was reported to the owner.
	conflicts := cluster.Conflicts()
	fmt.Printf("file conflicts reported: %d\n", len(conflicts))
	for _, c := range conflicts {
		fmt.Printf("  host %d: file %s has concurrent histories %s vs %s\n",
			c.Host, c.FileID, c.LocalVV, c.RemoteVV)
	}
	if len(conflicts) == 0 {
		log.Fatal("expected a conflict on /paper.tex")
	}

	// The owner resolves; the resolution dominates both histories and
	// propagates like any other update.
	must(cluster.Resolve(conflicts[0], []byte("\\title{Ficus} % merged edits")))
	if err := cluster.Settle(10); err != nil {
		log.Fatal(err)
	}
	for i, m := range []*ficus.Mount{m0, m1} {
		data, err := m.ReadFile("/paper.tex")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("host %d /paper.tex after resolution: %q\n", i, data)
	}
	if n := len(cluster.Conflicts()); n != 0 {
		log.Fatalf("%d conflicts remain", n)
	}
	fmt.Println("no conflicts remain; replicas converged — ok")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
