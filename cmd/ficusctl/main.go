// Command ficusctl drives a simulated Ficus cluster from a command script,
// for poking at replication, partitions, reconciliation and grafting by
// hand.  Commands are read from stdin (or a file via -f), one per line;
// "help" lists them (the script language is the root package's RunScript).
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
	"flag"
	"fmt"
	"os"

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
	if err := cluster.RunScript(in, os.Stdout); err != nil {
		fatal("read script: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ficusctl: "+format+"\n", args...)
	os.Exit(1)
}
