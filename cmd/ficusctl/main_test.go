package main

import (
	"os"
	"strings"
	"testing"

	ficus "repro"
)

func newController(t *testing.T) *controller {
	t.Helper()
	cluster, err := ficus.NewCluster(3, ficus.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return &controller{cluster: cluster, vols: map[string]ficus.Volume{}}
}

// exampleScript returns the command lines of the package comment's example:
// the text between "echo '" and "' | ficusctl", comment markers stripped.
func exampleScript(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(src), "//\techo '")
	body, _, ok2 := strings.Cut(rest, "' | ficusctl")
	if !ok || !ok2 {
		t.Fatal("package comment has no echo '...' | ficusctl example")
	}
	var lines []string
	for _, l := range strings.Split(body, "\n") {
		if l = strings.TrimSpace(strings.TrimPrefix(l, "//")); l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestExampleScriptRuns: every line of the documented example is a command
// the controller accepts.
func TestExampleScriptRuns(t *testing.T) {
	c := newController(t)
	lines := exampleScript(t)
	if len(lines) < 2 {
		t.Fatalf("example script too short: %q", lines)
	}
	for _, l := range lines {
		if err := c.exec(l); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
	}
	if len(c.cluster.Conflicts()) == 0 {
		t.Fatal("the example's partitioned writes left no conflict to list")
	}
}

// TestSlowcfgArity: slowcfg takes a deadline, a Slow threshold, a hedge
// threshold and an optional tick budget — and nothing more.
func TestSlowcfgArity(t *testing.T) {
	c := newController(t)
	if err := c.exec("slowcfg 60 25 30 600"); err != nil {
		t.Fatalf("four values refused: %v", err)
	}
	if err := c.exec("slowcfg 60 25 30 600 2"); err == nil {
		t.Fatal("a fifth value was accepted")
	}
	if err := c.exec("slowcfg 60 25"); err == nil {
		t.Fatal("two values were accepted")
	}
}

// TestFaultKeys: each key of faults and linkfaults lands in its own
// FaultConfig field; an unknown key, a rate outside 0..1 and a malformed
// setting are refused.
func TestFaultKeys(t *testing.T) {
	f, err := faultConfig(strings.Fields("rpc=0.1 reply=0.2 hang=0.3 dgloss=0.4 dgdup=0.5 reorder=0.6 " +
		"base=7 jitter=8 spikerate=0.9 spiketicks=10"))
	if err != nil {
		t.Fatal(err)
	}
	want := ficus.FaultConfig{RPCFailRate: 0.1, ReplyLossRate: 0.2, HangRate: 0.3, DatagramLossRate: 0.4,
		DatagramDupRate: 0.5, ReorderRate: 0.6, BaseTicks: 7, JitterTicks: 8, SpikeRate: 0.9, SpikeTicks: 10}
	if f != want {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	c := newController(t)
	for _, ok := range []string{"faults rpc=0.05 base=8", "linkfaults 1 0 base=40 jitter=10", "linkfaults 1 0", "faults"} {
		if err := c.exec(ok); err != nil {
			t.Fatalf("%q refused: %v", ok, err)
		}
	}
	for _, bad := range []string{"faults bogus=1", "faults rpc=1.5", "faults reply=-0.1", "faults hang=NaN",
		"faults rpc", "faults base=-1", "linkfaults 0 1 nope=1", "linkfaults 0 9 rpc=0.1", "linkfaults 0"} {
		if err := c.exec(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestUnhangKeepsLinkFaults: a hang is the host's state, so lifting it leaves
// the other faults on its links.  At seed 1 a write on host 0 propagated over
// a link 1 -> 0 of 40 ticks a leg costs 160 virtual ticks.  After hang 0 and
// unhang 0 the same write and propagation cost what they cost with no hang in
// between: 80 ticks, the rewrite's one pull over the slow link.  (When unhang
// cleared the link's profile they cost none.)
func TestUnhangKeepsLinkFaults(t *testing.T) {
	second := func(hang bool) uint64 {
		c := newController(t)
		run := func(lines ...string) uint64 {
			t.Helper()
			before := c.cluster.NetworkStats().RPCVirtualTicks
			for _, l := range lines {
				if err := c.exec(l); err != nil {
					t.Fatalf("%q: %v", l, err)
				}
			}
			return c.cluster.NetworkStats().RPCVirtualTicks - before
		}
		if got := run("linkfaults 1 0 base=40", "write 0 /a x", "propagate"); got != 160 {
			t.Fatalf("the first write and propagation cost %d ticks, want 160", got)
		}
		if hang {
			run("hang 0", "unhang 0")
		}
		return run("write 0 /a x", "propagate")
	}
	if got, want := second(true), second(false); got != want || want != 80 {
		t.Fatalf("after hang and unhang the write and propagation cost %d ticks; with no hang %d, want 80", got, want)
	}
}
