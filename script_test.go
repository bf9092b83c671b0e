package ficus

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func newController(t *testing.T) *interp {
	t.Helper()
	cluster, err := NewCluster(3, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return newInterp(cluster, io.Discard)
}

// runScript runs script through RunScript on a fresh cluster of hosts under
// seed and returns what it printed.
func runScript(t *testing.T, hosts int, seed int64, script string) string {
	t.Helper()
	c, err := NewCluster(hosts, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := c.RunScript(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// exampleScript returns the command lines of ficusctl's package comment's
// example: the text between "echo '" and "' | ficusctl", comment markers
// stripped.
func exampleScript(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("cmd/ficusctl/main.go")
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

// TestScripts runs every transcript under testdata/scripts, and ficusctl's
// documented example, twice: both runs print the same bytes.  A transcript
// is a script whose "# ficusctl -hosts N -seed S" line sizes its cluster and
// whose closing "# Output:" comment block is what it prints.
func TestScripts(t *testing.T) {
	files, err := filepath.Glob("testdata/scripts/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no transcripts: %v", err)
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".txt"), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			_, flags, _ := strings.Cut(string(src), "# ficusctl ")
			var hosts int
			var seed int64
			if _, err := fmt.Sscanf(flags, "-hosts %d -seed %d", &hosts, &seed); err != nil {
				t.Fatalf("no ficusctl line: %v", err)
			}
			_, block, ok := strings.Cut(string(src), "\n# Output:\n")
			if !ok {
				t.Fatal("no # Output: block")
			}
			var want strings.Builder
			for _, l := range strings.SplitAfter(block, "\n") {
				want.WriteString(strings.TrimPrefix(strings.TrimPrefix(l, "#"), " "))
			}
			got := runScript(t, hosts, seed, string(src))
			if again := runScript(t, hosts, seed, string(src)); again != got {
				t.Fatalf("two runs differ:\n%s\nvs\n%s", got, again)
			}
			if got != want.String() {
				t.Fatalf("printed:\n%s\nwant:\n%s", got, want.String())
			}
		})
	}
	// Every line of the documented example is a command the interpreter
	// accepts.
	t.Run("example", func(t *testing.T) {
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
		script := strings.Join(lines, "\n")
		if a, b := runScript(t, 3, 1, script), runScript(t, 3, 1, script); a != b {
			t.Fatalf("two runs differ:\n%s\nvs\n%s", a, b)
		}
	})
}

// TestHostOperandsAreChecked: every command that takes a host, the hosts of
// a partition's groups included, answers -1 and one past the last host with
// an error line instead of a panic.
func TestHostOperandsAreChecked(t *testing.T) {
	c := newController(t)
	if err := c.exec("newvol 1"); err != nil {
		t.Fatal(err)
	}
	var vol string
	for v := range c.cluster.volumes {
		if v != c.cluster.RootVolume() {
			vol = v.String()
		}
	}
	var lines []string
	for _, cmd := range commands {
		usage := strings.Fields(cmd.usage)
		for _, bad := range []string{"-1", "3"} {
			line, hosts := usage[0], false
			for _, p := range usage[1:] {
				switch name := strings.Trim(p, "<>[]"); name {
				case "host", "from", "to":
					line, hosts = line+" "+bad, true
				case "groups":
					line, hosts = line+" 0;"+bad, true
				case "vol":
					line += " " + vol
				case "--stale":
					line += " " + name
				default:
					line += " 1"
				}
			}
			if hosts {
				lines = append(lines, line)
			}
		}
	}
	var out bytes.Buffer
	if err := c.cluster.RunScript(strings.NewReader(strings.Join(lines, "\n")), &out); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(got) != len(lines) || slices.ContainsFunc(got, func(l string) bool { return !strings.Contains(l, "error: bad host") }) {
		t.Fatalf("ran:\n%s\nprinted:\n%s", strings.Join(lines, "\n"), out.String())
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
	want := FaultConfig{RPCFailRate: 0.1, ReplyLossRate: 0.2, HangRate: 0.3, DatagramLossRate: 0.4,
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
