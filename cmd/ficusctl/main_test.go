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
