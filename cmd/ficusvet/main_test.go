package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// findingsFixture is a package the analyzers report on; cleanPkg is one
// TestRepoIsClean already holds to zero findings.
const (
	findingsFixture = "../../internal/analysis/testdata/src/errclass/recon"
	cleanPkg        = "repro/internal/vv"
)

func runVet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String()
}

func TestExitFindings(t *testing.T) {
	code, text := runVet(t, findingsFixture)
	if code != exitFindings {
		t.Fatalf("exit %d on a package with findings, want %d", code, exitFindings)
	}
	lines := strings.Count(text, "\n")
	if lines == 0 {
		t.Fatal("exit 1 but nothing printed")
	}

	code, out := runVet(t, "-json", findingsFixture)
	if code != exitFindings {
		t.Fatalf("-json: exit %d, want %d", code, exitFindings)
	}
	var got struct {
		Findings []analysis.Diagnostic
		Count    int
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if got.Count != len(got.Findings) || got.Count != lines {
		t.Errorf("-json Count %d, %d findings, %d text lines; want all equal", got.Count, len(got.Findings), lines)
	}
}

func TestExitClean(t *testing.T) {
	if code, out := runVet(t, cleanPkg); code != exitClean {
		t.Fatalf("exit %d on a clean package, want %d:\n%s", code, exitClean, out)
	}
}

func TestExitLoadFail(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "nosuchanalyzer", cleanPkg},
		{"./no/such/package"},
		{"-nosuchflag"},
	} {
		if code, _ := runVet(t, args...); code != exitLoadFail {
			t.Errorf("ficusvet %s: exit %d, want %d", strings.Join(args, " "), code, exitLoadFail)
		}
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	code, out := runVet(t, "-list")
	if code != exitClean {
		t.Fatalf("-list: exit %d", code)
	}
	var got, want []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	for _, a := range analysis.All() {
		want = append(want, a.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("-list names %v, want %v", got, want)
	}
}
