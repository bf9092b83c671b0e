package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smallSpec is a workload with its population cut down so that a smoke run
// takes a fraction of a second.  Mixes, cluster shapes and code paths are
// the workload's own; only the sizes differ, and passEvery is lowered so
// that the few ops still cross daemon steps.
func smallSpec(name string) *spec {
	s := *specByName(name)
	s.files = 16
	s.dirs = 4
	if s.fileBlocks > 4 {
		s.fileBlocks = 4
	}
	s.ops = 2000
	if name == "partition_heal" {
		s.ops = 6000 // enough updates for the deck to hold a planted conflict
	}
	s.storage = [2]int{4096, 1024}
	if s.passEvery > 0 {
		s.passEvery = 8
	}
	return &s
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// TestBenchmarkJSONMatchesTable pins BENCHMARK.json to the program: the
// workloads are the specs, end_to_end is exactly the metrics defined on
// every workload (with the table's unit, direction and bound), and
// per_layer is exactly the rest.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if got := float64(bj.RunSeconds) / refSeconds; got <= 0 || got > 1 {
		t.Errorf("run_seconds %d gives scale %g", bj.RunSeconds, got)
	}
	var e2e, layer []metricDef
	for _, d := range metricDefs {
		if d.gate == gateDriver {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	if len(bj.EndToEnd) != len(e2e) {
		t.Fatalf("end_to_end has %d metrics, the table %d", len(bj.EndToEnd), len(e2e))
	}
	for i, m := range bj.EndToEnd {
		d := e2e[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(layer) {
		t.Fatalf("per_layer has %d metrics, the table %d", len(bj.PerLayer), len(layer))
	}
	for i, m := range bj.PerLayer {
		d := layer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
	}
}

// contractMetrics renders a result as the driver would see it.
func contractMetrics(t *testing.T, r *runResult, traced bool) map[string]metricVal {
	t.Helper()
	var buf bytes.Buffer
	if err := printContractLine(&buf, r, traced); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool                `json:"correct"`
		Attempted *int                 `json:"attempted"`
		Failed    *int                 `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Fatalf("contract line lacks a key or attempted < 1: %s", buf.String())
	}
	return line.Metrics
}

// counting lists the metrics that must repeat bit for bit at one seed.
func counting(r *runResult) map[string]float64 {
	out := map[string]float64{"attempted": float64(r.Attempted), "failed": float64(r.Failed)}
	for name, v := range r.Metrics {
		switch metricByName(name).unit {
		case "count", "bytes", "ratio":
			if !strings.HasPrefix(name, "trace.") {
				out[name] = v.Value
			}
		}
	}
	return out
}

// TestSmoke runs every workload three times at a small size: timed and
// traced at one seed, then timed alone at the same seed and at another.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	out := t.TempDir()
	once := metricSet{}
	if err := onceMetrics(once.put); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		s := smallSpec(specs[i].name)
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			// Seed 1 traced, seed 1 again and seed 2 untraced.
			var runs []*runResult
			for k, seed := range []int64{1, 1, 2} {
				r, err := runWorkload(s, options{seed: seed, scale: 0.02, trace: k == 0, outDir: out, once: once, setups: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("seed %d: correct=%v failed=%d: %v", seed, r.Correct, r.Failed, r.Errors)
				}
				runs = append(runs, r)
			}
			r := runs[0]

			// Every end-to-end metric, once, with its unit, never zero.
			e2e := contractMetrics(t, r, false)
			if len(e2e) != len(bj.EndToEnd) {
				t.Errorf("%d end-to-end metrics emitted, BENCHMARK.json names %d", len(e2e), len(bj.EndToEnd))
			}
			for _, m := range bj.EndToEnd {
				v, ok := e2e[m.Name]
				if !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
			// Every per-layer metric, once, with its unit.
			layer := contractMetrics(t, r, true)
			if len(layer) != len(bj.PerLayer) {
				t.Errorf("%d per-layer metrics emitted, BENCHMARK.json names %d", len(layer), len(bj.PerLayer))
			}
			for _, m := range bj.PerLayer {
				if v, ok := layer[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}

			// Counting metrics repeat exactly at a seed and move with it.
			a, b := counting(runs[0]), counting(runs[1])
			for k := range b {
				if a[k] != b[k] {
					t.Errorf("seed 1 twice: %s = %v then %v", k, a[k], b[k])
				}
			}
			if reflect.DeepEqual(b, counting(runs[2])) {
				t.Errorf("seeds 1 and 2 gave identical counting metrics")
			}

			// The layers' self times add up to the traced client-call time.
			// (That every child span lies inside its parent and no self
			// time is negative is checked by the traced run itself, which
			// fails the workload otherwise.)
			for cls, e2e := range r.TracedOpUS {
				sum := 0.0
				for _, l := range tracedLayers {
					sum += r.Metrics[l+".self_us."+cls].Value
				}
				if math.Abs(sum-e2e) > 0.05*e2e {
					t.Errorf("class %s: layer self times sum to %.1f us, traced end-to-end is %.1f us", cls, sum, e2e)
				}
			}
			if r.Metrics["trace.spans"].Value == 0 {
				t.Errorf("traced run recorded no spans")
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+s.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}

			// The separation the workloads were built for.
			switch s.name {
			case "local_mix":
				for _, n := range []string{"nfs.rpcs_per_op", "nfs.self_us.read", "repl.rpcs_per_pass", "repl.self_ms_per_pass"} {
					if v := r.Metrics[n].Value; v != 0 {
						t.Errorf("%s = %v on a one-host workload, want 0", n, v)
					}
				}
			case "remote_read":
				if v := r.Metrics["disk.writes_per_op"].Value; v != 0 {
					t.Errorf("disk.writes_per_op = %v on a read-only workload", v)
				}
				if v := r.Metrics["nfs.self_us.read"].Value; v <= 0 {
					t.Errorf("nfs.self_us.read = %v: reads did not cross NFS", v)
				}
			case "update_propagate":
				if v := r.Metrics["physical.blocks_reused_per_pull"].Value; v <= 0 {
					t.Errorf("no block was reused by a delta install")
				}
			case "partition_heal":
				if v := r.Metrics["recon.conflicts_reported"].Value; v <= 0 {
					t.Errorf("no planted conflict was reported")
				}
				if v := r.Metrics["core.restart_ms"].Value; v <= 0 {
					t.Errorf("host 3 was not restarted")
				}
			}
		})
	}
}

// TestSpanCheckRejectsBadTrees feeds checkSpans trees that break each rule.
func TestSpanCheckRejectsBadTrees(t *testing.T) {
	good := []span{
		{parent: -1, op: 1, layer: "op", call: "read", start: 0, end: 100},
		{parent: 0, op: 1, layer: "physical", call: "Lookup", start: 10, end: 60},
		{parent: 1, op: 1, layer: "ufs", call: "Lookup", start: 20, end: 50},
	}
	if err := checkSpans(good); err != nil {
		t.Fatalf("good tree rejected: %v", err)
	}
	if got := selfTimes(good); !reflect.DeepEqual(got, []int64{50, 20, 30}) {
		t.Errorf("self times %v, want [50 20 30]", got)
	}
	bad := map[string]func(s []span) []span{
		"child outside parent": func(s []span) []span { s[2].end = 70; return s },
		"ends before start":    func(s []span) []span { s[2].end = 10; return s },
		"op differs":           func(s []span) []span { s[2].op = 2; return s },
		// Two siblings that overlap cover more than their parent lasts.
		"negative self": func(s []span) []span {
			s[1].start, s[1].end = 5, 95
			s[2] = span{parent: 0, op: 1, layer: "physical", call: "Getattr", start: 10, end: 90}
			return s
		},
	}
	for name, breakIt := range bad {
		if err := checkSpans(breakIt(append([]span(nil), good...))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestGeneratorIsSeeded: the same seed gives the same stream, another seed
// another, and the stream honours the mix.
func TestGeneratorIsSeeded(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		gen := func(seed int64) []op {
			ops, _ := s.stream(seed, 100, 2000)
			return ops
		}
		a, b, c := gen(1), gen(1), gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different streams", s.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", s.name)
		}
		if s.partitioned {
			continue
		}
		var n [numClasses]int
		for _, o := range a {
			n[o.kind.class()]++
		}
		var want [numClasses]int
		for _, e := range s.mix {
			want[e.kind.class()] += e.pct * len(a) / 100
		}
		for cl := range n {
			if d := n[cl] - want[cl]; d > len(a)/20 || d < -len(a)/20 {
				t.Errorf("%s: %d %s ops of %d, mix says %d", s.name, n[cl], classNames[cl], len(a), want[cl])
			}
		}
	}
}

// TestCompare drives -compare over files with a known relation.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, ops []float64, rpcs float64) string {
		var runs []*runResult
		for _, v := range ops {
			r := newRunResult(&specs[1], 1, 0.25)
			r.Attempted = 100
			r.Metrics.put("ops_per_s", v)
			r.Metrics.put("rpcs_per_op", rpcs)
			r.Metrics.put("nfs.rpcs_per_op", rpcs)
			runs = append(runs, r)
		}
		p := filepath.Join(dir, name)
		if err := appendRuns(p, runs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := mk("a.json", []float64{1000, 1010, 990, 1005, 995}, 6.5)
	cases := []struct {
		name    string
		path    string
		code    int
		verdict string
	}{
		{"same", mk("same.json", []float64{1001, 1008, 992, 1004, 996}, 6.5), 0, "ok"},
		{"slower", mk("slow.json", []float64{700, 710, 690, 705, 695}, 6.5), 1, "REGRESSED"},
		{"faster", mk("fast.json", []float64{1500, 1510, 1490, 1505, 1495}, 6.5), 0, "ok"},
		{"noisy", mk("noisy.json", []float64{700, 1300, 1000, 1250, 760}, 6.5), 0, "unresolved"},
		{"more rpcs", mk("rpcs.json", []float64{1000, 1010, 990, 1005, 995}, 6.6), 1, "REGRESSED"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		code := compareFiles(base, c.path, &out, &errb)
		if code != c.code || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s%s", c.name, code, c.code, c.verdict, out.String(), errb.String())
		}
	}
}

// TestFlags covers the argument forms the driver and the README use.
func TestFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "3", "--seconds", "5", "--trace", "0"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "unknown workload") {
		t.Errorf("unknown workload: exit %d, stderr %q", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"-trace=false", "stray"}, &out, &errb); code != 2 {
		t.Errorf("stray argument: exit %d", code)
	}
	if code := run([]string{"-compare", "only-one.json"}, &out, &errb); code != 2 {
		t.Errorf("-compare with one file: exit %d", code)
	}
}
