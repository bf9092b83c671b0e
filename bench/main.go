// Command bench is the repository's benchmark: one closed-loop client
// drives four workloads through the public ficus API, reports end-to-end
// and per-layer metrics by name, checks every output against a shadow
// model, and makes a separate traced run on a hand-assembled rig for the
// per-layer times.  See README.md in this directory.
//
//	go run ./bench                          every workload, timed then traced
//	go run ./bench -workload remote_read    one workload; the last line is one JSON object
//	go run ./bench -json a.json             also append the results to a.json
//	go run ./bench -compare a.json b.json   judge b.json against a.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// refSeconds is how long a workload's measured phase lasts at -scale 1 on
// the box the sizes were chosen on; -seconds is converted to a scale with
// it, so that op counts stay fixed constants and counting metrics exact.
const refSeconds = 40

// onOff is a boolean flag that takes its value as the next argument
// ("--trace 0") as well as inline ("-trace=false").
type onOff bool

func (b *onOff) String() string { return strconv.FormatBool(bool(*b)) }
func (b *onOff) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = onOff(v)
	return err
}

type options struct {
	workload string
	seed     int64
	scale    float64
	trace    bool
	jsonPath string
	outDir   string
	once     metricSet // the traced run's workload-independent metrics
	setups   int       // most set-ups whose median is setup_s
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	trace := onOff(true)
	fl.StringVar(&o.workload, "workload", "", "run one workload and end with one JSON line (default: all four)")
	fl.Int64Var(&o.seed, "seed", 1, "seed of the generated operation stream")
	fl.Float64Var(&o.scale, "scale", 0, "common factor on every workload's op count (default: seconds/40)")
	seconds := fl.Int("seconds", 15, "target length of each measured phase, converted to -scale")
	fl.Var(&trace, "trace", "also make the traced run on the rig (0 or 1)")
	fl.StringVar(&o.jsonPath, "json", "", "append the results to this file")
	fl.StringVar(&o.outDir, "out", "bench/out", "directory for trace files")
	compare := fl.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	if fl.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fl.Arg(0))
		return 2
	}
	o.trace = bool(trace)
	o.setups = 3
	if o.scale <= 0 {
		o.scale = float64(*seconds) / refSeconds
	}
	if o.workload != "" && specByName(o.workload) == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}

	if o.trace {
		o.once = metricSet{}
		if err := onceMetrics(o.once.put); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	ok := true
	var results []*runResult
	for i := range specs {
		s := &specs[i]
		if o.workload != "" && s.name != o.workload {
			continue
		}
		res, err := runWorkload(s, o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stdout, res, o.trace)
		ok = ok && res.Correct
		results = append(results, res)
	}
	if o.jsonPath != "" {
		if err := appendRuns(o.jsonPath, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if o.workload != "" {
		if err := printContractLine(stdout, results[0], o.trace); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload sets one workload up, makes the traced run on a rig built
// from the fresh disks (when asked), and then the timed run.
func runWorkload(s *spec, o options) (*runResult, error) {
	res := newRunResult(s, o.seed, o.scale)
	b, setupS, err := setUpBed(s, o.seed, o.setups)
	if err != nil {
		return nil, err
	}
	res.Metrics.put("setup_s", setupS)
	if o.trace {
		for name, v := range o.once {
			res.Metrics.put(name, v.Value)
		}
		if err := tracedRun(b, res, o.outDir); err != nil {
			return nil, err
		}
	}
	if err := b.measure(res); err != nil {
		return nil, err
	}
	return res, nil
}

// printResult prints every metric of a run by name with its unit.
func printResult(w io.Writer, r *runResult, traced bool) {
	fmt.Fprintf(w, "\n== %s  seed=%d scale=%g  attempted=%d failed=%d correct=%v  measured phase %.1f s by the wall clock\n",
		r.Workload, r.Seed, r.Scale, r.Attempted, r.Failed, r.Correct, r.PhaseWallS)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ERROR: %s\n", e)
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "   samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintln(w)
	for _, d := range metricDefs {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		bound := ""
		switch {
		case d.gate == gateNone:
		case d.bound == 0:
			bound = "exact"
		default:
			bound = fmt.Sprintf("±%g%%", d.bound*100)
		}
		fmt.Fprintf(w, "   %-38s %16.4f %-6s %s\n", d.name, v.Value, v.Unit, bound)
	}
	if !traced {
		return
	}
	// The traced run's waterfall: per op class, each layer's self time
	// and how their sum compares with the traced end-to-end time.
	fmt.Fprintf(w, "   traced self time per op (us):  %8s", "class")
	for _, l := range tracedLayers {
		fmt.Fprintf(w, " %10s", l)
	}
	fmt.Fprintf(w, " %10s %10s\n", "sum", "end-to-end")
	for c := class(0); c < numClasses; c++ {
		e2e, ok := r.TracedOpUS[classNames[c]]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %38s", classNames[c])
		sum := 0.0
		for _, l := range tracedLayers {
			v := r.Metrics[l+".self_us."+classNames[c]].Value
			sum += v
			fmt.Fprintf(w, " %10.1f", v)
		}
		fmt.Fprintf(w, " %10.1f %10.1f\n", sum, e2e)
	}
}

// printContractLine ends a one-workload run with the single JSON object
// the benchmark driver reads: the end-to-end metrics of an untraced run,
// or every per-layer metric of a traced one (0 where a metric does not
// apply to the workload).
func printContractLine(w io.Writer, r *runResult, traced bool) error {
	metrics := map[string]metricVal{}
	for _, d := range metricDefs {
		if (d.gate == gateDriver) == traced {
			continue
		}
		v, ok := r.Metrics[d.name]
		if !ok {
			if d.gate == gateDriver {
				return fmt.Errorf("%s did not report %s", r.Workload, d.name)
			}
			v = metricVal{Unit: d.unit}
		}
		metrics[d.name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runFile is the -json document: every run appended so far.
type runFile struct {
	Runs []*runResult `json:"runs"`
}

func readRuns(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendRuns(path string, runs []*runResult) error {
	f, err := readRuns(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &runFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
