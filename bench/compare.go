package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// compareFiles judges the runs in file b against those in file a, per
// workload and metric.  Each side is summarized by the median of its runs;
// the spread of a side is the distance between its quartiles (between its
// extremes with fewer than four runs) as a share of its median.
//
// A gated metric is
//
//	regressed   when b's median is worse than a's by more than the bound,
//	unresolved  when either side's spread is wider than the bound, so that
//	            "no worse" cannot be told from noise,
//	ok          otherwise.
//
// The exit code is 1 if any pair regressed, 0 otherwise; unresolved pairs
// are counted and printed but are for the reader to settle with more runs
// or a wider bound.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	fa, err := readRuns(a)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fb, err := readRuns(b)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	va, vb := collect(fa), collect(fb)
	regressed, unresolved := 0, 0
	for i := range specs {
		w := specs[i].name
		if va[w] == nil || vb[w] == nil {
			continue
		}
		fmt.Fprintf(stdout, "\n== %s  (%d vs %d runs)\n", w, va[w].runs, vb[w].runs)
		fmt.Fprintf(stdout, "   %-38s %14s %14s %9s %8s %8s  %s\n", "metric", "a", "b", "change", "spread", "bound", "verdict")
		for _, d := range metricDefs {
			xa, xb := va[w].values[d.name], vb[w].values[d.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
			} else if mb != 0 {
				change = math.Inf(1)
			}
			worse := change
			if d.better == "higher" {
				worse = -change
			}
			sp := math.Max(spread(xa), spread(xb))
			verdict, bound := "", ""
			if d.gate != gateNone {
				bound = fmt.Sprintf("%.1f%%", d.bound*100)
				switch {
				case worse > d.bound:
					verdict = "REGRESSED"
					regressed++
				case sp > d.bound:
					verdict = "unresolved"
					unresolved++
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(stdout, "   %-38s %14.4f %14.4f %+8.2f%% %7.2f%% %8s  %s\n",
				d.name, ma, mb, change*100, sp*100, bound, verdict)
		}
		if fa, fb := va[w].failed, vb[w].failed; fa+fb > 0 {
			fmt.Fprintf(stdout, "   failed ops: %d vs %d\n", fa, fb)
			if fb > fa {
				regressed++
			}
		}
	}
	fmt.Fprintf(stdout, "\n%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

type sideRuns struct {
	runs   int
	failed int
	values map[string][]float64
}

func collect(f *runFile) map[string]*sideRuns {
	out := map[string]*sideRuns{}
	for _, r := range f.Runs {
		s := out[r.Workload]
		if s == nil {
			s = &sideRuns{values: map[string][]float64{}}
			out[r.Workload] = s
		}
		s.runs++
		s.failed += r.Failed
		if !r.Correct && r.Failed == 0 {
			s.failed++
		}
		for name, v := range r.Metrics {
			s.values[name] = append(s.values[name], v.Value)
		}
	}
	return out
}

// spread is the interquartile range over the median (the range over the
// median with fewer than four values, 0 with fewer than two).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / math.Abs(m)
}

// quantile interpolates the way Python's statistics.quantiles does by
// default (exclusive method), so spreads agree with the benchmark driver's.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i] + (sorted[i+1]-sorted[i])*(pos-float64(i))
}
