// Package analysis is ficusvet: a repo-specific static-analysis suite for
// the replication stack, built on go/ast and go/types only (no go/packages,
// no external modules).  It enforces invariants the compiler cannot see but
// the paper's correctness story depends on:
//
//   - determinism: the simulation and replication layers must not consult
//     wall clocks or global randomness, and map iteration must not reach
//     serialized or otherwise order-sensitive output unsorted.  PR 1's
//     chaos tests replay faults from a seed; one time.Now or unsorted
//     range-over-map makes a failing run unreproducible.
//
//   - vvalias: vv.Vector is a map; storing a caller's vector without
//     Clone aliases it, and a later Bump through either name silently
//     corrupts Parker et al.'s dominance comparison.
//
//   - errclass: internal/retry classifies errors as transient or permanent
//     with errors.Is/errors.As; wrapping without %w or comparing errors
//     with == severs the chain and turns transient faults permanent.
//
//   - heldlocks: the *Locked suffix convention, flow-sensitively, in every
//     package that takes a lock — which mutexes are held at each call
//     site, *Locked callees reached only with the receiver's lock held,
//     and no re-Lock of a mutex already held (self-deadlock).
//
//   - lockorder: the cross-package lock-acquisition graph (an edge means
//     "acquired B while holding A") must stay acyclic, or the propagation,
//     reconciliation and scrub daemons and client operations, run from
//     whatever goroutines the caller drives them on, can deadlock against
//     each other.
//
//   - duraberr: on durable-write paths (device writes, seal/journal/
//     shadow commits, renames) an error return must not be silently
//     discarded, overwritten unchecked, or wrapped without %w.
//
// Each analyzer stays only while it catches a seeded bug no test catches
// (DESIGN.md §12); every message names its one-token repair.
//
// Diagnostics can be suppressed with a trailing or immediately preceding
// comment: //ficusvet:ignore silences every analyzer on that line,
// //ficusvet:ignore name1,name2 silences specific analyzers, and
// //ficusvet:sorted is shorthand for suppressing determinism's map-order
// check where iteration order provably does not reach output.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic as path:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one check.  InScope (nil means every package) gates which
// packages the analyzer sees.  Exactly one of Run (per-package) and
// RunModule (whole-module, for cross-package analyses like the
// lock-acquisition graph) is set.
type Analyzer struct {
	Name      string
	Doc       string
	InScope   func(*Package) bool
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass couples one analyzer with one package and collects reports.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a ficusvet comment suppresses
// this analyzer on that line or the line above it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	report(p.diags, p.Analyzer, p.Pkg, pos, format, args...)
}

// ModulePass couples a module-level analyzer with every in-scope package.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos within pkg, honoring suppressions.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	report(p.diags, p.Analyzer, pkg, pos, format, args...)
}

func report(diags *[]Diagnostic, a *Analyzer, pkg *Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	if pkg.suppressedAt(a.Name, position) {
		return
	}
	*diags = append(*diags, Diagnostic{
		Analyzer: a.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every ficusvet analyzer.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, VVAlias, ErrClass,
		HeldLocks, LockOrder, DurabErr,
	}
}

// ByName resolves a comma-separated analyzer list.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run applies the analyzers to the packages and returns the findings
// sorted by position.  Per-package analyzers run concurrently across
// packages under a bounded worker pool; the final sort keeps diagnostic
// order deterministic regardless of scheduling.  Module-level analyzers
// run once over their whole in-scope package set.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var perPkg, modules []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			modules = append(modules, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}

	// Fan out per-package work; results land in a per-package slot so no
	// lock ordering between workers can reorder diagnostics.
	results := make([][]Diagnostic, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var diags []Diagnostic
			for _, a := range perPkg {
				if a.InScope != nil && !a.InScope(pkg) {
					continue
				}
				a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
			}
			results[i] = diags
		}(i, pkg)
	}
	wg.Wait()

	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}
	for _, a := range modules {
		var scoped []*Package
		for _, pkg := range pkgs {
			if a.InScope == nil || a.InScope(pkg) {
				scoped = append(scoped, pkg)
			}
		}
		if len(scoped) > 0 {
			a.RunModule(&ModulePass{Analyzer: a, Pkgs: scoped, diags: &diags})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		di, dj := diags[i], diags[j]
		if di.Pos.Filename != dj.Pos.Filename {
			return di.Pos.Filename < dj.Pos.Filename
		}
		if di.Pos.Line != dj.Pos.Line {
			return di.Pos.Line < dj.Pos.Line
		}
		if di.Pos.Column != dj.Pos.Column {
			return di.Pos.Column < dj.Pos.Column
		}
		if di.Analyzer != dj.Analyzer {
			return di.Analyzer < dj.Analyzer
		}
		return di.Message < dj.Message
	})
	return diags
}

// segScope builds an InScope gate matching packages whose import path
// contains any of the named path segments.
func segScope(segments ...string) func(*Package) bool {
	set := make(map[string]bool, len(segments))
	for _, s := range segments {
		set[s] = true
	}
	return func(pkg *Package) bool {
		for _, seg := range strings.Split(pkg.Path, "/") {
			if set[seg] {
				return true
			}
		}
		return false
	}
}

// Suppression comments.
const (
	directivePrefix = "//ficusvet:"
	directiveIgnore = "ignore"
	directiveSorted = "sorted"
)

// collectSuppressions indexes ficusvet comments: file base name -> line ->
// suppressed analyzer names ("" = all).  A directive covers its own line
// and the following line, so both trailing comments and comment-on-the-
// line-above styles work.
func collectSuppressions(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				rest, ok := strings.CutPrefix(text, directivePrefix)
				if !ok {
					continue
				}
				verb, arg, _ := strings.Cut(rest, " ")
				var names []string
				switch verb {
				case directiveIgnore:
					if arg = strings.TrimSpace(arg); arg == "" {
						names = []string{""}
					} else {
						for _, n := range strings.Split(arg, ",") {
							names = append(names, strings.TrimSpace(n))
						}
					}
				case directiveSorted:
					names = []string{"determinism"}
				default:
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], names...)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], names...)
			}
		}
	}
	return out
}

func (p *Package) suppressedAt(analyzer string, pos token.Position) bool {
	byLine := p.suppress[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, name := range byLine[pos.Line] {
		if name == "" || name == analyzer {
			return true
		}
	}
	return false
}
