// Command ficusvet runs the repo-specific static analyzers over the
// module.  See internal/analysis for the analyzer catalogue.
//
// Exit codes: 0 when the tree is clean, 1 when findings were reported,
// 2 when the module could not be loaded or analyzed at all — so CI can
// distinguish "code has findings" from "the gate itself is broken".
//
// Usage:
//
//	ficusvet [-list] [-run name,name] [-json] [patterns]
//
// Patterns default to ./... (the whole module, testdata excluded).
// -json emits one JSON object with the findings for editors and CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

const (
	exitClean    = 0
	exitFindings = 1
	exitLoadFail = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("ficusvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list analyzers and exit")
	only := flags.String("run", "", "comma-separated analyzers to run (default: all)")
	asJSON := flags.Bool("json", false, "emit findings as JSON")
	if err := flags.Parse(args); err != nil {
		return exitLoadFail
	}

	loadFail := func(err error) int {
		fmt.Fprintln(stderr, "ficusvet:", err)
		return exitLoadFail
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}

	analyzers := analysis.All()
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(*only)
		if err != nil {
			return loadFail(err)
		}
	}

	ld, err := analysis.NewLoader(".")
	if err != nil {
		return loadFail(err)
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		return loadFail(err)
	}

	diags := analysis.Run(pkgs, analyzers)

	if *asJSON {
		out := struct {
			Findings []analysis.Diagnostic
			Count    int
		}{Findings: relDiags(ld, diags), Count: len(diags)}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			return loadFail(err)
		}
	} else {
		for _, d := range relDiags(ld, diags) {
			fmt.Fprintln(stdout, d.String())
		}
	}

	if len(diags) > 0 {
		return exitFindings
	}
	return exitClean
}

// relDiags rewrites absolute file names relative to the module root for
// stable, readable output.
func relDiags(ld *analysis.Loader, diags []analysis.Diagnostic) []analysis.Diagnostic {
	out := make([]analysis.Diagnostic, len(diags))
	for i, d := range diags {
		if rel, err := filepath.Rel(ld.ModRoot(), d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			d.Pos.Filename = rel
		}
		out[i] = d
	}
	return out
}
