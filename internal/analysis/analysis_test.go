package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFixture loads fixture packages under testdata/src/<name>/... with one
// analyzer and renders the diagnostics with positions relative to the
// fixture root, matching the golden file testdata/<name>.golden.  Run the
// tests with FICUSVET_UPDATE=1 to regenerate goldens.
func runFixture(t *testing.T, analyzer *Analyzer, name string, pkgDirs ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, d := range pkgDirs {
		dirs = append(dirs, filepath.Join(root, d))
	}
	pkgs, err := ld.Load(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(pkgDirs) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(pkgDirs))
	}

	var b strings.Builder
	for _, d := range Run(pkgs, []*Analyzer{analyzer}) {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		b.WriteString(filepath.ToSlash(rel))
		b.WriteString(d.String()[len(d.Pos.Filename):]) // :line:col: analyzer: msg
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", name+".golden")
	if os.Getenv("FICUSVET_UPDATE") == "1" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with FICUSVET_UPDATE=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want (%s) ---\n%s", got, golden, want)
	}
}

func TestDeterminismFixture(t *testing.T) {
	// clockok holds the same calls outside the scoped segments: the
	// analyzer must stay silent there.
	runFixture(t, Determinism, "determinism", "sim", "clockok")
}

func TestVVAliasFixture(t *testing.T) {
	runFixture(t, VVAlias, "vvalias", "store")
}

func TestErrClassFixture(t *testing.T) {
	runFixture(t, ErrClass, "errclass", "recon")
}

func TestHeldLocksFixture(t *testing.T) {
	runFixture(t, HeldLocks, "heldlocks", "physical")
}

func TestLockOrderFixture(t *testing.T) {
	// Two packages: the cycle spans core and physical, and the report
	// depends on the interprocedural fixpoint seeing NoteNested's
	// transitive acquisition.
	runFixture(t, LockOrder, "lockorder", "core", "physical")
}

func TestDurabErrFixture(t *testing.T) {
	runFixture(t, DurabErr, "duraberr", "disk")
}

// TestRepoIsClean is the acceptance gate in test form: the analyzers must
// report nothing on the repository itself.  A failure here means a new
// violation slipped in — fix it (or, for a justified idiom, add a
// //ficusvet:ignore comment with a reason).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader lost most of the module", len(pkgs))
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}

	// The worker pool must not perturb output: two runs over the same
	// packages render identically, diagnostic for diagnostic.
	again := Run(pkgs, All())
	if len(again) != len(diags) {
		t.Fatalf("second run returned %d diagnostics, first %d", len(again), len(diags))
	}
	for i := range diags {
		if diags[i].String() != again[i].String() {
			t.Errorf("run order not deterministic at %d: %s vs %s", i, diags[i], again[i])
		}
	}
}

// TestSuppressionScope pins the directive semantics: a directive covers
// its own line and the next, and names select analyzers.
func TestSuppressionScope(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(filepath.Join("testdata", "src", "errclass", "recon"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{ErrClass})
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "fixture.go") && strings.Contains(d.Message, "errors.Is") {
			// goodSuppressed's comparison must not be among the findings;
			// its line carries //ficusvet:ignore errclass.
			src, err := os.ReadFile(d.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			line := strings.Split(string(src), "\n")[d.Pos.Line-1]
			if strings.Contains(line, "ficusvet:ignore") {
				t.Errorf("suppressed line still reported: %s", d)
			}
		}
	}
}
