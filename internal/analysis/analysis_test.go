package analysis_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ssrg-vt/rinval/internal/analysis"
)

// TestRegistry pins the check suite: a check whose init registration is
// dropped would otherwise silently stop running everywhere.
func TestRegistry(t *testing.T) {
	want := []string{"atomic-publish", "hot-path", "hot-path-deep",
		"lock-order", "mixed-access", "padding", "taxonomy-path", "tx-escape"}
	var got []string
	for _, c := range analysis.AllChecks() {
		got = append(got, c.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registered checks %v, want %v", got, want)
	}
}

// TestFixtures runs each check against its golden corpus. Every fixture is a
// self-contained mini-module under testdata/<check>/<fixture>/; lines that
// must produce a diagnostic carry a `// want <check>` comment, and every
// reported diagnostic must land on such a line.
func TestFixtures(t *testing.T) {
	checkDirs, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, cd := range checkDirs {
		if !cd.IsDir() {
			continue
		}
		checkName := cd.Name()
		selected, err := analysis.SelectChecks(checkName)
		if err != nil {
			t.Fatalf("testdata/%s does not name a registered check: %v", checkName, err)
		}
		fixtures, err := os.ReadDir(filepath.Join("testdata", checkName))
		if err != nil {
			t.Fatal(err)
		}
		for _, fx := range fixtures {
			if !fx.IsDir() {
				continue
			}
			t.Run(checkName+"/"+fx.Name(), func(t *testing.T) {
				dir, err := filepath.Abs(filepath.Join("testdata", checkName, fx.Name()))
				if err != nil {
					t.Fatal(err)
				}
				m, err := analysis.LoadModule(dir)
				if err != nil {
					t.Fatalf("LoadModule: %v", err)
				}
				diags := analysis.Run(m, selected)
				want := collectWants(t, dir, checkName)
				got := make(map[string]bool)
				for _, d := range diags {
					rel, err := filepath.Rel(dir, d.Pos.Filename)
					if err != nil {
						rel = d.Pos.Filename
					}
					key := fmt.Sprintf("%s:%d", rel, d.Pos.Line)
					got[key] = true
					if !want[key] {
						t.Errorf("unexpected diagnostic: %s", d)
					}
				}
				for key := range want {
					if !got[key] {
						t.Errorf("no %s diagnostic at %s (marked `// want %s`)", checkName, key, checkName)
					}
				}
			})
		}
	}
}

// collectWants scans the fixture's Go files for `// want <check>` markers and
// returns the set of "relpath:line" keys expecting a diagnostic.
func collectWants(t *testing.T, dir, checkName string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	marker := "// want " + checkName
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), marker) {
				want[fmt.Sprintf("%s:%d", rel, line)] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRepoClean runs the full suite over this repository itself and demands
// zero diagnostics: the invariants the fixtures demonstrate must actually
// hold in the code that claims them.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for _, d := range analysis.Run(m, analysis.AllChecks()) {
		t.Errorf("repository violates its own invariant: %s", d)
	}
}
