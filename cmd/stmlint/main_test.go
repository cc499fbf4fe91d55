package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// fixture resolves a mini-module from the analysis package's golden corpus.
func fixture(t *testing.T, elem ...string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join(append([]string{"..", "..", "internal", "analysis", "testdata"}, elem...)...))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestExitCodes pins the documented exit-status contract: 0 clean, 1 when
// diagnostics were reported, 2 on load/usage errors.
func TestExitCodes(t *testing.T) {
	var out, errOut strings.Builder

	if code := run([]string{"-C", fixture(t, "lock-order", "clean")}, &out, &errOut); code != 0 {
		t.Fatalf("clean module: exit %d, stderr %q", code, errOut.String())
	}

	out.Reset()
	errOut.Reset()
	code := run([]string{"-C", fixture(t, "lock-order", "descending"), "-checks", "lock-order"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("violating module: exit %d, want 1 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[lock-order]") {
		t.Fatalf("diagnostic output missing check tag:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "invariant violation") {
		t.Fatalf("summary missing from stderr: %q", errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-C", t.TempDir()}, &out, &errOut); code != 2 {
		t.Fatalf("module-less dir: exit %d, want 2", code)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-checks", "no-such-check"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown check: exit %d, want 2", code)
	}
}

// TestJSONOutput checks the -json wire form: a parseable array with
// module-relative slash paths and the expected fields.
func TestJSONOutput(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-C", fixture(t, "hot-path-deep", "deepnow"), "-checks", "hot-path-deep", "-json"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.File != "hot.go" || d.Line == 0 || d.Check != "hot-path-deep" || d.Message == "" {
		t.Fatalf("malformed diagnostic: %+v", d)
	}
	if strings.Contains(d.File, "\\") {
		t.Fatalf("file path not slash-normalized: %q", d.File)
	}
}

// TestGitHubAnnotations checks the ::error workflow-command form CI uses to
// annotate the diff view.
func TestGitHubAnnotations(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-C", fixture(t, "taxonomy-path", "siblingbranch"), "-checks", "taxonomy-path", "-github"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errOut.String())
	}
	line := strings.TrimSpace(out.String())
	if !strings.HasPrefix(line, "::error file=eng.go,line=") {
		t.Fatalf("not a workflow command: %q", line)
	}
	if !strings.Contains(line, "title=stmlint/taxonomy-path::") {
		t.Fatalf("annotation missing title: %q", line)
	}
}

// TestListChecks ensures -list names every registered check, including the
// CFG-based suite.
func TestListChecks(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, name := range []string{"atomic-publish", "hot-path", "hot-path-deep",
		"lock-order", "mixed-access", "padding", "taxonomy-path", "tx-escape"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("-list output missing %s:\n%s", name, out.String())
		}
	}
}
