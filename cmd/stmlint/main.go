// Command stmlint machine-checks the repository's concurrency invariants.
//
// It loads the module rooted at the nearest go.mod (from -C or the working
// directory), type-checks every package with the standard library's go/ast +
// go/types toolchain, and runs the invariant checks from internal/analysis:
//
//	mixed-access    sync/atomic fields never read or written plainly
//	padding         cache-padded cells and per-slot structs fill whole lines
//	tx-escape       *Tx handles confined to their atomic block
//	taxonomy-path   every CFG path into an engine conflict exit records an
//	                AbortReason
//	hot-path        //stm:hotpath functions free of slow calls
//	hot-path-deep   ...and every function they transitively call
//	lock-order      stream and partition locks: ascending acquire, descending
//	                release, stream before partition, released on every exit
//	                path, no blocking while held
//	atomic-publish  no plain access to atomic state after the publishing store
//
// Usage:
//
//	stmlint [-C dir] [-checks name,name] [-json] [-github] [-list] [packages]
//
// Package pattern arguments are accepted for command-line symmetry with go
// vet (`go run ./cmd/stmlint ./...`) but the analyzer always loads the whole
// module: the invariants are module-global properties (an atomic access in
// one package forbids plain accesses in another), so partial loads would
// silently weaken them.
//
// Output is one file:line:col diagnostic per violation by default; -json
// emits the same diagnostics as a JSON array on stdout for tooling, and
// -github emits GitHub Actions ::error workflow commands so CI annotates the
// offending lines in the diff view.
//
// Exit status: 0 when the module is clean, 1 when diagnostics were
// reported, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/ssrg-vt/rinval/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the -json wire form of one diagnostic. File is module-relative
// with forward slashes, so output is stable across checkouts.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// run is the whole command, parameterized for tests: args are the CLI
// arguments (no program name), and all output goes to the given writers.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("C", ".", "directory inside the module to lint")
		checks   = fs.String("checks", "all", "comma-separated checks to run")
		list     = fs.Bool("list", false, "list registered checks and exit")
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		ghannots = fs.Bool("github", false, "emit GitHub Actions ::error annotations")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, c := range analysis.AllChecks() {
			fmt.Fprintf(stdout, "%-16s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	selected, err := analysis.SelectChecks(*checks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	m, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	diags := analysis.Run(m, selected)
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonDiag{
			File: file, Line: d.Pos.Line, Col: d.Pos.Column,
			Check: d.Check, Message: d.Message,
		})
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case *ghannots:
		for _, d := range out {
			// https://docs.github.com/actions/reference/workflow-commands:
			// property values must escape %, CR, LF (and the message too).
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=stmlint/%s::%s\n",
				ghEscape(d.File), d.Line, d.Col, ghEscape(d.Check), ghEscape(d.Message))
		}
	default:
		for _, d := range out {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "stmlint: %d invariant violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// ghEscape escapes a value for a GitHub Actions workflow command.
func ghEscape(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("stmlint: no go.mod found above %s", dir)
		}
		d = parent
	}
}
