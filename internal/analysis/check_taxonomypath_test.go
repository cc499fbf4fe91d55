package analysis

import (
	"go/token"
	"path/filepath"
	"slices"
	"testing"
)

// TestTaxonomyPathCoverage runs taxonomy-path over this repository and
// demands that it found every read and commit the attempt's kind picks in
// internal/core. TestRepoClean's zero diagnostics prove nothing if the check
// stopped matching them: a scope or shape rule that no longer fits the code
// passes vacuously.
func TestTaxonomyPathCoverage(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	found := taxonomyPath(m, func(token.Pos, string, ...any) {})[m.Path+"/internal/core"]
	for _, want := range []string{"soloRead", "resolvedRead", "invisibleRead", "invalRead", "tl2Read",
		"tl2Commit", "inlineCommit", "remoteEngine.commit"} {
		if !slices.Contains(found, want) {
			t.Errorf("taxonomy-path did not check %s in internal/core (found %v)", want, found)
		}
	}
}
