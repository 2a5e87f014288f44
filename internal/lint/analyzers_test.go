package lint_test

import (
	"testing"

	"gnndrive/internal/lint"
	"gnndrive/internal/lint/analyzertest"
)

func TestCtxBg(t *testing.T) {
	analyzertest.Run(t, lint.AnalyzerCtxBg, "testdata/src/ctxbg")
}

func TestCtxFlow(t *testing.T) {
	analyzertest.Run(t, lint.AnalyzerCtxFlow, "testdata/src/ctxflow")
}

func TestErrSentinel(t *testing.T) {
	analyzertest.Run(t, lint.AnalyzerErrSentinel, "testdata/src/errsentinel")
}

func TestAlignedIO(t *testing.T) {
	analyzertest.Run(t, lint.AnalyzerAlignedIO, "testdata/src/alignedio")
}

func TestAlignedIOInterprocedural(t *testing.T) {
	analyzertest.Run(t, lint.AnalyzerAlignedIO, "testdata/src/ipa")
}

// TestAll sanity-checks the registry: four analyzers, unique names.
func TestAll(t *testing.T) {
	all := lint.All()
	if len(all) != 4 {
		t.Fatalf("expected 4 analyzers, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing name, doc, or run func", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
