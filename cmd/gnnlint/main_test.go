package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixtures = "../../internal/lint/testdata/src/"

// TestBrokenPackageIsReportedAndOthersStillRun feeds the driver a
// package that cannot type-check alongside a healthy one: the type
// error must be printed with a position, the exit code must be nonzero,
// and the healthy package's findings must still appear.
func TestBrokenPackageIsReportedAndOthersStillRun(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{fixtures + "broken", fixtures + "ctxbg"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "[typecheck]") {
		t.Errorf("missing [typecheck] report:\n%s", s)
	}
	if !strings.Contains(s, "broken.go:") {
		t.Errorf("type error lacks file:line position:\n%s", s)
	}
	if !strings.Contains(s, "analyzers skipped") {
		t.Errorf("missing skip notice for the broken package:\n%s", s)
	}
	if !strings.Contains(s, "[ctxbg]") {
		t.Errorf("healthy package was not analyzed after the broken one:\n%s", s)
	}
}

// TestSelfLint runs gnnlint over its own implementation package — the
// linter must hold itself to the same contracts.
func TestSelfLint(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"../../internal/lint", "."}, &out, &errw)
	if code != 0 {
		t.Fatalf("gnnlint is not clean over its own packages (exit %d):\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("expected clean summary:\n%s", out.String())
	}
}

// TestBadPatternFails asserts a nonexistent pattern is a usage error,
// not a silent clean run.
func TestBadPatternFails(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"./no/such/dir"}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\n%s%s", code, out.String(), errw.String())
	}
}

// TestSARIFOutput writes SARIF for a fixture package and checks the
// shape code-scanning ingests: 2.1.0 version, a rule per analyzer,
// and results with relative URIs.
func TestSARIFOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.sarif")
	var out, errw strings.Builder
	code := run([]string{"-sarif", path, fixtures + "ctxbg"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has live findings)\n%s%s", code, out.String(), errw.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "gnnlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) == 0 {
		t.Error("no rules in driver")
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for a fixture with findings")
	}
	for _, r := range run.Results {
		if r.RuleID == "" || r.Message.Text == "" {
			t.Errorf("result missing ruleId/message: %+v", r)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result has %d locations", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if strings.HasPrefix(loc.ArtifactLocation.URI, "/") {
			t.Errorf("artifact URI %q is absolute, want relative", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine <= 0 {
			t.Errorf("result has no startLine: %+v", r)
		}
	}
}

// TestRepoIsClean runs every analyzer over the whole module: a finding
// anywhere in the tree fails the test suite, not only the CI lint job.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree lint run")
	}
	var out, errw strings.Builder
	code := run([]string{"../../..."}, &out, &errw)
	if code != 0 {
		t.Fatalf("tree not clean (exit %d):\n%s%s", code, out.String(), errw.String())
	}
}
