package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

// Every experiment name is unique, so "-exp" picks exactly one and
// "all" runs each once.
func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.name] {
			t.Errorf("experiment %s is listed twice", e.name)
		}
		seen[e.name] = true
	}
}

// A usage error exits 2 before any experiment prints a line.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table1", "-backend", "nvme"},
		{"-exp", "table1", "-scale", "-1"},
		{"-exp", "table1,fig99"},
		{"-exp", ""},
		{"-no-such-flag"},
	} {
		var stdout, stderr strings.Builder
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) exited %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed %q before rejecting", args, stdout.String())
		}
	}
}

func TestRunPrintsExperiment(t *testing.T) {
	var stdout strings.Builder
	if code := run(context.Background(), []string{"-exp", "table1"}, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if out := stdout.String(); !strings.HasPrefix(out, "Table 1:") || !strings.Contains(out, "[table1 done in ") {
		t.Fatalf("output:\n%s", out)
	}
}
