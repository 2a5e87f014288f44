package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"gnndrive/internal/lint"
)

// TestBrokenPackageDegradesGracefully feeds the loader a package that
// cannot type-check and asserts the failure surfaces as positioned
// TypeErrors on the result rather than a panic or a hard error.
func TestBrokenPackageDegradesGracefully(t *testing.T) {
	ld, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	abs, err := filepath.Abs("testdata/src/broken")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(abs, true)
	if err != nil {
		t.Fatalf("Load should not hard-fail on type errors: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("expected the broken package to load")
	}
	pkg := pkgs[0]
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("expected type errors from the broken fixture, got none")
	}
	for _, te := range pkg.TypeErrors {
		pos := te.Fset.Position(te.Pos)
		if pos.Filename == "" || pos.Line == 0 {
			t.Errorf("type error lacks a usable position: %v", te)
		}
		if !strings.Contains(pos.Filename, "broken") {
			t.Errorf("type error points outside the fixture: %s", pos)
		}
	}
}

// TestExpandSkipsTestdata proves the ./... walk never descends into
// testdata, vendor, or hidden directories — the fixture corpus must be
// invisible to a whole-tree lint run.
func TestExpandSkipsTestdata(t *testing.T) {
	ld, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := ld.Expand(".", []string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(dirs) == 0 {
		t.Fatal("expected at least the lint package itself")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand leaked a testdata directory: %s", d)
		}
	}
}

// TestLoadIncludesExternalTestPackage asserts _test packages come back
// as their own unit so test-scanning analyzers (errsentinel) see them.
func TestLoadIncludesExternalTestPackage(t *testing.T) {
	ld, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	abs, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(abs, true)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var sawXTest bool
	for _, p := range pkgs {
		if strings.HasSuffix(p.Name, "_test") {
			sawXTest = true
		}
	}
	if !sawXTest {
		t.Error("expected the lint package's external _test unit to load")
	}
}

// TestLoadTestOnlyPackage loads a directory whose only Go files are
// external tests, which go build, vet and test all accept.
func TestLoadTestOnlyPackage(t *testing.T) {
	ld, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	abs, err := filepath.Abs("testdata/src/testonly")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load(abs, true)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Name != "testonly_test" {
		t.Fatalf("want the one external test unit, got %d units", len(pkgs))
	}
	for _, te := range pkgs[0].TypeErrors {
		t.Errorf("type error: %s", te.Msg)
	}
	if _, err := ld.Load(abs, false); err == nil {
		t.Error("Load without tests found something to analyze in a test-only package")
	}
}
