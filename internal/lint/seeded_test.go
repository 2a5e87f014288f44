package lint_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnndrive/internal/lint"
)

// seed is one recorded violation at a real site: replacing old with new
// in file (module-relative) must make the named analyzer, and only it,
// report a finding in that file.
type seed struct {
	analyzer string
	file     string
	old, new string
}

// seeds holds one violation per analyzer in lint.All(). An analyzer
// earns its place by catching its seed; one whose anchor is gone must be
// re-seeded at a live site or deleted.
var seeds = []seed{
	{"ctxbg", "internal/core/extractor.go",
		"eng.fb.ReserveCtx(ctx, b.Nodes)",
		"eng.fb.ReserveCtx(context.Background(), b.Nodes)"},
	{"ctxflow", "internal/baselines/ginex/ginex.go",
		"s.ds.Dev.ReadDirectCtx(ctx, buf[:op.Len], op.DevOff)",
		"s.ds.Dev.ReadDirect(buf[:op.Len], op.DevOff)"},
	{"alignedio", "internal/layout/pack.go",
		"buf := storage.AlignedBuf((p.feat/sector+2)*sector, sector)",
		"buf := make([]byte, (p.feat/sector+2)*sector)"},
	{"errsentinel", "internal/serve/api.go",
		"case errors.Is(err, ErrOverloaded):",
		"case err == ErrOverloaded:"},
}

// TestSeededViolations is the linter's rent rule, executed: it copies
// the module once, applies each seed in turn, and requires exactly the
// seed's analyzer to fire on the seeded file.
func TestSeededViolations(t *testing.T) {
	seeded := map[string]bool{}
	for _, s := range seeds {
		seeded[s.analyzer] = true
	}
	for _, a := range lint.All() {
		if !seeded[a.Name] {
			t.Errorf("analyzer %s has no seeded violation: seed it at a real site, or delete it", a.Name)
		}
		delete(seeded, a.Name)
	}
	for name := range seeded {
		t.Errorf("seed names %s, which is not in lint.All()", name)
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod := copyModule(t, root)
	ld, err := lint.NewLoader(mod)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		t.Run(s.analyzer, func(t *testing.T) {
			path := filepath.Join(mod, filepath.FromSlash(s.file))
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(orig), s.old); n != 1 {
				t.Fatalf("anchor %q occurs %d times in %s, want 1: re-seed %s at a live site, or delete the analyzer",
					s.old, n, s.file, s.analyzer)
			}
			writeFile(t, path, strings.Replace(string(orig), s.old, s.new, 1))
			defer writeFile(t, path, string(orig))

			pkgs, err := ld.Load(filepath.Dir(path), false)
			if err != nil {
				t.Fatal(err)
			}
			pkg := pkgs[0]
			for _, te := range pkg.TypeErrors {
				t.Errorf("seeded package does not type-check: %s: %s", te.Fset.Position(te.Pos), te.Msg)
			}
			if t.Failed() {
				t.FailNow()
			}
			findings := lint.RunPackage(pkg, lint.All())
			if len(findings) == 0 {
				t.Fatalf("%s missed its seed in %s: re-seed it at a live site, or delete it", s.analyzer, s.file)
			}
			for _, f := range findings {
				if f.Analyzer != s.analyzer || f.Pos.Filename != path {
					t.Errorf("want only [%s] findings in %s, got %s", s.analyzer, s.file, f)
				}
			}
		})
	}
}

// copyModule copies go.mod and the non-test Go sources of the module at
// root into a temporary directory, skipping what the loader's ./... walk
// skips, and returns the copy's root.
func copyModule(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func writeFile(t *testing.T, path, src string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}
