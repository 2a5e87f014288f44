package experiments

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// layoutSweeps are the table experiments whose layout is pinned: with an
// already-cancelled ctx every cell prints ERR:context canceled (Fig. B.1:
// a zero point) without running a workload, so what remains is the
// header, row labels, column values and widths.
var layoutSweeps = []struct {
	name string
	run  func(context.Context, io.Writer, Opts) error
}{
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig12", Fig12},
	{"table2", Table2},
	{"ablations", Ablations},
	{"figB1", FigB1},
}

// TestSweepLayoutPinned compares each sweep's cancelled-run output, quick
// and full, with testdata/layout/<name>[-quick].txt.
func TestSweepLayoutPinned(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range layoutSweeps {
		for _, quick := range []bool{true, false} {
			name := s.name
			if quick {
				name += "-quick"
			}
			t.Run(name, func(t *testing.T) {
				var out strings.Builder
				if err := s.run(ctx, &out, Opts{Quick: quick}); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled run returned %v, want context.Canceled", err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", "layout", name+".txt"))
				if err != nil {
					t.Fatal(err)
				}
				if out.String() != string(want) {
					t.Fatalf("layout changed; got:\n%s\nwant:\n%s", out.String(), want)
				}
			})
		}
	}
}
