package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestTable1PrintsAllDatasets(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(context.Background(), &buf, Opts{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"papers100m-s", "twitter-s", "friendster-s", "mag240m-s"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s in:\n%s", name, out)
		}
	}
	// Ratios: mag240m feature memory must dwarf its topology (the
	// paper's 349 GB vs 10 GB).
	if !strings.Contains(out, "357.4G") {
		t.Fatalf("mag240m features wrong:\n%s", out)
	}
}

func TestClassify(t *testing.T) {
	if got := classify(errors.New("pin x: hostmem: out of memory")); got != "OOM" {
		t.Fatal(got)
	}
	if got := classify(errors.New("device: out of device memory")); got != "OOM(dev)" {
		t.Fatal(got)
	}
	if got := classify(errors.New("boom")); got != "ERR:boom" {
		t.Fatal(got)
	}
}

func TestOptsFillDefaults(t *testing.T) {
	o := Opts{}.fill()
	if o.Scale != defaultScale || o.Epochs != 1 {
		t.Fatalf("defaults %+v", o)
	}
	o = Opts{Scale: 3, Epochs: 5}.fill()
	if o.Scale != 3 || o.Epochs != 5 {
		t.Fatalf("overrides lost: %+v", o)
	}
}

func TestDatasetAndModelSets(t *testing.T) {
	if len(datasetsFor(true)) != 2 || len(datasetsFor(false)) != 4 {
		t.Fatal("dataset sets wrong")
	}
	if len(modelsFor(true)) != 1 || len(modelsFor(false)) != 3 {
		t.Fatal("model sets wrong")
	}
}

func TestFmtCell(t *testing.T) {
	if fmtCell(0, "OOM") != "OOM" {
		t.Fatal("failure tag lost")
	}
	if got := fmtCell(1500000000, ""); got != "1.50s" {
		t.Fatal(got)
	}
}
