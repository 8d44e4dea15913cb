package harness_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gomd/internal/harness"
)

// A byte-level pin of every experiment mdbench -exp renders: the paper's
// tables and figures, the headline anchors, the ablations and the
// extensions, at a reduced fidelity that still sweeps one size, three
// rank counts and two GPU counts. A refactor of how the experiments are
// built must reproduce testdata/experiments.golden byte for byte.
// Regenerate (only when a modeled number moves on purpose) with
// `go test ./internal/harness -run ExperimentsGolden -update`.
var updateGolden = flag.Bool("update", false, "rewrite internal/harness/testdata/experiments.golden")

func TestExperimentsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("about 20 s of engine runs; the race run covers the multi-rank engine elsewhere")
	}
	if testing.Short() {
		t.Skip("slow")
	}
	r := harness.NewRunner(harness.Options{MeasureCap: 4000, Steps: 6, Warmup: 4})
	spec := harness.CampaignSpec{SizesK: []int{32}, Ranks: []int{1, 4, 8}, GPUs: []int{1, 2}}
	var got bytes.Buffer
	for _, e := range harness.FullRegistry() {
		tables, err := e.Run(r, spec)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&got, "### %s\n", e.ID)
		for i := range tables {
			tables[i].Render(&got)
		}
	}

	path := filepath.Join("testdata", "experiments.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiments differ from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
