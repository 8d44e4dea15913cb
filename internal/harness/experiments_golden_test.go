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
var updateGolden = flag.Bool("update", false,
	"rewrite the golden files: testdata/experiments.golden, and results/full.txt and full.csv from results/measurements.jsonl")

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
		fmt.Fprintf(&got, "### %s\n", e.ID)
		if err := e.Render(r, spec, &got, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, filepath.Join("testdata", "experiments.golden"), got.Bytes())
}

// checkGolden compares got with the file at path, naming the first line
// that differs; with -update it first rewrites the file.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
