package harness_test

import (
	"fmt"
	"strings"
	"testing"

	"gomd/internal/harness"
	"gomd/internal/pair"
	"gomd/internal/workload"
)

func quickRunner() *harness.Runner {
	return harness.NewRunner(harness.Options{MeasureCap: 2500, Steps: 4, Warmup: 2})
}

// failWriter rejects every write, standing in for a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestMeasureScalesToTarget(t *testing.T) {
	r := quickRunner()
	m32, err := r.Measure(harness.Spec{Workload: workload.LJ, AtomsK: 32, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	m256, err := r.Measure(harness.Spec{Workload: workload.LJ, AtomsK: 256, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m32.NMeasured > 32000 || m256.NMeasured > 32000 {
		t.Errorf("measured sizes exceed cap: %d %d", m32.NMeasured, m256.NMeasured)
	}
	out32 := m32.CPU()
	out256 := m256.CPU()
	ratio := out32.TSps / out256.TSps
	// 8x the atoms should be ~8x slower per step (volume-dominated work).
	if ratio < 5 || ratio > 12 {
		t.Errorf("32k/256k TS/s ratio %v, expected ~8", ratio)
	}
}

func TestMeasurementCacheReuse(t *testing.T) {
	r := quickRunner()
	specA := harness.Spec{Workload: workload.LJ, AtomsK: 32, Ranks: 2}
	specB := harness.Spec{Workload: workload.LJ, AtomsK: 864, Ranks: 2, Precision: pair.Double}
	a, err := r.Measure(specA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Measure(specB)
	if err != nil {
		t.Fatal(err)
	}
	// Same engine run reused: identical measured size and steps.
	if a.NMeasured != b.NMeasured {
		t.Errorf("cache miss across sizes: %d vs %d", a.NMeasured, b.NMeasured)
	}
}

// TestMeasureGrowsOnlyTooSmallSubdomains: a decomposition too fine for
// the requested size grows the measured system until it fits; any other
// failure to start is returned as is, not retried as a bigger system —
// here the run recipe's refusal of an unknown workload.
func TestMeasureGrowsOnlyTooSmallSubdomains(t *testing.T) {
	r := harness.NewRunner(harness.Options{MeasureCap: 100, Steps: 2, Warmup: 1})
	m, err := r.Measure(harness.Spec{Workload: workload.LJ, AtomsK: 1, Ranks: 8})
	if err != nil {
		t.Fatalf("too-small sub-domains were not grown: %v", err)
	}
	if m.NMeasured <= 100 {
		t.Errorf("measured %d atoms, want the 100-atom cap grown", m.NMeasured)
	}
	_, err = r.Measure(harness.Spec{Workload: "nope", AtomsK: 1, Ranks: 2})
	if err == nil || !strings.Contains(err.Error(), `unknown workload "nope"`) {
		t.Fatalf("unknown workload: %v, want the recipe's error itself", err)
	}
}

func TestRhodoMeshScaling(t *testing.T) {
	r := quickRunner()
	base, err := r.Measure(harness.Spec{Workload: workload.Rhodo, AtomsK: 32, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := r.Measure(harness.Spec{Workload: workload.Rhodo, AtomsK: 32, Ranks: 2, KspaceAcc: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	gb, gt := base.GridDims(), tight.GridDims()
	if gt[0]*gt[1]*gt[2] <= gb[0]*gb[1]*gb[2] {
		t.Errorf("tighter accuracy must enlarge the target mesh: %v vs %v", gb, gt)
	}
	// And the priced run must be slower.
	if tight.CPU().TSps >= base.CPU().TSps {
		t.Error("tighter accuracy must reduce TS/s")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"headline",
	}
	reg := harness.Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %q want %q", i, reg[i].ID, id)
		}
		if _, ok := harness.Get(id); !ok {
			t.Errorf("Get(%q) failed", id)
		}
	}
	if _, ok := harness.Get("fig99"); ok {
		t.Error("Get of unknown id succeeded")
	}
}

func TestTableRendering(t *testing.T) {
	tab := harness.Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	tab.AddRow("x", 1)
	tab.AddRow(2.5, int64(7))
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "a", "bb", "x", "2.500", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.HasPrefix(csv.String(), "# demo\na,bb\nx,1\n") {
		t.Errorf("csv header: %q", csv.String())
	}
	// Write errors must surface, not vanish into a truncated file.
	if err := tab.WriteCSV(failWriter{}); err == nil {
		t.Error("WriteCSV on a failing writer returned nil")
	}
}

// TestGPUMeasurementPath exercises Measure + the GPU pricing end to end.
func TestGPUMeasurementPath(t *testing.T) {
	r := quickRunner()
	m, err := r.Measure(harness.Spec{Workload: workload.LJ, AtomsK: 32, Ranks: 6})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.GPU(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if out.TSps <= 0 {
		t.Errorf("GPU TS/s %v", out.TSps)
	}
	if len(out.Kernels) != 1 || out.Kernels[0].PairSeconds <= 0 {
		t.Errorf("kernel profile empty: %+v", out.Kernels)
	}
	if out.Kernels[0].PairKernel != "k_lj_fast" {
		t.Errorf("kernel name %q", out.Kernels[0].PairKernel)
	}
	// Chute must be refused.
	mc, err := r.Measure(harness.Spec{Workload: workload.Chute, AtomsK: 32, Ranks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.GPU(1, 6); err == nil {
		t.Error("chute GPU pricing must fail")
	}
}

func TestTable2Experiment(t *testing.T) {
	exp, _ := harness.Get("table2")
	tables, err := exp.Run(quickRunner(), harness.CampaignSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 5 {
		t.Fatalf("table2 shape: %d tables, %d rows", len(tables), len(tables[0].Rows))
	}
}

// TestAblationsRegistered: extension experiments resolve via Get and run
// at reduced fidelity.
func TestAblationsRegistered(t *testing.T) {
	for _, id := range []string{"abl-skin", "abl-order", "abl-gpuranks", "ext-weak", "ext-roofline"} {
		if _, ok := harness.Get(id); !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(harness.FullRegistry()) != len(harness.Registry())+5 {
		t.Error("full registry size")
	}
}

func TestAblSkinShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	exp, _ := harness.Get("abl-skin")
	tables, err := exp.Run(quickRunner(), harness.CampaignSpec{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	// Rebuild interval must grow monotonically with the skin.
	prev := -1.0
	for _, row := range rows {
		v := atofMust(t, row[1])
		if v < prev {
			t.Errorf("rebuild interval not monotone: %v after %v", v, prev)
		}
		prev = v
	}
}

func atofMust(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(s, "%f", &v); err != nil {
		t.Fatalf("bad float %q", s)
	}
	return v
}

func TestChartRendersPercentTables(t *testing.T) {
	tab := harness.Table{
		Title:  "breakdown",
		Header: []string{"Bench", "Pair%", "Comm%"},
	}
	tab.AddRow("lj", "75.0", "25.0")
	var sb strings.Builder
	harness.Chart(&tab, &sb, 40)
	out := sb.String()
	if !strings.Contains(out, "legend:") {
		t.Fatalf("no legend:\n%s", out)
	}
	var barLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "lj ") || strings.HasPrefix(line, "lj|") || strings.HasPrefix(line, "lj") && strings.Contains(line, "|") {
			barLine = line
			break
		}
	}
	hashes := strings.Count(barLine, "#")
	equals := strings.Count(barLine, "=")
	if hashes != 30 || equals != 10 {
		t.Errorf("bar segments %d/%d want 30/10:\n%s", hashes, equals, out)
	}
	// Non-percent tables fall back to plain rendering.
	plain := harness.Table{Title: "t", Header: []string{"a", "b"}}
	plain.AddRow("1", "2")
	var sb2 strings.Builder
	harness.Chart(&plain, &sb2, 40)
	if !strings.Contains(sb2.String(), "==") {
		t.Error("fallback rendering missing")
	}
}
