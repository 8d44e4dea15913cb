package gomd_test

// Benchmark harness: one testing.B per table and figure of the paper.
// Each bench regenerates its experiment at reduced fidelity (small
// measured systems, few steps, trimmed sweeps) so `go test -bench=.`
// finishes in minutes; `cmd/mdbench` runs the same experiments at paper
// scale. Engine-level micro-benchmarks (pair kernels, FFT, neighbor
// builds) live beside their packages.

import (
	"io"
	"testing"

	"gomd/internal/harness"
)

// benchParams trims sweeps for bench time: one small size, few ranks.
var benchParams = harness.CampaignSpec{
	SizesK: []int{32},
	Ranks:  []int{1, 4, 8},
	GPUs:   []int{1, 2},
}

// benchRunner is shared so engine measurements amortize across benches
// and iterations.
var benchRunner = harness.NewRunner(harness.Options{
	MeasureCap: 4000,
	Steps:      6,
	Warmup:     4,
})

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := harness.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(benchRunner, benchParams)
		if err != nil {
			b.Fatal(err)
		}
		for j := range tables {
			tables[j].Render(io.Discard)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }

// BenchmarkHeadline regenerates the §10 anchor table that EXPERIMENTS.md
// records paper-vs-model for.
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, "headline") }
