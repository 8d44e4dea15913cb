package domain_test

import (
	"math"
	"runtime"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/workload"
)

// The 2-rank channel-world counterpart of core's TestTrajectoryGolden:
// thermo bits after 40 steps at seed 2022 — the LJ row recorded on the
// commit before the neighbour list went flat, the rhodo row on the commit
// that tabulated the real-space Coulomb term (DESIGN.md "Rhodopsin
// kernels"). Decomposition changes summation order, so the bits differ
// from the serial backend's.
var goldenThermo2 = map[workload.Name][3]uint64{
	workload.LJ:    {0x3fe7aaabda9fe662, 0xc0d66227b3c4b120, 0xc0d20d0e7c2039b0},
	workload.Rhodo: {0x407de280aec98283, 0xc0a671a331cbeba4, 0xc08567f242001b80},
}

// exactKernelThermo2 is the rhodo row as it stood while the pair kernel
// called erfc and exp for every pair: the tabulated kernel's trajectory
// must stay this close to it.
var exactKernelThermo2 = [3]uint64{0x407de280aec985af, 0xc0a671a331cd4ce4, 0xc08567f242059940}

func TestTrajectoryGolden2Ranks(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64 (no fused multiply-add)")
	}
	atoms := map[workload.Name]int{workload.LJ: 4000, workload.Rhodo: 1500}
	for name, want := range goldenThermo2 {
		for _, workers := range []int{1, 2} {
			eng, err := domain.New(func() (core.Config, *atom.Store, error) {
				cfg, st, err := workload.Build(name, workload.Options{Atoms: atoms[name], Seed: 2022})
				cfg.Workers = workers
				return cfg, st, err
			}, 2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			eng.Run(40)
			th := eng.Thermo()
			eng.Close()
			got := [3]uint64{
				math.Float64bits(th.Temperature),
				math.Float64bits(th.PotEnergy),
				math.Float64bits(th.TotalEnergy),
			}
			if got != want {
				t.Errorf("%s workers=%d: T/PE/E bits %#x, want %#x", name, workers, got, want)
			}
			if name != workload.Rhodo {
				continue
			}
			for i, v := range [3]float64{th.Temperature, th.PotEnergy, th.TotalEnergy} {
				exact := math.Float64frombits(exactKernelThermo2[i])
				if math.Abs(v-exact) > 1e-8*math.Abs(exact) {
					t.Errorf("rhodo workers=%d: T/PE/E[%d] = %v, the exact kernel gave %v: limit 1e-8 relative", workers, i, v, exact)
				}
			}
		}
	}
}
