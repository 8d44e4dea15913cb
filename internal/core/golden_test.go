package core_test

import (
	"math"
	"runtime"
	"testing"

	"gomd/internal/core"
	"gomd/internal/workload"
)

// goldenThermo is the bit pattern of temperature, potential energy and
// total energy after 40 steps at seed 2022. The LJ row was recorded on
// the commit before the neighbour list went flat (see DESIGN.md
// "Neighbour list layout and two-pass row kernels"); the rhodo row on the
// commit that tabulated the real-space Coulomb term and rewrote the FFT
// butterflies (DESIGN.md "Rhodopsin kernels"). A kernel or list change
// that reorders one floating-point sum moves these bits;
// bench/golden.json (1e-6 relative) would not notice.
var goldenThermo = map[workload.Name][3]uint64{
	workload.LJ:    {0x3fe7aaabda9fe65b, 0xc0d66227b3c4b120, 0xc0d20d0e7c2039b2},
	workload.Rhodo: {0x407de280aec98270, 0xc0a671a331cbeb48, 0xc08567f242001a3c},
}

// exactKernelThermo is the rhodo row as it stood while lj/charmm/coul/long
// called erfc and exp for every pair. The tabulated kernel is not that
// trajectory bit for bit; it must stay this close to it.
var exactKernelThermo = [3]uint64{0x407de280aec985b9, 0xc0a671a331cd4c48, 0xc08567f2420596b8}

func TestTrajectoryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits recorded on amd64 (no fused multiply-add)")
	}
	atoms := map[workload.Name]int{workload.LJ: 4000, workload.Rhodo: 1500}
	for name, want := range goldenThermo {
		for _, workers := range []int{1, 2} {
			cfg, st := workload.MustBuild(name, workload.Options{Atoms: atoms[name], Seed: 2022})
			cfg.Workers = workers
			s := core.New(cfg, st)
			s.Run(40)
			th := s.ComputeThermo()
			s.Close()
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
				exact := math.Float64frombits(exactKernelThermo[i])
				if math.Abs(v-exact) > 1e-8*math.Abs(exact) {
					t.Errorf("rhodo workers=%d: T/PE/E[%d] = %v, the exact kernel gave %v: limit 1e-8 relative", workers, i, v, exact)
				}
			}
		}
	}
}
