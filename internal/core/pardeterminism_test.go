package core_test

import (
	"math"
	"testing"

	"gomd/internal/compute"
	"gomd/internal/core"
	"gomd/internal/pair"
	"gomd/internal/workload"
)

// trajectorySig runs a workload for steps and returns the bit pattern of
// every owned atom's tag, position, and velocity, plus the total energy.
func trajectorySig(t *testing.T, name workload.Name, atoms, steps, workers int) ([]uint64, float64) {
	t.Helper()
	cfg, st := workload.MustBuild(name, workload.Options{Atoms: atoms, Seed: 17, Precision: pair.Double})
	cfg.Workers = workers
	s := core.New(cfg, st)
	defer s.Close()
	s.Run(steps)
	sig := make([]uint64, 0, st.N*7)
	for i := 0; i < st.N; i++ {
		p, v := st.Pos[i], st.Vel[i]
		sig = append(sig,
			uint64(st.Tag[i]),
			math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Z),
			math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z))
	}
	return sig, s.ComputeThermo().TotalEnergy
}

// ulpsApart returns the number of representable float64 values between a
// and b (0 = bit-identical).
func ulpsApart(a, b float64) uint64 {
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	if ia < 0 {
		ia = math.MinInt64 - ia
	}
	if ib < 0 {
		ib = math.MinInt64 - ib
	}
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

// TestWorkerDeterminism: the full engine step — neighbor build, pair
// forces, (for rhodo) bonded terms and PPPM — must produce bit-identical
// trajectories for every worker count, and across repeat runs at the
// same worker count. This is the contract that makes -workers a pure
// performance knob: changing it can never change the science.
func TestWorkerDeterminism(t *testing.T) {
	cases := []struct {
		name  workload.Name
		atoms int
		steps int
	}{
		{workload.LJ, 2048, 8},
		{workload.Rhodo, 1000, 6},
		{workload.EAM, 2048, 8},
	}
	for _, tc := range cases {
		ref, refE := trajectorySig(t, tc.name, tc.atoms, tc.steps, 1)
		for _, w := range []int{2, 4, 7} {
			sig, e := trajectorySig(t, tc.name, tc.atoms, tc.steps, w)
			if len(sig) != len(ref) {
				t.Fatalf("%s workers=%d: %d state words vs %d serial", tc.name, w, len(sig), len(ref))
			}
			for k := range sig {
				if sig[k] != ref[k] {
					t.Fatalf("%s workers=%d: state diverges from serial at word %d (atom %d)",
						tc.name, w, k, k/7)
				}
			}
			if u := ulpsApart(e, refE); u > 1 {
				t.Errorf("%s workers=%d: total energy %v vs serial %v (%d ulps)", tc.name, w, e, refE, u)
			}
		}
		// Repeatability at a fixed parallel width (no run-to-run races).
		a, aE := trajectorySig(t, tc.name, tc.atoms, tc.steps, 4)
		b, bE := trajectorySig(t, tc.name, tc.atoms, tc.steps, 4)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("%s: repeat runs at workers=4 diverge at word %d", tc.name, k)
			}
		}
		if aE != bE {
			t.Errorf("%s: repeat-run energy %v vs %v", tc.name, aE, bE)
		}
	}
}

// TestPhysicsInvariantsParallel: with the parallel kernels active the
// conservative workloads must still hold total energy (same bounds as
// the serial TestEnergyConservationNVE) and conserve net momentum.
func TestPhysicsInvariantsParallel(t *testing.T) {
	cases := []struct {
		name  workload.Name
		atoms int
		tol   float64 // E/atom over 200 steps
	}{
		{workload.LJ, 2048, 0.02},
		{workload.EAM, 2048, 0.002},
	}
	for _, tc := range cases {
		cfg, st := workload.MustBuild(tc.name, workload.Options{Atoms: tc.atoms, Seed: 13, Precision: pair.Double})
		cfg.Workers = 4
		s := core.New(cfg, st)
		s.Run(10) // settle
		a := s.ComputeThermo()
		s.Run(200)
		b := s.ComputeThermo()
		drift := math.Abs(b.TotalEnergy-a.TotalEnergy) / float64(st.N)
		if drift > tc.tol {
			t.Errorf("%s workers=4: energy drift %v exceeds %v", tc.name, drift, tc.tol)
		}
		if p := compute.Momentum(st, cfg.Mass); p.Norm() > 1e-8 {
			t.Errorf("%s workers=4: net momentum %v after 210 steps", tc.name, p)
		}
		s.Close()
	}
}
