// Protein-like system: run the Rhodopsin surrogate — a dense charged
// molecular system with CHARMM pairwise forces, PPPM long-range
// electrostatics, SHAKE-constrained hydrogens, and NPT integration —
// and verify the machinery end to end: constraint residuals, temperature
// control, and the PPPM error-threshold sensitivity of §7.
package main

import (
	"fmt"
	"math"
	"os"

	"gomd/internal/core"
	"gomd/internal/kspace"
	"gomd/internal/workload"
)

func main() {
	cfg, st, err := workload.Build(workload.Rhodo, workload.Options{
		Atoms: 1500,
		Seed:  11,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sim := core.New(cfg, st)
	pppm := cfg.Kspace.(*kspace.PPPM)
	nx, ny, nz := pppm.Mesh()
	fmt.Printf("rhodo surrogate: %d atoms (%d molecules), PPPM mesh %dx%dx%d, g_ewald=%.3f\n",
		st.N, st.N/3, nx, ny, nz, pppm.GEwald())

	fmt.Printf("%8s %10s %14s %16s\n", "step", "T [K]", "PE [kcal/mol]", "max OH residual")
	for block := 0; block < 5; block++ {
		sim.Run(20)
		th := sim.ComputeThermo()
		fmt.Printf("%8d %10.2f %14.2f %16.2e\n",
			sim.Step, th.Temperature, th.PotEnergy, worstConstraint(sim))
	}

	// The Section 7 mechanism in miniature: tightening the error
	// threshold grows the mesh (and the k-space work with it).
	fmt.Println("\nPPPM mesh vs error threshold (the Section 7 knob):")
	l := cfg.Box.Lengths()
	q2 := 0.0
	for i := 0; i < st.N; i++ {
		q2 += st.Charge[i] * st.Charge[i]
	}
	for _, acc := range []float64{1e-4, 1e-5, 1e-6, 1e-7} {
		gx, gy, gz, err := kspace.MeshFor(acc, 10, l.X, l.Y, l.Z, st.N, q2, cfg.Units.QQr2E, pppm.Order)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %.0e -> %3dx%3dx%3d (%8d points)\n", acc, gx, gy, gz, gx*gy*gz)
	}
}

// worstConstraint returns the largest O-H bond-length violation.
func worstConstraint(sim *core.Simulation) float64 {
	st := sim.Store
	worst := 0.0
	for i := 0; i < st.N; i++ {
		for _, b := range st.Bonds[i] {
			j := st.MustLookup(b.Partner)
			d := sim.Box.MinImage(st.Pos[i].Sub(st.Pos[j])).Norm()
			if e := math.Abs(d - 1.0); e > worst {
				worst = e
			}
		}
	}
	return worst
}
