package workload_test

import (
	"math"
	"testing"

	"gomd/internal/compute"
	"gomd/internal/core"
	"gomd/internal/units"
	"gomd/internal/workload"
)

func TestSuiteRoster(t *testing.T) {
	all := workload.All()
	if len(all) != 5 {
		t.Fatalf("suite size %d", len(all))
	}
	want := []workload.Name{workload.Rhodo, workload.LJ, workload.Chain, workload.EAM, workload.Chute}
	for i, n := range want {
		if all[i] != n {
			t.Errorf("suite[%d] = %v want %v", i, all[i], n)
		}
	}
	if s := workload.Sizes(); len(s) != 4 || s[0] != 32 || s[3] != 2048 {
		t.Errorf("sizes %v", s)
	}
}

func TestDescriptorsMatchPaperTable2(t *testing.T) {
	d := workload.Describe(workload.Rhodo)
	if d.NeighPerAtom != 440 || d.KspaceStyle != "pppm" || d.KspaceError != 1e-4 ||
		d.Integration != "NPT" || d.PairModify != "mix arithmetic" {
		t.Errorf("rhodo descriptor: %+v", d)
	}
	if !workload.Describe(workload.LJ).GPUSupported {
		t.Error("lj must be GPU-supported")
	}
	if workload.Describe(workload.Chute).GPUSupported {
		t.Error("chute must not be GPU-supported (gran/hooke has no kernel)")
	}
	for _, n := range workload.All() {
		if workload.Describe(n).MinAtoms != 32000 {
			t.Errorf("%v min atoms", n)
		}
	}
}

// TestBuildSizes: builders round to realizable counts near the request.
func TestBuildSizes(t *testing.T) {
	for _, n := range workload.All() {
		_, st, err := workload.Build(n, workload.Options{Atoms: 4000, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", n, err)
		}
		if st.N < 3200 || st.N > 5500 {
			t.Errorf("%v: %d atoms for a 4000 request", n, st.N)
		}
	}
}

// TestBuildDeterministic: same options, same system.
func TestBuildDeterministic(t *testing.T) {
	for _, n := range workload.All() {
		_, a, _ := workload.Build(n, workload.Options{Atoms: 1200, Seed: 5})
		_, b, _ := workload.Build(n, workload.Options{Atoms: 1200, Seed: 5})
		if a.N != b.N {
			t.Fatalf("%v: %d vs %d atoms", n, a.N, b.N)
		}
		for i := 0; i < a.N; i++ {
			if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
				t.Fatalf("%v: atom %d differs between identical builds", n, i)
			}
		}
	}
}

// TestInitialTemperatures: velocity initialization hits each benchmark's
// target temperature.
func TestInitialTemperatures(t *testing.T) {
	cases := []struct {
		name workload.Name
		want float64
	}{
		{workload.LJ, 1.44},
		{workload.Chain, 1.0},
		{workload.EAM, 1600},
		{workload.Rhodo, 300},
	}
	for _, tc := range cases {
		cfg, st := workload.MustBuild(tc.name, workload.Options{Atoms: 3000, Seed: 8})
		ke := compute.KineticEnergy(st, cfg.Mass, cfg.Units)
		T := compute.Temperature(ke, st.N, cfg.Units)
		if math.Abs(T-tc.want) > 0.01*tc.want {
			t.Errorf("%v: initial T %v want %v", tc.name, T, tc.want)
		}
	}
}

// TestRhodoNeutral: the charged system must have zero net charge (PPPM
// assumes neutrality).
func TestRhodoNeutral(t *testing.T) {
	_, st := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 900, Seed: 2})
	var q float64
	for i := 0; i < st.N; i++ {
		q += st.Charge[i]
	}
	if math.Abs(q) > 1e-9 {
		t.Errorf("net charge %v", q)
	}
	if st.N%3 != 0 {
		t.Errorf("rhodo atom count %d not whole molecules", st.N)
	}
}

// TestUnitsPerWorkload: unit styles follow the bench inputs.
func TestUnitsPerWorkload(t *testing.T) {
	styles := map[workload.Name]units.Style{
		workload.Rhodo: units.Real,
		workload.LJ:    units.LJ,
		workload.Chain: units.LJ,
		workload.EAM:   units.Metal,
		workload.Chute: units.LJ,
	}
	for n, style := range styles {
		cfg, _ := workload.MustBuild(n, workload.Options{Atoms: 500, Seed: 1})
		if cfg.Units.Style != style {
			t.Errorf("%v units %v want %v", n, cfg.Units.Style, style)
		}
	}
}

// TestUnknownWorkload errors cleanly.
func TestUnknownWorkload(t *testing.T) {
	if _, _, err := workload.Build("nope", workload.Options{}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := workload.Parse("nope"); err == nil || err.Error() != `unknown workload "nope" (want one of [rhodo lj chain eam chute])` {
		t.Errorf("Parse(nope): %v", err)
	}
	for _, n := range workload.All() {
		if got, err := workload.Parse(string(n)); err != nil || got != n {
			t.Errorf("Parse(%q) = %v, %v", n, got, err)
		}
	}
}

// TestFreshStylesPerBuild: two builds must not share mutable style state
// (domain decomposition depends on this).
func TestFreshStylesPerBuild(t *testing.T) {
	cfgA, _, _ := workload.Build(workload.Chute, workload.Options{Atoms: 600, Seed: 3})
	cfgB, _, _ := workload.Build(workload.Chute, workload.Options{Atoms: 600, Seed: 3})
	if cfgA.Pair == cfgB.Pair {
		t.Error("pair style shared between builds")
	}
	if len(cfgA.Fixes) == 0 || &cfgA.Fixes[0] == &cfgB.Fixes[0] {
		t.Error("fixes shared between builds")
	}
	rA, _, _ := workload.Build(workload.Rhodo, workload.Options{Atoms: 300, Seed: 3})
	rB, _, _ := workload.Build(workload.Rhodo, workload.Options{Atoms: 300, Seed: 3})
	if rA.Kspace == rB.Kspace {
		t.Error("kspace solver shared between builds")
	}
}

// TestChuteNonPeriodicZ and wall protection: no grain below the floor
// after dynamics.
func TestChuteFloor(t *testing.T) {
	cfg, st := workload.MustBuild(workload.Chute, workload.Options{Atoms: 800, Seed: 4})
	if cfg.Box.Periodic[2] {
		t.Fatal("chute box periodic in z")
	}
	s := core.New(cfg, st)
	s.Run(1500)
	for i := 0; i < st.N; i++ {
		if st.Pos[i].Z < -0.6 {
			t.Fatalf("grain %d fell through the floor: z=%v", i, st.Pos[i].Z)
		}
	}
}
