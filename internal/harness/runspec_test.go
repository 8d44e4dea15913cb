package harness_test

import (
	"math"
	"strings"
	"testing"

	"gomd/internal/harness"
	"gomd/internal/obs"
)

// TestRunSpecValidate: one row per field of the rule, each refused with
// a message naming the field and value; zero, where a default exists,
// passes.
func TestRunSpecValidate(t *testing.T) {
	ok := harness.RunSpec{Workload: "lj", Steps: 1, Ranks: 1}
	for _, tc := range []struct {
		name string
		edit func(*harness.RunSpec)
		want string // "" = valid
	}{
		{"minimal", func(*harness.RunSpec) {}, ""},
		{"every-field-set", func(r *harness.RunSpec) {
			*r = harness.RunSpec{Workload: "rhodo", Atoms: 3000, Steps: 10, Ranks: 2, Workers: 2, Seed: 7,
				Precision: "mixed", KspaceAcc: 1e-5, Thermo: 5, CheckEvery: 2, CheckpointEvery: 5,
				KeepCheckpoints: 2, Retries: 1, Fault: "kill:rank=1,step=3"}
		}, ""},
		{"unknown-workload", func(r *harness.RunSpec) { r.Workload = "nope" }, `unknown workload "nope"`},
		{"unknown-precision", func(r *harness.RunSpec) { r.Precision = "quad" }, `unknown precision "quad"`},
		{"malformed-fault", func(r *harness.RunSpec) { r.Fault = "zap:rank=1" }, "zap"},
		{"ranks-zero", func(r *harness.RunSpec) { r.Ranks = 0 }, "harness: ranks 0 is below 1"},
		{"steps-zero", func(r *harness.RunSpec) { r.Steps = 0 }, "harness: steps 0 is below 1"},
		{"atoms-negative", func(r *harness.RunSpec) { r.Atoms = -5 }, "harness: atoms -5 is negative"},
		{"atoms-too-many", func(r *harness.RunSpec) { r.Atoms = 1 << 40 }, "harness: atoms 1099511627776 is above 2048000"},
		{"workers-negative", func(r *harness.RunSpec) { r.Workers = -1 }, "harness: workers -1 is negative"},
		{"thermo-negative", func(r *harness.RunSpec) { r.Thermo = -1 }, "harness: thermo -1 is negative"},
		{"check-every-negative", func(r *harness.RunSpec) { r.CheckEvery = -1 }, "harness: check every -1 is negative"},
		{"checkpoint-every-negative", func(r *harness.RunSpec) { r.CheckpointEvery = -1 }, "harness: checkpoint every -1 is negative"},
		{"keep-checkpoints-negative", func(r *harness.RunSpec) { r.KeepCheckpoints = -1 }, "harness: keep checkpoints -1 is negative"},
		{"retries-negative", func(r *harness.RunSpec) { r.Retries = -1 }, "harness: retries -1 is negative"},
		{"kspace-acc-nan", func(r *harness.RunSpec) { r.KspaceAcc = math.NaN() }, "kspace accuracy NaN is not in (0, 1)"},
		{"kspace-acc-one", func(r *harness.RunSpec) { r.KspaceAcc = 1 }, "kspace accuracy 1 is not in (0, 1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := ok
			tc.edit(&r)
			err := r.Validate()
			if _, serr := r.Supervisor(); (serr == nil) != (err == nil) {
				t.Fatalf("Validate says %v, Supervisor says %v", err, serr)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Validate: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Validate: %v, want %q", err, tc.want)
			}
		})
	}
}

// TestRunSpecSupervisor: the constructor fills the recipe's fields and
// leaves deployment to the caller; the observability the caller deploys
// reaches every rank's config through the Supervisor alone.
func TestRunSpecSupervisor(t *testing.T) {
	r := harness.RunSpec{Workload: "lj", Atoms: 256, Steps: 10, Ranks: 2, Workers: 2, CheckEvery: 3,
		CheckpointEvery: 5, KeepCheckpoints: 3, Retries: 4, Fault: "kill:rank=1,step=7"}
	sup, err := r.Supervisor()
	if err != nil {
		t.Fatal(err)
	}
	if sup.Ranks != 2 || sup.CheckpointEvery != 5 || sup.KeepCheckpoints != 3 || sup.Retries != 4 {
		t.Fatalf("recipe fields: %+v", sup)
	}
	if sup.CheckpointPath != "" || sup.WorldBuilder != nil || sup.HangTimeout != 0 ||
		sup.Metrics != nil || sup.Tracer != nil || sup.Trace != nil || sup.FlightPath != "" {
		t.Fatalf("deployment fields set: %+v", sup)
	}
	cfg, st, err := sup.Factory()
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 256 || cfg.Workers != 2 || cfg.CheckEvery != 3 || cfg.ThermoTo != nil || cfg.Fault == nil {
		t.Fatalf("factory config: %d atoms, workers %d, check-every %d, thermo to %v, fault %v",
			st.N, cfg.Workers, cfg.CheckEvery, cfg.ThermoTo, cfg.Fault)
	}

	sup.Tracer, sup.Metrics = obs.NewTracer(r.Ranks), obs.NewRegistry()
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	for rank, sim := range sup.Engine().Sims {
		if sim.Cfg.Trace != sup.Tracer || sim.Cfg.Metrics != sup.Metrics {
			t.Errorf("rank %d: config carries tracer %p and registry %p, the Supervisor %p and %p",
				rank, sim.Cfg.Trace, sim.Cfg.Metrics, sup.Tracer, sup.Metrics)
		}
	}
}
