package serve

import (
	"testing"

	"gomd/internal/atom"
)

// TestAdmissionDecisions is the table-driven policy check: structural
// refusals are 400s, capacity refusals 429s with a Retry-After hint.
func TestAdmissionDecisions(t *testing.T) {
	wl := func(ranks, workers int) *JobSpec {
		return &JobSpec{Workload: "lj", Steps: 10, Ranks: ranks, Workers: workers}
	}
	cases := []struct {
		name          string
		limits        Limits
		spec          *JobSpec
		pending       int
		tenantPending int
		wantCode      int // 0 = admitted
	}{
		{"unlimited", Limits{}, wl(16, 8), 1000, 1000, 0},
		{"fits-everything", Limits{MaxQueue: 10, MaxQueuePerTenant: 5, SlotBudget: 8, MaxSlotsPerTenant: 8, MaxSlotsPerJob: 8}, wl(2, 2), 0, 0, 0},
		{"job-over-per-job-cap", Limits{MaxSlotsPerJob: 4}, wl(4, 2), 0, 0, 400},
		{"job-over-budget", Limits{SlotBudget: 4}, wl(8, 1), 0, 0, 400},
		{"job-over-tenant-slots", Limits{MaxSlotsPerTenant: 2}, wl(4, 1), 0, 0, 400},
		{"queue-full", Limits{MaxQueue: 3}, wl(1, 1), 3, 0, 429},
		{"queue-has-room", Limits{MaxQueue: 3}, wl(1, 1), 2, 0, 0},
		{"tenant-queue-full", Limits{MaxQueuePerTenant: 2}, wl(1, 1), 5, 2, 429},
		{"tenant-queue-has-room", Limits{MaxQueuePerTenant: 2}, wl(1, 1), 5, 1, 0},
		{"script-costs-one-slot", Limits{MaxSlotsPerJob: 1}, &JobSpec{Script: "run 1\n", Ranks: 8}, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rej := tc.limits.admit(tc.spec, tc.pending, tc.tenantPending)
			switch {
			case tc.wantCode == 0 && rej != nil:
				t.Fatalf("rejected: %d %s", rej.Code, rej.Reason)
			case tc.wantCode != 0 && rej == nil:
				t.Fatalf("admitted, want %d", tc.wantCode)
			case tc.wantCode != 0 && rej.Code != tc.wantCode:
				t.Fatalf("code %d (%s), want %d", rej.Code, rej.Reason, tc.wantCode)
			}
			if rej != nil && rej.Code == 429 && rej.RetryAfter <= 0 {
				t.Fatalf("429 without a Retry-After hint: %+v", rej)
			}
		})
	}
}

// TestSchedulingFits checks the run-now decision against global and
// per-tenant slot headroom.
func TestSchedulingFits(t *testing.T) {
	spec := &JobSpec{Workload: "lj", Steps: 10, Ranks: 2, Workers: 2} // 4 slots
	cases := []struct {
		name        string
		limits      Limits
		used        int
		tenantSlots int
		want        bool
	}{
		{"unlimited", Limits{}, 1 << 20, 1 << 20, true},
		{"fits-exactly", Limits{SlotBudget: 8}, 4, 0, true},
		{"over-budget", Limits{SlotBudget: 8}, 5, 0, false},
		{"tenant-fits-exactly", Limits{MaxSlotsPerTenant: 8}, 0, 4, true},
		{"tenant-over", Limits{MaxSlotsPerTenant: 8}, 0, 5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.limits.fits(spec, tc.used, tc.tenantSlots); got != tc.want {
				t.Fatalf("fits = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSpecNormalize covers admission-time validation.
func TestSpecNormalize(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"workload-ok", JobSpec{Workload: "lj", Steps: 10}, true},
		{"script-ok", JobSpec{Script: "units lj\nlattice fcc 0.8442\nregion box block 0 2 0 2 0 2\ncreate_box 1 box\n" +
			"create_atoms 1 box\npair_style lj/cut 2.5\npair_coeff * * 1.0 1.0\nfix 1 all nve\ntimestep 0.005\nrun 10\n"}, true},
		{"neither", JobSpec{}, false},
		{"both", JobSpec{Workload: "lj", Steps: 10, Script: "run 1\n"}, false},
		{"unknown-workload", JobSpec{Workload: "nope", Steps: 10}, false},
		{"no-steps", JobSpec{Workload: "lj"}, false},
		{"bad-precision", JobSpec{Workload: "lj", Steps: 10, Precision: "quad"}, false},
		{"bad-fault", JobSpec{Workload: "lj", Steps: 10, Fault: "zap:rank=1"}, false},
		{"script-unknown-command", JobSpec{Script: "explode everything\nrun 5\n"}, false},
		{"script-no-run", JobSpec{Script: "timestep 0.005\n"}, false},
		{"script-bare-thermo", JobSpec{Script: "thermo\nrun 1\n"}, false},
		{"atoms-at-limit", JobSpec{Workload: "lj", Steps: 1, Atoms: atom.MaxAtoms}, true},
		{"atoms-over-limit", JobSpec{Workload: "lj", Steps: 1, Atoms: 1 << 40}, false},
		{"atoms-negative", JobSpec{Workload: "lj", Steps: 1, Atoms: -5}, false},
		{"steps-negative", JobSpec{Workload: "lj", Steps: -5}, false},
		{"ranks-negative", JobSpec{Workload: "lj", Steps: 1, Ranks: -1}, false},
		{"workers-negative", JobSpec{Workload: "lj", Steps: 1, Workers: -1}, false},
		{"thermo-every-negative", JobSpec{Workload: "lj", Steps: 1, ThermoEvery: -1}, false},
		{"checkpoint-every-negative", JobSpec{Workload: "lj", Steps: 1, CheckpointEvery: -1}, false},
		{"keep-checkpoints-negative", JobSpec{Workload: "lj", Steps: 1, KeepCheckpoints: -1}, false},
		{"retries-negative", JobSpec{Workload: "lj", Steps: 1, Retries: -1}, false},
		{"zeros-take-defaults", JobSpec{Workload: "lj", Steps: 1, Ranks: 0, Workers: 0, ThermoEvery: 0, KeepCheckpoints: 0, Retries: 0}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.normalize()
			if tc.ok && err != nil {
				t.Fatalf("normalize: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("normalize accepted an invalid spec")
			}
		})
	}
	// Defaults land.
	spec := JobSpec{Workload: "lj", Steps: 10}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	if spec.Tenant != "default" || spec.Ranks != 1 || spec.Workers != 1 || spec.Atoms != 4000 || spec.Seed != 42 ||
		spec.ThermoEvery != 10 || spec.KeepCheckpoints != 2 {
		t.Fatalf("defaults not applied: %+v", spec)
	}
}
