package core_test

import (
	"errors"
	"strings"
	"testing"

	"gomd/internal/core"
	"gomd/internal/fault"
	"gomd/internal/workload"
)

// TestGuardrailNaNForce: an injected NaN force component must trip the
// guardrail on the right rank and step, naming the poisoned atom.
func TestGuardrailNaNForce(t *testing.T) {
	cfg, st := workload.MustBuild(workload.LJ, workload.Options{Atoms: 256, Seed: 3})
	inj, err := fault.Parse("nan:rank=0,step=5,atom=7,comp=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = inj
	cfg.CheckEvery = 1
	sim := core.New(cfg, st)
	runErr := sim.RunChecked(20)
	if runErr == nil {
		t.Fatal("guardrail should have fired")
	}
	var se *core.SimError
	if !errors.As(runErr, &se) {
		t.Fatalf("error type %T, want *core.SimError: %v", runErr, runErr)
	}
	if se.Kind != core.ErrNaNForce {
		t.Fatalf("kind = %q, want %q", se.Kind, core.ErrNaNForce)
	}
	if se.Rank != 0 || se.Step != 5 {
		t.Fatalf("fired at rank %d step %d, want rank 0 step 5", se.Rank, se.Step)
	}
	if se.AtomTag == 0 {
		t.Fatal("SimError should name the poisoned atom")
	}
	for _, want := range []string{"nan-force", "rank 0", "step 5"} {
		if !strings.Contains(runErr.Error(), want) {
			t.Fatalf("error text %q missing %q", runErr.Error(), want)
		}
	}
	if sim.Step != 5 {
		t.Fatalf("simulation stopped at step %d, want 5", sim.Step)
	}
}

// TestGuardrailCleanRun: guardrails on a healthy run must stay silent
// and cost nothing observable.
func TestGuardrailCleanRun(t *testing.T) {
	cfg, st := workload.MustBuild(workload.LJ, workload.Options{Atoms: 256, Seed: 3})
	cfg.CheckEvery = 1
	sim := core.New(cfg, st)
	if err := sim.RunChecked(10); err != nil {
		t.Fatalf("clean run tripped guardrail: %v", err)
	}
	if sim.Step != 10 {
		t.Fatalf("stopped at step %d, want 10", sim.Step)
	}
}

// TestGuardrailKilledRank: an injected kill surfaces as *fault.Killed
// through RunChecked on the serial engine.
func TestGuardrailKilledRank(t *testing.T) {
	cfg, st := workload.MustBuild(workload.LJ, workload.Options{Atoms: 256, Seed: 3})
	inj, err := fault.Parse("kill:rank=0,step=4", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = inj
	sim := core.New(cfg, st)
	runErr := sim.RunChecked(10)
	var k *fault.Killed
	if !errors.As(runErr, &k) {
		t.Fatalf("error = %v, want *fault.Killed", runErr)
	}
	if k.Rank != 0 || k.Step != 4 {
		t.Fatalf("killed rank %d step %d, want rank 0 step 4", k.Rank, k.Step)
	}
}

// TestGuardrailInjectedHangSerial: the serial engine has no watchdog to
// recover a parked rank, so a hang fault must fail fast with a typed
// SimError instead of deadlocking the process.
func TestGuardrailInjectedHangSerial(t *testing.T) {
	cfg, st := workload.MustBuild(workload.LJ, workload.Options{Atoms: 256, Seed: 3})
	inj, err := fault.Parse("hang:rank=0,step=4", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = inj
	sim := core.New(cfg, st)
	runErr := sim.RunChecked(10)
	var se *core.SimError
	if !errors.As(runErr, &se) {
		t.Fatalf("error = %v, want *core.SimError", runErr)
	}
	if se.Kind != core.ErrHangInjected {
		t.Fatalf("kind = %q, want %q", se.Kind, core.ErrHangInjected)
	}
	if se.Rank != 0 || se.Step != 4 {
		t.Fatalf("hang refused at rank %d step %d, want rank 0 step 4", se.Rank, se.Step)
	}
	if !strings.Contains(se.Error(), "decomposed") {
		t.Errorf("error should point at decomposed runs: %v", se)
	}
}

// TestGuardrailTooManyBins: a box stretched to 1e7 σ along x, as a
// runaway barostat would leave it, puts periodic images 1e7 σ apart; the
// neighbor list refuses the bin grid that span needs and the run fails
// with a too-many-bins SimError instead of running the host out of
// memory.
func TestGuardrailTooManyBins(t *testing.T) {
	cfg, st := workload.MustBuild(workload.LJ, workload.Options{Atoms: 256, Seed: 3})
	cfg.Box.Hi.X = cfg.Box.Lo.X + 1e7
	sim := core.New(cfg, st)
	runErr := sim.RunChecked(5)
	var se *core.SimError
	if !errors.As(runErr, &se) {
		t.Fatalf("RunChecked = %v (%T), want a *core.SimError", runErr, runErr)
	}
	if se.Kind != core.ErrTooManyBins || se.Step != 0 {
		t.Fatalf("SimError = %+v, want kind %q at step 0", se, core.ErrTooManyBins)
	}
	for _, want := range []string{"too-many-bins", "cells, over the limit"} {
		if !strings.Contains(runErr.Error(), want) {
			t.Errorf("error text %q missing %q", runErr.Error(), want)
		}
	}
}
