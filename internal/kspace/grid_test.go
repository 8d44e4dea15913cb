package kspace_test

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"gomd/internal/box"
	"gomd/internal/kspace"
	"gomd/internal/neighbor"
	"gomd/internal/vec"
	"gomd/internal/workload"
)

// TestMeshForRefusesUnreachableAccuracy: an accuracy no mesh up to
// MaxMeshDim per dimension meets is a *GridError. Before, the search
// stopped at 1<<14 per axis and returned that mesh unchecked, which the
// model priced (0 TS/s) and PPPM.Setup allocated (out of memory).
func TestMeshForRefusesUnreachableAccuracy(t *testing.T) {
	for _, tc := range []struct {
		acc   float64
		order int
	}{
		{1e-300, 5}, {-1, 5}, {0, 5}, {math.NaN(), 5}, {1e-4, 9},
	} {
		nx, ny, nz, err := kspace.MeshFor(tc.acc, 10, 70, 70, 70, 32000, 11500, 332.06371, tc.order)
		var ge *kspace.GridError
		if !errors.As(err, &ge) {
			t.Errorf("MeshFor(%g, order %d) = %dx%dx%d, %v; want a *GridError", tc.acc, tc.order, nx, ny, nz, err)
		}
	}
	for _, order := range []int{3, 5, 7} {
		if _, _, _, err := kspace.MeshFor(1e-4, 10, 70, 70, 70, 32000, 11500, 332.06371, order); err != nil {
			t.Errorf("order %d at 1e-4: %v", order, err)
		}
	}
}

// setupAllocs runs setup and returns the bytes it allocated and its error.
func setupAllocs(setup func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := setup()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestSetupRefusesHugeGrid: PPPM at 1e-300 on the rhodo system and an
// Ewald k-vector cube over neighbor.MaxBins cells fail with a
// *GridError, having allocated almost nothing; the same solvers at a
// sane accuracy set up as before.
func TestSetupRefusesHugeGrid(t *testing.T) {
	cfg, st := workload.MustBuild(workload.Rhodo, workload.Options{Atoms: 4000, Seed: 2022, KspaceAccuracy: 1e-300})
	pp := cfg.Kspace.(*kspace.PPPM)
	alloc, err := setupAllocs(func() error { return pp.Setup(cfg.Box, st.N, q2sum(st), cfg.Units.QQr2E) })
	var ge *kspace.GridError
	if !errors.As(err, &ge) || ge.Solver != "pppm" {
		t.Errorf("PPPM Setup at 1e-300 = %v, want a pppm *GridError", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("refused PPPM Setup allocated %d bytes, want < 1 MiB", alloc)
	}
	pp.Accuracy = 1e-4
	if err := pp.Setup(cfg.Box, st.N, q2sum(st), cfg.Units.QQr2E); err != nil {
		t.Errorf("PPPM Setup at 1e-4: %v", err)
	}

	bx := box.NewPeriodic(vec.V3{}, vec.Splat(30))
	ew := kspace.NewEwald(1e-300, 4.0)
	alloc, err = setupAllocs(func() error { return ew.Setup(bx, 2, 2, 1.0) })
	if !errors.As(err, &ge) || ge.Solver != "ewald" || ge.Cells <= neighbor.MaxBins {
		t.Errorf("Ewald Setup at 1e-300 = %v, want an ewald *GridError over %d cells", err, neighbor.MaxBins)
	}
	if alloc >= 1<<20 {
		t.Errorf("refused Ewald Setup allocated %d bytes, want < 1 MiB", alloc)
	}
	ew.Accuracy = 1e-5
	if err := ew.Setup(bx, 2, 2, 1.0); err != nil {
		t.Errorf("Ewald Setup at 1e-5: %v", err)
	}
}
