package kspace

import (
	"fmt"
	"math"

	"gomd/internal/neighbor"
)

// acons are the Deserno-Holm coefficients of the PPPM ik-differentiation
// RMS force-error estimate, indexed [order][m] (J. Chem. Phys. 109, 7678
// (1998), as tabulated in LAMMPS pppm.cpp).
var acons = map[int][]float64{
	1: {2.0 / 3.0},
	2: {1.0 / 50.0, 5.0 / 294.0},
	3: {1.0 / 588.0, 7.0 / 1440.0, 21.0 / 3872.0},
	4: {1.0 / 4320.0, 3.0 / 1936.0, 7601.0 / 2271360.0, 143.0 / 28800.0},
	5: {1.0 / 23232.0, 7601.0 / 13628160.0, 143.0 / 69120.0,
		517231.0 / 106536960.0, 106640677.0 / 11737571328.0},
	6: {691.0 / 68140800.0, 13.0 / 57600.0, 47021.0 / 35512320.0,
		9694607.0 / 2095994880.0, 733191589.0 / 59609088000.0,
		326190917.0 / 11700633600.0},
	7: {1.0 / 345600.0, 3617.0 / 35512320.0, 745739.0 / 838397952.0,
		56399353.0 / 12773376000.0, 25091609.0 / 1560084480.0,
		1755948832039.0 / 36229939200000.0, 4887769399.0 / 37838389248.0},
}

// EstimateIKError returns the estimated RMS force error of PPPM with
// ik differentiation for mesh spacing h along a dimension of extent prd,
// splitting parameter g, assignment order, atom count, and q2 =
// qqr2e * sum(q_i^2).
func EstimateIKError(h, prd, g float64, order, natoms int, q2 float64) float64 {
	if natoms == 0 {
		return 0
	}
	a, ok := acons[order]
	if !ok {
		panic("kspace: unsupported PPPM order")
	}
	hg := h * g
	sum := 0.0
	for m, c := range a {
		sum += c * math.Pow(hg, float64(2*m))
	}
	return q2 * math.Pow(hg, float64(order)) *
		math.Sqrt(g*prd*math.Sqrt(2*math.Pi)*sum/float64(natoms)) / (prd * prd)
}

// MaxMeshDim bounds the mesh size MeshFor searches per dimension.
const MaxMeshDim = 1 << 14

// MeshFor returns the per-dimension FFT-factorable PPPM mesh sizes that
// meet the relative accuracy with assignment order for a box of edge
// lengths l, without allocating any solver state. It is PPPM.Setup's
// sizing rule, and the performance model calls it to price meshes far
// larger than the engine would want to allocate. An accuracy no mesh up
// to MaxMeshDim per dimension meets (a NaN, a non-positive or an
// absurdly small one) is a *GridError.
func MeshFor(accuracy, rcut, lx, ly, lz float64, natoms int, q2sum, qqr2e float64, order int) (nx, ny, nz int, err error) {
	if _, ok := acons[order]; !ok {
		return 0, 0, 0, &GridError{Solver: "pppm", Accuracy: accuracy, Order: order}
	}
	g := SplitParameter(accuracy, rcut)
	// Absolute force accuracy target: relative accuracy times the force
	// between two unit charges 1 distance-unit apart (LAMMPS convention).
	target := accuracy * qqr2e
	q2 := qqr2e * q2sum
	var dims [3]int
	for d, prd := range [3]float64{lx, ly, lz} {
		for n := 4; n <= MaxMeshDim; n = NiceFFTSize(n + 1) {
			if EstimateIKError(prd/float64(n), prd, g, order, natoms, q2) <= target {
				dims[d] = n
				break
			}
		}
		if dims[d] == 0 {
			return 0, 0, 0, &GridError{Solver: "pppm", Accuracy: accuracy, Order: order}
		}
	}
	return dims[0], dims[1], dims[2], nil
}

// GridError is a solver's refusal to size its reciprocal-space grid: no
// PPPM mesh up to MaxMeshDim per dimension meets the accuracy (Cells is
// 0), or the grid that does would take more than neighbor.MaxBins
// cells, the bound on what one host allocates.
type GridError struct {
	Solver   string
	Accuracy float64
	Order    int     // PPPM assignment order
	Cells    float64 // cells the grid would take; 0 when no mesh meets the accuracy
}

// Error implements error.
func (e *GridError) Error() string {
	if e.Cells == 0 {
		return fmt.Sprintf("kspace: no %s mesh of order %d up to %d per dimension meets accuracy %g",
			e.Solver, e.Order, MaxMeshDim, e.Accuracy)
	}
	return fmt.Sprintf("kspace: %s accuracy %g asks for a grid of %.3g cells, over the limit of %d",
		e.Solver, e.Accuracy, e.Cells, neighbor.MaxBins)
}

// EstimateRealError returns the estimated RMS force error of the
// real-space (erfc-truncated) part for cutoff rc in volume vol.
func EstimateRealError(rc, g, vol float64, natoms int, q2 float64) float64 {
	if natoms == 0 || vol == 0 {
		return 0
	}
	return 2 * q2 * math.Exp(-g*g*rc*rc) /
		math.Sqrt(float64(natoms)*rc*vol)
}
