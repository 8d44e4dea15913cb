// Package flops holds the static per-interaction arithmetic cost models
// of the engine's kernels: how many floating-point operations and bytes
// of main-memory traffic one counted unit of work (a pair evaluation, a
// neighbor candidate check, a PPPM grid op) performs. The models follow
// the MD-Bench methodology (PAPERS.md: 2302.14660, 2207.13094): costs
// are derived from the kernel source's arithmetic inventory, multiplied
// by the engine's measured operation counters to yield total FLOPs,
// bytes, and arithmetic intensity per kernel.
//
// The package is the single source of truth: the perfmodel roofline
// (internal/perfmodel), bench's pair.ai and gflops metrics, and the live
// roofline.* gauges in the metrics registry all price work through it,
// so predicted and measured intensity are directly comparable.
// TestKernelCostsPinned pins what it prices the 8000-atom kernels at.
package flops

// Cost is the arithmetic cost of one counted operation.
type Cost struct {
	// Flops is floating-point operations per counted op.
	Flops float64
	// Bytes is main-memory bytes moved per counted op (effective traffic
	// after cache reuse, not instruction-level loads).
	Bytes float64
}

// Intensity returns the arithmetic intensity Flops/Bytes (0 when no
// bytes move).
func (c Cost) Intensity() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return c.Flops / c.Bytes
}

// Scale multiplies the per-op cost by an operation count, yielding a
// kernel-total cost.
func (c Cost) Scale(ops float64) Cost {
	return Cost{Flops: c.Flops * ops, Bytes: c.Bytes * ops}
}

// Add sums two costs (multi-phase kernels like PPPM).
func (c Cost) Add(o Cost) Cost {
	return Cost{Flops: c.Flops + o.Flops, Bytes: c.Bytes + o.Bytes}
}

// Pair returns the per-in-cutoff-pair cost of a pair style, keyed by its
// LAMMPS-style Name(). The baseline inventory of one evaluation:
// distance (8 flops), kernel polynomial (~15-40), force accumulation
// (6); traffic touches two atoms' positions and one force, with
// positions largely reused from cache within a bin.
func Pair(style string) Cost {
	c := Cost{Flops: 30, Bytes: 40} // lj/cut and unknown styles
	switch style {
	case "lj/charmm/coul/long":
		// erfc evaluation + switching function on top of the LJ core.
		c.Flops = 55
	case "eam":
		// Per pass (density then force); the kernel runs two passes and
		// reports pairs per pass, so the per-counted-op cost stays per-pass.
		c.Flops = 24
	case "gran/hooke/history":
		c.Flops = 45
		c.Bytes = 90 // shear-history map traffic
	case "morse":
		c.Flops = 34 // exp() pair kernel
	}
	return c
}

// NeighCheck returns the cost of one neighbor-build candidate distance
// check: distance + compare, streaming the bin's positions.
func NeighCheck() Cost { return Cost{Flops: 10, Bytes: 28} }

// KspaceFFT returns the cost of one complex FFT butterfly: a complex
// multiply-add (10 flops) over two complex doubles (32 bytes).
func KspaceFFT() Cost { return Cost{Flops: 10, Bytes: 32} }

// KspaceSpread returns the cost of one charge-assignment (make_rho) grid
// update: weight product + accumulate into the mesh.
func KspaceSpread() Cost { return Cost{Flops: 4, Bytes: 16} }

// KspaceInterp returns the cost of one force-interpolation grid read:
// three weighted gathers into the force accumulator.
func KspaceInterp() Cost { return Cost{Flops: 8, Bytes: 16} }

// KspaceMap returns the cost of one particle-to-cell mapping op.
func KspaceMap() Cost { return Cost{Flops: 6, Bytes: 24} }

// KspaceGrid returns the cost of one per-k-point Green's-function
// multiplication (poisson solve in reciprocal space).
func KspaceGrid() Cost { return Cost{Flops: 6, Bytes: 32} }

// Modify returns the cost of one fix op: a handful of FMAs over one
// atom's state (position, velocity, force rows).
func Modify() Cost { return Cost{Flops: 12, Bytes: 96} }

// KspaceOps carries the PPPM/Ewald operation counters a solver reports
// per compute (mirrors kspace.Result without importing it, keeping this
// package dependency-free).
type KspaceOps struct {
	SpreadOps, InterpOps, MapOps, FFTOps, GridOps int64
}

// Kspace prices a full k-space solve from its phase counters.
func Kspace(ops KspaceOps) Cost {
	return KspaceSpread().Scale(float64(ops.SpreadOps)).
		Add(KspaceInterp().Scale(float64(ops.InterpOps))).
		Add(KspaceMap().Scale(float64(ops.MapOps))).
		Add(KspaceFFT().Scale(float64(ops.FFTOps))).
		Add(KspaceGrid().Scale(float64(ops.GridOps)))
}
