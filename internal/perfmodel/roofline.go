package perfmodel

import (
	"gomd/internal/core"
	"gomd/internal/flops"
)

// Roofline places a workload on the classic roofline of an instance:
// arithmetic intensity (flops per byte of main-memory traffic) against
// the machine's peak compute and bandwidth. The paper's characterization
// stops at task breakdowns; this extension asks the follow-up question
// the breakdowns raise — which tasks are compute- versus memory-bound on
// the CPU instance.
type Roofline struct {
	// PeakGflops is the instance's aggregate FP peak (GFLOP/s).
	PeakGflops float64
	// PeakGBs is the aggregate DRAM bandwidth (GB/s).
	PeakGBs float64
}

// CPURoofline returns the dual-socket Xeon 8358 envelope: 64 cores x 2.6
// GHz x 32 FLOP/cycle (AVX-512 FMA) and 16 DDR4-3200 channels.
func CPURoofline() Roofline {
	return Roofline{
		PeakGflops: 64 * 2.6 * 32,
		PeakGBs:    16 * 25.6,
	}
}

// TaskIntensity is one task's placement on the roofline.
type TaskIntensity struct {
	Task core.Task
	// Flops and Bytes are per-step estimates.
	Flops float64
	Bytes float64
	// Intensity = Flops/Bytes; AttainableGflops is min(peak, I*BW).
	Intensity        float64
	AttainableGflops float64
	// MemoryBound reports whether the task sits left of the ridge.
	MemoryBound bool
}

// Analyze converts per-step counters (summed over ranks) into roofline
// placements for the compute-heavy tasks. The per-op cost models live in
// internal/flops — the same models bench's pair.ai and gflops metrics
// and the live roofline.* gauges use — so predicted and measured
// intensity are directly comparable.
func (r Roofline) Analyze(style string, c core.Counters) []TaskIntensity {
	steps := float64(c.Steps)
	if steps == 0 {
		steps = 1
	}
	mk := func(task core.Task, ops float64, per flops.Cost) TaskIntensity {
		t := TaskIntensity{Task: task}
		t.Flops = ops / steps * per.Flops
		t.Bytes = ops / steps * per.Bytes
		if t.Bytes > 0 {
			t.Intensity = t.Flops / t.Bytes
		}
		t.AttainableGflops = r.PeakGflops
		if bw := t.Intensity * r.PeakGBs; bw < t.AttainableGflops {
			t.AttainableGflops = bw
			t.MemoryBound = true
		}
		return t
	}
	out := []TaskIntensity{
		mk(core.TaskPair, float64(c.PairOps), flops.Pair(style)),
		mk(core.TaskNeigh, float64(c.NeighChecks), flops.NeighCheck()),
	}
	if c.KspaceFFTOps > 0 {
		out = append(out, mk(core.TaskKspace, float64(c.KspaceFFTOps), flops.KspaceFFT()))
	}
	if c.ModifyOps > 0 {
		out = append(out, mk(core.TaskModify, float64(c.ModifyOps), flops.Modify()))
	}
	return out
}

// Ridge returns the arithmetic intensity of the machine's ridge point.
func (r Roofline) Ridge() float64 {
	if r.PeakGBs == 0 {
		return 0
	}
	return r.PeakGflops / r.PeakGBs
}
