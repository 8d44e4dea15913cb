package main

import (
	"fmt"
	"io"

	"gomd/internal/core"
	"gomd/internal/harness"
)

// profile measures the one cell and prints its breakdown tables: on the
// CPU instance the per-rank task breakdown and per-MPI-function profile
// — per-rank call, byte and sequential-hop counts of the runtime's tree
// collectives (log2(P) rounds for allreduce/barrier, 2 log2(P) for the
// butterfly mesh reduction kspace solvers use) — and on the GPU instance
// the per-device kernel and data-movement breakdown.
func (inv *invocation) profile(runner *harness.Runner, stdout io.Writer, interrupted func() error) error {
	cell := inv.spec.Cells()[0]
	m, err := runner.Measure(cell.Spec)
	if err != nil {
		return err
	}
	if err := interrupted(); err != nil {
		return err
	}
	name, size, ranks, gpus := cell.Spec.Workload, cell.Spec.AtomsK, cell.Spec.Ranks, inv.gpus

	if gpus == 0 {
		out := m.CPU()
		fmt.Fprintf(stdout, "%s %dk atoms on the CPU instance, %d ranks: %.3f TS/s, %.0f W, %.4f TS/s/W\n",
			name, size, ranks, out.TSps, out.PowerWatts, out.EnergyEff)
		fmt.Fprintln(stdout, "\nper-rank task breakdown [% of step]:")
		fmt.Fprintf(stdout, "%4s", "rank")
		for _, task := range core.Tasks() {
			fmt.Fprintf(stdout, "  %7s", task)
		}
		fmt.Fprintln(stdout)
		for r, t := range out.Tasks {
			fmt.Fprintf(stdout, "%4d", r)
			for _, v := range t {
				fmt.Fprintf(stdout, "  %6.1f%%", 100*v/out.StepSeconds)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintln(stdout, "\nper-rank MPI profile [% of MPI time]: init/send/sendrecv/wait/allreduce")
		for r, mp := range out.MPI {
			tot := mp.Total()
			if tot == 0 {
				continue
			}
			fmt.Fprintf(stdout, "%4d  %5.1f  %5.1f  %5.1f  %5.1f  %5.1f   (MPI share %.1f%%, imbalance %.2f%%)\n",
				r, 100*mp.Init/tot, 100*mp.Send/tot, 100*mp.Sendrecv/tot,
				100*mp.Wait/tot, 100*mp.Allreduce/tot, out.MPIPct[r], out.ImbalancePct[r])
		}
		return nil
	}

	out, err := m.GPU(gpus, inv.spec.RanksPerGPU)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s %dk atoms on the GPU instance, %d devices x %d ranks: %.3f TS/s, %.0f W, %.4f TS/s/W\n",
		name, size, gpus, inv.spec.RanksPerGPU, out.TSps, out.PowerWatts, out.EnergyEff)
	fmt.Fprintln(stdout, "\nper-device kernel/data-movement profile [% of device-active time]:")
	for d, k := range out.Kernels {
		tot := k.Total()
		if tot == 0 {
			continue
		}
		pc := func(v float64) float64 { return 100 * v / tot }
		fmt.Fprintf(stdout, "GPU %d (util %.1f%%): HtoD %.1f%%  DtoH %.1f%%  %s %.1f%%",
			d, 100*out.DeviceUtil[d], pc(k.MemcpyHtoD), pc(k.MemcpyDtoH), k.PairKernel, pc(k.PairSeconds))
		if k.PairEnergy > 0 {
			fmt.Fprintf(stdout, "  k_energy_fast %.1f%%", pc(k.PairEnergy))
		}
		fmt.Fprintf(stdout, "  neigh %.1f%%", pc(k.NeighKernel))
		if k.MakeRho > 0 {
			fmt.Fprintf(stdout, "  make_rho %.1f%%  particle_map %.1f%%  interp %.1f%%",
				pc(k.MakeRho), pc(k.ParticleMap), pc(k.Interp))
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
