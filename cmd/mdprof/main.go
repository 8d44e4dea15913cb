// Command mdprof is the profiling mode of the characterization framework
// (mode A of the paper's Figure 2): it measures one configuration on the
// engine and prints the per-rank task breakdown, the per-MPI-function
// profile, and — for GPU-instance projections — the per-device kernel
// breakdown. The MPI-function profile reflects the runtime's tree
// collectives: per-rank call, byte, and sequential-hop counts (log2(P)
// rounds for allreduce/barrier, 2 log2(P) for the butterfly mesh
// reduction that kspace solvers use).
//
// Usage:
//
//	mdprof -bench rhodo -size 256 -ranks 16
//	mdprof -bench lj -size 2048 -gpus 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gomd/internal/core"
	"gomd/internal/harness"
	"gomd/internal/obs"
	"gomd/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it returns the exit code (0 done, 1
// failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench   = fs.String("bench", "lj", "workload: rhodo, lj, chain, eam, chute")
		size    = fs.Int("size", 32, "system size in thousands of atoms")
		ranks   = fs.Int("ranks", 8, "CPU MPI ranks")
		gpus    = fs.Int("gpus", 0, "GPU devices (0 = CPU instance)")
		kacc    = fs.Float64("kspace-acc", 0, "rhodo PPPM error threshold")
		capN    = fs.Int("measure-cap", 0, "max atoms actually simulated")
		steps   = fs.Int("steps", 0, "measured steps")
		workers = fs.Int("workers", 1, "intra-rank worker-pool width for engine kernels (priced as threads-per-rank)")
		of      obs.Flags
	)
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	name, err := workload.Parse(*bench)
	if err != nil {
		fmt.Fprintf(stderr, "mdprof: %v\n", err)
		return 2
	}
	if err := of.Open(stderr); err != nil {
		fmt.Fprintf(stderr, "mdprof: %v\n", err)
		return 1
	}
	runner := harness.NewRunner(harness.Options{
		MeasureCap: *capN, Steps: *steps, Workers: *workers, HangTimeout: of.HangTimeout,
	})
	runner.Trace, runner.SpanTrace, runner.Metrics = of.Log, of.Tracer, of.Metrics
	spec := harness.Spec{Workload: name, AtomsK: *size, Ranks: *ranks, KspaceAcc: *kacc}
	if *gpus > 0 {
		spec.Ranks = *gpus * perGPU
	}
	err = profile(stdout, runner, spec, *gpus)
	if cerr := of.Close(stderr); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "mdprof: %v\n", err)
		return 1
	}
	return 0
}

// perGPU is the rank count priced per GPU device.
const perGPU = 6

// profile measures one configuration and prints its breakdown tables.
func profile(stdout io.Writer, runner *harness.Runner, spec harness.Spec, gpus int) error {
	m, err := runner.Measure(spec)
	if err != nil {
		return err
	}
	name, size, ranks := spec.Workload, spec.AtomsK, spec.Ranks

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

	out, err := m.GPU(gpus, perGPU)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s %dk atoms on the GPU instance, %d devices x %d ranks: %.3f TS/s, %.0f W, %.4f TS/s/W\n",
		name, size, gpus, perGPU, out.TSps, out.PowerWatts, out.EnergyEff)
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
