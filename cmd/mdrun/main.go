// Command mdrun runs one benchmark workload on the gomd engine and
// streams thermodynamic output — the "run a simulation" entry point,
// playing the role of the lmp binary for this repository. Decomposed
// runs (-ranks > 1) execute on the simulated MPI runtime, whose
// collectives are log2(P)-hop trees (recursive-doubling allreduce,
// dissemination barrier) and whose PPPM/Ewald mesh reductions use a
// reduce-scatter + allgather butterfly.
//
// Every run, -ranks 1 included, is a world of -ranks ranks under one
// harness.Supervisor, advanced by its Drive loop. Fault tolerance:
// -checkpoint-every writes periodic restart files (bit-exact: a
// restored run reproduces the uninterrupted trajectory bit for bit), a
// rank failure is recovered automatically from the last checkpoint
// within the -retries budget, and rerunning the same command resumes
// from the newest checkpoint that verifies (-steps is the run's total
// length). Checkpoints carry per-section CRCs; -keep-checkpoints
// retains older generations so a corrupted newest file falls back to an
// intact one. -hang-timeout arms a watchdog that converts silent hangs
// into diagnosed recoveries.
// -fault installs the deterministic fault injector
// (kill/nan/delay/reorder/hang/truncate-ckpt/flip-ckpt) for drills, and
// -check-every enables the numerical guardrails (NaN/Inf forces and
// energies, lost atoms).
//
// Usage:
//
//	mdrun -bench lj -atoms 32000 -steps 200 -thermo 20
//	mdrun -bench rhodo -ranks 8 -steps 50
//	mdrun -bench rhodo -ranks 4 -checkpoint-every 100 -steps 1000   # rerun to resume
//	mdrun -bench rhodo -ranks 4 -fault kill:rank=2,step=50 -checkpoint-every 20 -retries 1
//	mdrun -in examples/scripts/in.lj     # LAMMPS-style input script
//
// Multi-process runs: -listen turns the process into the rendezvous
// coordinator hosting rank 0 over the length-prefixed TCP transport;
// each remaining rank runs its own mdrun with -join and -rank. All
// processes must pass identical workload flags (-bench, -atoms, -seed,
// -steps, -ranks, ...) — each recomputes the same decomposition, which
// is what makes the distributed trajectory byte-identical to the
// in-process one:
//
//	mdrun -bench lj -ranks 2 -steps 200 -listen 127.0.0.1:7777
//	mdrun -bench lj -ranks 2 -steps 200 -join 127.0.0.1:7777 -rank 1
//
// TCP worlds checkpoint in shards: with -checkpoint-every each process
// atomically writes its local ranks' snapshot into a shared shard
// store next to -checkpoint, and a two-phase commit publishes a
// manifest once every shard of a generation is durable. A recovery
// (-retries) re-runs the rendezvous on every process and restores the
// whole world from the newest complete generation — bit-exactly, and
// independent of which process hosts which rank after the re-join —
// falling back generation by generation and finally to scratch. All
// processes must share the checkpoint path (same directory on one
// host, or a shared filesystem). -rendezvous-timeout bounds every
// handshake phase so a missing peer fails the launch with a diagnosis
// instead of hanging it.
//
//	mdrun -bench lj -ranks 2 -steps 200 -listen 127.0.0.1:7777 -checkpoint-every 50 -retries 2
//	mdrun -bench lj -ranks 2 -steps 200 -join 127.0.0.1:7777 -rank 1 -checkpoint-every 50 -retries 2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/fault"
	"gomd/internal/harness"
	"gomd/internal/mpi"
	"gomd/internal/obs"
	"gomd/internal/pair"
	"gomd/internal/script"
	"gomd/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: SIGINT/SIGTERM become runContext's
// stop request. A second signal kills the process the default way.
func run(args []string, stdout, stderr io.Writer) int {
	soft, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)
	go func() {
		select {
		case sig := <-sigC:
			signal.Stop(sigC)
			fmt.Fprintf(stderr, "# mdrun: %v: stopping gracefully (a second signal kills)\n", sig)
			cancel()
		case <-soft.Done():
		}
	}()
	return runContext(soft, args, stdout, stderr)
}

// runContext parses args, runs, and returns the exit code: 0 done, 1
// failed, 2 usage, 130 stopped by soft — at the next chunk boundary, after
// a final cadence checkpoint when -checkpoint-every is armed, so the
// interrupted trajectory is resumable.
func runContext(soft context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		inFile    = fs.String("in", "", "LAMMPS-style input script (overrides -bench)")
		bench     = fs.String("bench", "lj", "workload: rhodo, lj, chain, eam, chute")
		atoms     = fs.Int("atoms", 32000, "approximate atom count")
		steps     = fs.Int("steps", 100, "the run's total length in timesteps (a resumed run stops here too)")
		ranks     = fs.Int("ranks", 1, "MPI ranks")
		workers   = fs.Int("workers", 1, "intra-rank worker-pool width for pair/neighbor/PPPM kernels")
		thermo    = fs.Int("thermo", 10, "thermo output interval")
		seed      = fs.Uint64("seed", 42, "RNG seed")
		prec      = fs.String("precision", "double", "pair arithmetic: single, mixed, double")
		kacc      = fs.Float64("kspace-acc", 0, "rhodo PPPM relative error threshold (default 1e-4)")
		ckptEvery = fs.Int("checkpoint-every", 0, "write a restart checkpoint every N steps (0 = off)")
		ckptPath  = fs.String("checkpoint", "mdrun.ckpt", "checkpoint file path")
		ckptKeep  = fs.Int("keep-checkpoints", 1, "checkpoint generations to retain (N>1 rotates path -> path.1 -> ...)")
		retries   = fs.Int("retries", 0, "automatic recoveries from rank failures")
		faultSpec = fs.String("fault", "", "deterministic fault injection, e.g. kill:rank=1,step=50;nan:rank=0,step=30")
		chkEvery  = fs.Int("check-every", 0, "run numerical guardrails (NaN/Inf/lost-atom) every N steps (0 = off)")
		listen    = fs.String("listen", "", "host rank 0 over TCP: listen on this address and wait for the other ranks to -join")
		join      = fs.String("join", "", "join a TCP world at this coordinator address (requires -rank)")
		rank      = fs.Int("rank", -1, "the rank this joiner process hosts (with -join)")
		rvTO      = fs.Duration("rendezvous-timeout", 30*time.Second, "bound on every TCP rendezvous phase (dial, hello, mesh, ready/go)")
		of        obs.Flags
	)
	of.Register(fs)
	of.RegisterFlight(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintf(stderr, "mdrun: %s\n", msg)
		return 2
	}

	tcpMode := *listen != "" || *join != ""
	if tcpMode {
		switch {
		case *listen != "" && *join != "":
			return usage("-listen and -join are mutually exclusive")
		case *ranks < 2:
			return usage("TCP worlds need -ranks >= 2 (pass the same -ranks to every process)")
		case *join != "" && (*rank < 1 || *rank >= *ranks):
			return usage("-join requires -rank between 1 and ranks-1 (rank 0 is the coordinator's)")
		case *inFile != "":
			return usage("-in scripts run serial and cannot span processes")
		}
	}
	name, err := workload.Parse(*bench)
	if err != nil {
		return usage(err.Error())
	}
	precision, err := pair.ParsePrecision(*prec)
	if err != nil {
		return usage(err.Error())
	}
	var inj *fault.Injector
	if *faultSpec != "" {
		if inj, err = fault.Parse(*faultSpec, *seed); err != nil {
			return usage(err.Error())
		}
	}

	if err := of.Open(stderr); err != nil {
		return fail(stderr, err)
	}
	var code int
	if *inFile != "" {
		code = runScript(soft, *inFile, stdout, stderr)
	} else {
		sup := &harness.Supervisor{
			Factory: func() (core.Config, *atom.Store, error) {
				cfg, st, err := workload.Build(name, workload.Options{
					Atoms:          *atoms,
					Precision:      precision,
					KspaceAccuracy: *kacc,
					Seed:           *seed,
					ThermoEvery:    *thermo,
				})
				cfg.ThermoTo = nil // the driver's frames speak for the world
				cfg.Trace = of.Tracer
				cfg.Metrics = of.Metrics
				cfg.Workers = *workers
				cfg.CheckEvery = *chkEvery
				cfg.Fault = inj
				return cfg, st, err
			},
			Ranks:           max(*ranks, 1),
			CheckpointEvery: *ckptEvery,
			CheckpointPath:  *ckptPath,
			KeepCheckpoints: *ckptKeep,
			Retries:         *retries,
			HangTimeout:     of.HangTimeout,
			Metrics:         of.Metrics,
			Tracer:          of.Tracer,
			Trace:           of.Log,
			FlightPath:      of.FlightPath,
			FlightDepth:     of.FlightDepth,
		}
		// Multi-process mode: every process (coordinator and joiners) runs
		// the same supervised loop; the WorldBuilder re-runs this process'
		// side of the rendezvous on every build, so a recovery reassembles
		// the socket mesh first.
		out := stdout
		if *listen != "" {
			sup.WorldBuilder = func() (*mpi.World, error) {
				co, err := mpi.ListenTCP(*listen, *ranks)
				if err != nil {
					return nil, err
				}
				return co.Host([]int{0}, mpi.WorldOptions{Rendezvous: *rvTO})
			}
		} else if *join != "" {
			sup.WorldBuilder = func() (*mpi.World, error) {
				return mpi.JoinTCP(*join, []int{*rank}, mpi.WorldOptions{Rendezvous: *rvTO})
			}
			// Joiners stay quiet: thermo lines are identical on every process
			// (the reductions are collective), so rank 0's process speaks for
			// the world.
			out = io.Discard
		}
		code = runWorld(soft, out, stderr, sup, *bench, *steps, *thermo)
	}
	if err := of.Close(stderr); err != nil && code == 0 {
		code = fail(stderr, err)
	}
	return code
}

// fail reports err and returns the failure exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "mdrun: %v\n", err)
	return 1
}

// runScript runs a LAMMPS-style input script through the interpreter;
// soft stops it before the next step of a `run` (exit 130).
func runScript(soft context.Context, path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		return fail(stderr, err)
	}
	defer f.Close()
	interp := script.New(stdout)
	start := time.Now()
	if err := interp.Run(soft, f); err != nil {
		if soft.Err() != nil {
			step := int64(0)
			if sim := interp.Sim(); sim != nil {
				step = sim.Step
			}
			fmt.Fprintf(stderr, "# mdrun: interrupted at step %d\n", step)
			return 130
		}
		return fail(stderr, fmt.Errorf("%s: %w", path, err))
	}
	if sim := interp.Sim(); sim != nil {
		report(stdout, sim.ComputeThermo(), []*core.Simulation{sim}, time.Since(start), sim.Step)
	}
	return 0
}

// runWorld starts the supervisor — resumed from its newest checkpoint
// when there is one — and drives it to step steps, printing a thermo
// line every thermo steps: the one run path of every mode.
func runWorld(soft context.Context, stdout, stderr io.Writer, sup *harness.Supervisor, bench string, steps, thermo int) int {
	start := time.Now()
	if err := sup.Start(); err != nil {
		return fail(stderr, err)
	}
	defer sup.Close()
	eng := sup.Engine()
	first := sup.Step()
	cfg := eng.Sims[eng.World.LocalRanks()[0]].Cfg
	fmt.Fprintf(stdout, "# %s: %d atoms, %d ranks (grid %dx%dx%d), dt=%g (%s units)\n",
		bench, eng.NGlobal(), sup.Ranks, eng.Grid[0], eng.Grid[1], eng.Grid[2], cfg.Dt, cfg.Units.Style)
	if sup.LastRestore() >= 0 {
		fmt.Fprintf(stdout, "# restored from checkpoint at step %d\n", first)
	}

	var final core.Thermo
	reported := 0
	stopped, err := sup.Drive(soft, context.Background(), harness.Drive{
		Target: int64(steps),
		Every:  thermo,
		Boundary: func(_ int64, recoveries int) error {
			// Report each recovery's restore point as it happens.
			if recoveries > reported {
				reported = recoveries
				if step := sup.LastRestore(); step >= 0 {
					fmt.Fprintf(stdout, "# restored from checkpoint at step %d\n", step)
				} else {
					fmt.Fprintf(stdout, "# restarted from scratch\n")
				}
			}
			return nil
		},
		Frame: func(th core.Thermo) error {
			final = th
			fmt.Fprintf(stdout, "step %8d  T %10.4f  P %12.5g  PE %14.6g  KE %14.6g  E %14.6g\n",
				th.Step, th.Temperature, th.Pressure, th.PotEnergy, th.KinEnergy, th.TotalEnergy)
			return nil
		},
	})
	if err != nil {
		return fail(stderr, err)
	}
	wall := time.Since(start)
	eng = sup.Engine() // a recovery replaces it
	if n := sup.Attempts(); n > 0 {
		fmt.Fprintf(stdout, "# recovered from %d rank failure(s)\n", n)
	}
	last := sup.Step()
	sup.Trace.Log("run", map[string]any{
		"bench": bench, "ranks": sup.Ranks, "steps": steps,
		"final_step": last, "recoveries": sup.Attempts(),
		"interrupted": stopped,
	})
	report(stdout, final, eng.Sims, wall, last-first)
	if !stopped {
		return 0
	}
	msg := fmt.Sprintf("# mdrun: interrupted at step %d", last)
	if every := int64(sup.CheckpointEvery); every > 0 && last > 0 && last%every == 0 {
		msg += fmt.Sprintf("; checkpoint %s is current; rerun the same command to resume", sup.CheckpointPath)
	}
	if p := sup.DumpFlight(); p != "" {
		msg += fmt.Sprintf(" (flight dump: %s)", p)
	}
	fmt.Fprintln(stderr, msg)
	return 130
}

// report prints the end-of-run summary, the same way for every mode:
// the final thermo state, the rate over the steps this process advanced,
// and the task wall-time shares summed over the local ranks (sims holds
// nil for ranks other processes host).
func report(w io.Writer, th core.Thermo, sims []*core.Simulation, wall time.Duration, steps int64) {
	if steps > 0 { // else no frame was taken
		fmt.Fprintf(w, "# final: T %.4f  PE %.6g  E %.6g\n", th.Temperature, th.PotEnergy, th.TotalEnergy)
	}
	fmt.Fprintf(w, "# wall %.3fs  %.2f TS/s (host-machine rate, not the modeled platform)\n",
		wall.Seconds(), float64(steps)/wall.Seconds())
	var times core.TaskTimes
	for _, s := range sims {
		if s == nil {
			continue
		}
		for _, task := range core.Tasks() {
			times[task] += s.Times[task]
		}
	}
	fmt.Fprintf(w, "# task wall-time shares:")
	if tot := times.Total(); tot > 0 {
		for _, task := range core.Tasks() {
			fmt.Fprintf(w, "  %s %.1f%%", task, 100*float64(times[task])/float64(tot))
		}
	}
	fmt.Fprintln(w)
}
