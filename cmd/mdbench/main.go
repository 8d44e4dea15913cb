// Command mdbench regenerates the tables and figures of "Characterizing
// Molecular Dynamics Simulation on Commodity Platforms" (IISWC 2022)
// from the gomd engine and platform models. The communication figures
// (5, 12) are measured on the runtime's scalable collectives — tree
// allreduce/barrier and the butterfly k-space mesh reduction — so the
// MPI function mix carries the paper's log-tree asymptotics.
//
// Usage:
//
//	mdbench -exp fig6                # one experiment, paper-scale sweeps
//	mdbench -exp all -quick          # everything, reduced fidelity
//	mdbench -exp fig3 -sizes 32,256 -ranks 1,4,16 -csv out.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"gomd/internal/harness"
	"gomd/internal/obs"
)

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdbench: bad integer list %q: %v\n", s, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (table1..3, fig3..fig16, headline, all)")
		list    = flag.Bool("list", false, "list experiments")
		sizes   = flag.String("sizes", "", "system sizes in k atoms (default 32,256,864,2048)")
		ranks   = flag.String("ranks", "", "CPU rank counts (default 1,2,4,8,16,32,64)")
		devices = flag.String("gpus", "", "GPU device counts (default 1,2,4,6,8)")
		cap_    = flag.Int("measure-cap", 0, "max atoms actually simulated per measurement")
		steps   = flag.Int("steps", 0, "measured steps per configuration")
		workers = flag.Int("workers", 1, "intra-rank worker-pool width for engine kernels (priced as threads-per-rank)")
		seed    = flag.Uint64("seed", 0, "RNG seed for measured workloads (0 = harness default)")

		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint measured engine runs every N steps (0 = off)")
		ckptPath  = flag.String("checkpoint", "mdbench.ckpt", "checkpoint file path")
		ckptKeep  = flag.Int("keep-checkpoints", 1, "checkpoint generations to retain (N>1 rotates path -> path.1 -> ...)")
		restart   = flag.String("restart", "", "resume measured engine runs from this checkpoint file")
		retries   = flag.Int("retries", 0, "automatic recoveries from rank failures per measurement")
		chkEvery  = flag.Int("check-every", 0, "run numerical guardrails every N steps during measurements (0 = off)")
		quick     = flag.Bool("quick", false, "reduced fidelity (cap 6000 atoms, 6 steps)")
		csvPath   = flag.String("csv", "", "also write results as CSV to this file")
		strict    = flag.Bool("strict-log", false, "exit nonzero if the data log is incomplete (CI smoke runs)")
		chart     = flag.Bool("chart", false, "render percentage breakdowns as stacked bars")

		cpuprofile = flag.String("cpuprofile", "", "write a Go CPU profile of the campaign to this file")
		memprofile = flag.String("memprofile", "", "write a Go heap profile at campaign end to this file")
		of         obs.Flags
	)
	of.Register(flag.CommandLine)
	flag.Parse()
	// The log is auxiliary, so an incomplete one must not fail a campaign
	// unless asked to; silent loss would still poison analysis, so it warns.
	of.LaxLog = !*strict

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range harness.FullRegistry() {
			fmt.Printf("  %-13s %s\n", e.ID, e.Title)
		}
		if *exp == "" {
			os.Exit(0)
		}
	}

	opts := harness.Options{
		MeasureCap: *cap_, Steps: *steps, Workers: *workers, Seed: *seed,
		CheckpointEvery: *ckptEvery, CheckpointPath: *ckptPath,
		RestartPath: *restart, KeepCheckpoints: *ckptKeep,
		Retries: *retries, HangTimeout: of.HangTimeout, CheckEvery: *chkEvery,
	}
	if *quick {
		if opts.MeasureCap == 0 {
			opts.MeasureCap = 6000
		}
		if opts.Steps == 0 {
			opts.Steps = 6
		}
	}
	if err := of.Open(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "mdbench: %v\n", err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mdbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mdbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // material allocations only
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mdbench: memprofile: %v\n", err)
			}
		}()
	}

	runner := harness.NewRunner(opts)
	runner.Trace, runner.SpanTrace, runner.Metrics = of.Log, of.Tracer, of.Metrics
	params := harness.Params{
		Sizes:      parseInts(*sizes),
		CPURanks:   parseInts(*ranks),
		GPUDevices: parseInts(*devices),
	}

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.FullRegistry()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := harness.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "mdbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	// CSV write and close errors are fatal: a full disk or bad path must
	// not leave a silently truncated CSV behind an exit code of 0.
	csvFail := func(err error) {
		fmt.Fprintf(os.Stderr, "mdbench: csv %s: %v\n", *csvPath, err)
		os.Exit(1)
	}
	var csv *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			csvFail(err)
		}
		csv = f
	}

	// flush closes every output, loudly — shared between the normal end
	// of the campaign and a signal-interrupted exit, so an interrupt
	// never leaves a silently truncated CSV or data log behind.
	flush := func() {
		if csv != nil {
			if err := csv.Close(); err != nil {
				csvFail(err)
			}
			csv = nil
		}
		if err := of.Close(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "mdbench: %v\n", err)
			os.Exit(1)
		}
	}

	// SIGINT/SIGTERM abort the campaign between experiments with outputs
	// flushed; a second signal kills the process the default way.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)

	for _, e := range selected {
		select {
		case s := <-sigC:
			signal.Stop(sigC)
			flush()
			fmt.Fprintf(os.Stderr, "mdbench: %v: stopped before %s; partial outputs flushed\n", s, e.ID)
			os.Exit(130)
		default:
		}
		tables, err := e.Run(runner, params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for i := range tables {
			if *chart {
				harness.Chart(&tables[i], os.Stdout, 60)
			} else {
				tables[i].Render(os.Stdout)
			}
			if csv != nil {
				if _, err := fmt.Fprintf(csv, "# %s\n", tables[i].Title); err != nil {
					csvFail(err)
				}
				if err := tables[i].WriteCSV(csv); err != nil {
					csvFail(err)
				}
			}
		}
	}
	flush()
}
