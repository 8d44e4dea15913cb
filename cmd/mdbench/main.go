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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"gomd/internal/harness"
	"gomd/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errInterrupted marks a campaign stopped by SIGINT/SIGTERM: outputs are
// flushed and the exit code is 130, not a failure report.
var errInterrupted = errors.New("interrupted by signal")

// run is main without the process: it returns the exit code (0 done, 1
// failed, 2 usage, 130 stopped by a signal between experiments).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (table1..3, fig3..fig16, headline, all)")
		list    = fs.Bool("list", false, "list experiments")
		sizes   = fs.String("sizes", "", "system sizes in k atoms (default 32,256,864,2048)")
		ranks   = fs.String("ranks", "", "CPU rank counts (default 1,2,4,8,16,32,64)")
		devices = fs.String("gpus", "", "GPU device counts (default 1,2,4,6,8)")
		cap_    = fs.Int("measure-cap", 0, "max atoms actually simulated per measurement")
		steps   = fs.Int("steps", 0, "measured steps per configuration")
		workers = fs.Int("workers", 1, "intra-rank worker-pool width for engine kernels (priced as threads-per-rank)")
		seed    = fs.Uint64("seed", 0, "RNG seed for measured workloads (0 = harness default)")

		chkEvery = fs.Int("check-every", 0, "run numerical guardrails every N steps during measurements (0 = off)")
		quick    = fs.Bool("quick", false, "reduced fidelity (cap 6000 atoms, 6 steps)")
		csvPath  = fs.String("csv", "", "also write results as CSV to this file")
		strict   = fs.Bool("strict-log", false, "exit nonzero if the data log is incomplete (CI smoke runs)")
		chart    = fs.Bool("chart", false, "render percentage breakdowns as stacked bars")

		cpuprofile = fs.String("cpuprofile", "", "write a Go CPU profile of the campaign to this file")
		memprofile = fs.String("memprofile", "", "write a Go heap profile at campaign end to this file")
		of         obs.Flags
	)
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The log is auxiliary, so an incomplete one must not fail a campaign
	// unless asked to; silent loss would still poison analysis, so it warns.
	of.LaxLog = !*strict

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range harness.FullRegistry() {
			fmt.Fprintf(stdout, "  %-13s %s\n", e.ID, e.Title)
		}
		if *exp == "" {
			return 0
		}
	}

	// Everything the command line can get wrong is checked before any
	// output is opened.
	var usageErr error
	ints := func(s string) []int {
		v, err := harness.ParseInts(s)
		usageErr = errors.Join(usageErr, err)
		return v
	}
	params := harness.Params{Sizes: ints(*sizes), CPURanks: ints(*ranks), GPUDevices: ints(*devices)}
	if usageErr != nil {
		fmt.Fprintf(stderr, "mdbench: %v\n", usageErr)
		return 2
	}
	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.FullRegistry()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := harness.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "mdbench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	opts := harness.Options{
		MeasureCap: *cap_, Steps: *steps, Workers: *workers, Seed: *seed,
		HangTimeout: of.HangTimeout, CheckEvery: *chkEvery,
	}
	if *quick {
		if opts.MeasureCap == 0 {
			opts.MeasureCap = 6000
		}
		if opts.Steps == 0 {
			opts.Steps = 6
		}
	}

	if err := of.Open(stderr); err != nil {
		fmt.Fprintf(stderr, "mdbench: %v\n", err)
		return 1
	}
	// One way out from here: whatever the campaign returns, the CPU
	// profile is stopped, the heap profile written and of.Close run —
	// Close is what writes the -trace and -metrics files, the artifacts
	// that explain a failed run. Every step runs; every failure is
	// reported.
	stopCPU, err := startCPUProfile(*cpuprofile)
	if err == nil {
		runner := harness.NewRunner(opts)
		runner.Trace, runner.SpanTrace, runner.Metrics = of.Log, of.Tracer, of.Metrics
		err = campaign(runner, params, selected, *csvPath, *chart, stdout)
		err = errors.Join(err, stopCPU(), writeHeapProfile(*memprofile))
	}
	err = errors.Join(err, of.Close(stderr))
	switch {
	case errors.Is(err, errInterrupted):
		fmt.Fprintf(stderr, "mdbench: %v; partial outputs flushed\n", err)
		return 130
	case err != nil:
		fmt.Fprintf(stderr, "mdbench: %v\n", err)
		return 1
	}
	return 0
}

// campaign runs the selected experiments in order, rendering each table
// to stdout and, with csvPath, to a CSV of "# <title>" delimited blocks.
// SIGINT/SIGTERM stop it between experiments (errInterrupted); a second
// signal kills the process the default way.
func campaign(runner *harness.Runner, params harness.Params, selected []harness.Experiment,
	csvPath string, chart bool, stdout io.Writer) (err error) {
	// CSV write and close errors are fatal: a full disk or bad path must
	// not leave a silently truncated CSV behind an exit code of 0.
	var csv *os.File
	if csvPath != "" {
		if csv, err = os.Create(csvPath); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
		defer func() {
			if cerr := csv.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("csv: %w", cerr)
			}
		}()
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)

	for _, e := range selected {
		select {
		case s := <-sigC:
			signal.Stop(sigC)
			return fmt.Errorf("%w (%v): stopped before %s", errInterrupted, s, e.ID)
		default:
		}
		tables, err := e.Run(runner, params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for i := range tables {
			if chart {
				harness.Chart(&tables[i], stdout, 60)
			} else {
				tables[i].Render(stdout)
			}
			if csv == nil {
				continue
			}
			if _, err := fmt.Fprintf(csv, "# %s\n", tables[i].Title); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
			if err := tables[i].WriteCSV(csv); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
	}
	return nil
}

// startCPUProfile starts a CPU profile into path and returns the function
// that stops it and closes the file; with no path both are no-ops.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // material allocations only
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
