// Command mdbench is the characterization framework of "Characterizing
// Molecular Dynamics Simulation on Commodity Platforms" (IISWC 2022,
// Figure 2): one front end over the engine and the platform models, in
// three modes that share one set of axis and fidelity flags, one
// validation, one signal handler and one observability wiring.
//
//   - -exp regenerates the paper's tables and figures. The communication
//     figures (5, 12) are measured on the runtime's scalable collectives
//     — tree allreduce/barrier and the butterfly k-space mesh reduction —
//     so the MPI function mix carries the paper's log-tree asymptotics.
//   - -grid runs a campaign over the cross product of the axes, numerical
//     guardrails on, and keeps the receipts: one CSV row, one data-log
//     "cell" record and one manifest entry per cell.
//   - -profile measures one cell (the paper's profiling mode, A) and
//     prints its per-rank task breakdown and per-MPI-function profile,
//     or with -gpus the per-device GPU kernel breakdown.
//
// Usage:
//
//	mdbench -exp fig6                # one experiment, paper-scale sweeps
//	mdbench -exp all -quick          # everything, reduced fidelity
//	mdbench -exp fig3 -sizes 32,256 -ranks 1,4,16 -csv out.csv
//	mdbench -grid -workloads lj,rhodo -sizes 32,256 -ranks 1,4,16 -trials 3 \
//	        -csv g.csv -log g.jsonl -manifest g.json
//	mdbench -profile -workloads rhodo -sizes 256 -ranks 16
//	mdbench -profile -workloads lj -sizes 2048 -gpus 4
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"gomd/internal/harness"
	"gomd/internal/obs"
	"gomd/internal/pair"
	"gomd/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errInterrupted marks a run stopped by SIGINT/SIGTERM: outputs are
// flushed and the exit code is 130, not a failure report.
var errInterrupted = errors.New("interrupted by signal")

// mode is what one invocation does: -exp, -grid or -profile, or list
// the experiments.
type mode string

const (
	modeList    mode = "-list"
	modeExp     mode = "-exp"
	modeGrid    mode = "-grid"
	modeProfile mode = "-profile"
)

// modeFlags are the flags only some modes read; every other flag applies
// to all three. Setting a flag the mode does not read is a usage error,
// not a silent no-op.
var modeFlags = map[string][]mode{
	"workloads":  {modeGrid, modeProfile},
	"precisions": {modeGrid, modeProfile},
	"kspace-acc": {modeGrid, modeProfile},
	"gpus":       {modeExp, modeProfile},
	"csv":        {modeExp, modeGrid},
	"trials":     {modeGrid},
	"manifest":   {modeGrid},
	"chart":      {modeExp},
}

// invocation is a parsed and validated command line.
type invocation struct {
	mode mode
	exps []harness.Experiment // -exp
	spec harness.CampaignSpec // the resolved axes
	gpus int                  // -profile: devices, 0 = the CPU instance
	opts harness.Options
	of   obs.Flags

	csv, manifest, cpuprofile, memprofile string
	chart                                 bool
}

// run is main without the process: it returns the exit code (0 done, 1
// failed, 2 usage, 130 stopped by a signal).
func run(args []string, stdout, stderr io.Writer) int {
	inv, code := parse(args, stdout, stderr)
	if inv == nil {
		return code
	}
	if err := inv.of.Open(stderr); err != nil {
		fmt.Fprintf(stderr, "mdbench: %v\n", err)
		return 1
	}
	// One way out from here: whatever the mode returns, the CPU profile
	// is stopped, the heap profile written and of.Close run — Close is
	// what writes the -trace and -metrics files, the artifacts that
	// explain a failed run. Every step runs; every failure is reported.
	stopProfiles, err := startProfiles(inv.cpuprofile, inv.memprofile)
	if err == nil {
		err = errors.Join(inv.execute(stdout), stopProfiles())
	}
	err = errors.Join(err, inv.of.Close(stderr))
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

// parse reads and checks the whole command line before any output is
// opened. A nil invocation means exit with the returned code: 2 for a
// usage error, 0 when there was only a list to print.
func parse(args []string, stdout, stderr io.Writer) (*invocation, int) {
	inv := &invocation{mode: modeList}
	fs := flag.NewFlagSet("mdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "regenerate experiments: comma-separated ids (table1..3, fig3..fig16, headline, all)")
		grid    = fs.Bool("grid", false, "run a campaign over the cross product of the axes: one CSV row, data-log record and manifest entry per cell")
		profile = fs.Bool("profile", false, "measure one cell (one value per axis) and print its per-rank task, MPI-function or GPU-kernel tables")
		list    = fs.Bool("list", false, "list experiments")

		workloads = fs.String("workloads", "", "workloads (default all: rhodo,lj,chain,eam,chute)")
		sizes     = fs.String("sizes", "", "system sizes in k atoms (default 32,256,864,2048)")
		ranks     = fs.String("ranks", "", "CPU rank counts (default 1,2,4,8,16,32,64)")
		gpus      = fs.String("gpus", "", "GPU device counts (default 1,2,4,6,8; under -profile one count selects the GPU instance)")
		workers   = fs.String("workers", "1", "intra-rank worker-pool widths for engine kernels (priced as threads-per-rank)")
		precs     = fs.String("precisions", "mixed", "pairwise precisions: mixed, double, single")
		accs      = fs.String("kspace-acc", "", "PPPM relative-error thresholds in (0, 1) (default the workload's; non-PPPM workloads ignore it)")
		trials    = fs.Int("trials", 1, "repeat trials per grid cell (trial t adds t to the seed)")

		cap_     = fs.Int("measure-cap", 0, "max atoms actually simulated per measurement (0 = 24000)")
		steps    = fs.Int("steps", 0, "measured steps per configuration (0 = 15)")
		warmup   = fs.Int("warmup", 0, "warmup steps excluded from counters (0 = 10)")
		seed     = fs.Uint64("seed", 0, "RNG seed for measured workloads (0 = 2022)")
		chkEvery = fs.Int("check-every", 0, "run numerical guardrails every N steps during measurements (0 = off; -grid defaults to 2)")
		quick    = fs.Bool("quick", false, "reduced fidelity (cap 6000 atoms, 6 steps)")
	)
	fs.StringVar(&inv.csv, "csv", "", "also write results as CSV to this file")
	fs.StringVar(&inv.manifest, "manifest", "", "write the machine-readable campaign manifest to this file")
	fs.BoolVar(&inv.chart, "chart", false, "render percentage breakdowns as stacked bars")
	fs.StringVar(&inv.cpuprofile, "cpuprofile", "", "write a Go CPU profile of the run to this file")
	fs.StringVar(&inv.memprofile, "memprofile", "", "write a Go heap profile at the end of the run to this file")
	inv.of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	var usageErr error
	fail := func(err error) { usageErr = errors.Join(usageErr, err) }
	for m, on := range map[mode]bool{modeExp: *exp != "", modeGrid: *grid, modeProfile: *profile} {
		if on && inv.mode != modeList {
			fmt.Fprintln(stderr, "mdbench: -exp, -grid and -profile are mutually exclusive")
			return nil, 2
		} else if on {
			inv.mode = m
		}
	}
	if *list || inv.mode == modeList {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range harness.FullRegistry() {
			fmt.Fprintf(stdout, "  %-13s %s\n", e.ID, e.Title)
		}
		if inv.mode == modeList {
			return nil, 0
		}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if ms, ok := modeFlags[f.Name]; ok && !slices.Contains(ms, inv.mode) {
			fail(fmt.Errorf("-%s does not apply to %s", f.Name, inv.mode))
		}
	})
	for _, id := range strings.Split(*exp, ",") {
		if id = strings.TrimSpace(id); id == "all" {
			inv.exps = append(inv.exps, harness.FullRegistry()...)
		} else if e, ok := harness.Get(id); ok {
			inv.exps = append(inv.exps, e)
		} else if inv.mode == modeExp {
			fail(fmt.Errorf("unknown experiment %q (try -list)", id))
		}
	}

	ints := func(s string) []int { return parseList(s, "integer", strconv.Atoi, &usageErr) }
	inv.spec = harness.CampaignSpec{
		Workloads: parseList(*workloads, "workload", workload.Parse, &usageErr),
		SizesK:    ints(*sizes), Ranks: ints(*ranks), GPUs: ints(*gpus), Workers: ints(*workers),
		Precisions: parseList(*precs, "precision", pair.ParsePrecision, &usageErr),
		KspaceAccs: parseList(*accs, "float", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }, &usageErr),
		Trials:     *trials,
	}.WithDefaults()
	// Under -profile every axis holds one value; -exp reads one -workers
	// value (a Runner option) and sweeps its own axes.
	one := func(name string, n int) {
		if n != 1 {
			fail(fmt.Errorf("%s takes one -%s value, got %d", inv.mode, name, n))
		}
	}
	if inv.mode != modeGrid {
		one("workers", len(inv.spec.Workers))
	}
	if inv.mode == modeProfile {
		one("workloads", len(inv.spec.Workloads))
		one("sizes", len(inv.spec.SizesK))
		one("precisions", len(inv.spec.Precisions))
		one("kspace-acc", len(inv.spec.KspaceAccs))
		switch {
		case !set["gpus"]:
			one("ranks", len(inv.spec.Ranks))
		case set["ranks"]:
			fail(errors.New("-profile takes -ranks or -gpus, not both"))
		default:
			one("gpus", len(inv.spec.GPUs))
			inv.gpus = inv.spec.GPUs[0]
			inv.spec.Ranks = []int{inv.gpus * inv.spec.RanksPerGPU}
		}
	}

	inv.opts = harness.Options{
		MeasureCap: *cap_, Steps: *steps, Warmup: *warmup, Seed: *seed,
		Workers: inv.spec.Workers[0], HangTimeout: inv.of.HangTimeout, CheckEvery: *chkEvery,
	}
	// Campaigns keep guardrails on by design. Figures keep them off: the
	// guardrail's atom-count allreduce enters the MPI counters the model
	// prices, so only 0 reproduces them.
	if inv.mode == modeGrid && !set["check-every"] {
		inv.opts.CheckEvery = 2
	}
	if *quick {
		inv.opts.MeasureCap = cmp.Or(inv.opts.MeasureCap, 6000)
		inv.opts.Steps = cmp.Or(inv.opts.Steps, 6)
	}
	fail(errors.Join(inv.spec.Validate(), inv.opts.Validate()))
	if usageErr != nil {
		fmt.Fprintf(stderr, "mdbench: %v\n", usageErr)
		return nil, 2
	}
	return inv, 0
}

// parseList parses a comma-separated flag value ("1, 2,4"; empty tokens
// are skipped, so "" is nil and "32," is [32]), joining a malformed one
// into *errs.
func parseList[T any](s, what string, parse func(string) (T, error), errs *error) []T {
	var out []T
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			*errs = errors.Join(*errs, fmt.Errorf("bad %s list %q: %v", what, s, err))
			return nil
		}
		out = append(out, v)
	}
	return out
}

// execute runs the invocation's mode on one Runner carrying the
// observability hooks, with the -csv file open and SIGINT/SIGTERM
// watched.
func (inv *invocation) execute(stdout io.Writer) (err error) {
	runner := harness.NewRunner(inv.opts)
	runner.Trace, runner.SpanTrace, runner.Metrics = inv.of.Log, inv.of.Tracer, inv.of.Metrics
	// CSV write and close errors are fatal: a full disk or bad path must
	// not leave a silently truncated CSV behind an exit code of 0.
	var csv io.Writer
	if inv.csv != "" {
		f, err := os.Create(inv.csv)
		if err != nil {
			return fmt.Errorf("csv: %w", err)
		}
		defer func() {
			if cerr := f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("csv: %w", cerr)
			}
		}()
		csv = f
	}
	interrupted, stop := watchSignals()
	defer stop()
	switch inv.mode {
	case modeExp:
		for _, e := range inv.exps {
			if err := interrupted(); err != nil {
				return fmt.Errorf("%w: stopped before %s", err, e.ID)
			}
			if err := e.Render(runner, inv.spec, stdout, csv, inv.chart); err != nil {
				return err
			}
		}
		return nil
	case modeGrid:
		return inv.campaign(runner, csv, stdout, interrupted)
	default:
		return inv.profile(runner, stdout, interrupted)
	}
}

// watchSignals turns the first SIGINT/SIGTERM into a stop request that
// interrupted reports (wrapping errInterrupted) at the next boundary of
// the mode's work — between experiments, after a grid cell, after the
// profiled measurement; a second signal kills the process the default
// way.
func watchSignals() (interrupted func() error, stop func()) {
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	return func() error {
		select {
		case s := <-sigC:
			signal.Stop(sigC)
			return fmt.Errorf("%w (%v)", errInterrupted, s)
		default:
			return nil
		}
	}, func() { signal.Stop(sigC) }
}

// startProfiles starts a Go CPU profile into cpu and returns the
// function that stops it and writes a heap profile into mem; an empty
// path skips that profile.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var f *os.File
	if cpu != "" {
		if f, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var err error
		if f != nil {
			pprof.StopCPUProfile()
			err = f.Close()
		}
		if mem == "" {
			return err
		}
		h, herr := os.Create(mem)
		if herr == nil {
			runtime.GC() // material allocations only
			herr = errors.Join(pprof.WriteHeapProfile(h), h.Close())
		}
		return errors.Join(err, herr)
	}, nil
}
