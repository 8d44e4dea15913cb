// Command mdsweep is the campaign runner: one invocation sweeps
// comma-grids of workload × atoms × ranks × workers × precision × PPPM
// tolerance through the characterization harness — numerical guardrails
// on, data log strict — and emits CSV + JSONL per cell plus a
// machine-readable campaign manifest. The paper's evaluation (Tables
// 1–3, Figs 3–16) is exactly such a grid; mdbench regenerates individual
// figures, mdsweep runs grids and keeps the receipts.
//
// Usage:
//
//	mdsweep -workloads lj,rhodo -atoms 32,256 -ranks 1,4,16 -trials 3
//	mdsweep -workloads rhodo -atoms 32 -ranks 4,8 -kspace-acc 1e-4,1e-6 -quick
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gomd/internal/harness"
	"gomd/internal/pair"
	"gomd/internal/results"
	"gomd/internal/trace"
	"gomd/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errInterrupted marks a campaign aborted by SIGINT/SIGTERM: partial
// outputs are flushed and the exit code is 130, not a failure report.
var errInterrupted = errors.New("interrupted by signal")

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseWorkloads(s string) ([]workload.Name, error) {
	var out []workload.Name
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := workload.Parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func parsePrecisions(s string) ([]pair.Precision, error) {
	var out []pair.Precision
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := pair.ParsePrecision(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// manifest is the machine-readable record of one campaign: what ran,
// from which commit and host, with which fidelity, and what came out.
// Grid and Fidelity hold the resolved values — every default filled in —
// so rerunning the manifest's grid on the manifest's commit reproduces
// the campaign, and a run that relied on defaults hashes equal to the
// same run spelled out.
type manifest struct {
	Tool       string `json:"tool"`
	GitSHA     string `json:"git_sha"`
	Host       string `json:"host"`
	ConfigHash string `json:"config_hash"`

	Grid     gridConfig `json:"grid"`
	Fidelity fidelity   `json:"fidelity"`

	CSV   string `json:"csv,omitempty"`
	JSONL string `json:"jsonl,omitempty"`

	Cells       []manifestCell `json:"cells"`
	TotalWallMS int64          `json:"total_wall_ms"`
}

type gridConfig struct {
	Workloads  []string  `json:"workloads"`
	SizesK     []int     `json:"sizes_k"`
	Ranks      []int     `json:"ranks"`
	Workers    []int     `json:"workers"`
	Precisions []string  `json:"precisions"`
	KspaceAccs []float64 `json:"kspace_accs"`
	Trials     int       `json:"trials"`
}

type fidelity struct {
	MeasureCap int    `json:"measure_cap"`
	Steps      int    `json:"steps"`
	Warmup     int    `json:"warmup"`
	CheckEvery int    `json:"check_every"`
	Seed       uint64 `json:"seed"`
}

type manifestCell struct {
	Label  string `json:"label"`
	Status string `json:"status"`
	WallMS int64  `json:"wall_ms"`
}

// cellRecord is the JSONL-per-cell document (the full structured data;
// the CSV carries the compact summary).
type cellRecord struct {
	Workload  string             `json:"workload"`
	AtomsK    int                `json:"atoms_k"`
	Ranks     int                `json:"ranks"`
	Workers   int                `json:"workers"`
	Precision string             `json:"precision"`
	KspaceAcc float64            `json:"kspace_acc,omitempty"`
	Trial     int                `json:"trial"`
	NMeasured int                `json:"n_measured"`
	NTarget   int                `json:"n_target"`
	Steps     int                `json:"steps"`
	TSps      float64            `json:"ts_per_s"`
	EnergyEff float64            `json:"ts_per_s_per_w"`
	MPIPct    float64            `json:"mpi_pct"`
	ImbalPct  float64            `json:"mpi_imbalance_pct"`
	TaskPct   map[string]float64 `json:"task_pct"`
	GridDims  []int              `json:"pppm_mesh,omitempty"`
	WallMS    int64              `json:"wall_ms"`
}

// errWriter accumulates the first write error so every emit path checks
// writes without if-err noise at each call site; the campaign fails at
// (or before) close if anything was lost.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloads = fs.String("workloads", "", "comma grid of workloads (default all: rhodo,lj,chain,eam,chute)")
		atoms     = fs.String("atoms", "", "comma grid of system sizes in k atoms (default 32,256,864,2048)")
		ranks     = fs.String("ranks", "", "comma grid of CPU rank counts (default 1,2,4,8,16,32,64)")
		workers   = fs.String("workers", "1", "comma grid of intra-rank worker-pool widths")
		precs     = fs.String("precisions", "mixed", "comma grid of pairwise precisions (mixed,double,single)")
		accs      = fs.String("kspace-acc", "", "comma grid of PPPM relative-error thresholds (default workload default; ignored by non-PPPM workloads)")
		trials    = fs.Int("trials", 1, "repeat trials per cell (trial-varied seeds)")

		cap_     = fs.Int("measure-cap", 0, "max atoms actually simulated per measurement")
		steps    = fs.Int("steps", 0, "measured steps per configuration")
		warmup   = fs.Int("warmup", 0, "warmup steps excluded from counters")
		seed     = fs.Uint64("seed", 0, "base RNG seed (0 = harness default; trial t adds t)")
		chkEvery = fs.Int("check-every", 2, "run numerical guardrails every N steps during measurements (0 = off; campaigns keep them on)")
		quick    = fs.Bool("quick", false, "reduced fidelity (cap 6000 atoms, 6 steps)")

		csvPath  = fs.String("csv", "sweep.csv", "write per-cell results as CSV to this file (empty = off)")
		jsonl    = fs.String("jsonl", "sweep.jsonl", "write per-cell results as JSON Lines to this file (empty = off)")
		maniPath = fs.String("manifest", "sweep_manifest.json", "write the machine-readable campaign manifest to this file (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "mdsweep: "+format+"\n", args...)
		return 1
	}

	wls, err := parseWorkloads(*workloads)
	if err != nil {
		return fail("%v", err)
	}
	sizes, err := harness.ParseInts(*atoms)
	if err != nil {
		return fail("%v", err)
	}
	rankList, err := harness.ParseInts(*ranks)
	if err != nil {
		return fail("%v", err)
	}
	workerList, err := harness.ParseInts(*workers)
	if err != nil {
		return fail("%v", err)
	}
	precList, err := parsePrecisions(*precs)
	if err != nil {
		return fail("%v", err)
	}
	accList, err := parseFloats(*accs)
	if err != nil {
		return fail("%v", err)
	}

	opts := harness.Options{
		MeasureCap: *cap_, Steps: *steps, Warmup: *warmup,
		Seed: *seed, CheckEvery: *chkEvery,
	}
	if *quick {
		if opts.MeasureCap == 0 {
			opts.MeasureCap = 6000
		}
		if opts.Steps == 0 {
			opts.Steps = 6
		}
	}

	// The manifest records, and the config hash covers, what runs: the
	// spec and options with every default RunCampaign would fill in.
	opts = opts.WithDefaults()
	spec := harness.CampaignSpec{
		Workloads: wls, SizesK: sizes, Ranks: rankList,
		Workers: workerList, Precisions: precList,
		KspaceAccs: accList, Trials: *trials,
	}.WithDefaults()
	man := &manifest{
		Tool:   "mdsweep",
		GitSHA: results.GitSHA("."),
		Host:   results.Fingerprint(),
		Grid: gridConfig{
			SizesK: spec.SizesK, Ranks: spec.Ranks, Workers: spec.Workers,
			KspaceAccs: spec.KspaceAccs, Trials: spec.Trials,
		},
		Fidelity: fidelity{
			MeasureCap: opts.MeasureCap, Steps: opts.Steps, Warmup: opts.Warmup,
			CheckEvery: opts.CheckEvery, Seed: opts.Seed,
		},
		CSV: *csvPath, JSONL: *jsonl,
	}
	for _, w := range spec.Workloads {
		man.Grid.Workloads = append(man.Grid.Workloads, string(w))
	}
	for _, p := range spec.Precisions {
		man.Grid.Precisions = append(man.Grid.Precisions, p.String())
	}
	man.ConfigHash = results.ConfigHash(struct {
		Grid     gridConfig `json:"grid"`
		Fidelity fidelity   `json:"fidelity"`
	}{man.Grid, man.Fidelity})

	// The data log doubles as the strict verifier of campaign
	// completeness: every engine measurement logs a record, and a lost
	// write (full disk, closed pipe) fails the run. Campaigns are always
	// strict — there is no -strict-log opt-in to forget.
	var dataLog *trace.Logger
	var logFile *os.File
	if *jsonl != "" {
		if logFile, err = os.Create(*jsonl); err != nil {
			return fail("%v", err)
		}
		dataLog = trace.New(logFile)
	}

	var csvFile *os.File
	var csvw *errWriter
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fail("%v", err)
		}
		csvFile = f
		csvw = &errWriter{w: f}
	}

	t0 := time.Now()

	// SIGINT/SIGTERM abort the campaign at the next cell boundary (the
	// emit callback's error return is the abort channel RunCampaign
	// already honors); writers are closed so partial results survive.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)
	interrupted := func() bool {
		select {
		case <-sigC:
			signal.Stop(sigC) // a second signal kills the process
			return true
		default:
			return false
		}
	}

	if csvw != nil {
		cols := []string{"workload", "atoms_k", "ranks", "workers", "precision",
			"kspace_acc", "trial", "n_measured", "n_target", "steps",
			"ts_per_s", "ts_per_s_per_w", "mpi_pct", "mpi_imbalance_pct"}
		for _, t := range harness.TaskNames() {
			cols = append(cols, strings.ToLower(t)+"_pct")
		}
		cols = append(cols, "wall_ms")
		csvw.printf("%s\n", strings.Join(cols, ","))
	}

	exitErr := harness.RunCampaign(spec, opts, dataLog, func(r harness.CellResult) error {
		rec := cellRecord{
			Workload:  string(r.Spec.Workload),
			AtomsK:    r.Spec.AtomsK,
			Ranks:     r.Spec.Ranks,
			Workers:   r.Workers,
			Precision: r.Spec.Precision.String(),
			KspaceAcc: r.Spec.KspaceAcc,
			Trial:     r.Trial,
			NMeasured: r.NMeasured,
			NTarget:   r.NTarget,
			Steps:     r.Steps,
			TSps:      r.TSps,
			EnergyEff: r.EnergyEff,
			MPIPct:    r.MPIPct,
			ImbalPct:  r.ImbalancePct,
			TaskPct:   map[string]float64{},
			WallMS:    r.Wall.Milliseconds(),
		}
		for i, name := range harness.TaskNames() {
			rec.TaskPct[name] = r.TaskPct[i]
		}
		if r.GridDims != [3]int{} {
			rec.GridDims = []int{r.GridDims[0], r.GridDims[1], r.GridDims[2]}
		}
		dataLog.Log("cell", map[string]any{"label": r.Label(), "record": rec})
		if csvw != nil {
			vals := []string{
				rec.Workload, itoa(rec.AtomsK), itoa(rec.Ranks), itoa(rec.Workers),
				rec.Precision, ftoa(rec.KspaceAcc), itoa(rec.Trial),
				itoa(rec.NMeasured), itoa(rec.NTarget), itoa(rec.Steps),
				fmt.Sprintf("%.4f", rec.TSps), fmt.Sprintf("%.5f", rec.EnergyEff),
				fmt.Sprintf("%.2f", rec.MPIPct), fmt.Sprintf("%.2f", rec.ImbalPct),
			}
			for _, v := range r.TaskPct {
				vals = append(vals, fmt.Sprintf("%.2f", v))
			}
			vals = append(vals, fmt.Sprintf("%d", rec.WallMS))
			csvw.printf("%s\n", strings.Join(vals, ","))
			if csvw.err != nil {
				return csvw.err
			}
		}
		man.Cells = append(man.Cells, manifestCell{
			Label: r.Label(), Status: "ok", WallMS: rec.WallMS,
		})
		fmt.Fprintf(stdout, "%-40s %10.3f TS/s  %6d ms\n", r.Label(), r.TSps, rec.WallMS)
		// Checked after the cell's records are written, so the
		// interrupted campaign keeps every completed cell.
		if interrupted() {
			return errInterrupted
		}
		return nil
	})

	man.TotalWallMS = time.Since(t0).Milliseconds()

	if errors.Is(exitErr, errInterrupted) {
		// Close, best-effort, everything written so far; the manifest is
		// deliberately skipped — a partial grid is not reproducible as one.
		if csvFile != nil {
			csvFile.Close()
		}
		if logFile != nil {
			logFile.Close()
		}
		fmt.Fprintf(stderr, "mdsweep: interrupted after %d cell(s); partial CSV/JSONL closed, manifest skipped\n", len(man.Cells))
		return 130
	}
	if exitErr != nil {
		return fail("%v", exitErr)
	}

	// Close every writer, loudly. A campaign whose outputs were silently
	// truncated is worse than a failed campaign.
	if csvw != nil {
		if csvw.err != nil {
			return fail("csv %s: %v", *csvPath, csvw.err)
		}
		if err := csvFile.Close(); err != nil {
			return fail("csv %s: %v", *csvPath, err)
		}
	}
	if dataLog != nil {
		if err := dataLog.Err(); err != nil {
			return fail("data log incomplete: %v", err)
		}
		if err := logFile.Close(); err != nil {
			return fail("jsonl %s: %v", *jsonl, err)
		}
	}
	if *maniPath != "" {
		if err := writeJSON(*maniPath, man); err != nil {
			return fail("manifest: %v", err)
		}
	}
	fmt.Fprintf(stdout, "# campaign complete: %d cells in %d ms\n", len(man.Cells), man.TotalWallMS)
	return 0
}

func itoa(v int) string { return strconv.Itoa(v) }

func ftoa(v float64) string {
	if v == 0 {
		return "0"
	}
	return fmt.Sprintf("%g", v)
}

// writeJSON writes v as indented JSON with checked write+close.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
