// Command bench is the repo's wall-clock benchmark: eight workloads, one
// or more per layer, driven only through the layers' public functions.
//
// One workload, the form the driver calls (the last line of standard
// output is the result object):
//
//	bash bench/run.sh --workload lj_serial --seed 7 --seconds 8 --trace 0
//
// Every workload, with tables, results.json and the correctness checks:
//
//	bash bench/run.sh [-seed 2022] [-workloads a,b] [-repeat N] [-trace 1]
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type options struct {
	workload     string
	workloads    string
	seed         uint64
	seconds      float64
	trace        int
	repeat       int
	out          string
	resultFile   string
	updateGolden bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line (the driver's contract)")
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated workloads for the full pass (default: all)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "every input is generated from this seed")
	flag.Float64Var(&o.seconds, "seconds", 8, "length of each workload's timed window")
	flag.IntVar(&o.trace, "trace", 0, "1 = also run the traced pass: spans, per-layer metrics, attribution tables")
	flag.IntVar(&o.repeat, "repeat", 1, "run the untraced pass N times and check that the runs agree within each metric's bound")
	flag.StringVar(&o.out, "out", "bench/out", "directory for results, traces, checkpoints and journals")
	flag.StringVar(&o.resultFile, "result-file", "", "with -workload: also write the full result record here")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite bench/golden.json from this pass (default seed only)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	// Two CPUs is what the workloads are sized for (two ranks, two
	// workers, two clients); never more, so numbers from a larger host
	// stay comparable.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	if o.workload != "" {
		os.Exit(runOne(o))
	}
	os.Exit(fullPass(o))
}

func goldenPath() string { return filepath.Join("bench", "golden.json") }

func loadGolden() (map[string]goldenEntry, error) {
	data, err := os.ReadFile(goldenPath())
	if err != nil {
		return nil, err
	}
	var g map[string]goldenEntry
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(), err)
	}
	return g, nil
}

// contractLine is the object the driver reads from the last line.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs a single workload in this process and prints its result.
func runOne(o options) int {
	w := findWorkload(o.workload)
	if w == nil {
		fatalf("unknown workload %q", o.workload)
	}
	var golden map[string]goldenEntry
	if !o.updateGolden { // a pass that records the golden values cannot be checked against them
		var err error
		if golden, err = loadGolden(); err != nil {
			fatalf("%v", err)
		}
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	ro := runOpts{seed: o.seed, seconds: o.seconds, dir: dir, size: fullSize, golden: golden}
	if o.trace == 1 {
		ro.rec = newRecorder(w.name)
	}
	res, err := runWorkload(*w, ro)
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}

	decls, values := endToEnd, res.EndToEnd
	if o.trace == 1 {
		decls, values = perLayer, res.PerLayer
	}
	line := contractLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]contractMetric{}}
	fmt.Printf("%s seed=%d seconds=%g traced=%v: %d operations, %d failed\n",
		w.name, o.seed, o.seconds, o.trace == 1, res.Attempted, res.Failed)
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			fatalf("%s: metric %s was not measured", w.name, d.Name)
		}
		line.Metrics[d.Name] = contractMetric{Value: v, Unit: d.Unit}
		fmt.Printf("  %-36s %14.6g %-9s", d.Name, v, d.Unit)
		if n, ok := res.Samples[d.Name]; ok {
			fmt.Printf(" n=%d", n)
		}
		fmt.Println()
	}
	res.printChecks(os.Stdout)
	if len(res.Attribution) > 0 {
		printAttribution(res)
	}
	if o.resultFile != "" {
		data, err := json.Marshal(res)
		if err == nil {
			err = os.WriteFile(o.resultFile, data, 0o644)
		}
		if err != nil {
			fatalf("writing %s: %v", o.resultFile, err)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

func runWorkload(w workloadSpec, o runOpts) (*runResult, error) {
	if w.job != nil {
		return runServeWorkload(w, o)
	}
	return runEngineWorkload(w, o)
}

func printAttribution(res *runResult) {
	fmt.Printf("  attribution of the timed wall (%s):\n", res.Workload)
	var sum float64
	for _, row := range res.Attribution {
		name := row.Name
		if row.Of {
			name = "  " + name
		} else {
			sum += row.Share
		}
		fmt.Printf("    %-22s %10.1f ms %6.1f%%\n", name, row.Ms, row.Share)
	}
	fmt.Printf("    %-22s %13s %6.1f%%\n", "sum", "", sum)
}

// child re-execs this binary for one workload, so each gets a fresh
// heap, its own peak RSS and no goroutines left over from the previous
// one, and returns the full result record.
func child(o options, name string, trace int) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(o.out, "result-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace),
		"-out", o.out, "-result-file", f.Name(), fmt.Sprintf("-update-golden=%v", o.updateGolden))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr // the child's own report is progress output here
	runErr := cmd.Run()
	data, err := os.ReadFile(f.Name())
	if err != nil || len(data) == 0 {
		return nil, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &res, nil
}

func selected(o options) []string {
	var names []string
	if o.workloads == "" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return names
	}
	for _, n := range strings.Split(o.workloads, ",") {
		if findWorkload(n) == nil {
			fatalf("unknown workload %q", n)
		}
		names = append(names, n)
	}
	return names
}

// passFile is what results.json holds.
type passFile struct {
	Seed     uint64       `json:"seed"`
	Seconds  float64      `json:"seconds"`
	Host     hostRecord   `json:"host"`
	Untraced []*runResult `json:"untraced"` // repeat-major: every workload of pass 1, then pass 2, …
	Traced   []*runResult `json:"traced,omitempty"`
}

// fullPass runs every selected workload, prints every metric by name
// with unit and workload, writes results.json (and trace.json), and
// returns the exit code: non-zero when a check failed, an operation
// failed, or repeated runs disagreed by more than a metric's bound.
func fullPass(o options) int {
	names := selected(o)
	file := passFile{Seed: o.seed, Seconds: o.seconds, Host: hostInfo(o.out)}
	fmt.Printf("host: %s  GOMAXPROCS=%d  go=%s  git=%s  out=%s (%s)\n", file.Host.Fingerprint,
		file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.GitSHA, o.out, file.Host.OutFS)
	if file.Host.OutFS == "tmpfs" {
		fmt.Println("warning: -out is on tmpfs; fsync costs nothing there and the durability numbers flatter the code")
	}
	bad := false
	for rep := 0; rep < o.repeat; rep++ {
		for _, n := range names {
			res, err := child(o, n, 0)
			if err != nil {
				fatalf("%v", err)
			}
			file.Untraced = append(file.Untraced, res)
			bad = bad || !res.correct()
		}
	}
	if o.trace == 1 {
		for _, n := range names {
			res, err := child(o, n, 1)
			if err != nil {
				fatalf("%v", err)
			}
			file.Traced = append(file.Traced, res)
			bad = bad || !res.correct()
		}
	}

	last := file.Untraced[len(file.Untraced)-len(names):]
	fmt.Printf("\nend-to-end metrics (untraced pass, seed %d, %g s windows)\n", o.seed, o.seconds)
	printTable(endToEnd, last, func(r *runResult) map[string]float64 { return r.EndToEnd })
	for _, r := range last {
		fmt.Printf("%s: %d operations attempted, %d failed; %v atoms\n", r.Workload, r.Attempted, r.Failed, r.Info["atoms"])
		r.printChecks(os.Stdout)
	}
	if scalingWithheld() {
		fmt.Println("nproc < 2: ts_per_s of the 2-rank and 2-worker workloads is not a scaling measurement on this host")
	}
	if o.repeat > 1 {
		if !printAgreement(names, file.Untraced, o.repeat) {
			bad = true
		}
	}
	if o.trace == 1 {
		fmt.Printf("\nper-layer metrics (traced pass)\n")
		printTable(perLayer, file.Traced, func(r *runResult) map[string]float64 { return r.PerLayer })
		var spans [][]span
		for i, r := range file.Traced {
			fmt.Println()
			printAttribution(r)
			fmt.Printf("  spans (%s):\n", r.Workload)
			printSpanSummary(os.Stdout, r.Spans)
			u, t := last[i].EndToEnd["ts_per_s"], r.EndToEnd["ts_per_s"]
			fmt.Printf("  tracing overhead on ts_per_s: %.1f -> %.1f (%+.2f%%)", u, t, 100*(u-t)/u)
			if j, ok := last[i].Info["jobs_per_s"].(float64); ok {
				tj := r.Info["jobs_per_s"].(float64)
				fmt.Printf("; on jobs_per_s: %.2f -> %.2f (%+.2f%%)", j, tj, 100*(j-tj)/j)
			}
			fmt.Println()
			spans = append(spans, r.Spans)
			r.Spans = nil // trace.json holds them; results.json stays readable
		}
		path := filepath.Join(o.out, "trace.json")
		if err := writeChromeTrace(path, spans); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\nwrote %s (Chrome trace-event form; open in ui.perfetto.dev)\n", path)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, "results.json"), data, 0o644)
	}
	if err != nil {
		fatalf("writing results.json: %v", err)
	}
	fmt.Printf("wrote %s\n", filepath.Join(o.out, "results.json"))
	if o.updateGolden {
		if err := writeGolden(o, last); err != nil {
			fatalf("%v", err)
		}
	}
	if bad {
		fmt.Println("FAILED: see the checks above")
		return 1
	}
	return 0
}

// printTable prints one row per metric and one column per workload.
func printTable(decls []metricDecl, rs []*runResult, values func(*runResult) map[string]float64) {
	fmt.Printf("%-36s %-9s", "metric", "unit")
	for _, r := range rs {
		fmt.Printf(" %13s", r.Workload)
	}
	fmt.Println()
	for _, d := range decls {
		fmt.Printf("%-36s %-9s", d.Name, d.Unit)
		for _, r := range rs {
			fmt.Printf(" %13.6g", values(r)[d.Name])
		}
		fmt.Println()
	}
}

// printAgreement is the self-agreement check: for every workload and
// end-to-end metric, the repeated values, their median and their largest
// relative spread against the metric's bound; and for every count, whether
// it repeated exactly. It reports whether everything agreed.
func printAgreement(names []string, runs []*runResult, repeat int) bool {
	ok := true
	fmt.Printf("\nagreement of %d repeated untraced passes\n", repeat)
	for i, n := range names {
		var mine []*runResult
		for rep := 0; rep < repeat; rep++ {
			mine = append(mine, runs[rep*len(names)+i])
		}
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range mine {
				vals = append(vals, r.EndToEnd[d.Name])
			}
			spread := ratio(maxOf(vals)-best(vals), median(vals))
			verdict := "ok"
			if spread > d.Bound {
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("  %-13s %-20s median %12.6g  spread %5.1f%% (bound %2.0f%%) %s  %v\n",
				n, d.Name, median(vals), 100*spread, 100*d.Bound, verdict, compact(vals))
		}
		for _, k := range sortedKeys(mine[0].Counts) {
			same := true
			for _, r := range mine[1:] {
				same = same && r.Counts[k] == mine[0].Counts[k]
			}
			verdict := "repeats exactly"
			if !same {
				verdict = "DIFFERS BETWEEN REPEATS"
				ok = false
			}
			fmt.Printf("  %-13s %-34s %14.6g count  %s\n", n, k, mine[0].Counts[k], verdict)
		}
	}
	return ok
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func compact(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%.5g", v)
	}
	return out
}

// writeGolden records the default seed's reference thermo. Only engine
// workloads have one; serve jobs are checked against a direct run instead.
func writeGolden(o options, rs []*runResult) error {
	if o.seed != defaultSeed {
		return fmt.Errorf("golden values are recorded at seed %d, not %d", defaultSeed, o.seed)
	}
	g, err := loadGolden()
	if err != nil {
		g = map[string]goldenEntry{}
	}
	for _, r := range rs {
		step, ok := r.Info["golden_step"].(float64) // numbers come back from JSON as float64
		if !ok {
			continue
		}
		g[r.Workload] = goldenEntry{
			Step:        int64(step),
			Atoms:       int(r.Info["atoms"].(float64)),
			Temperature: r.Info["golden_temperature"].(float64),
			TotalEnergy: r.Info["golden_total_energy"].(float64),
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", goldenPath())
	return os.WriteFile(goldenPath(), append(data, '\n'), 0o644)
}
