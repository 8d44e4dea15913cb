package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gomd/internal/core"
	"gomd/internal/harness"
	"gomd/internal/results"
	"gomd/internal/workload"
)

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

	CSV string `json:"csv,omitempty"`
	Log string `json:"jsonl,omitempty"` // the -log data log

	Cells       []manifestCell `json:"cells"`
	TotalWallMS int64          `json:"total_wall_ms"`
}

type gridConfig struct {
	Workloads  []workload.Name `json:"workloads"`
	SizesK     []int           `json:"sizes_k"`
	Ranks      []int           `json:"ranks"`
	Workers    []int           `json:"workers"`
	Precisions []string        `json:"precisions"`
	KspaceAccs []float64       `json:"kspace_accs"`
	Trials     int             `json:"trials"`
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

// cellRecord is the data-log document of one cell (the full structured
// data; the CSV carries the compact summary).
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

// campaign sweeps the grid: per cell one CSV row, one "cell" record in
// the data log (which the runners also fill with their measurement
// records) and one manifest entry, written once the whole grid ran. A
// signal stops the campaign after the cell in flight; what was written
// stays, and the manifest is skipped — a partial grid does not
// reproduce as one.
func (inv *invocation) campaign(runner *harness.Runner, csv, stdout io.Writer, interrupted func() error) error {
	spec, opts := inv.spec, runner.Opts
	man := &manifest{
		Tool:   "mdbench",
		GitSHA: results.GitSHA("."),
		Host:   results.Fingerprint(),
		Grid: gridConfig{
			Workloads: spec.Workloads, SizesK: spec.SizesK, Ranks: spec.Ranks, Workers: spec.Workers,
			KspaceAccs: spec.KspaceAccs, Trials: spec.Trials,
		},
		Fidelity: fidelity{
			MeasureCap: opts.MeasureCap, Steps: opts.Steps, Warmup: opts.Warmup,
			CheckEvery: opts.CheckEvery, Seed: opts.Seed,
		},
		CSV: inv.csv, Log: inv.of.LogPath,
	}
	for _, p := range spec.Precisions {
		man.Grid.Precisions = append(man.Grid.Precisions, p.String())
	}
	man.ConfigHash = results.ConfigHash(struct {
		Grid     gridConfig `json:"grid"`
		Fidelity fidelity   `json:"fidelity"`
	}{man.Grid, man.Fidelity})

	t0 := time.Now()
	if csv != nil {
		cols := []string{"workload", "atoms_k", "ranks", "workers", "precision",
			"kspace_acc", "trial", "n_measured", "n_target", "steps",
			"ts_per_s", "ts_per_s_per_w", "mpi_pct", "mpi_imbalance_pct"}
		for _, t := range core.Tasks() {
			cols = append(cols, strings.ToLower(t.String())+"_pct")
		}
		cols = append(cols, "wall_ms")
		if _, err := fmt.Fprintln(csv, strings.Join(cols, ",")); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}
	err := harness.RunCampaign(spec, runner, func(r harness.CellResult) error {
		rec := cellRecord{
			Workload: string(r.Spec.Workload), AtomsK: r.Spec.AtomsK, Ranks: r.Spec.Ranks,
			Workers: r.Workers, Precision: r.Spec.Precision.String(), KspaceAcc: r.Spec.KspaceAcc,
			Trial: r.Trial, NMeasured: r.NMeasured, NTarget: r.NTarget, Steps: r.Steps,
			TSps: r.TSps, EnergyEff: r.EnergyEff, MPIPct: r.MPIPct, ImbalPct: r.ImbalancePct,
			TaskPct: map[string]float64{}, WallMS: r.Wall.Milliseconds(),
		}
		for i, t := range core.Tasks() {
			rec.TaskPct[t.String()] = r.TaskPct[i]
		}
		if r.GridDims != [3]int{} {
			rec.GridDims = r.GridDims[:]
		}
		runner.Trace.Log("cell", map[string]any{"label": r.Label(), "record": rec})
		if csv != nil {
			row := fmt.Sprintf("%s,%d,%d,%d,%s,%g,%d,%d,%d,%d,%.4f,%.5f,%.2f,%.2f",
				rec.Workload, rec.AtomsK, rec.Ranks, rec.Workers, rec.Precision, rec.KspaceAcc, rec.Trial,
				rec.NMeasured, rec.NTarget, rec.Steps, rec.TSps, rec.EnergyEff, rec.MPIPct, rec.ImbalPct)
			for _, v := range r.TaskPct {
				row += fmt.Sprintf(",%.2f", v)
			}
			if _, err := fmt.Fprintf(csv, "%s,%d\n", row, rec.WallMS); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
		man.Cells = append(man.Cells, manifestCell{Label: r.Label(), Status: "ok", WallMS: rec.WallMS})
		fmt.Fprintf(stdout, "%-40s %10.3f TS/s  %6d ms\n", r.Label(), r.TSps, rec.WallMS)
		// Checked after the cell's records are written, so an
		// interrupted campaign keeps every completed cell.
		return interrupted()
	})
	man.TotalWallMS = time.Since(t0).Milliseconds()
	if errors.Is(err, errInterrupted) {
		return fmt.Errorf("%w; %d cell(s) done, manifest skipped", err, len(man.Cells))
	}
	if err != nil {
		return err
	}
	if runner.Trace.Err() != nil {
		return nil // obs.Flags.Close fails the run on the incomplete data log; no manifest vouches for it
	}
	if inv.manifest != "" {
		data, err := json.MarshalIndent(man, "", "  ")
		if err == nil {
			err = os.WriteFile(inv.manifest, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
	}
	fmt.Fprintf(stdout, "# campaign complete: %d cells in %d ms\n", len(man.Cells), man.TotalWallMS)
	return nil
}
