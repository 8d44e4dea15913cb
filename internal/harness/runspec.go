package harness

import (
	"errors"
	"fmt"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/fault"
	"gomd/internal/pair"
	"gomd/internal/workload"
)

// RunSpec is the recipe of one supervised workload run: what to simulate
// and how the run survives failures. mdrun binds its flags into one, an
// mdserve job converts into one, and a Runner measurement builds one.
// Where the run is deployed — CheckpointPath, WorldBuilder,
// observability, HangTimeout — is set on the Supervisor that Supervisor
// returns.
//
// Zero means the default wherever a default exists (Atoms, Seed,
// Precision, KspaceAcc; Workers 0 is serial; Thermo, CheckEvery and
// CheckpointEvery 0 are off; KeepCheckpoints 0 keeps one generation).
// Ranks and Steps have none and must be at least 1; every other count
// must not be negative.
type RunSpec struct {
	Workload  string  // workload.Parse name
	Atoms     int     // requested atom count
	Steps     int     // the absolute step the run reaches
	Ranks     int     // world size
	Workers   int     // intra-rank worker-pool width
	Seed      uint64  // workload RNG seed, also the fault injector's
	Precision string  // pair.ParsePrecision name ("" is double)
	KspaceAcc float64 // PPPM relative error threshold

	Thermo          int    // thermo interval
	CheckEvery      int    // numerical guardrail interval
	CheckpointEvery int    // checkpoint interval
	KeepCheckpoints int    // checkpoint generations retained
	Retries         int    // recoveries from rank failures
	Fault           string // fault.Parse plan ("" injects nothing)
}

// Validate reports every field no run can be built from.
func (r RunSpec) Validate() error {
	_, err := r.Supervisor()
	return err
}

// Supervisor validates r and returns the Supervisor of its run: Factory,
// Ranks, CheckpointEvery, KeepCheckpoints and Retries are set, the
// deployment fields are left to the caller. The workload, precision and
// fault plan are parsed here, once; every build of the factory — first
// start and each recovery — builds the identical system, which is what
// makes a restored run bit-identical to an uninterrupted one.
func (r RunSpec) Supervisor() (*Supervisor, error) {
	name, err := workload.Parse(r.Workload)
	prec := pair.Double
	if r.Precision != "" {
		var perr error
		prec, perr = pair.ParsePrecision(r.Precision)
		err = errors.Join(err, perr)
	}
	var inj *fault.Injector
	if r.Fault != "" {
		var ferr error
		inj, ferr = fault.Parse(r.Fault, r.Seed)
		err = errors.Join(err, ferr)
	}
	err = errors.Join(err, atLeastOne("ranks", r.Ranks), atLeastOne("steps", r.Steps),
		nonNegative("atoms", r.Atoms), nonNegative("workers", r.Workers), nonNegative("thermo", r.Thermo),
		nonNegative("check every", r.CheckEvery), nonNegative("checkpoint every", r.CheckpointEvery),
		nonNegative("keep checkpoints", r.KeepCheckpoints), nonNegative("retries", r.Retries),
		workload.CheckKspaceAccuracy(r.KspaceAcc))
	if r.Atoms > atom.MaxAtoms {
		err = errors.Join(err, fmt.Errorf("harness: atoms %d is above %d", r.Atoms, atom.MaxAtoms))
	}
	if err != nil {
		return nil, err
	}
	opts := workload.Options{
		Atoms:          r.Atoms,
		Precision:      prec,
		KspaceAccuracy: r.KspaceAcc,
		Seed:           r.Seed,
		ThermoEvery:    r.Thermo,
	}
	return &Supervisor{
		Factory: func() (core.Config, *atom.Store, error) {
			cfg, st, err := workload.Build(name, opts)
			cfg.ThermoTo = nil // the driver's frames speak for the world
			cfg.Workers = r.Workers
			cfg.CheckEvery = r.CheckEvery
			cfg.Fault = inj
			return cfg, st, err
		},
		Ranks:           r.Ranks,
		CheckpointEvery: r.CheckpointEvery,
		KeepCheckpoints: r.KeepCheckpoints,
		Retries:         r.Retries,
	}, nil
}
