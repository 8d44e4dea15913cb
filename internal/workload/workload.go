// Package workload constructs the five benchmark experiments of the
// paper's suite (§3, Table 2): Rhodopsin (surrogate), LJ, Chain, EAM, and
// Chute, parameterized by atom count so the characterization harness can
// sweep the paper's four system sizes (32k, 256k, 864k, 2048k atoms).
package workload

import (
	"fmt"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/pair"
)

// Name identifies a benchmark.
type Name string

// The benchmark suite.
const (
	Rhodo Name = "rhodo"
	LJ    Name = "lj"
	Chain Name = "chain"
	EAM   Name = "eam"
	Chute Name = "chute"
)

// All lists the suite in the paper's Table 2 order.
func All() []Name { return []Name{Rhodo, LJ, Chain, EAM, Chute} }

// Parse maps a benchmark name to its Name; the error lists the suite.
func Parse(s string) (Name, error) {
	for _, n := range All() {
		if string(n) == s {
			return n, nil
		}
	}
	return "", fmt.Errorf("unknown workload %q (want one of %v)", s, All())
}

// Sizes lists the paper's four system sizes in thousands of atoms.
func Sizes() []int { return []int{32, 256, 864, 2048} }

// Descriptor carries the Table 2 taxonomy entries for one benchmark.
type Descriptor struct {
	Name         Name
	ForceField   string
	Cutoff       string // with units, as printed in Table 2
	NeighborSkin string
	NeighPerAtom int // the paper's reported neighbors/atom
	PairModify   string
	KspaceStyle  string
	KspaceError  float64
	Integration  string
	GPUSupported bool // chute's gran/hooke pair style has no GPU kernel
	MinAtoms     int
}

// Describe returns the taxonomy of benchmark n.
func Describe(n Name) Descriptor {
	switch n {
	case Rhodo:
		return Descriptor{
			Name: Rhodo, ForceField: "CHARMM", Cutoff: "8.0-10.0 A",
			NeighborSkin: "2.0 A", NeighPerAtom: 440,
			PairModify: "mix arithmetic", KspaceStyle: "pppm",
			KspaceError: 1e-4, Integration: "NPT",
			GPUSupported: true, MinAtoms: 32000,
		}
	case LJ:
		return Descriptor{
			Name: LJ, ForceField: "lj", Cutoff: "2.5 sigma",
			NeighborSkin: "0.3 sigma", NeighPerAtom: 55,
			Integration: "NVE", GPUSupported: true, MinAtoms: 32000,
		}
	case Chain:
		return Descriptor{
			Name: Chain, ForceField: "lj", Cutoff: "1.12 sigma",
			NeighborSkin: "0.4 sigma", NeighPerAtom: 5,
			Integration: "NVE", GPUSupported: true, MinAtoms: 32000,
		}
	case EAM:
		return Descriptor{
			Name: EAM, ForceField: "EAM", Cutoff: "4.95 A",
			NeighborSkin: "1.0 A", NeighPerAtom: 45,
			Integration: "NVE", GPUSupported: true, MinAtoms: 32000,
		}
	case Chute:
		return Descriptor{
			Name: Chute, ForceField: "gran/hooke/history", Cutoff: "1.0 sigma",
			NeighborSkin: "0.1 sigma", NeighPerAtom: 7,
			Integration: "NVE", GPUSupported: false, MinAtoms: 32000,
		}
	default:
		panic(fmt.Sprintf("workload: unknown benchmark %q", n))
	}
}

// Options parameterize a workload build.
type Options struct {
	// Atoms is the requested atom count; builders round to the nearest
	// realizable count (lattice cells, whole molecules/chains).
	Atoms int
	// Precision selects the pairwise arithmetic (§8 study).
	Precision pair.Precision
	// KspaceAccuracy overrides the rhodopsin PPPM relative error
	// threshold (§7 study); 0 means the Table 2 default of 1e-4.
	KspaceAccuracy float64
	Seed           uint64
	ThermoEvery    int
}

// Build constructs the benchmark as a ready-to-wire configuration and
// populated atom store. The caller chooses the execution backend (serial
// core.New or a decomposed domain.New).
func Build(n Name, o Options) (core.Config, *atom.Store, error) {
	if o.Atoms == 0 {
		o.Atoms = 32000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	switch n {
	case LJ:
		return buildLJ(o)
	case Chain:
		return buildChain(o)
	case EAM:
		return buildEAM(o)
	case Chute:
		return buildChute(o)
	case Rhodo:
		return buildRhodo(o)
	default:
		return core.Config{}, nil, fmt.Errorf("workload: unknown benchmark %q", n)
	}
}

// MustBuild is Build that panics on error; used by tests and benches.
func MustBuild(n Name, o Options) (core.Config, *atom.Store) {
	cfg, st, err := Build(n, o)
	if err != nil {
		panic(err)
	}
	return cfg, st
}
