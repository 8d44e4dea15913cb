package core

import (
	"fmt"
	"math"
)

// SimError is a numerical-guardrail or checkpoint failure with enough
// diagnostics to locate the fault: which rank, which step, and (for
// per-atom conditions) which atom. Guardrails panic with *SimError; the
// mpi supervision converts it into a RankError whose cause unwraps back
// to the SimError, and RunChecked returns it directly in serial runs.
type SimError struct {
	Rank    int
	Step    int64
	AtomTag int64 // 0 when the condition is not per-atom
	Kind    string
	Detail  string
}

// Guardrail failure kinds.
const (
	ErrNaNForce     = "nan-force"
	ErrNaNEnergy    = "nan-energy"
	ErrLostAtom     = "lost-atom"
	ErrCkptWrite    = "checkpoint-write"
	ErrHangInjected = "hang-injected"
	// ErrTooManyBins: the neighbor list refused to bin atoms spread too
	// far for its bin size (neighbor.BinError).
	ErrTooManyBins = "too-many-bins"
)

// Error implements error.
func (e *SimError) Error() string {
	if e.AtomTag != 0 {
		return fmt.Sprintf("sim: %s on rank %d at step %d (atom tag %d): %s",
			e.Kind, e.Rank, e.Step, e.AtomTag, e.Detail)
	}
	return fmt.Sprintf("sim: %s on rank %d at step %d: %s", e.Kind, e.Rank, e.Step, e.Detail)
}

// checkGuards runs the numerical guardrails over the rank's owned atoms
// and the last force evaluation: non-finite forces or positions,
// non-finite potential energy, positions escaped past the halo range,
// and (collectively) global atom-count conservation. Any violation
// panics with a typed *SimError carrying rank/step/atom diagnostics.
//
// The atom-count check is a collective reduction, so every rank must
// call checkGuards on the same steps (CheckEvery is part of the shared
// config); a rank that panics before reaching it aborts the world and
// unblocks the peers parked in the reduction.
func (s *Simulation) checkGuards() {
	st := s.Store
	rank := s.backend.Rank()

	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for i := 0; i < st.N; i++ {
		f := st.Force[i]
		if !finite(f.X) || !finite(f.Y) || !finite(f.Z) {
			panic(&SimError{
				Rank: rank, Step: s.Step, AtomTag: st.Tag[i], Kind: ErrNaNForce,
				Detail: fmt.Sprintf("force = %v", f),
			})
		}
	}
	if !finite(s.LastPE) {
		panic(&SimError{
			Rank: rank, Step: s.Step, Kind: ErrNaNEnergy,
			Detail: fmt.Sprintf("potential energy = %v", s.LastPE),
		})
	}

	// Positions: non-finite, or drifted beyond the halo range past the
	// subdomain's periodic cell (a "lost atom" in LAMMPS terms: it can no
	// longer interact correctly with its neighbors).
	slack := s.GhostCutoff()
	lo := s.Box.Lo
	hi := s.Box.Hi
	for i := 0; i < st.N; i++ {
		p := st.Pos[i]
		if !finite(p.X) || !finite(p.Y) || !finite(p.Z) {
			panic(&SimError{
				Rank: rank, Step: s.Step, AtomTag: st.Tag[i], Kind: ErrLostAtom,
				Detail: fmt.Sprintf("position = %v", p),
			})
		}
		if p.X < lo.X-slack || p.X > hi.X+slack ||
			p.Y < lo.Y-slack || p.Y > hi.Y+slack ||
			p.Z < lo.Z-slack || p.Z > hi.Z+slack {
			panic(&SimError{
				Rank: rank, Step: s.Step, AtomTag: st.Tag[i], Kind: ErrLostAtom,
				Detail: fmt.Sprintf("position %v outside box [%v, %v] by more than the halo range %g", p, lo, hi, slack),
			})
		}
	}

	// Count conservation is global: migration bugs lose atoms from one
	// rank without another gaining them.
	want := s.backend.NGlobal(s)
	got := int(s.backend.ReduceScalar(float64(st.N)))
	if got != want {
		panic(&SimError{
			Rank: rank, Step: s.Step, Kind: ErrLostAtom,
			Detail: fmt.Sprintf("global atom count %d, want %d", got, want),
		})
	}
}
