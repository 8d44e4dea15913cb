package core

import (
	"gomd/internal/atom"
	"gomd/internal/vec"
)

// SerialBackend runs the whole simulation box on one rank, realizing
// periodic boundary conditions with explicit ghost images of atoms within
// the interaction range of the box faces (the single-process mode of
// LAMMPS).
type SerialBackend struct {
	// ghostOwner[i] is the owned index behind ghost i; ghostShift[i] the
	// periodic image offset applied to its position.
	ghostOwner []int
	ghostShift []vec.V3
}

// Setup implements Backend.
func (b *SerialBackend) Setup(s *Simulation) { b.Rebuild(s) }

// GhostCutoff returns the distance within which atoms near a sub-domain
// (or periodic) boundary need halo copies.
func (s *Simulation) GhostCutoff() float64 {
	if s.Cfg.GhostCutoff > 0 {
		return s.Cfg.GhostCutoff
	}
	return s.Cfg.Pair.Cutoff() + s.Cfg.Skin
}

// Rebuild implements Backend: wrap positions into the primary cell and
// regenerate periodic-image ghosts.
func (b *SerialBackend) Rebuild(s *Simulation) {
	st := s.Store
	st.ClearGhosts()
	s.WrapOwned()
	cut := s.GhostCutoff()
	l := s.Box.Lengths()
	lo, hi := s.Box.Lo, s.Box.Hi
	b.ghostOwner = b.ghostOwner[:0]
	b.ghostShift = b.ghostShift[:0]

	// For each owned atom, emit an image for every non-zero shift triple
	// whose conditions hold (faces, edges, and corners).
	for i := 0; i < st.N; i++ {
		p := st.Pos[i]
		// Per dimension: no shift, then +L near the low face, then -L
		// near the high face.
		var opts [3][3]float64
		var nopt [3]int
		for d := 0; d < 3; d++ {
			nopt[d] = 1
			if s.Box.Periodic[d] {
				if p.Component(d) < lo.Component(d)+cut {
					opts[d][nopt[d]] = l.Component(d)
					nopt[d]++
				}
				if p.Component(d) > hi.Component(d)-cut {
					opts[d][nopt[d]] = -l.Component(d)
					nopt[d]++
				}
			}
		}
		for _, sx := range opts[0][:nopt[0]] {
			for _, sy := range opts[1][:nopt[1]] {
				for _, sz := range opts[2][:nopt[2]] {
					if sx == 0 && sy == 0 && sz == 0 {
						continue
					}
					shift := vec.New(sx, sy, sz)
					st.AddGhost(atom.Ghost{
						Tag:    st.Tag[i],
						Type:   st.Type[i],
						Pos:    p.Add(shift),
						Charge: st.Charge[i],
						Vel:    st.Vel[i],
					})
					b.ghostOwner = append(b.ghostOwner, i)
					b.ghostShift = append(b.ghostShift, shift)
				}
			}
		}
	}
	s.Counters.GhostAtoms += int64(st.Nghost)
}

// ForwardPositions implements Backend.
func (b *SerialBackend) ForwardPositions(s *Simulation) {
	st := s.Store
	for g := 0; g < st.Nghost; g++ {
		o := b.ghostOwner[g]
		st.Pos[st.N+g] = st.Pos[o].Add(b.ghostShift[g])
		st.Vel[st.N+g] = st.Vel[o]
	}
	s.Counters.GhostAtoms += int64(st.Nghost)
}

// ReverseForces implements Backend: fold ghost-accumulated forces back
// into their owners (bonded kernels may touch ghost images).
func (b *SerialBackend) ReverseForces(s *Simulation) {
	st := s.Store
	for g := 0; g < st.Nghost; g++ {
		f := st.Force[st.N+g]
		if f != (vec.V3{}) {
			o := b.ghostOwner[g]
			st.Force[o] = st.Force[o].Add(f)
			st.Force[st.N+g] = vec.V3{}
		}
	}
}

// ForwardScalar implements Backend.
func (b *SerialBackend) ForwardScalar(s *Simulation, buf []float64) {
	st := s.Store
	for g := 0; g < st.Nghost; g++ {
		buf[st.N+g] = buf[b.ghostOwner[g]]
	}
}

// ReduceScalar implements Backend.
func (b *SerialBackend) ReduceScalar(v float64) float64 { return v }

// ReduceBool implements Backend.
func (b *SerialBackend) ReduceBool(v bool) bool { return v }

// GridReducer implements Backend.
func (b *SerialBackend) GridReducer(*Simulation) func([]float64) { return nil }

// NGlobal implements Backend.
func (b *SerialBackend) NGlobal(s *Simulation) int { return s.Store.N }

// Size implements Backend.
func (b *SerialBackend) Size() int { return 1 }

// Rank implements Backend.
func (b *SerialBackend) Rank() int { return 0 }
