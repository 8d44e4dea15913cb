// Package atom implements the particle store of the gomd engine: a
// structure-of-arrays container for per-atom state (positions, velocities,
// forces, types, charges), per-atom molecular topology (bonds, angles,
// special-neighbor exclusions), and the owned/ghost split required by
// spatial domain decomposition.
//
// Atoms are identified globally by a Tag (stable across migration between
// ranks) and locally by an index into the store. Indices [0, N) are owned
// atoms; [N, N+Nghost) are ghost copies of atoms owned by neighboring
// sub-domains (or periodic images in a serial run).
package atom

import (
	"fmt"

	"gomd/internal/vec"
)

// SpecialKind classifies a special (bonded-topology) neighbor for pairwise
// exclusion, mirroring the LAMMPS special_bonds 1-2/1-3/1-4 machinery.
type SpecialKind uint8

const (
	// Special12 marks directly bonded partners.
	Special12 SpecialKind = 1
	// Special13 marks partners two bonds away.
	Special13 SpecialKind = 2
	// Special14 marks partners three bonds away.
	Special14 SpecialKind = 3
)

// SpecialRef records one special neighbor of an atom.
type SpecialRef struct {
	Tag  int64
	Kind SpecialKind
}

// BondRef records a bond owned by an atom (by convention, the atom with
// the lower tag owns the bond so each bond is computed exactly once).
type BondRef struct {
	Type    int32
	Partner int64
}

// AngleRef records an angle owned by its central atom.
type AngleRef struct {
	Type int32
	// A and C are the tags of the two outer atoms; the owner is the vertex.
	A, C int64
}

// DihedralRef records a proper dihedral A-owner-C-D, owned by its second
// atom.
type DihedralRef struct {
	Type    int32
	A, C, D int64
}

// MaxAtoms bounds the system an untrusted input may ask for: the paper's
// largest system, 2048k atoms. The script interpreter and the job server
// refuse a larger request before allocating anything for it.
const MaxAtoms = 2_048_000

// Store is the per-rank atom container.
type Store struct {
	// N is the number of owned atoms; Nghost the number of ghost entries
	// that follow them in the arrays.
	N      int
	Nghost int

	Tag    []int64
	Type   []int32
	Mol    []int32
	Pos    []vec.V3
	Vel    []vec.V3
	Force  []vec.V3
	Charge []float64

	// Topology, tracked for owned atoms only (slices are nil when a
	// workload has no bonded interactions, e.g. LJ, EAM, Chute).
	Special   [][]SpecialRef
	Bonds     [][]BondRef
	Angles    [][]AngleRef
	Dihedrals [][]DihedralRef

	tag2loc map[int64]int32
}

// New returns an empty store with capacity hint n.
func New(n int) *Store {
	return &Store{
		Tag:       make([]int64, 0, n),
		Type:      make([]int32, 0, n),
		Mol:       make([]int32, 0, n),
		Pos:       make([]vec.V3, 0, n),
		Vel:       make([]vec.V3, 0, n),
		Force:     make([]vec.V3, 0, n),
		Charge:    make([]float64, 0, n),
		Special:   make([][]SpecialRef, 0, n),
		Bonds:     make([][]BondRef, 0, n),
		Angles:    make([][]AngleRef, 0, n),
		Dihedrals: make([][]DihedralRef, 0, n),
		tag2loc:   make(map[int64]int32, n),
	}
}

// Total returns the number of owned plus ghost entries.
func (s *Store) Total() int { return s.N + s.Nghost }

// Add appends an owned atom and returns its local index. Ghosts must not
// be present when owned atoms are added.
func (s *Store) Add(a Atom) int {
	if s.Nghost != 0 {
		panic("atom: Add with ghosts present")
	}
	i := len(s.Tag)
	s.Tag = append(s.Tag, a.Tag)
	s.Type = append(s.Type, a.Type)
	s.Mol = append(s.Mol, a.Mol)
	s.Pos = append(s.Pos, a.Pos)
	s.Vel = append(s.Vel, a.Vel)
	s.Force = append(s.Force, vec.V3{})
	s.Charge = append(s.Charge, a.Charge)
	s.Special = append(s.Special, a.Special)
	s.Bonds = append(s.Bonds, a.Bonds)
	s.Angles = append(s.Angles, a.Angles)
	s.Dihedrals = append(s.Dihedrals, a.Dihedrals)
	s.tag2loc[a.Tag] = int32(i)
	s.N = len(s.Tag)
	return i
}

// Atom is the full state of one particle, used for insertion and
// migration between ranks.
type Atom struct {
	Tag       int64
	Type      int32
	Mol       int32
	Pos       vec.V3
	Vel       vec.V3
	Charge    float64
	Special   []SpecialRef
	Bonds     []BondRef
	Angles    []AngleRef
	Dihedrals []DihedralRef
}

// Extract returns the full state of owned atom i.
func (s *Store) Extract(i int) Atom {
	if i >= s.N {
		panic("atom: Extract of ghost")
	}
	return Atom{
		Tag:       s.Tag[i],
		Type:      s.Type[i],
		Mol:       s.Mol[i],
		Pos:       s.Pos[i],
		Vel:       s.Vel[i],
		Charge:    s.Charge[i],
		Special:   s.Special[i],
		Bonds:     s.Bonds[i],
		Angles:    s.Angles[i],
		Dihedrals: s.Dihedrals[i],
	}
}

// Remove deletes owned atom i by swapping the last owned atom into its
// slot. Ghosts must not be present.
func (s *Store) Remove(i int) {
	if s.Nghost != 0 {
		panic("atom: Remove with ghosts present")
	}
	last := s.N - 1
	delete(s.tag2loc, s.Tag[i])
	if i != last {
		s.Tag[i] = s.Tag[last]
		s.Type[i] = s.Type[last]
		s.Mol[i] = s.Mol[last]
		s.Pos[i] = s.Pos[last]
		s.Vel[i] = s.Vel[last]
		s.Force[i] = s.Force[last]
		s.Charge[i] = s.Charge[last]
		s.Special[i] = s.Special[last]
		s.Bonds[i] = s.Bonds[last]
		s.Angles[i] = s.Angles[last]
		s.Dihedrals[i] = s.Dihedrals[last]
		s.tag2loc[s.Tag[i]] = int32(i)
	}
	s.Tag = s.Tag[:last]
	s.Type = s.Type[:last]
	s.Mol = s.Mol[:last]
	s.Pos = s.Pos[:last]
	s.Vel = s.Vel[:last]
	s.Force = s.Force[:last]
	s.Charge = s.Charge[:last]
	s.Special = s.Special[:last]
	s.Bonds = s.Bonds[:last]
	s.Angles = s.Angles[:last]
	s.Dihedrals = s.Dihedrals[:last]
	s.N = last
}

// Ghost is the reduced state communicated for halo atoms.
type Ghost struct {
	Tag    int64
	Type   int32
	Pos    vec.V3
	Charge float64
	Vel    vec.V3 // needed by the granular pair style (relative velocities)
}

// ClearGhosts drops all ghost entries.
func (s *Store) ClearGhosts() {
	s.Tag = s.Tag[:s.N]
	s.Type = s.Type[:s.N]
	s.Mol = s.Mol[:s.N]
	s.Pos = s.Pos[:s.N]
	s.Vel = s.Vel[:s.N]
	s.Force = s.Force[:s.N]
	s.Charge = s.Charge[:s.N]
	s.Special = s.Special[:s.N]
	s.Bonds = s.Bonds[:s.N]
	s.Angles = s.Angles[:s.N]
	s.Dihedrals = s.Dihedrals[:s.N]
	s.Nghost = 0
	// Rebuild the map without ghost entries. Tags of ghosts may coincide
	// with owned tags in serial periodic runs, so owned entries win.
	for t, i := range s.tag2loc {
		if int(i) >= s.N {
			delete(s.tag2loc, t)
		}
	}
}

// AddGhost appends a ghost entry and returns its local index. If the tag
// already resolves to an owned atom, the mapping keeps pointing at the
// owned copy (self-image ghosts in small periodic systems).
func (s *Store) AddGhost(g Ghost) int {
	i := len(s.Tag)
	s.Tag = append(s.Tag, g.Tag)
	s.Type = append(s.Type, g.Type)
	s.Mol = append(s.Mol, 0)
	s.Pos = append(s.Pos, g.Pos)
	s.Vel = append(s.Vel, g.Vel)
	s.Force = append(s.Force, vec.V3{})
	s.Charge = append(s.Charge, g.Charge)
	s.Special = append(s.Special, nil)
	s.Bonds = append(s.Bonds, nil)
	s.Angles = append(s.Angles, nil)
	s.Dihedrals = append(s.Dihedrals, nil)
	if _, ok := s.tag2loc[g.Tag]; !ok {
		s.tag2loc[g.Tag] = int32(i)
	}
	s.Nghost++
	return i
}

// Lookup returns the local index of tag, preferring owned atoms, and
// whether it is present at all.
func (s *Store) Lookup(tag int64) (int, bool) {
	i, ok := s.tag2loc[tag]
	return int(i), ok
}

// MustLookup is Lookup that panics when the tag is absent; bonded-force
// kernels use it since topology partners are guaranteed to be within the
// ghost cutoff.
func (s *Store) MustLookup(tag int64) int {
	i, ok := s.tag2loc[tag]
	if !ok {
		panic(fmt.Sprintf("atom: tag %d not present (bond partner beyond ghost cutoff?)", tag))
	}
	return int(i)
}

// ZeroForces clears the force accumulators of owned and ghost atoms.
func (s *Store) ZeroForces() {
	for i := range s.Force {
		s.Force[i] = vec.V3{}
	}
}

// IsSpecial reports whether tag j is a special neighbor of owned atom i,
// and of which kind.
func (s *Store) IsSpecial(i int, j int64) (SpecialKind, bool) {
	for _, ref := range s.Special[i] {
		if ref.Tag == j {
			return ref.Kind, true
		}
	}
	return 0, false
}
