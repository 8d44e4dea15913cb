// Package script interprets a LAMMPS-style input script — the lingua
// franca the paper's benchmark inputs are written in — and drives the
// gomd engine with it. The supported command subset covers the bench
// inputs: units, lattice, region, create_box/create_atoms, mass,
// velocity create, pair_style/pair_coeff, neighbor/neigh_modify,
// kspace_style, the bonded styles, fix, timestep, thermo, run,
// read_data/write_data, dump, write_restart and print.
//
// Scripts are line-oriented: `#` starts a comment, `&` at end of line
// continues onto the next, tokens are whitespace-separated.
//
// A script is parsed whole before any command runs, against one table
// whose row for each command gives its argument count, what must be
// established before it (units, a lattice, a box, a pair style and its
// coefficients, an integrator fix) and what it establishes. The parse
// rejects an unknown command, a wrong argument count, a command before
// what it needs, and a setup command after the first run (which builds
// the simulation, so later setup could not reach it). Validate is that
// parse, so a job server refuses at admission what would otherwise fail
// or crash mid-run. Sizes are bounded before anything is allocated: a
// box or a create_atoms may hold at most atom.MaxAtoms lattice sites,
// create_box at most maxTypes atom types, and the first run refuses a
// cutoff that would grid the box into more than maxCells neighbor bins
// or Ewald k-vectors.
package script

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gomd/internal/atom"
	"gomd/internal/bond"
	"gomd/internal/box"
	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/dump"
	"gomd/internal/fix"
	"gomd/internal/kspace"
	"gomd/internal/lattice"
	"gomd/internal/neighbor"
	"gomd/internal/pair"
	"gomd/internal/par"
	"gomd/internal/rng"
	"gomd/internal/units"
	"gomd/internal/vec"
)

// Interp holds the accumulating state of one script execution.
type Interp struct {
	// Out receives thermo and print output (defaults to io.Discard).
	Out io.Writer
	// Root, when set, confines the script's files: every file argument
	// (read_data, write_data, dump, write_restart) is resolved under it,
	// and an absolute path or one that climbs out fails with
	// ErrOutsideRoot. The serving daemon sets it to a per-job directory;
	// unset, paths mean what they mean to the process (mdrun -in).
	Root string

	units units.System

	latStyle lattice.Style
	latA     float64 // lattice constant

	// region "block" bounds in lattice units.
	regions map[string][2]vec.V3

	bx      box.Box
	ntypes  int
	masses  []float64
	st      *atom.Store
	pairSty pair.Style
	skin    float64
	every   int
	delay   int
	noCheck bool
	kspaceS kspace.Solver
	bondSty []bond.Style
	fixes   []fix.Fix
	dt      float64
	thermoN int

	sim *Simulation

	// dump settings: format ("xyz" or "custom"), interval, path.
	dumpEvery  int
	dumpFormat string
	dumpPath   string
}

// ErrOutsideRoot reports a file argument that does not stay under
// Interp.Root.
var ErrOutsideRoot = errors.New("script: file path escapes the job directory")

// maxTypes bounds create_box's atom type count: every shipped input uses
// at most 3, and 1024 keeps lj/cut's two ntypes² tables at 16 MB.
const maxTypes = 1024

// maxCells bounds the cells a run grids space into: the neighbor list
// bins the box and its ghost shell at half the pair cutoff plus skin,
// and Ewald sums over a cube of k-vectors as many across as the box
// spans 2π/kcut. A cutoff tiny against the box (or an Ewald accuracy
// near zero) would ask for more than any host has memory; 16 per atom
// of the largest system leaves room for sparse boxes. It is the cap the
// engine's neighbor list applies at every build.
const maxCells = neighbor.MaxBins

// path resolves a script's file argument under Root.
func (in *Interp) path(arg string) (string, error) {
	if in.Root == "" {
		return arg, nil
	}
	if !filepath.IsLocal(arg) {
		return "", fmt.Errorf("%w: %q", ErrOutsideRoot, arg)
	}
	return filepath.Join(in.Root, arg), nil
}

// Simulation wraps the constructed core.Simulation once the first `run`
// executes.
type Simulation = core.Simulation

// New returns an empty interpreter.
func New(out io.Writer) *Interp {
	if out == nil {
		out = io.Discard
	}
	return &Interp{
		Out:     out,
		regions: map[string][2]vec.V3{},
		skin:    0.3,
		every:   1,
	}
}

// Sim exposes the running simulation (nil before the first `run`).
func (in *Interp) Sim() *core.Simulation { return in.sim }

// state is the set of facts the commands parsed so far establish.
type state uint16

const (
	hasUnits state = 1 << iota
	hasLattice
	hasBox // a box and its atom store
	hasPair
	hasCoeff
	hasFix
	hasBond
	hasAngle
	hasDihedral
	hasSim // the simulation is built; setup is over
)

// givers names, bit by bit, the command that establishes each fact.
var givers = [...]string{"units", "lattice", "create_box", "pair_style", "pair_coeff",
	"fix", "bond_style", "angle_style", "dihedral_style", "run"}

const (
	// build is what building the simulation (run, write_restart) needs.
	build = hasUnits | hasBox | hasPair | hasCoeff | hasFix
	// setup forbids a command that only shapes the build once the
	// simulation exists.
	setup = hasSim
)

// runFunc executes one command with its arguments.
type runFunc func(in *Interp, ctx context.Context, a []string) error

// command is one row of the script language.
type command struct {
	min, max int // argument count; max 0: no upper bound
	usage    string
	needs    state // must hold before the command
	gives    state // holds after it
	forbids  state // the command is an error once any of these holds
	run      runFunc
}

func noop(*Interp, context.Context, []string) error { return nil }

// table is the script language: every command the interpreter knows.
var table = map[string]command{
	"units":          {min: 1, max: 1, usage: "units lj|metal|real", gives: hasUnits, forbids: setup, run: (*Interp).cmdUnits},
	"lattice":        {min: 2, usage: "lattice fcc|bcc|sc <scale>", needs: hasUnits, gives: hasLattice, forbids: setup, run: (*Interp).cmdLattice},
	"region":         {min: 8, usage: "region <id> block <xlo> <xhi> <ylo> <yhi> <zlo> <zhi>", forbids: setup, run: (*Interp).cmdRegion},
	"create_box":     {min: 2, max: 2, usage: "create_box <ntypes> <region>", needs: hasLattice, gives: hasBox, forbids: hasBox | setup, run: (*Interp).cmdCreateBox},
	"create_atoms":   {min: 2, usage: "create_atoms <type> box|region <id>", needs: hasLattice | hasBox, forbids: setup, run: (*Interp).cmdCreateAtoms},
	"read_data":      {min: 1, max: 1, usage: "read_data <file>", needs: hasUnits, gives: hasBox, forbids: setup, run: (*Interp).cmdReadData},
	"mass":           {min: 2, max: 2, usage: "mass <type> <m>", needs: hasBox, forbids: setup, run: (*Interp).cmdMass},
	"velocity":       {min: 4, usage: "velocity all create <T> <seed>", needs: hasBox, run: (*Interp).cmdVelocity},
	"pair_style":     {min: 1, usage: "pair_style <style> [<cutoff>...]", needs: hasBox, gives: hasPair, forbids: setup, run: (*Interp).cmdPairStyle},
	"pair_coeff":     {min: 2, usage: "pair_coeff <i> <j> <coefficients>", needs: hasPair, gives: hasCoeff, forbids: setup, run: (*Interp).cmdPairCoeff},
	"neighbor":       {min: 1, usage: "neighbor <skin> [bin]", forbids: setup, run: (*Interp).cmdNeighbor},
	"neigh_modify":   {usage: "neigh_modify [every <n>] [delay <n>] [check yes|no]", forbids: setup, run: (*Interp).cmdNeighModify},
	"kspace_style":   {min: 2, usage: "kspace_style pppm|ewald <accuracy>", forbids: setup, run: (*Interp).cmdKspace},
	"bond_style":     {min: 1, usage: "bond_style fene|harmonic", gives: hasBond, forbids: setup, run: bondStyle("bond_style")},
	"angle_style":    {min: 1, usage: "angle_style harmonic", gives: hasAngle, forbids: setup, run: bondStyle("angle_style")},
	"dihedral_style": {min: 1, usage: "dihedral_style charmm|harmonic", gives: hasDihedral, forbids: setup, run: bondStyle("dihedral_style")},
	"bond_coeff":     {min: 3, usage: "bond_coeff <type> <K> <r0> [<eps> <sigma>]", needs: hasBond, forbids: setup, run: (*Interp).cmdBondCoeff},
	"angle_coeff":    {min: 3, usage: "angle_coeff <type> <K> <theta0>", needs: hasAngle, forbids: setup, run: (*Interp).cmdAngleCoeff},
	"dihedral_coeff": {min: 4, usage: "dihedral_coeff <type> <K> <n> <d>", needs: hasDihedral, forbids: setup, run: (*Interp).cmdDihedralCoeff},
	"fix":            {min: 3, usage: "fix <id> <group> <style> [<args>...]", gives: hasFix, forbids: setup, run: (*Interp).cmdFix},
	"timestep":       {min: 1, usage: "timestep <dt>", forbids: setup, run: (*Interp).cmdTimestep},
	"thermo":         {min: 1, usage: "thermo <N>", forbids: setup, run: (*Interp).cmdThermo},
	"run":            {min: 1, max: 1, usage: "run <steps>", needs: build, gives: hasSim, run: (*Interp).cmdRun},
	"write_restart":  {min: 1, max: 1, usage: "write_restart <file>", needs: build, gives: hasSim, run: (*Interp).cmdWriteRestart},
	"write_data":     {min: 1, max: 1, usage: "write_data <file>", needs: hasBox, run: (*Interp).cmdWriteData},
	"dump":           {min: 5, usage: "dump <id> <group> xyz|custom <every> <file>", run: (*Interp).cmdDump},
	"print":          {run: (*Interp).cmdPrint},
	// Accepted for input compatibility; defaults apply.
	"atom_style": {run: noop}, "log": {run: noop}, "echo": {run: noop}, "boundary": {run: noop},
	"atom_modify": {run: noop}, "comm_modify": {run: noop}, "pair_modify": {run: noop},
}

// builtinCoeffs are the pair styles whose parameters come with the
// style, so they need no pair_coeff.
var builtinCoeffs = map[string]bool{"eam": true, "gran/hooke/history": true}

// stmt is one parsed command: the line it ends on, its body, its
// arguments.
type stmt struct {
	line int
	run  runFunc
	args []string
}

// parse reads a whole script and checks every command against the
// table: name, argument count, and the facts it needs, in order. It
// returns the commands and the facts the script establishes.
func parse(r io.Reader) ([]stmt, state, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grown as lines need, up to 1 MiB
	var (
		prog []stmt
		have state
		cont strings.Builder
	)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if strings.HasSuffix(text, "&") {
			cont.WriteString(strings.TrimSuffix(text, "&"))
			cont.WriteByte(' ')
			continue
		}
		if cont.Len() > 0 {
			text = cont.String() + text
			cont.Reset()
		}
		tok := strings.Fields(text)
		if len(tok) == 0 {
			continue
		}
		name, args := tok[0], tok[1:]
		c, ok := table[name]
		var err error
		switch missing := c.needs &^ have; {
		case !ok:
			err = fmt.Errorf("unknown command %q", name)
		case len(args) < c.min || c.max > 0 && len(args) > c.max:
			err = fmt.Errorf("usage: %s", c.usage)
		case missing != 0:
			err = fmt.Errorf("%s before %s", name, givers[bits.TrailingZeros16(uint16(missing))])
		case c.forbids&have&hasSim != 0:
			err = fmt.Errorf("%s after run: setup commands go before the first run", name)
		case c.forbids&have != 0:
			err = fmt.Errorf("%s: the box is already defined", name)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: %w", line, err)
		}
		have |= c.gives
		if name == "pair_style" {
			// A new pair style starts without coefficients.
			have &^= hasCoeff
			if builtinCoeffs[args[0]] {
				have |= hasCoeff
			}
		}
		prog = append(prog, stmt{line, c.run, args})
	}
	return prog, have, sc.Err()
}

// Validate parses a script without executing anything, so it never
// touches the filesystem and is safe on untrusted input. Every error Run
// would report before executing a command it reports too, and a script
// that never builds the simulation is an error as well. Argument values
// (numbers, styles, regions, files) are checked only when Run executes.
func Validate(r io.Reader) error {
	_, have, err := parse(r)
	if err == nil && have&hasSim == 0 {
		err = errors.New("script has no run command")
	}
	return err
}

// Run parses a whole script and then executes it. A parse error leaves
// the interpreter untouched. A cancelled ctx stops a `run` command
// before its next step, returning ctx's error; the steps taken so far
// stand. While it runs, the calling goroutine counts as one compute
// goroutine of the process (par.Occupy).
func (in *Interp) Run(ctx context.Context, r io.Reader) error {
	prog, _, err := parse(r)
	if err != nil {
		return err
	}
	defer par.Occupy(1)()
	for _, s := range prog {
		if err := s.run(in, ctx, s.args); err != nil {
			return fmt.Errorf("line %d: %w", s.line, err)
		}
	}
	return nil
}

func (in *Interp) cmdUnits(_ context.Context, a []string) error {
	switch a[0] {
	case "lj":
		in.units = units.ForStyle(units.LJ)
	case "metal":
		in.units = units.ForStyle(units.Metal)
	case "real":
		in.units = units.ForStyle(units.Real)
	default:
		return fmt.Errorf("unsupported units %q", a[0])
	}
	in.dt = in.units.DefaultDt
	return nil
}

func (in *Interp) cmdLattice(_ context.Context, a []string) error {
	var style lattice.Style
	switch a[0] {
	case "fcc":
		style = lattice.FCC
	case "bcc":
		style = lattice.BCC
	case "sc":
		style = lattice.SC
	default:
		return fmt.Errorf("unsupported lattice %q", a[0])
	}
	v, err := atof(a[1])
	if err != nil {
		return err
	}
	// The scale is a reduced density in LJ units, otherwise the lattice
	// constant.
	lat := v
	if in.units.Style == units.LJ {
		lat = lattice.CubicForDensity(style, v)
	}
	if !(lat > 0) || math.IsInf(lat, 1) {
		return fmt.Errorf("lattice scale %q gives no finite positive constant", a[1])
	}
	in.latStyle, in.latA = style, lat
	return nil
}

func (in *Interp) cmdRegion(_ context.Context, a []string) error {
	if a[1] != "block" {
		return fmt.Errorf("only `region <id> block xlo xhi ylo yhi zlo zhi` is supported")
	}
	var b [6]float64
	if err := floats(a[2:], &b[0], &b[1], &b[2], &b[3], &b[4], &b[5]); err != nil {
		return err
	}
	for i := 0; i < 6; i += 2 {
		if !(b[i] < b[i+1]) || math.IsInf(b[i], 0) || math.IsInf(b[i+1], 0) {
			return fmt.Errorf("region %s: bounds %s %s are not finite with lo < hi", a[0], a[2+i], a[3+i])
		}
	}
	in.regions[a[0]] = [2]vec.V3{
		vec.New(b[0], b[2], b[4]),
		vec.New(b[1], b[3], b[5]),
	}
	return nil
}

// cells counts the lattice cells along each axis of [lo, hi] and the
// sites they hold, in float64 so that no count overflows before it is
// checked against atom.MaxAtoms.
func (in *Interp) cells(lo, hi vec.V3) (n [3]float64, sites float64) {
	n = [3]float64{
		math.Round((hi.X - lo.X) / in.latA),
		math.Round((hi.Y - lo.Y) / in.latA),
		math.Round((hi.Z - lo.Z) / in.latA),
	}
	return n, n[0] * n[1] * n[2] * float64(in.latStyle.BasisCount())
}

func (in *Interp) cmdCreateBox(_ context.Context, a []string) error {
	n, err := atoi(a[0])
	if err != nil {
		return err
	}
	if n < 1 || n > maxTypes {
		return fmt.Errorf("create_box: %d atom types, want 1..%d", n, maxTypes)
	}
	r, ok := in.regions[a[1]]
	if !ok {
		return fmt.Errorf("unknown region %q", a[1])
	}
	lo := r[0].Scale(in.latA)
	hi := r[1].Scale(in.latA)
	if _, sites := in.cells(lo, hi); !(sites <= atom.MaxAtoms) {
		return fmt.Errorf("create_box: the box holds %g lattice sites, over the %d-atom limit", sites, atom.MaxAtoms)
	}
	in.ntypes = n
	in.masses = make([]float64, n)
	for i := range in.masses {
		in.masses[i] = 1
	}
	in.bx = box.NewPeriodic(lo, hi)
	in.st = atom.New(1024)
	return nil
}

func (in *Interp) cmdCreateAtoms(_ context.Context, a []string) error {
	typ, err := in.typ(a[0])
	if err != nil {
		return err
	}
	lo, hi := in.bx.Lo, in.bx.Hi
	if a[1] == "region" {
		if len(a) < 3 {
			return fmt.Errorf("create_atoms region needs an id")
		}
		r, ok := in.regions[a[2]]
		if !ok {
			return fmt.Errorf("unknown region %q", a[2])
		}
		lo, hi = r[0].Scale(in.latA), r[1].Scale(in.latA)
	}
	n, sites := in.cells(lo, hi)
	if total := float64(in.st.N) + sites; !(total <= atom.MaxAtoms) {
		return fmt.Errorf("create_atoms: %g atoms, over the %d-atom limit", total, atom.MaxAtoms)
	}
	pos := lattice.Generate(in.latStyle, in.latA, int(n[0]), int(n[1]), int(n[2]), lo)
	tag := int64(in.st.N)
	for _, p := range pos {
		tag++
		in.st.Add(atom.Atom{Tag: tag, Type: int32(typ), Pos: p})
	}
	fmt.Fprintf(in.Out, "Created %d atoms\n", len(pos))
	return nil
}

func (in *Interp) cmdMass(_ context.Context, a []string) error {
	t, err := in.typ(a[0])
	if err != nil {
		return err
	}
	m, err := atof(a[1])
	if err != nil {
		return err
	}
	in.masses[t-1] = m
	return nil
}

func (in *Interp) cmdVelocity(_ context.Context, a []string) error {
	// velocity all create <T> <seed>
	if a[0] != "all" || a[1] != "create" {
		return fmt.Errorf("only `velocity all create <T> <seed>` is supported")
	}
	T, err := atof(a[2])
	if err != nil {
		return err
	}
	seed, err := atoi(a[3])
	if err != nil {
		return err
	}
	masses := make([]float64, in.st.N)
	for i := 0; i < in.st.N; i++ {
		masses[i] = in.masses[in.st.Type[i]-1]
	}
	vel := lattice.MaxwellVelocities(rng.New(uint64(seed)), masses, T, in.units.Boltz, in.units.MVV2E)
	copy(in.st.Vel, vel)
	return nil
}

func (in *Interp) cmdPairStyle(_ context.Context, a []string) error {
	switch a[0] {
	case "lj/cut":
		if len(a) < 2 {
			return fmt.Errorf("lj/cut needs a cutoff")
		}
		rc, err := atof(a[1])
		if err != nil {
			return err
		}
		p := pair.NewLJCut(1, 1, rc, pair.Double)
		p.Eps = make([][]float64, in.ntypes)
		p.Sigma = make([][]float64, in.ntypes)
		for i := range p.Eps {
			p.Eps[i] = make([]float64, in.ntypes)
			p.Sigma[i] = make([]float64, in.ntypes)
		}
		in.pairSty = p
	case "lj/charmm/coul/long":
		if len(a) < 3 {
			return fmt.Errorf("lj/charmm/coul/long needs inner and outer cutoffs")
		}
		var inner, outer float64
		if err := floats(a[1:], &inner, &outer); err != nil {
			return err
		}
		eps := make([]float64, in.ntypes)
		sig := make([]float64, in.ntypes)
		in.pairSty = pair.NewCharmm(eps, sig, inner, outer, pair.Double)
	case "morse":
		if len(a) < 2 {
			return fmt.Errorf("morse needs a cutoff")
		}
		rc, err := atof(a[1])
		if err != nil {
			return err
		}
		in.pairSty = &pair.Morse{RCut: rc, Prec: pair.Double}
	case "eam":
		in.pairSty = pair.NewEAMCopper(pair.Double)
	case "gran/hooke/history":
		in.pairSty = pair.NewGranChute()
	default:
		return fmt.Errorf("unsupported pair_style %q", a[0])
	}
	return nil
}

func (in *Interp) cmdPairCoeff(_ context.Context, a []string) error {
	// pair_coeff <i> <j> <eps> <sigma>  (or `* *` for all)
	switch p := in.pairSty.(type) {
	case *pair.Morse:
		// pair_coeff * * D0 alpha r0
		if len(a) < 5 {
			return fmt.Errorf("pair_coeff * * D0 alpha r0")
		}
		return floats(a[2:], &p.D0, &p.Alpha, &p.R0)
	case *pair.LJCut:
		if len(a) < 4 {
			return fmt.Errorf("pair_coeff i j eps sigma")
		}
		var eps, sig float64
		if err := floats(a[2:], &eps, &sig); err != nil {
			return err
		}
		apply := func(i, j int) {
			p.Eps[i][j], p.Eps[j][i] = eps, eps
			p.Sigma[i][j], p.Sigma[j][i] = sig, sig
		}
		if a[0] == "*" {
			for i := 0; i < in.ntypes; i++ {
				for j := i; j < in.ntypes; j++ {
					apply(i, j)
				}
			}
			return nil
		}
		i, err := in.typ(a[0])
		if err != nil {
			return err
		}
		j, err := in.typ(a[1])
		if err != nil {
			return err
		}
		apply(i-1, j-1)
	case *pair.CharmmCoulLong:
		if len(a) < 4 {
			return fmt.Errorf("pair_coeff i j eps sigma")
		}
		var eps, sig float64
		if err := floats(a[2:], &eps, &sig); err != nil {
			return err
		}
		i, err := in.typ(a[0])
		if err != nil {
			return err
		}
		p.Eps[i-1][i-1] = eps
		p.Sigma[i-1][i-1] = sig
		// Re-mix arithmetically.
		for x := 0; x < in.ntypes; x++ {
			for y := 0; y < in.ntypes; y++ {
				p.Eps[x][y] = math.Sqrt(p.Eps[x][x] * p.Eps[y][y])
				p.Sigma[x][y] = 0.5 * (p.Sigma[x][x] + p.Sigma[y][y])
			}
		}
	default:
		// eam / granular take no coefficients here.
	}
	return nil
}

func (in *Interp) cmdNeighbor(_ context.Context, a []string) error {
	return floats(a, &in.skin)
}

func (in *Interp) cmdNeighModify(_ context.Context, a []string) error {
	for i := 0; i+1 < len(a); i += 2 {
		switch a[i] {
		case "every":
			n, err := atoi(a[i+1])
			if err != nil {
				return err
			}
			in.every = n
		case "delay":
			n, err := atoi(a[i+1])
			if err != nil {
				return err
			}
			in.delay = n
		case "check":
			in.noCheck = a[i+1] == "no"
		}
	}
	return nil
}

func (in *Interp) cmdKspace(_ context.Context, a []string) error {
	if a[0] != "pppm" && a[0] != "ewald" {
		return fmt.Errorf("kspace_style pppm|ewald <accuracy>")
	}
	acc, err := atof(a[1])
	if err != nil {
		return err
	}
	if !(acc > 0 && acc < 1) {
		return fmt.Errorf("kspace accuracy %s is not in (0, 1)", a[1])
	}
	rc := 10.0
	if ch, ok := in.pairSty.(*pair.CharmmCoulLong); ok {
		rc = ch.RCoul
	}
	if a[0] == "pppm" {
		in.kspaceS = kspace.NewPPPM(acc, rc)
	} else {
		in.kspaceS = kspace.NewEwald(acc, rc)
	}
	return nil
}

// bondStyle is the body of the bonded-style command cmd.
func bondStyle(cmd string) runFunc {
	return func(in *Interp, _ context.Context, a []string) error { return in.cmdBondStyle(cmd, a) }
}

// cmdBondStyle registers a bonded style; coefficients follow via the
// matching *_coeff command.
func (in *Interp) cmdBondStyle(cmd string, a []string) error {
	switch cmd + " " + a[0] {
	case "bond_style fene":
		in.bondSty = append(in.bondSty, bond.NewFENEChain())
	case "bond_style harmonic":
		in.bondSty = append(in.bondSty, &bond.Harmonic{})
	case "angle_style harmonic":
		in.bondSty = append(in.bondSty, &bond.HarmonicAngle{})
	case "dihedral_style charmm", "dihedral_style harmonic":
		in.bondSty = append(in.bondSty, &bond.DihedralHarmonic{N: 1})
	default:
		return fmt.Errorf("unsupported %s %q", cmd, a[0])
	}
	return nil
}

// last returns the most recent bonded style of type T. The parse puts
// the matching *_style command before any *_coeff, so one exists.
func last[T bond.Style](styles []bond.Style) (t T) {
	for i := len(styles) - 1; i >= 0; i-- {
		if s, ok := styles[i].(T); ok {
			return s
		}
	}
	return t
}

// cmdBondCoeff sets coefficients on the most recent bond style:
// bond_coeff <t> K R0 eps sigma (fene) or <t> K r0 (harmonic).
func (in *Interp) cmdBondCoeff(_ context.Context, a []string) error {
	for i := len(in.bondSty) - 1; i >= 0; i-- {
		switch b := in.bondSty[i].(type) {
		case *bond.FENE:
			if len(a) < 5 {
				return fmt.Errorf("bond_coeff <t> K R0 eps sigma for fene")
			}
			return floats(a[1:], &b.K, &b.R0, &b.Eps, &b.Sigma)
		case *bond.Harmonic:
			return floats(a[1:], &b.K, &b.R0)
		}
	}
	return nil
}

// cmdAngleCoeff: angle_coeff <t> K theta0(deg).
func (in *Interp) cmdAngleCoeff(_ context.Context, a []string) error {
	ang := last[*bond.HarmonicAngle](in.bondSty)
	var deg float64
	if err := floats(a[1:], &ang.K, &deg); err != nil {
		return err
	}
	ang.Theta0 = deg * math.Pi / 180
	return nil
}

// cmdDihedralCoeff: dihedral_coeff <t> K n d(deg).
func (in *Interp) cmdDihedralCoeff(_ context.Context, a []string) error {
	dh := last[*bond.DihedralHarmonic](in.bondSty)
	if err := floats(a[1:], &dh.K); err != nil {
		return err
	}
	n, err := atoi(a[2])
	if err != nil {
		return err
	}
	var deg float64
	if err := floats(a[3:], &deg); err != nil {
		return err
	}
	dh.N, dh.D = n, deg*math.Pi/180
	return nil
}

func (in *Interp) cmdFix(_ context.Context, a []string) error {
	// fix <id> all <style> [args]
	style := a[2]
	args := a[3:]
	switch style {
	case "nve":
		in.fixes = append(in.fixes, &fix.NVE{})
	case "nve/limit":
		if len(args) < 1 {
			return fmt.Errorf("nve/limit needs a max displacement")
		}
		f := &fix.NVELimit{}
		if err := floats(args, &f.MaxDisp); err != nil {
			return err
		}
		in.fixes = append(in.fixes, f)
	case "langevin":
		if len(args) < 3 {
			return fmt.Errorf("langevin <Tstart> <Tstop> <damp>")
		}
		f := &fix.Langevin{}
		if err := floats(args, &f.T); err != nil {
			return err
		}
		if err := floats(args[2:], &f.Damp); err != nil {
			return err
		}
		in.fixes = append(in.fixes, f)
	case "nvt":
		// fix 1 all nvt temp T T tdamp
		if len(args) < 4 || args[0] != "temp" {
			return fmt.Errorf("nvt temp <Tstart> <Tstop> <damp>")
		}
		f := &fix.NVT{}
		if err := floats(args[1:], &f.TStart, &f.TStop, &f.TDamp); err != nil {
			return err
		}
		in.fixes = append(in.fixes, f)
	case "npt":
		// fix 1 all npt temp T T tdamp iso P P pdamp
		f := &fix.NPT{}
		for i := 0; i < len(args); i++ {
			switch args[i] {
			case "temp":
				if i+3 >= len(args) {
					return fmt.Errorf("npt temp needs 3 values")
				}
				if err := floats(args[i+1:], &f.TStart, &f.TStop, &f.TDamp); err != nil {
					return err
				}
				i += 3
			case "iso":
				if i+3 >= len(args) {
					return fmt.Errorf("npt iso needs 3 values")
				}
				if err := floats(args[i+1:], &f.PTarget); err != nil {
					return err
				}
				if err := floats(args[i+3:], &f.PDamp); err != nil {
					return err
				}
				i += 3
			}
		}
		in.fixes = append(in.fixes, f)
	case "gravity":
		// fix g all gravity <mag> chute <angle>
		if len(args) < 3 || args[1] != "chute" {
			return fmt.Errorf("gravity <mag> chute <angle>")
		}
		f := &fix.Gravity{}
		if err := floats(args, &f.Mag); err != nil {
			return err
		}
		if err := floats(args[2:], &f.Angle); err != nil {
			return err
		}
		in.fixes = append(in.fixes, f)
	case "wall/gran":
		in.fixes = append(in.fixes, fix.NewWallGranChute())
	default:
		return fmt.Errorf("unsupported fix style %q", style)
	}
	return nil
}

func (in *Interp) cmdTimestep(_ context.Context, a []string) error {
	return floats(a, &in.dt)
}

func (in *Interp) cmdThermo(_ context.Context, a []string) error {
	n, err := atoi(a[0])
	in.thermoN = n
	return err
}

func (in *Interp) cmdPrint(_ context.Context, a []string) error {
	fmt.Fprintln(in.Out, strings.Join(a, " "))
	return nil
}

// cmdRun advances the simulation, building it first if this is the
// first run. ctx is checked before every step; stepping one at a time
// changes no bits, since Run(a); Run(b) is Run(a+b).
func (in *Interp) cmdRun(ctx context.Context, a []string) error {
	n, err := atoi(a[0])
	if err != nil {
		return err
	}
	if in.sim == nil {
		if err := in.finalize(); err != nil {
			return err
		}
	}
	for done := 1; done <= n; done++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		in.sim.Run(1)
		if in.dumpEvery > 0 && (done%in.dumpEvery == 0 || done == n) {
			if err := in.writeDumpFrames(); err != nil {
				return err
			}
		}
	}
	th := in.sim.ComputeThermo()
	fmt.Fprintf(in.Out, "run complete: step %d T %.4f PE %.6g E %.6g\n",
		th.Step, th.Temperature, th.PotEnergy, th.TotalEnergy)
	return nil
}

// cmdReadData loads a LAMMPS data file: box, masses, atoms, topology.
func (in *Interp) cmdReadData(_ context.Context, a []string) error {
	path, err := in.path(a[0])
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	df, err := dump.ReadData(f)
	if err != nil {
		return err
	}
	in.bx = df.Box
	in.masses = df.Masses
	in.ntypes = len(df.Masses)
	in.st = df.Store()
	fmt.Fprintf(in.Out, "Read %d atoms\n", in.st.N)
	return nil
}

// cmdWriteData saves the current system as a data file.
func (in *Interp) cmdWriteData(_ context.Context, a []string) error {
	bx := in.bx
	st := in.st
	if in.sim != nil {
		bx = in.sim.Box
		st = in.sim.Store
	}
	path, err := in.path(a[0])
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return dump.WriteData(f, st, bx, in.masses)
}

// cmdDump configures trajectory output:
// dump <id> all xyz|custom <every> <file>
func (in *Interp) cmdDump(_ context.Context, a []string) error {
	switch a[2] {
	case "xyz", "custom":
		in.dumpFormat = a[2]
	default:
		return fmt.Errorf("unsupported dump style %q", a[2])
	}
	n, err := atoi(a[3])
	if err != nil {
		return err
	}
	in.dumpEvery = n
	in.dumpPath, err = in.path(a[4])
	return err
}

// cmdWriteRestart saves the run as a one-rank GMCK checkpoint, written
// atomically: a one-generation store that mdrun -checkpoint can name
// (and ckpt.ReadFile reads): write_restart <file>.
func (in *Interp) cmdWriteRestart(_ context.Context, a []string) error {
	path, err := in.path(a[0])
	if err != nil {
		return err
	}
	if in.sim == nil {
		if err := in.finalize(); err != nil {
			return err
		}
	}
	sim := in.sim
	return ckpt.WriteFileAtomic(path, &ckpt.Checkpoint{
		Step: sim.Step, Ranks: 1, Grid: [3]int{1, 1, 1},
		Box: sim.Box, SetupBox: sim.SetupBox, Q2Setup: sim.Q2Setup,
		PerRank: []ckpt.Rank{ckpt.CaptureRank(sim)},
	})
}

// writeDumpFrames appends trajectory frames during a run.
func (in *Interp) writeDumpFrames() error {
	f, err := os.OpenFile(in.dumpPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if in.dumpFormat == "xyz" {
		return dump.WriteXYZ(f, in.sim.Store, in.sim.Box, in.sim.Step)
	}
	return dump.WriteLAMMPSDump(f, in.sim.Store, in.sim.Box, in.sim.Step)
}

// finalize assembles the core.Simulation from accumulated state; the
// parse has already seen units, a box, a pair style with coefficients
// and a fix. It refuses an empty system and one that would grid space
// into more than maxCells neighbor bins or Ewald k-vectors.
func (in *Interp) finalize() error {
	if in.st.N == 0 {
		return fmt.Errorf("no atoms created")
	}
	cut := in.pairSty.Cutoff() + in.skin
	l := in.bx.Lengths()
	if bins := (2*l.X/cut + 4) * (2*l.Y/cut + 4) * (2*l.Z/cut + 4); !(cut > 0 && bins <= maxCells) {
		return fmt.Errorf("pair cutoff + skin %g bins the box into %.3g neighbor cells, over the limit of %d", cut, bins, maxCells)
	}
	if ew, ok := in.kspaceS.(*kspace.Ewald); ok {
		// Ewald.Setup's k-vector loop bounds.
		kcut := 2 * kspace.SplitParameter(ew.Accuracy, ew.RCut) * math.Sqrt(-math.Log(ew.Accuracy))
		across := func(l float64) float64 { return 2*math.Floor(kcut*l/(2*math.Pi)+1) + 1 }
		if k := across(l.X) * across(l.Y) * across(l.Z); !(k <= maxCells) {
			return fmt.Errorf("ewald over a %.3g k-vector cube, over the limit of %d", k, maxCells)
		}
	}
	cfg := core.Config{
		Name:         "script",
		Units:        in.units,
		Box:          in.bx,
		Mass:         in.masses,
		Pair:         in.pairSty,
		Bonds:        in.bondSty,
		Kspace:       in.kspaceS,
		Fixes:        in.fixes,
		Dt:           in.dt,
		Skin:         in.skin,
		NeighEvery:   in.every,
		NeighDelay:   in.delay,
		NeighNoCheck: in.noCheck,
		Seed:         12345,
		ThermoEvery:  in.thermoN,
		ThermoTo:     in.Out,
	}
	in.sim = core.New(cfg, in.st)
	return nil
}

// typ parses an atom type, which must be in 1..ntypes.
func (in *Interp) typ(s string) (int, error) {
	t, err := atoi(s)
	if err == nil && (t < 1 || t > in.ntypes) {
		err = fmt.Errorf("atom type %d out of range 1..%d", t, in.ntypes)
	}
	return t, err
}

// floats parses a[i] into *dst[i] for each destination.
func floats(a []string, dst ...*float64) error {
	for i, d := range dst {
		v, err := atof(a[i])
		if err != nil {
			return err
		}
		*d = v
	}
	return nil
}

func atof(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

func atoi(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return v, nil
}
