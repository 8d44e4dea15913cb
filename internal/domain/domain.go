// Package domain implements the spatial domain decomposition of the
// engine (§2.2 of the paper): the simulation box is split into a brick
// grid of sub-domains, one per MPI rank; each rank integrates its own
// atoms, exchanges halo ("ghost") atoms with its six spatial neighbors in
// the staged x/y/z pattern LAMMPS uses, migrates atoms whose owner
// changed, and participates in the global reductions (thermo, PPPM mesh).
//
// Communication runs on the instrumented runtime of internal/mpi, so a
// decomposed run yields both a physically correct trajectory (validated
// against the serial engine) and the per-rank, per-MPI-function profile
// behind the paper's Figures 4, 5, 12, and 14.
package domain

import (
	"errors"
	"fmt"
	"math"

	"gomd/internal/atom"
	"gomd/internal/box"
	"gomd/internal/core"
	"gomd/internal/mpi"
	"gomd/internal/vec"
)

// ErrSubdomainTooSmall reports a rank grid whose sub-domains are
// narrower than the interaction range along some dimension: the same
// system with more atoms (a larger box) or fewer ranks decomposes.
var ErrSubdomainTooSmall = errors.New("domain: sub-domain smaller than the interaction range")

// Factory builds one instance of the simulation input. It is invoked
// once for the global atom population and once per rank for fresh style
// instances (pair styles, kspace solvers, and fixes carry per-rank
// mutable state and must not be shared).
type Factory func() (core.Config, *atom.Store, error)

// Engine is a decomposed simulation: one core.Simulation per rank over a
// shared message-passing world. On a process-spanning (TCP) world only
// the ranks in World.LocalRanks() have Sims entries here — the rest are
// nil and live in peer processes.
type Engine struct {
	World *mpi.World
	Sims  []*core.Simulation
	Grid  [3]int

	nglobal int
}

// firstSim returns the lowest-ranked simulation hosted in this process
// (rank 0 for in-process worlds).
func (e *Engine) firstSim() *core.Simulation {
	return e.Sims[e.World.LocalRanks()[0]]
}

// ChooseGrid factors nranks into a px × py × pz grid minimizing the
// total sub-domain surface area for the given box, like LAMMPS' procmap.
// Non-periodic dimensions are not cut more than necessary.
func ChooseGrid(bx box.Box, nranks int) [3]int {
	l := bx.Lengths()
	best := [3]int{nranks, 1, 1}
	bestCost := math.Inf(1)
	for px := 1; px <= nranks; px++ {
		if nranks%px != 0 {
			continue
		}
		rem := nranks / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			pz := rem / py
			sx := l.X / float64(px)
			sy := l.Y / float64(py)
			sz := l.Z / float64(pz)
			cost := sx*sy + sy*sz + sx*sz
			// Penalize cutting non-periodic dimensions (chute's z).
			if !bx.Periodic[2] && pz > 1 {
				cost *= 1.5
			}
			if cost < bestCost {
				bestCost = cost
				best = [3]int{px, py, pz}
			}
		}
	}
	return best
}

// New builds a decomposed engine with nranks ranks on an in-process
// (channel transport) world.
func New(factory Factory, nranks int) (*Engine, error) {
	return NewOnWorld(factory, mpi.NewWorld(nranks))
}

// NewOnWorld builds a decomposed engine over an existing world, which
// may span OS processes (mpi.JoinTCP/TCPCoordinator.Host): only the
// world's local ranks get simulations in this process. Every process of
// a spanning world must call NewOnWorld with an equivalent factory —
// the global atom population and decomposition are recomputed
// identically in each process (the factory must be deterministic),
// which is what makes the TCP trajectory bit-identical to the channel
// one. The engine takes ownership of the world: Engine.Close closes it.
func NewOnWorld(factory Factory, world *mpi.World) (*Engine, error) {
	nranks := world.Size
	cfg, global, err := factory()
	if err != nil {
		world.Close()
		return nil, err
	}
	grid := ChooseGrid(cfg.Box, nranks)

	// Sub-domain extents must cover the interaction range for the
	// single-swap halo exchange.
	cut := cfg.Pair.Cutoff() + cfg.Skin
	if cfg.GhostCutoff > cut {
		cut = cfg.GhostCutoff
	}
	for d := 0; d < 3; d++ {
		if grid[d] > 1 && cfg.Box.Lengths().Component(d)/float64(grid[d]) < cut {
			world.Close()
			return nil, fmt.Errorf("%w: %d ranks give sub-domain %.3g < %.3g along dim %d",
				ErrSubdomainTooSmall, nranks, cfg.Box.Lengths().Component(d)/float64(grid[d]), cut, d)
		}
	}

	// Partition atoms by (cluster-anchor) position.
	stores := make([]*atom.Store, nranks)
	for r := range stores {
		stores[r] = atom.New(global.N/nranks + 16)
	}
	anchor := anchorPositions(global, cfg.ClusterMigrate, cfg.Box)
	for i := 0; i < global.N; i++ {
		p, _ := cfg.Box.Wrap(anchor[i])
		c := cfg.Box.Owner(p, grid[0], grid[1], grid[2])
		r := c[0] + grid[0]*(c[1]+grid[1]*c[2])
		stores[r].Add(global.Extract(i))
	}

	return assemble(factory, cfg, world, grid, global.N,
		func(cfg core.Config, be *Backend) (*core.Simulation, error) {
			return core.NewWithBackend(cfg, stores[be.Rank()], be)
		})
}

// assemble is the one body under NewOnWorld and RestoreOnWorld: per-rank
// configs, RNG decorrelation, fault-hook wiring, and one Backend per
// local rank at its grid coordinate. The two differ only in where a
// rank's simulation comes from — sim builds it (fresh from the
// partitioned stores, or restored from a checkpoint record) on the rank
// goroutine, so it may communicate. cfg is the instance the caller's
// first factory call produced. The world is closed on every error path.
func assemble(factory Factory, cfg core.Config, world *mpi.World, grid [3]int, nglobal int,
	sim func(cfg core.Config, be *Backend) (*core.Simulation, error)) (*Engine, error) {
	e := &Engine{World: world, Sims: make([]*core.Simulation, world.Size), Grid: grid, nglobal: nglobal}

	// Per-rank configs need fresh style instances — built for the ranks
	// this process hosts (the first local rank reuses cfg).
	local := world.LocalRanks()
	cfgs := make([]core.Config, world.Size)
	cfgs[local[0]] = cfg
	for _, r := range local[1:] {
		c2, _, err := factory()
		if err != nil {
			world.Close()
			return nil, err
		}
		cfgs[r] = c2
	}
	// Decorrelate per-rank RNG streams (Langevin noise, velocity init).
	for _, r := range local {
		cfgs[r].Seed = cfg.Seed + uint64(r)*0x9e3779b9
	}

	// Deterministic fault injection intercepts point-to-point sends at
	// the mpi layer; kill/NaN faults fire from the core step loop;
	// corrupt-wire faults damage encoded frames (inert on channel
	// transports, which have no frames).
	if cfg.Fault != nil {
		// Step-addressed faults must not match this world's
		// construction-time traffic against steps published by a
		// previous supervised attempt.
		cfg.Fault.ResetSteps()
		world.SetFaultHook(cfg.Fault)
		world.SetWireFaultHook(cfg.Fault)
	}

	if err := world.Parallel(func(c *mpi.Comm) {
		r := c.Rank()
		// Attach the per-rank span timeline before any construction-time
		// communication so setup traffic is traced too.
		span := cfgs[r].Trace.Rank(r)
		c.SetSpan(span)
		s, err := sim(cfgs[r], &Backend{
			comm: c,
			grid: grid,
			// Rank linearization is x-fastest: r = cx + gx*(cy + gy*cz).
			coord:   [3]int{r % grid[0], (r / grid[0]) % grid[1], r / (grid[0] * grid[1])},
			nglobal: nglobal,
			span:    span,
			self:    world.Size == 1 && cfg.Fault == nil,
		})
		if err != nil {
			panic(err)
		}
		e.Sims[r] = s
	}); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// anchorPositions returns, per atom, the position used for ownership:
// its own position, or its molecule anchor's (lowest-tag member) when
// cluster migration is on.
func anchorPositions(st *atom.Store, cluster bool, bx box.Box) []vec.V3 {
	out := make([]vec.V3, st.N)
	if !cluster {
		copy(out, st.Pos[:st.N])
		return out
	}
	type anch struct {
		tag int64
		pos vec.V3
	}
	anchors := make(map[int32]anch)
	for i := 0; i < st.N; i++ {
		m := st.Mol[i]
		if m == 0 {
			continue
		}
		a, ok := anchors[m]
		if !ok || st.Tag[i] < a.tag {
			anchors[m] = anch{st.Tag[i], st.Pos[i]}
		}
	}
	for i := 0; i < st.N; i++ {
		if m := st.Mol[i]; m != 0 {
			out[i] = anchors[m].pos
		} else {
			out[i] = st.Pos[i]
		}
	}
	return out
}

// Run advances all ranks by n steps in parallel. A rank failure (panic,
// guardrail violation, injected kill) aborts the world and is returned
// as an *mpi.RankError; the engine is then permanently dead and a
// supervisor must rebuild it (internal/harness restarts from the last
// checkpoint).
func (e *Engine) Run(n int) error {
	return e.World.Parallel(func(c *mpi.Comm) {
		e.Sims[c.Rank()].Run(n)
	})
}

// Close releases every local rank's intra-rank worker pool and the
// world's transport (sockets for TCP worlds). The engine must be idle;
// Run must not be called afterwards. A no-op for 1-worker channel
// configurations and safe to call twice. Tolerates ranks whose
// construction failed.
func (e *Engine) Close() {
	for _, s := range e.Sims {
		if s != nil {
			s.Close()
		}
	}
	e.World.Close()
}

// ThermoErr computes the current global thermodynamic state — a
// collective: every process of a spanning world must call it at the
// same point, and each returns its first local rank's copy (the
// reductions make all copies identical). An aborted world returns the
// abort instead — on a spanning world a peer process can fail at any
// wall-clock moment, including mid-collective, and a supervisor
// recovers that like any rank error (harness.Supervisor.Thermo).
func (e *Engine) ThermoErr() (core.Thermo, error) {
	out := make([]core.Thermo, e.World.Size)
	if err := e.World.Parallel(func(c *mpi.Comm) {
		out[c.Rank()] = e.Sims[c.Rank()].ComputeThermo()
	}); err != nil {
		return core.Thermo{}, err
	}
	return out[e.World.LocalRanks()[0]], nil
}

// Thermo is ThermoErr for callers with no recovery path: it panics on
// an aborted world — there is no trustworthy state to report after a
// rank failure.
func (e *Engine) Thermo() core.Thermo {
	th, err := e.ThermoErr()
	if err != nil {
		panic(err)
	}
	return th
}

// NGlobal returns the global atom count.
func (e *Engine) NGlobal() int { return e.nglobal }

// Counters sums engine counters across this process' ranks (all ranks
// for in-process worlds).
func (e *Engine) Counters() core.Counters {
	var out core.Counters
	for _, s := range e.Sims {
		if s != nil {
			out.Add(s.Counters)
		}
	}
	out.Steps = e.firstSim().Counters.Steps
	return out
}

// MPIStats returns per-rank MPI profiles (zero-valued for ranks hosted
// by other processes).
func (e *Engine) MPIStats() []mpi.Stats {
	out := make([]mpi.Stats, e.World.Size)
	for r := range out {
		if c := e.World.Comm(r); c != nil {
			out[r] = c.Stats
		}
	}
	return out
}
