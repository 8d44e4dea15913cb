package domain

import (
	"fmt"
	"time"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/mpi"
	"gomd/internal/obs"
	"gomd/internal/vec"
)

// historyCarrier is implemented by pair styles with per-contact state
// that must migrate with atoms (the granular style).
type historyCarrier interface {
	ExtractHistory(tag int64) map[int64]vec.V3
	InjectHistory(tag int64, h map[int64]vec.V3)
}

// Message tags. Each (purpose, dim, dir) triple gets a distinct tag so
// out-of-order delivery across stages is unambiguous.
const (
	tagMigrate = 100
	tagGhost   = 200
	tagFwd     = 300
	tagRev     = 400
	tagScalar  = 500
)

func stageTag(base, dim, dir int) int { return base + 10*dim + dir }

// migrant is one atom in flight between owners.
type migrant struct {
	Atom    atom.Atom
	History map[int64]vec.V3
}

// Backend implements core.Backend over the mpi runtime for one rank of
// the brick decomposition.
type Backend struct {
	comm    *mpi.Comm
	grid    [3]int
	coord   [3]int
	nglobal int

	// Halo bookkeeping, rebuilt on every Rebuild: per dimension and
	// direction (0: +d, 1: -d), the local indices whose state is sent,
	// the periodic shift applied, and the ghost slot range received.
	sendIdx   [3][2][]int32
	sendShift [3][2]vec.V3
	recvStart [3][2]int
	recvCount [3][2]int

	// haloSend and haloRecv stage every halo message: the per-step ones
	// (ForwardPositions, ReverseForces, ForwardScalar) and the borders
	// buildGhosts sends; haloSend also packs migrants. One pair serves
	// all stages: the runtime is done with a send buffer when the call
	// returns, and each stage unpacks what it received before the next
	// one packs. They grow to the largest face and are never reallocated
	// again.
	haloSend, haloRecv []float64

	// self marks a one-rank world with no fault hook installed: every halo
	// partner is the rank itself, so haloExchange hands the staging buffer
	// straight back. span is the rank's timeline (nil when untraced), for
	// the comm spans Comm would have recorded.
	self bool
	span *obs.Rank

	// liveComm caches gauge handles for PublishLiveComm, indexed by
	// mpi.Func, and liveWait the rank's wait-share gauge; touched only
	// by the rank goroutine.
	liveComm []*liveCommGauges
	liveWait *obs.Gauge
}

// ParkHung implements the core engine's hang-injection hook: the rank
// parks forever inside the messaging layer (visible to comm-state
// snapshots as "injected-hang") until the health watchdog aborts the
// world.
func (b *Backend) ParkHung(s *core.Simulation) {
	b.comm.ParkInjectedHang()
}

// Comm exposes the rank's communicator. The sharded checkpoint writer
// (internal/ckpt) reaches it through core.Simulation.Backend() with an
// interface assertion — ckpt cannot import this package (domain imports
// ckpt), so the capability is structural rather than nominal.
func (b *Backend) Comm() *mpi.Comm { return b.comm }

// neighborRank returns the rank one step along dim in direction dir
// (0:+, 1:-), or -1 at a non-periodic boundary.
func (b *Backend) neighborRank(s *core.Simulation, dim, dir int) int {
	c := b.coord
	step := 1
	if dir == 1 {
		step = -1
	}
	n := c[dim] + step
	if n < 0 || n >= b.grid[dim] {
		if !s.Box.Periodic[dim] {
			return -1
		}
		n = (n + b.grid[dim]) % b.grid[dim]
	}
	cc := c
	cc[dim] = n
	return cc[0] + b.grid[0]*(cc[1]+b.grid[1]*cc[2])
}

// subBounds returns this rank's sub-domain box under the current global
// box (which the NPT barostat may have rescaled).
func (b *Backend) subBounds(s *core.Simulation) (lo, hi vec.V3) {
	l := s.Box.Lengths()
	for d := 0; d < 3; d++ {
		step := l.Component(d) / float64(b.grid[d])
		lo = lo.WithComponent(d, s.Box.Lo.Component(d)+step*float64(b.coord[d]))
		hi = hi.WithComponent(d, s.Box.Lo.Component(d)+step*float64(b.coord[d]+1))
	}
	return lo, hi
}

// Setup implements core.Backend.
func (b *Backend) Setup(s *core.Simulation) {
	// Global count fixed at construction; establish the initial halo.
	b.Rebuild(s)
}

// Rebuild implements core.Backend: wrap, migrate, rebuild ghosts.
func (b *Backend) Rebuild(s *core.Simulation) {
	st := s.Store
	st.ClearGhosts()
	s.WrapOwned()
	b.migrate(s)
	b.buildGhosts(s)
}

// haloStage returns the send staging buffer cut to n floats.
func (b *Backend) haloStage(n int) []float64 {
	if cap(b.haloSend) < n {
		b.haloSend = make([]float64, n)
	}
	return b.haloSend[:n]
}

// haloExchange sends buf (from haloStage) to dst and returns what src
// sent under the same tag — empty when there is no source — metering
// the message under the Comm counters. The result is valid until the
// next haloExchange.
//
// On a one-rank world (b.self) dst and src are this rank and the answer
// is buf itself: it is returned without entering Comm — no mailbox, no
// transit copy, no clock reads — and charged as Comm.p2p charges the
// call: one MPI_Sendrecv moving the payload out and back in. An
// installed fault hook keeps the Comm path, where delay: and reorder:
// drills intercept sends. Self-partner dimensions of larger grids keep
// it too: measured there, the short-circuit bought nothing (DESIGN.md
// "Run path").
func (b *Backend) haloExchange(s *core.Simulation, dst int, buf []float64, src, tag int) []float64 {
	s.Counters.CommMsgs++
	s.Counters.CommBytes += int64(8 * len(buf))
	s.ObserveCommBytes(8 * len(buf))
	if !b.self {
		b.haloRecv = b.comm.SendrecvFloat64(dst, buf, src, tag, b.haloRecv)
		return b.haloRecv
	}
	fs := &b.comm.Stats.Funcs[mpi.FuncSendrecv]
	fs.Calls++
	fs.Bytes += int64(16 * len(buf))
	if b.span != nil {
		b.span.Comm(mpi.FuncSendrecv.String(), time.Now(), 0, int64(16*len(buf)), dst)
	}
	return buf
}

// migrate moves atoms (or whole molecules) whose owner changed, staged
// one dimension at a time so diagonal moves relay through edge ranks.
func (b *Backend) migrate(s *core.Simulation) {
	st := s.Store
	hc, _ := s.Cfg.Pair.(historyCarrier)
	for d := 0; d < 3; d++ {
		if b.grid[d] == 1 {
			continue
		}
		anchor := b.ownedAnchors(s)
		var out [2][]migrant
		// Collect departures (descending index so Remove is stable).
		for i := st.N - 1; i >= 0; i-- {
			p, _ := s.Box.Wrap(anchor[i])
			t := s.Box.Owner(p, b.grid[0], b.grid[1], b.grid[2])[d]
			delta := t - b.coord[d]
			if delta == 0 {
				continue
			}
			// Shortest signed hop on the periodic ring.
			if delta > b.grid[d]/2 {
				delta -= b.grid[d]
			} else if delta < -b.grid[d]/2 {
				delta += b.grid[d]
			}
			dir := 0
			if delta < 0 {
				dir = 1
			}
			if delta > 1 || delta < -1 {
				panic(fmt.Sprintf("domain: atom tag %d moved %d sub-domains in one rebuild", st.Tag[i], delta))
			}
			m := migrant{Atom: st.Extract(i)}
			if hc != nil {
				m.History = hc.ExtractHistory(st.Tag[i])
			}
			out[dir] = append(out[dir], m)
			st.Remove(i)
		}
		for dir := 0; dir < 2; dir++ {
			nb := b.neighborRank(s, d, dir)
			from := b.neighborRank(s, d, 1-dir)
			if nb < 0 && len(out[dir]) > 0 {
				panic("domain: migration across non-periodic boundary")
			}
			if nb < 0 && from < 0 {
				continue
			}
			buf := b.haloSend[:0]
			for k := range out[dir] {
				buf = packMigrant(buf, &out[dir][k])
			}
			b.haloSend = buf
			bytes := migrantBytes(out[dir])
			tag := stageTag(tagMigrate, d, dir)
			in := b.comm.Sendrecv(nb, buf, bytes, from, tag)
			s.Counters.CommMsgs++
			s.Counters.CommBytes += int64(bytes)
			s.ObserveCommBytes(bytes)
			err := unpackMigrants(in, from, tag, func(m migrant) {
				st.Add(m.Atom)
				s.Counters.MigratedAtoms++
				if hc != nil && m.History != nil {
					hc.InjectHistory(m.Atom.Tag, m.History)
				}
			})
			if err != nil {
				panic(err)
			}
		}
	}
}

// ownedAnchors mirrors anchorPositions for the rank-local store.
func (b *Backend) ownedAnchors(s *core.Simulation) []vec.V3 {
	st := s.Store
	if !s.Cfg.ClusterMigrate {
		return st.Pos[:st.N]
	}
	return anchorPositions(st, true, s.Box)
}

// migrantBytes models the wire size of a migration payload.
func migrantBytes(ms []migrant) int {
	bytes := 0
	for _, m := range ms {
		bytes += 9 * 8 // tag,type,mol,q,pos3,vel... packed doubles
		bytes += 16 * (len(m.Atom.Bonds) + len(m.Atom.Angles) + len(m.Atom.Special))
		bytes += 28 * len(m.Atom.Dihedrals)
		bytes += 32 * len(m.History)
	}
	return bytes
}

// buildGhosts runs the staged halo exchange, recording send lists so the
// per-step forward/reverse passes can reuse them.
func (b *Backend) buildGhosts(s *core.Simulation) {
	st := s.Store
	cut := s.GhostCutoff()
	lo, hi := b.subBounds(s)
	l := s.Box.Lengths()

	for d := 0; d < 3; d++ {
		// Candidates for this dimension: owned atoms plus ghosts from
		// previous dimensions only. Including same-dimension ghosts
		// would re-wrap periodic images onto their originals.
		total := st.Total()
		for dir := 0; dir < 2; dir++ {
			b.sendIdx[d][dir] = b.sendIdx[d][dir][:0]
			b.recvCount[d][dir] = 0
			nb := b.neighborRank(s, d, dir)
			from := b.neighborRank(s, d, 1-dir)
			if nb < 0 && from < 0 {
				continue
			}
			// Owned atoms and ghosts from earlier stages within cut of
			// this face.
			var bound float64
			if dir == 0 {
				bound = hi.Component(d) - cut
			} else {
				bound = lo.Component(d) + cut
			}
			shift := vec.V3{}
			crossing := (dir == 0 && b.coord[d] == b.grid[d]-1) ||
				(dir == 1 && b.coord[d] == 0)
			if crossing {
				sign := -1.0
				if dir == 1 {
					sign = 1.0
				}
				shift = shift.WithComponent(d, sign*l.Component(d))
			}
			buf := b.haloSend[:0]
			if nb >= 0 {
				for i := 0; i < total; i++ {
					c := st.Pos[i].Component(d)
					if (dir == 0 && c > bound) || (dir == 1 && c < bound) {
						b.sendIdx[d][dir] = append(b.sendIdx[d][dir], int32(i))
						buf = packGhost(buf, atom.Ghost{
							Tag:    st.Tag[i],
							Type:   st.Type[i],
							Pos:    st.Pos[i].Add(shift),
							Charge: st.Charge[i],
							Vel:    st.Vel[i],
						})
					}
				}
			}
			b.haloSend = buf
			b.sendShift[d][dir] = shift

			tag := stageTag(tagGhost, d, dir)
			in := b.haloExchange(s, nb, buf, from, tag)
			b.recvStart[d][dir] = st.Total()
			b.recvCount[d][dir] = len(in) / ghostFloats
			if err := unpackGhosts(in, from, tag, func(g atom.Ghost) { st.AddGhost(g) }); err != nil {
				panic(err)
			}
			s.Counters.GhostAtoms += int64(len(in) / ghostFloats)
		}
	}
}

// ForwardPositions implements core.Backend: refresh ghost positions and
// velocities along the recorded halo routes.
func (b *Backend) ForwardPositions(s *core.Simulation) {
	st := s.Store
	for d := 0; d < 3; d++ {
		for dir := 0; dir < 2; dir++ {
			nb := b.neighborRank(s, d, dir)
			from := b.neighborRank(s, d, 1-dir)
			if nb < 0 && from < 0 {
				continue
			}
			idxs := b.sendIdx[d][dir]
			shift := b.sendShift[d][dir]
			buf := b.haloStage(6 * len(idxs))
			for k, i := range idxs {
				p := st.Pos[i].Add(shift)
				v := st.Vel[i]
				buf[6*k], buf[6*k+1], buf[6*k+2] = p.X, p.Y, p.Z
				buf[6*k+3], buf[6*k+4], buf[6*k+5] = v.X, v.Y, v.Z
			}
			in := b.haloExchange(s, nb, buf, from, stageTag(tagFwd, d, dir))
			// The ghosts received in buildGhosts from `from` during this
			// stage occupy recvStart[d][dir]..+recvCount.
			base := b.recvStart[d][dir]
			for k := 0; k < len(in)/6; k++ {
				st.Pos[base+k] = vec.New(in[6*k], in[6*k+1], in[6*k+2])
				st.Vel[base+k] = vec.New(in[6*k+3], in[6*k+4], in[6*k+5])
			}
		}
	}
	s.Counters.GhostAtoms += int64(st.Nghost)
}

// ReverseForces implements core.Backend: fold ghost forces back to their
// owners, traversing stages in reverse so relayed (corner) contributions
// propagate fully.
func (b *Backend) ReverseForces(s *core.Simulation) {
	st := s.Store
	for d := 2; d >= 0; d-- {
		for dir := 1; dir >= 0; dir-- {
			nb := b.neighborRank(s, d, dir)
			from := b.neighborRank(s, d, 1-dir)
			if nb < 0 && from < 0 {
				continue
			}
			// Send back the forces accumulated on ghosts we received in
			// this stage; receive the forces for atoms we sent.
			base := b.recvStart[d][dir]
			cnt := b.recvCount[d][dir]
			buf := b.haloStage(3 * cnt)
			for k := 0; k < cnt; k++ {
				f := st.Force[base+k]
				buf[3*k], buf[3*k+1], buf[3*k+2] = f.X, f.Y, f.Z
				st.Force[base+k] = vec.V3{}
			}
			// Reverse routing: this stage's ghosts came FROM the 1-dir
			// neighbor; return them there, and receive from nb the
			// forces of the atoms we sent to it.
			in := b.haloExchange(s, from, buf, nb, stageTag(tagRev, d, dir))
			idxs := b.sendIdx[d][dir]
			for k, i := range idxs {
				st.Force[i] = st.Force[i].Add(vec.New(in[3*k], in[3*k+1], in[3*k+2]))
			}
		}
	}
}

// ForwardScalar implements core.Backend: per-atom scalar halo refresh
// (EAM electron densities and embedding derivatives).
func (b *Backend) ForwardScalar(s *core.Simulation, bufAll []float64) {
	for d := 0; d < 3; d++ {
		for dir := 0; dir < 2; dir++ {
			nb := b.neighborRank(s, d, dir)
			from := b.neighborRank(s, d, 1-dir)
			if nb < 0 && from < 0 {
				continue
			}
			idxs := b.sendIdx[d][dir]
			buf := b.haloStage(len(idxs))
			for k, i := range idxs {
				buf[k] = bufAll[i]
			}
			in := b.haloExchange(s, nb, buf, from, stageTag(tagScalar, d, dir))
			base := b.recvStart[d][dir]
			copy(bufAll[base:base+len(in)], in)
		}
	}
}

// ReduceScalar implements core.Backend.
func (b *Backend) ReduceScalar(v float64) float64 { return b.comm.AllreduceScalar(v) }

// ReduceBool implements core.Backend.
func (b *Backend) ReduceBool(v bool) bool {
	x := 0.0
	if v {
		x = 1
	}
	return b.comm.AllreduceMax(x) > 0.5
}

// ReduceGrid sums a replicated k-space grid element-wise across ranks
// with the reduce-scatter + allgather butterfly, metering the traffic
// under the Kspace counters (LAMMPS files mesh/FFT communication under
// Kspace, not Comm). Bytes are what this rank actually sent —
// ~2·len·8·(P-1)/P with the butterfly, versus len·8·(P-1) per rank for
// the old whole-mesh allreduce.
func (b *Backend) ReduceGrid(s *core.Simulation, grid []float64) {
	hops, bytes := b.comm.ReduceScatterAllgather(grid)
	s.Counters.KspaceCommMsgs++
	s.Counters.KspaceCommBytes += bytes
	s.Counters.KspaceCommHops += int64(hops)
}

// GridReducer implements core.Backend: PPPM's replicated mesh (and
// Ewald's structure-factor table) is summed element-wise across ranks.
func (b *Backend) GridReducer(s *core.Simulation) func([]float64) {
	return func(grid []float64) { b.ReduceGrid(s, grid) }
}

// NGlobal implements core.Backend.
func (b *Backend) NGlobal(*core.Simulation) int { return b.nglobal }

// Size implements core.Backend.
func (b *Backend) Size() int { return b.comm.Size() }

// Rank implements core.Backend.
func (b *Backend) Rank() int { return b.comm.Rank() }

// liveCommGauges caches one MPI function's live-gauge handles.
type liveCommGauges struct {
	calls, bytes, hops, wait *obs.Gauge
}

// PublishLiveComm exports this rank's cumulative MPI profile as live
// gauges (mpi.live_calls / mpi.live_bytes / mpi.live_hops /
// mpi.live_wait_ns under {func,rank} labels, and mpi.wait_share{rank},
// the blocked fraction of the rank's MPI time). It implements the core
// engine's optional live-telemetry hook and must run on the rank
// goroutine: Comm.Stats is plain state written by that goroutine's
// primitives, and only the gauge stores cross into the scraper. Gauge
// handles are cached after the first call; a function's series appears
// once it has been called at least once.
func (b *Backend) PublishLiveComm(reg *obs.Registry, rank int) {
	if reg == nil {
		return
	}
	if b.liveComm == nil {
		b.liveComm = make([]*liveCommGauges, mpi.NumFuncs)
		b.liveWait = reg.Gauge(obs.RankMetric("mpi.wait_share", rank))
	}
	st := &b.comm.Stats
	for f := mpi.Func(0); f < mpi.NumFuncs; f++ {
		fs := &st.Funcs[f]
		if fs.Calls == 0 {
			continue
		}
		lg := b.liveComm[f]
		if lg == nil {
			fn := f.String()
			lg = &liveCommGauges{
				calls: reg.Gauge(commMetric("mpi.live_calls", fn, rank)),
				bytes: reg.Gauge(commMetric("mpi.live_bytes", fn, rank)),
				hops:  reg.Gauge(commMetric("mpi.live_hops", fn, rank)),
				wait:  reg.Gauge(commMetric("mpi.live_wait_ns", fn, rank)),
			}
			b.liveComm[f] = lg
		}
		lg.calls.Set(float64(fs.Calls))
		lg.bytes.Set(float64(fs.Bytes))
		lg.hops.Set(float64(fs.Hops))
		lg.wait.Set(float64(fs.WaitTime.Nanoseconds()))
	}
	if tot := st.TotalTime(); tot > 0 {
		b.liveWait.Set(float64(st.TotalWait()) / float64(tot))
	}
}

// commMetric names one per-function, per-rank MPI live metric using the
// registry's embedded-label convention.
func commMetric(metric, fn string, rank int) string {
	return fmt.Sprintf("%s{func=%s,rank=%d}", metric, fn, rank)
}
