// Package par provides the intra-rank worker pool that threads the hot
// kernels (pair forces, neighbor build, PPPM spread/interpolate) inside
// one MPI rank. Ranks are goroutines already; this pool adds a second,
// nested level of parallelism so a rank can saturate the cores it is
// given, mirroring the hybrid MPI+threads configurations the paper's
// CPU characterization assumes.
//
// Design rules the kernels rely on:
//
//   - Chunks are contiguous, deterministic index ranges that depend only
//     on (n, worker count): worker w owns [n*w/W, n*(w+1)/W). Kernels
//     that need bit-identical results across worker counts must make
//     every floating-point reduction order independent of those chunk
//     boundaries (see DESIGN.md "Intra-rank threading"); the pool itself
//     only guarantees that the same (n, W) always yields the same
//     chunking.
//   - Workers are persistent goroutines; Run is a synchronous
//     fork/join barrier. A Pool must only be driven by one goroutine at
//     a time (in the engine: its rank goroutine).
//   - A nil *Pool and a 1-worker pool both execute inline on the caller
//     with zero goroutines and zero overhead, so serial paths need no
//     special casing.
package par

import (
	"sync"
	"sync/atomic"
	"time"

	"gomd/internal/obs"
)

// job is one chunk dispatched to a helper worker.
type job struct {
	fn     func(worker, lo, hi int)
	w      int
	lo, hi int
	busy   *int64
	wg     *sync.WaitGroup
}

// KernelStats aggregates fork/join accounting for one named kernel.
type KernelStats struct {
	Runs   int64 // fork/join barriers executed
	WallNs int64 // caller wall time across barriers
	BusyNs int64 // summed per-worker busy time (BusyNs/(W*WallNs) = utilization)
}

// Util returns the mean worker utilization in [0,1] for a W-worker pool.
func (k KernelStats) Util(workers int) float64 {
	if k.WallNs <= 0 || workers <= 0 {
		return 0
	}
	return float64(k.BusyNs) / (float64(workers) * float64(k.WallNs))
}

// Pool is a fixed-size pool of persistent workers. The zero value is not
// usable; construct with NewPool. All methods are nil-safe.
type Pool struct {
	w      int
	jobs   []chan job // helper workers 1..w-1; worker 0 is the caller
	busy   []int64    // per-worker busy ns for the barrier in flight
	closed bool

	span *obs.Rank

	mu      sync.Mutex
	kernels map[string]*KernelStats

	// live caches gauge handles for PublishLive; touched only by the
	// pool's driving goroutine.
	live map[string]*liveGauges

	// vacate takes the helpers off the process's compute count (nil for
	// an inline pool).
	vacate func()
}

// occupied counts the goroutines of this process that run compute: the
// rank goroutines of mpi.World.Parallel, every pool's helpers for the
// life of the pool, and serial script interpreters.
var occupied atomic.Int64

// Occupy adds n goroutines to the process's compute count and returns
// the function that takes them off again. A waiting mpi receive polls
// only while the count is at most GOMAXPROCS, so that a polling rank
// does not hold a processor a counted goroutine needs.
func Occupy(n int) (vacate func()) {
	occupied.Add(int64(n))
	return func() { occupied.Add(-int64(n)) }
}

// Occupied returns the process's compute count (see Occupy).
func Occupied() int { return int(occupied.Load()) }

// NewPool creates a pool with the given worker count. Counts below 2
// yield an inline pool that spawns no goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{w: workers, kernels: make(map[string]*KernelStats)}
	if workers > 1 {
		p.busy = make([]int64, workers)
		p.jobs = make([]chan job, workers-1)
		p.vacate = Occupy(workers - 1)
		for i := range p.jobs {
			ch := make(chan job)
			p.jobs[i] = ch
			go func() {
				for j := range ch {
					t0 := time.Now()
					j.fn(j.w, j.lo, j.hi)
					*j.busy = time.Since(t0).Nanoseconds()
					j.wg.Done()
				}
			}()
		}
	}
	return p
}

// Workers returns the worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.w
}

// SetSpan attaches a per-rank span recorder; each Run then emits one
// CatKernel span named "par_<kernel>". Spans are recorded from the
// calling goroutine after the join barrier, respecting the recorder's
// single-goroutine contract.
func (p *Pool) SetSpan(r *obs.Rank) {
	if p != nil {
		p.span = r
	}
}

// Chunk returns worker w's half-open index range over n items split
// across W workers. Ranges are contiguous, ascending, and exhaustive;
// they depend only on (n, W).
func Chunk(n, W, w int) (lo, hi int) {
	return n * w / W, n * (w + 1) / W
}

// Run partitions [0,n) into one contiguous chunk per worker and invokes
// fn(worker, lo, hi) on each, returning after all chunks complete. The
// caller executes chunk 0 itself. On a nil or 1-worker pool fn runs
// inline as fn(0, 0, n).
func (p *Pool) Run(name string, n int, fn func(worker, lo, hi int)) {
	if p == nil || p.w <= 1 {
		fn(0, 0, n)
		return
	}
	if n <= 0 {
		return
	}
	ks := p.kernel(name)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 1; w < p.w; w++ {
		lo, hi := Chunk(n, p.w, w)
		if lo == hi {
			p.busy[w] = 0
			continue
		}
		wg.Add(1)
		p.jobs[w-1] <- job{fn: fn, w: w, lo: lo, hi: hi, busy: &p.busy[w], wg: &wg}
	}
	if lo, hi := Chunk(n, p.w, 0); lo < hi {
		t0 := time.Now()
		fn(0, lo, hi)
		p.busy[0] = time.Since(t0).Nanoseconds()
	} else {
		p.busy[0] = 0
	}
	wg.Wait()
	wall := time.Since(start)
	ks.Runs++
	ks.WallNs += wall.Nanoseconds()
	for _, b := range p.busy {
		ks.BusyNs += b
	}
	p.span.Span(obs.CatKernel, "par_"+name, start, wall)
}

// kernel returns the stats slot for name, creating it on first use.
func (p *Pool) kernel(name string) *KernelStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	ks := p.kernels[name]
	if ks == nil {
		ks = &KernelStats{}
		p.kernels[name] = ks
	}
	return ks
}

// Stats returns a copy of the accounting for one kernel name.
func (p *Pool) Stats(name string) KernelStats {
	if p == nil {
		return KernelStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ks := p.kernels[name]; ks != nil {
		return *ks
	}
	return KernelStats{}
}

// liveGauges caches one kernel's live-gauge handles so per-step
// publishing costs atomic stores, not registry map lookups.
type liveGauges struct {
	runs, busy, wall, util *obs.Gauge
}

// PublishLive exports the current per-kernel accounting as gauges
// (par.live_runs / par.live_busy_ns / par.live_wall_ns / par.util under
// {rank,kernel} labels, plus par.workers{rank}): the registry's only
// view of the pool's accounting.
// Must be called from the goroutine that drives Run (the rank
// goroutine): the stats are written without atomics by Run itself, and
// only gauge stores cross into the scraper. Nil-safe.
func (p *Pool) PublishLive(reg *obs.Registry, rank int) {
	if p == nil || reg == nil || p.w <= 1 {
		return
	}
	if p.live == nil {
		p.live = map[string]*liveGauges{}
		reg.Gauge(obs.RankMetric("par.workers", rank)).Set(float64(p.w))
	}
	p.mu.Lock()
	names := make([]string, 0, len(p.kernels))
	for name := range p.kernels {
		names = append(names, name)
	}
	p.mu.Unlock()
	for _, name := range names {
		lg := p.live[name]
		if lg == nil {
			lg = &liveGauges{
				runs: reg.Gauge(obs.KernelMetric("par.live_runs", rank, name)),
				busy: reg.Gauge(obs.KernelMetric("par.live_busy_ns", rank, name)),
				wall: reg.Gauge(obs.KernelMetric("par.live_wall_ns", rank, name)),
				util: reg.Gauge(obs.KernelMetric("par.util", rank, name)),
			}
			p.live[name] = lg
		}
		ks := p.kernels[name]
		lg.runs.Set(float64(ks.Runs))
		lg.busy.Set(float64(ks.BusyNs))
		lg.wall.Set(float64(ks.WallNs))
		lg.util.Set(ks.Util(p.w))
	}
}

// Close shuts the helper workers down. The pool must be idle; Run must
// not be called afterwards. Safe to call twice and on nil/inline pools.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.jobs {
		close(ch)
	}
	if p.vacate != nil {
		p.vacate()
	}
}

// Carrier is implemented by components that can execute their kernels on
// a worker pool (e.g. the PPPM solver). The engine hands each such
// component its rank's pool during setup.
type Carrier interface {
	SetPool(*Pool)
}
