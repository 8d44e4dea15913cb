package main

import (
	"time"

	"gomd/internal/workload"
)

// defaultSeed generates the inputs bench/golden.json was recorded from.
const defaultSeed = 2022

// metricDecl mirrors one metric entry of BENCHMARK.json; bench_test.go
// holds the two in agreement.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Every workload reports every end-to-end metric (the benchmark's
// contract), so each is defined in terms every workload has:
//
// a "job" is one unit of requested work: a served job (50 steps), or one
// thermo interval of seg steps on a running engine. Time to the first
// frame and time to restore are measured on every run too, but too
// unsteadily on a shared host to carry a bound: they are per-layer.
//
// README.md spells out the per-workload reading of each. Every bound is
// the largest the contract allows: whole runs on the host this was built
// on land 1.2-1.5x apart (README, "Spread on this host"), so a tighter
// bound would reject the benchmark's own reruns.
var endToEnd = []metricDecl{
	{"ts_per_s", "ts/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"job_latency_p50_ms", "ms", "lower", 0.25},
}

// Per-layer metrics, prefix = module. A layer that does no work on a
// workload reports 0 there. Kernel, transport and file numbers are
// best-of-5 direct calls on the workload's own system; "count" metrics
// repeat exactly at a fixed seed and step count; "computed" bytes come
// from internal/flops array-size models, not from hardware counters.
var perLayer = []metricDecl{
	{Name: "pair.ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "pair.gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "pair.ai", Unit: "flop/byte", Better: "higher"},
	{Name: "pair.speedup_vs_w1", Unit: "ratio", Better: "higher"},

	{Name: "neighbor.build_ns_per_atom", Unit: "ns", Better: "lower"},
	{Name: "neighbor.ns_per_check", Unit: "ns", Better: "lower"},
	{Name: "neighbor.pairs_per_atom", Unit: "count", Better: "lower"},
	{Name: "neighbor.rebuilds_per_100_steps", Unit: "count", Better: "lower"},

	{Name: "kspace.pppm_ms_per_solve", Unit: "ms", Better: "lower"},
	{Name: "kspace.pppm_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "kspace.grid_pts", Unit: "count", Better: "lower"},

	{Name: "par.efficiency", Unit: "ratio", Better: "higher"},

	{Name: "core.share.pair", Unit: "%", Better: "lower"},
	{Name: "core.share.neigh", Unit: "%", Better: "lower"},
	{Name: "core.share.kspace", Unit: "%", Better: "lower"},
	{Name: "core.share.bond", Unit: "%", Better: "lower"},
	{Name: "core.share.modify", Unit: "%", Better: "lower"},
	{Name: "core.share.comm", Unit: "%", Better: "lower"},
	{Name: "core.share.output", Unit: "%", Better: "lower"},
	{Name: "core.share.other", Unit: "%", Better: "lower"},
	{Name: "core.share.untracked", Unit: "%", Better: "lower"},
	{Name: "core.ns_per_atom_step", Unit: "ns", Better: "lower"},
	{Name: "core.pairs_per_step", Unit: "count", Better: "lower"},
	{Name: "core.segment_spread", Unit: "ratio", Better: "lower"},
	{Name: "core.first_frame_ms", Unit: "ms", Better: "lower"},

	{Name: "proc.alloc_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "proc.mallocs_per_step", Unit: "allocs", Better: "lower"},
	{Name: "proc.alloc_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.max_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "mpi.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "mpi.bw_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "mpi.msgs_per_step", Unit: "count", Better: "lower"},
	{Name: "mpi.bytes_per_step", Unit: "count", Better: "lower"},
	{Name: "mpi.time_share", Unit: "%", Better: "lower"},
	{Name: "mpi.wait_share", Unit: "%", Better: "lower"},

	{Name: "domain.ghosts_per_step", Unit: "count", Better: "lower"},
	{Name: "domain.speedup_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "domain.tcp_vs_chan", Unit: "ratio", Better: "higher"},

	{Name: "ckpt.bytes", Unit: "count", Better: "lower"},
	{Name: "ckpt.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ckpt.write_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.read_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ckpt.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.restore_build_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.sink_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.run_share", Unit: "%", Better: "lower"},
	{Name: "ckpt.forced_rebuilds_per_100_steps", Unit: "count", Better: "lower"},

	{Name: "harness.start_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.rebuild_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.first_frame_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.engine_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.journal_append_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.status_get_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.latency_p_high_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_p_high_pct", Unit: "%", Better: "higher"},
	{Name: "serve.gen_lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "serve.inflight_max", Unit: "jobs", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
}

// jobShape is the served job every serve workload submits, and how the
// clients offer it.
type jobShape struct {
	atoms, steps, thermoEvery int
	slotBudget                int
	warmupJobs                int
	// closed loop: clients each wait for their reply before the next
	// request. open loop: one job every period regardless, latency timed
	// from the due time, at most maxInflight jobs outstanding.
	clients     int
	openPeriod  int // milliseconds; 0 = closed loop
	maxInflight int
}

// workloadSpec is one benchmark workload. Engine workloads time seg-step
// thermo intervals after warmup untimed steps; serve workloads time jobs.
type workloadSpec struct {
	name string
	why  string // kept in step with BENCHMARK.json by bench_test.go
	sys  system
	// warmup and seg are in steps; seg is a multiple of the system's
	// rebuild or checkpoint cadence so every segment does the same work.
	warmup, seg int
	job         *jobShape
}

var lj32k = system{wl: workload.LJ, atoms: 32000, ranks: 1, workers: 1, thermoEvery: 10}
var lj2k = system{wl: workload.LJ, atoms: 2000, ranks: 2, world: true, workers: 1, thermoEvery: 10}

var servedJob = jobShape{atoms: 500, steps: 50, thermoEvery: 10, slotBudget: 2, warmupJobs: 10,
	clients: 2}

func openJob() *jobShape {
	j := servedJob
	j.openPeriod = 50
	j.maxInflight = 16
	return &j
}

var workloads = []workloadSpec{
	{name: "lj_serial", sys: lj32k, warmup: 20, seg: 20,
		why: "LJ melt 32000 atoms, serial backend, 1 worker: the plain single-threaded baseline; pair and neighbor do all the work."},
	{name: "lj_workers2", sys: with(lj32k, func(s *system) { s.workers = 2 }), warmup: 20, seg: 20,
		why: "Same system with Workers=2: the rows+gather loops and the par pool instead of the serial loops."},
	{name: "rhodo_serial", sys: system{wl: workload.Rhodo, atoms: 4000, ranks: 1, workers: 1, thermoEvery: 1},
		warmup: 5, seg: 5,
		why: "Rhodopsin surrogate 5184 atoms, serial: charmm pair with ~440 neighbours/atom, PPPM, SHAKE/NPT fixes, bonds."},
	{name: "lj_halo_chan", sys: lj2k, warmup: 200, seg: 200,
		why: "LJ 2048 atoms on 2 ranks over the channel world: ~1000-atom subdomains make halo exchange and allreduce a large share."},
	{name: "lj_halo_tcp", sys: with(lj2k, func(s *system) { s.tcp = true }), warmup: 200, seg: 200,
		why: "Same physics, the two ranks in two worlds joined over loopback TCP: frame codec, CRC and sockets on top of the same halo traffic."},
	{name: "lj_ckpt", sys: with(lj32k, func(s *system) { s.ranks, s.world, s.ckptEvery = 2, true, 10 }),
		warmup: 20, seg: 20,
		why: "LJ 32000 atoms on 2 ranks checkpointing every 10 steps, then restore: encode, fsync, rename and forced rebuilds dominate."},
	{name: "serve_closed", job: &servedJob,
		why: "2 closed-loop clients submit 50-step 500-atom jobs over HTTP+SSE: journal fsyncs, Supervisor.Start, build and streaming dominate."},
	{name: "serve_open", job: openJob(),
		why: "Same jobs on an open loop, one every 50 ms timed from the due time: queue wait shows here and not in serve_closed."},
}

func with(s system, edit func(*system)) system {
	edit(&s)
	return s
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizing scales a workload for the contract test: the same code paths on
// systems small enough for `go test` to finish in seconds.
type sizing struct {
	tiny   bool
	setups reps // set-ups per run; the median is reported
	// restores per run; the median is reported
	restores reps
	minOps   int // timed operations at the least, however short --seconds is
}

// reps says how often an untimed-window operation is repeated: at least
// min times, then on until budget has been spent or max is reached, so a
// 5 ms daemon restart gets more samples than a 1 s rhodopsin set-up.
type reps struct {
	min, max int
	budget   time.Duration
}

func (r reps) more(done int, spent time.Duration) bool {
	return done < r.min || (done < r.max && spent < r.budget)
}

var fullSize = sizing{
	setups:   reps{min: 3, max: 7, budget: 1500 * time.Millisecond},
	restores: reps{min: 5, max: 15, budget: 600 * time.Millisecond},
	minOps:   5,
}
var tinySize = sizing{tiny: true, setups: reps{min: 1, max: 1}, restores: reps{min: 1, max: 1}, minOps: 2}

func (w workloadSpec) sized(sz sizing) workloadSpec {
	if !sz.tiny {
		return w
	}
	if w.job != nil {
		j := *w.job
		j.atoms, j.steps, j.thermoEvery, j.warmupJobs = 256, 4, 2, 1
		w.job = &j
		return w
	}
	switch w.sys.wl {
	case workload.Rhodo:
		w.sys.atoms = 1500
	default:
		w.sys.atoms = 500
	}
	w.sys.thermoEvery = 2
	if w.sys.ckptEvery > 0 {
		w.sys.ckptEvery = 2
	}
	w.warmup, w.seg = 2, 2
	return w
}
