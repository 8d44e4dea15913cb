package core

import (
	"time"

	"gomd/internal/flops"
	"gomd/internal/obs"
)

// This file is the per-step publishing side of live telemetry: the step
// loop pushes flight-recorder records and scrape-visible gauges from the
// rank goroutine, so the /metrics HTTP scraper only ever reads registry
// atomics and never races engine state.

// liveCommPublisher is implemented by backends that can export their
// rank's live communication accounting (the domain backend publishes
// per-MPI-function calls/bytes/hops gauges and the rank's wait share;
// the serial backend has no communication layer and implements
// nothing).
type liveCommPublisher interface {
	PublishLiveComm(reg *obs.Registry, rank int)
}

// liveObs caches the gauge handles publishLive stores into every step,
// so steady-state publishing costs atomic stores, not registry lookups.
type liveObs struct {
	reg  *obs.Registry
	rank int

	step, beats, phase *obs.Gauge // heartbeat mirror (health.* names)
	engineStep         *obs.Gauge

	// Roofline gauges per live kernel: cumulative modeled flops/bytes and
	// their ratio, priced through the internal/flops cost models.
	pairFlops, pairBytes, pairAI       *obs.Gauge
	neighFlops, neighBytes, neighAI    *obs.Gauge
	kspaceFlops, kspaceBytes, kspaceAI *obs.Gauge

	pairCost flops.Cost // per-pair cost of the configured style

	counts [len(liveCounters)]*obs.Gauge // parallel to liveCounters
}

// liveCounters are the per-rank work and traffic totals publishLive
// mirrors as {rank} gauges: the counters behind the paper's Figures 4/5
// (pair-work spread, halo and migration volume, FFT mesh traffic).
var liveCounters = [...]struct {
	name string
	get  func(*Counters) int64
}{
	{"pair.ops", func(c *Counters) int64 { return c.PairOps }},
	{"neigh.pairs", func(c *Counters) int64 { return c.NeighPairs }},
	{"comm.ghost_atoms", func(c *Counters) int64 { return c.GhostAtoms }},
	{"comm.halo_bytes", func(c *Counters) int64 { return c.CommBytes }},
	{"comm.halo_msgs", func(c *Counters) int64 { return c.CommMsgs }},
	{"comm.migrated_atoms", func(c *Counters) int64 { return c.MigratedAtoms }},
	{"kspace.fft_comm_bytes", func(c *Counters) int64 { return c.KspaceCommBytes }},
	{"kspace.reduce_hops", func(c *Counters) int64 { return c.KspaceCommHops }},
	{"kspace.fft_ops", func(c *Counters) int64 { return c.KspaceFFTOps }},
}

// initLive wires the cached live-gauge handles; called from build when a
// metrics registry is configured.
func (s *Simulation) initLive(reg *obs.Registry, rank int) {
	l := &liveObs{reg: reg, rank: rank}
	l.step = reg.Gauge(obs.RankMetric("health.step", rank))
	l.beats = reg.Gauge(obs.RankMetric("health.beats", rank))
	l.phase = reg.Gauge(obs.RankMetric("health.phase", rank))
	l.engineStep = reg.Gauge(obs.RankMetric("engine.step", rank))
	for i, lc := range liveCounters {
		l.counts[i] = reg.Gauge(obs.RankMetric(lc.name, rank))
	}

	l.pairCost = flops.Pair(s.Cfg.Pair.Name())
	kernel := func(name, k string) *obs.Gauge {
		return reg.Gauge(obs.KernelMetric(name, rank, k))
	}
	l.pairFlops = kernel("roofline.flops", "pair")
	l.pairBytes = kernel("roofline.bytes", "pair")
	l.pairAI = kernel("roofline.intensity", "pair")
	l.neighFlops = kernel("roofline.flops", "neigh")
	l.neighBytes = kernel("roofline.bytes", "neigh")
	l.neighAI = kernel("roofline.intensity", "neigh")
	if s.Cfg.Kspace != nil {
		l.kspaceFlops = kernel("roofline.flops", "kspace")
		l.kspaceBytes = kernel("roofline.bytes", "kspace")
		l.kspaceAI = kernel("roofline.intensity", "kspace")
	}
	s.live = l
}

// publishLive refreshes the scrape-visible gauges from the rank
// goroutine at the end of each step and of each ComputeThermo. It is the
// only writer of the engine's accounting into the registry, and since
// thermo is the only collective outside a step, the registry equals
// Counters and the MPI profile whenever the engine is idle. Everything
// it reads (task counters, pool stats, MPI stats) is plain rank-goroutine
// state; everything it writes is a registry atomic — that one-way flow is
// what makes mid-run scrapes race-free.
func (s *Simulation) publishLive() {
	l := s.live
	if l == nil {
		return
	}
	// Heartbeat mirror: the same series the watchdog publishes on scans,
	// kept fresh here so metrics-only runs (no watchdog) still expose
	// per-rank liveness.
	if s.beat != nil {
		l.step.Set(float64(s.beat.Step()))
		l.beats.Set(float64(s.beat.Count()))
		l.phase.Set(float64(s.beat.Phase()))
	}
	l.engineStep.Set(float64(s.Step))

	c := &s.Counters
	for i, lc := range liveCounters {
		l.counts[i].Set(float64(lc.get(c)))
	}
	setCost := func(fg, bg, ag *obs.Gauge, cost flops.Cost) {
		fg.Set(cost.Flops)
		bg.Set(cost.Bytes)
		ag.Set(cost.Intensity())
	}
	setCost(l.pairFlops, l.pairBytes, l.pairAI, l.pairCost.Scale(float64(c.PairOps)))
	setCost(l.neighFlops, l.neighBytes, l.neighAI,
		flops.NeighCheck().Scale(float64(c.NeighChecks)))
	if l.kspaceFlops != nil {
		setCost(l.kspaceFlops, l.kspaceBytes, l.kspaceAI, flops.Kspace(flops.KspaceOps{
			SpreadOps: c.KspaceSpreadOps,
			InterpOps: c.KspaceInterpOps,
			MapOps:    c.KspaceMapOps,
			FFTOps:    c.KspaceFFTOps,
			GridOps:   c.KspaceGridOps,
		}))
	}

	s.pool.PublishLive(l.reg, l.rank)
	if lcp, ok := s.backend.(liveCommPublisher); ok {
		lcp.PublishLiveComm(l.reg, l.rank)
	}
}

// recordFlight appends this completed step to the rank's flight ring:
// per-task wall-time deltas against the previous step boundary, the work
// counters this step advanced, and the current heartbeat phase.
func (s *Simulation) recordFlight(stepD time.Duration, rebuild bool) {
	if s.flight == nil {
		return
	}
	dt := func(k Task) int64 { return int64(s.Times[k] - s.prevTimes[k]) }
	rec := obs.FlightRecord{
		Step:         s.Step,
		WallNs:       stepD.Nanoseconds(),
		PairNs:       dt(TaskPair),
		BondNs:       dt(TaskBond),
		KspaceNs:     dt(TaskKspace),
		NeighNs:      dt(TaskNeigh),
		CommNs:       dt(TaskComm),
		ModifyNs:     dt(TaskModify),
		OutputNs:     dt(TaskOutput),
		OtherNs:      dt(TaskOther),
		Rebuild:      rebuild,
		Pairs:        s.Counters.PairOps - s.prevPairs,
		CommBytes:    s.Counters.CommBytes - s.prevCommBytes,
		KspaceFFTOps: s.Counters.KspaceFFTOps - s.prevFFTOps,
	}
	if s.beat != nil {
		rec.Phase = s.beat.Phase().String()
	}
	s.flight.Record(rec)
	s.prevTimes = s.Times
	s.prevPairs = s.Counters.PairOps
	s.prevCommBytes = s.Counters.CommBytes
	s.prevFFTOps = s.Counters.KspaceFFTOps
}
