package main

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gomd/internal/ckpt"
	"gomd/internal/core"
	"gomd/internal/flops"
	"gomd/internal/mpi"
)

// microIters is how many times each direct call is timed; the best is
// reported, which suppresses scheduler noise on a shared host.
const microIters = 5

// bestOf returns the best wall time of fn in nanoseconds.
func bestOf(iters int, fn func()) float64 {
	ns := make([]float64, iters)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return best(ns)
}

// kernelMicro times the pair, neighbor and k-space kernels by direct
// calls on a primed serial simulation of sys — the hooks cmd/kbench
// uses — and files the kernel metrics into m.
func kernelMicro(sys system, seed uint64, m map[string]float64) error {
	prime := func(workers int) (*core.Simulation, error) {
		s := sys
		s.workers = workers
		cfg, st, err := s.factory(seed)()
		if err != nil {
			return nil, err
		}
		sim := core.New(cfg, st)
		sim.Prime()
		return sim, nil
	}
	timePair := func(sim *core.Simulation) (ns float64, pairs int64) {
		ctx := sim.PairContext()
		sim.Store.ZeroForces()
		pairs = sim.Cfg.Pair.Compute(ctx).Pairs
		ns = bestOf(microIters, func() {
			sim.Store.ZeroForces()
			sim.Cfg.Pair.Compute(ctx)
		})
		return ns, pairs
	}

	sim, err := prime(sys.workers)
	if err != nil {
		return err
	}
	defer sim.Close()
	n := float64(sim.Store.N)

	pairNs, pairs := timePair(sim)
	cost := flops.Pair(sim.Cfg.Pair.Name()).Scale(float64(pairs))
	m["pair.ns_per_pair"] = ratio(pairNs, float64(pairs))
	m["pair.gflops"] = ratio(cost.Flops, pairNs)
	m["pair.ai"] = cost.Intensity()
	m["pair.speedup_vs_w1"] = 1
	if sys.workers > 1 {
		w1, err := prime(1)
		if err != nil {
			return err
		}
		w1Ns, _ := timePair(w1)
		w1.Close()
		m["pair.speedup_vs_w1"] = ratio(w1Ns, pairNs)
	}

	checks0 := sim.NL.Stats.DistanceChecks
	sim.NL.Build(sim.Store)
	checks := float64(sim.NL.Stats.DistanceChecks - checks0)
	neighNs := bestOf(microIters, func() { sim.NL.Build(sim.Store) })
	m["neighbor.build_ns_per_atom"] = ratio(neighNs, n)
	m["neighbor.ns_per_check"] = ratio(neighNs, checks)
	m["neighbor.pairs_per_atom"] = ratio(float64(sim.NL.Stats.LastPairs), n)

	if ks := sim.Cfg.Kspace; ks != nil {
		red := sim.KspaceReducer()
		kres := ks.Compute(sim.Store, sim.Box, red)
		kcost := flops.Kspace(flops.KspaceOps{SpreadOps: kres.SpreadOps, InterpOps: kres.InterpOps,
			MapOps: kres.MapOps, FFTOps: kres.FFTOps, GridOps: kres.GridOps})
		kNs := bestOf(microIters, func() { ks.Compute(sim.Store, sim.Box, red) })
		m["kspace.pppm_ms_per_solve"] = kNs / 1e6
		m["kspace.pppm_gflops"] = ratio(kcost.Flops, kNs)
		m["kspace.grid_pts"] = float64(kres.GridPoints)
	}
	return nil
}

// twoRankWorlds returns a 2-rank world as a list of process-local
// worlds: one channel world, or the two halves of a TCP world.
func twoRankWorlds(tcp bool) ([]*mpi.World, error) {
	if !tcp {
		return []*mpi.World{mpi.NewWorld(2)}, nil
	}
	co, err := mpi.ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		return nil, err
	}
	var joined *mpi.World
	var jerr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		joined, jerr = mpi.JoinTCP(co.Addr(), []int{1}, mpi.WorldOptions{})
	}()
	hosted, herr := co.Host([]int{0}, mpi.WorldOptions{})
	wg.Wait()
	if err := errors.Join(herr, jerr); err != nil {
		for _, w := range []*mpi.World{hosted, joined} {
			if w != nil {
				w.Close()
			}
		}
		return nil, err
	}
	return []*mpi.World{hosted, joined}, nil
}

// mpiMicro runs two-rank micro-runs over one transport through the Comm
// primitives: an 8-byte ping-pong (half the round trip), a 1 MiB
// []float64 Sendrecv (bytes one rank sends per second) and a scalar
// Allreduce. The channel transport hands payloads over by reference, so
// its bandwidth is a mailbox rate, not a copy rate.
func mpiMicro(tcp bool, m map[string]float64) error {
	worlds, err := twoRankWorlds(tcp)
	if err != nil {
		return err
	}
	const (
		pings    = 200
		bigElems = 1 << 17 // 1 MiB of float64
		bigs     = 20
	)
	var ping, bw, allr []float64 // rank 0's timings, nanoseconds per batch
	body := func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		small := []float64{1}
		big := make([]float64, bigElems)
		batch := func(into *[]float64, fn func()) {
			for b := 0; b < microIters; b++ {
				c.Barrier()
				t0 := time.Now()
				fn()
				if c.Rank() == 0 {
					*into = append(*into, float64(time.Since(t0).Nanoseconds()))
				}
			}
		}
		batch(&ping, func() {
			for i := 0; i < pings; i++ {
				if c.Rank() == 0 {
					c.Send(peer, 1, small, -1)
					c.Recv(peer, 1)
				} else {
					c.Recv(peer, 1)
					c.Send(peer, 1, small, -1)
				}
			}
		})
		batch(&bw, func() {
			for i := 0; i < bigs; i++ {
				c.Sendrecv(peer, big, -1, peer, 2)
			}
		})
		batch(&allr, func() {
			for i := 0; i < pings; i++ {
				c.AllreduceScalar(1)
			}
		})
	}
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Parallel(body)
			w.Close()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	m["mpi.pingpong_us"] = best(ping) / pings / 2 / 1e3
	m["mpi.bw_mb_s"] = ratio(float64(bigs*bigElems*8)/1e6, best(bw)/1e9)
	m["mpi.allreduce_us"] = best(allr) / pings / 1e3
	return nil
}

// ckptMicro times the checkpoint file layer on the checkpoint the
// workload restored from: encode alone (ckpt.Write to io.Discard), the
// atomic durable write (WriteFileAtomic: encode + fsync + rename +
// directory fsync) and the CRC-verified read.
func ckptMicro(ck *ckpt.Checkpoint, dir string, m map[string]float64) error {
	var encoded bytes.Buffer
	if err := ckpt.Write(&encoded, ck); err != nil {
		return err
	}
	mb := float64(encoded.Len()) / 1e6
	var err error
	encNs := bestOf(microIters, func() { err = errors.Join(err, ckpt.Write(io.Discard, ck)) })
	path := filepath.Join(dir, "micro.ckpt")
	writeNs := bestOf(microIters, func() { err = errors.Join(err, ckpt.WriteFileAtomic(path, ck)) })
	readNs := bestOf(microIters, func() {
		_, rerr := ckpt.ReadFile(path)
		err = errors.Join(err, rerr)
	})
	if err != nil {
		return err
	}
	m["ckpt.bytes"] = float64(encoded.Len())
	m["ckpt.encode_mb_s"] = ratio(mb, encNs/1e9)
	m["ckpt.write_ms"] = writeNs / 1e6
	m["ckpt.sync_ms"] = (writeNs - encNs) / 1e6
	m["ckpt.read_mb_s"] = ratio(mb, readNs/1e9)
	return nil
}

// scalingWithheld says whether wall-clock scaling metrics can be trusted
// here: with fewer than two CPUs two ranks or two workers time-share one
// core, and their ratio to a serial run measures the scheduler.
func scalingWithheld() bool { return runtime.NumCPU() < 2 }

// zeroLayer starts a per-layer map with every declared metric at 0: a
// layer that does no work on a workload reports 0 there.
func zeroLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// procMetrics files the process-level numbers of a timed window.
func procMetrics(m map[string]float64, before, after *runtime.MemStats, steps, jobs float64) {
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	m["proc.alloc_bytes_per_step"] = ratio(alloc, steps)
	m["proc.mallocs_per_step"] = ratio(float64(after.Mallocs-before.Mallocs), steps)
	m["proc.alloc_bytes_per_job"] = ratio(alloc, jobs)
	m["proc.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["proc.max_rss_mb"] = maxRSSMB()
}

var taskRows = []struct {
	task core.Task
	key  string
}{
	{core.TaskPair, "pair"}, {core.TaskNeigh, "neigh"}, {core.TaskKspace, "kspace"},
	{core.TaskBond, "bond"}, {core.TaskModify, "modify"}, {core.TaskComm, "comm"},
	{core.TaskOutput, "output"}, {core.TaskOther, "other"},
}

// layerMetrics computes an engine workload's per-layer metrics from the
// window's counters, the recorded spans and direct micro-runs.
func (r *engineRun) layerMetrics() error {
	m := zeroLayer()
	r.res.PerLayer = m
	sp := r.o.rec.begin("micro", r.root, 0)
	defer r.o.rec.end(sp)

	steps := float64(r.after.counters.Steps - r.before.counters.Steps)
	r.windowShares(m, steps)
	if len(r.after.mpi) > 0 {
		if err := mpiMicro(r.w.sys.tcp, m); err != nil {
			return err
		}
	}
	m["core.first_frame_ms"] = median(r.frameMs)
	if r.restoredFrom != nil {
		if err := ckptMicro(r.restoredFrom, r.dir, m); err != nil {
			return err
		}
		m["ckpt.restore_ms"] = median(r.restoreMs)
		m["ckpt.restore_build_ms"] = best(r.restoreBuildMs)
	} else {
		m["harness.rebuild_ms"] = median(r.restoreMs) // the TCP world: re-rendezvous + scratch build
	}
	if r.w.sys.world {
		m["harness.start_ms"] = median(r.startMs)
	}
	r.attribution(m)
	procMetrics(m, &r.before.mem, &r.after.mem, steps, float64(len(r.segMs)))
	if err := kernelMicro(r.w.sys, r.o.seed, m); err != nil {
		return err
	}
	return r.scalingRatios(m)
}

// windowShares files what the public timers and the sink spans say about
// the timed window: the step loop's task shares, the ranks' MPI profiles
// and the time inside the checkpoint sink, each a mean over ranks.
func (r *engineRun) windowShares(m map[string]float64, steps float64) {
	wallMs := r.wallMs()
	var tracked float64
	for _, row := range taskRows {
		ms := (r.after.times[row.task] - r.before.times[row.task]).Seconds() * 1e3
		m["core.share."+row.key] = 100 * ratio(ms, wallMs)
		tracked += ms
	}
	m["core.share.untracked"] = 100 * ratio(wallMs-tracked, wallMs)
	m["core.ns_per_atom_step"] = ratio(wallMs*1e6, steps*float64(r.atoms))
	m["core.segment_spread"] = r.segSpread
	for k, v := range r.res.Counts {
		m[k] = v
	}

	if ranks := float64(len(r.after.mpi)); ranks > 0 {
		var mpiMs, waitMs float64
		for rk := range r.after.mpi {
			a, b := &r.after.mpi[rk], &r.before.mpi[rk]
			mpiMs += (a.TotalTime() - b.TotalTime()).Seconds() * 1e3
			waitMs += (a.TotalWait() - b.TotalWait()).Seconds() * 1e3
		}
		m["mpi.time_share"] = 100 * ratio(mpiMs/ranks, wallMs)
		m["mpi.wait_share"] = 100 * ratio(waitMs/ranks, wallMs)
	}

	// Only sink calls made from timed segments count; lane 0's calls
	// count the checkpoints.
	var sinkMs float64
	sinks := 0
	spans := r.o.rec.snapshot()
	for _, s := range spans {
		if s.Name == "ckpt.sink" && s.End >= 0 && s.Parent >= 0 && spans[s.Parent].Name == "segment" {
			sinkMs += (s.End - s.Start).Seconds() * 1e3
			if s.Lane == 0 {
				sinks++
			}
		}
	}
	sinkMs /= float64(len(r.eng.Sims()))
	m["ckpt.sink_ms"] = ratio(sinkMs, float64(sinks))
	m["ckpt.run_share"] = 100 * ratio(sinkMs, wallMs)
	m["ckpt.forced_rebuilds_per_100_steps"] = 100 * ratio(float64(sinks), steps)
}

// attribution builds the table from the shares: the step loop's tasks,
// the checkpoint sink (which no task timer covers), and what is left of
// the wall.
func (r *engineRun) attribution(m map[string]float64) {
	wallMs := r.wallMs()
	row := func(name string, share float64, of bool) {
		r.res.Attribution = append(r.res.Attribution,
			attrRow{Name: name, Ms: share / 100 * wallMs, Share: share, Of: of})
	}
	for _, t := range taskRows {
		row(t.key, m["core.share."+t.key], false)
		if t.key == "comm" {
			row("of which mpi wait", m["mpi.wait_share"], true)
		}
	}
	row("ckpt", m["ckpt.run_share"], false)
	row("untracked", m["core.share.untracked"]-m["ckpt.run_share"], false)
}

// scalingRatios compares the window's rate with reference runs of the
// same system laid out plainly: one worker, one rank, the channel world.
func (r *engineRun) scalingRatios(m map[string]float64) error {
	sys := r.w.sys
	tsPerS := r.res.EndToEnd["ts_per_s"]
	m["par.efficiency"] = 1
	if sys.workers > 1 {
		one := sys
		one.workers = 1
		_, rate, err := r.reference("workers1", one, r.o.size.minOps)
		if err != nil {
			return err
		}
		m["par.efficiency"] = ratio(tsPerS, float64(sys.workers)*rate)
	}
	if sys.world {
		serial := system{wl: sys.wl, atoms: sys.atoms, ranks: 1, workers: sys.workers, thermoEvery: sys.thermoEvery}
		_, rate, err := r.reference("serial", serial, r.o.size.minOps)
		if err != nil {
			return err
		}
		m["domain.speedup_vs_serial"] = ratio(tsPerS, rate)
	}
	if sys.tcp {
		m["domain.tcp_vs_chan"] = ratio(tsPerS, r.chanRate)
	}
	if scalingWithheld() {
		for _, k := range []string{"par.efficiency", "pair.speedup_vs_w1", "domain.speedup_vs_serial", "domain.tcp_vs_chan"} {
			m[k] = 0
		}
		r.res.note("nproc < 2: wall-clock scaling metrics withheld (reported 0); counts are still exact")
	}
	return nil
}
