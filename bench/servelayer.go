package main

import (
	"fmt"
	"path/filepath"
	"time"

	"gomd/internal/serve"
)

const serveMicroOps = 200

// layerMetrics computes a serve workload's per-layer metrics from the
// clients' milestones and direct micro-runs against the layers a job
// passes through.
func (r *serveRun) layerMetrics() error {
	m := zeroLayer()
	r.res.PerLayer = m
	sp := r.o.rec.begin("micro", r.root, 0)
	defer r.o.rec.end(sp)

	var lat, submit, engine, overhead, lag []float64
	var sum struct{ total, submit, queue, engine, stream float64 }
	rejected := 0
	for i := range r.jobs {
		jt := &r.jobs[i]
		if jt.rejected {
			rejected++
		}
		if !jt.due.IsZero() && !jt.sent.IsZero() {
			lag = append(lag, jt.sent.Sub(jt.due).Seconds()*1e3)
		}
		if !r.ok(jt) {
			continue
		}
		ms := func(a, b time.Time) float64 { return b.Sub(a).Seconds() * 1e3 }
		l := ms(jt.origin(), jt.done)
		lat = append(lat, l)
		submit = append(submit, ms(jt.sent, jt.submitted))
		engine = append(engine, jt.engineMs)
		overhead = append(overhead, l-jt.engineMs)
		sum.total += ms(jt.origin(), jt.resultDone)
		sum.submit += ms(jt.origin(), jt.submitted)
		sum.queue += ms(jt.submitted, jt.done) - jt.engineMs
		sum.engine += jt.engineMs
		sum.stream += ms(jt.done, jt.resultDone)
	}
	high := highPercentile(len(lat))
	m["serve.jobs_per_s"] = ratio(float64(len(lat)), r.window.Seconds())
	m["serve.first_frame_ms_p50"] = median(r.firstMs)
	m["serve.restart_ms"] = median(r.restartMs)
	m["serve.submit_ms_p50"] = median(submit)
	m["serve.engine_ms_p50"] = median(engine)
	m["serve.overhead_ms_p50"] = median(overhead)
	m["serve.latency_p_high_ms"] = percentile(lat, high)
	m["serve.latency_p_high_pct"] = high
	m["serve.gen_lag_ms_p90"] = percentile(lag, 90)
	m["serve.inflight_max"] = float64(r.inflightMax)
	m["serve.rejected"] = float64(rejected)
	r.res.Samples["serve.latency_p_high_ms"] = len(lat)

	// A served job's wall, split where the client can see the seams. The
	// engine row is the service's own Result.WallMillis (whole
	// milliseconds), so queue+start absorbs its rounding.
	for _, row := range []struct {
		name string
		ms   float64
	}{
		{"submit", sum.submit}, {"queue+start", sum.queue},
		{"engine", sum.engine}, {"stream+result", sum.stream},
	} {
		r.res.Attribution = append(r.res.Attribution,
			attrRow{Name: row.name, Ms: row.ms, Share: 100 * ratio(row.ms, sum.total)})
	}

	// journal: direct appends, one fsync each, as Submit pays per job.
	jr, _, err := serve.OpenJournal(filepath.Join(r.o.dir, "micro.journal"))
	if err != nil {
		return err
	}
	appendUs := make([]float64, serveMicroOps)
	for i := range appendUs {
		spec := r.spec
		t0 := time.Now()
		if err := jr.Append(fmt.Sprintf("j-%d", i), serve.StateQueued, &spec, "", 0, nil); err != nil {
			jr.Close()
			return err
		}
		appendUs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	if err := jr.Close(); err != nil {
		return err
	}
	m["serve.journal_append_us_p50"] = median(appendUs)

	// status: the cheapest API call, against a daemon holding the
	// window's journal.
	d, err := startDaemon(r.dataDir, r.w.job.slotBudget)
	if err != nil {
		return err
	}
	statusUs := make([]float64, serveMicroOps)
	for i := range statusUs {
		var st serve.JobStatus
		t0 := time.Now()
		code, err := r.get(d.base+"/api/v1/jobs/j-0", &st)
		statusUs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil || code != 200 {
			d.stop(r.client)
			return fmt.Errorf("status GET: code %d: %v", code, err)
		}
	}
	if err := d.stop(r.client); err != nil {
		return err
	}
	m["serve.status_get_us_p50"] = median(statusUs)

	// harness: Supervisor.Start for the served spec, paid once per job.
	startMs := make([]float64, microIters)
	for i := range startMs {
		t0 := time.Now()
		e, err := r.jobSystem().start(r.o.seed, r.o.dir, nil)
		if err != nil {
			return err
		}
		startMs[i] = time.Since(t0).Seconds() * 1e3
		e.Close()
	}
	m["harness.start_ms"] = median(startMs)

	// core: the direct run's step loop, since a served job exposes no
	// task times.
	var tracked float64
	for _, row := range taskRows {
		ms := r.refTimes[row.task].Seconds() * 1e3
		m["core.share."+row.key] = 100 * ratio(ms, r.refWallMs)
		tracked += ms
	}
	m["core.share.untracked"] = 100 * ratio(r.refWallMs-tracked, r.refWallMs)
	m["core.ns_per_atom_step"] = ratio(r.refWallMs*1e6, float64(r.refSteps)*float64(r.atoms))
	m["core.segment_spread"] = iqrShare(lat) // of job latencies: the serve workloads' segments are jobs
	m["par.efficiency"] = 1                  // served jobs run one worker
	for k, v := range r.res.Counts {
		m[k] = v
	}

	steps := float64(len(lat) * r.w.job.steps)
	procMetrics(m, &r.mem[0], &r.mem[1], steps, float64(len(lat)))
	serial := r.jobSystem()
	serial.world = false
	return kernelMicro(serial, r.o.seed, m)
}
