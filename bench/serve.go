package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gomd/internal/core"
	"gomd/internal/obs"
	"gomd/internal/serve"
)

const jobTimeout = 60 * time.Second

// daemon is one generation of the service: a serve.Server and its
// Handler() on a real loopback http.Server, as cmd/mdserve mounts them.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
}

func startDaemon(dataDir string, slotBudget int) (*daemon, error) {
	d := &daemon{
		srv: &serve.Server{
			DataDir: dataDir,
			Limits:  serve.Limits{SlotBudget: slotBudget},
			Metrics: obs.NewRegistry(),
		},
		served: make(chan error, 1),
	}
	if err := d.srv.Start(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.base = "http://" + ln.Addr().String()
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the generation down the way a SIGTERM does: stop accepting,
// drain, close the journal. It returns once the accept loop has ended.
func (d *daemon) stop(client *http.Client) error {
	// A connection the client dialled but never used sits in the server's
	// "new" state, and Shutdown waits five seconds before it counts such
	// a connection as idle; closing the client's pool first avoids that.
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	return errors.Join(err, d.srv.Drain(10*time.Second), d.srv.Close())
}

// jobTimes is one job seen from the client: the milestones a user of the
// HTTP API can observe.
type jobTimes struct {
	lane                              int
	due, sent, submitted, first, done time.Time
	resultDone                        time.Time
	engineMs                          float64 // Result.WallMillis
	final                             *serve.Frame
	rejected                          bool // refused at the door (429/503)
	err                               error
}

// origin is where latency is timed from: the due time on an open loop
// (so a stalled generator's wait counts), the send time on a closed one.
func (j *jobTimes) origin() time.Time {
	if !j.due.IsZero() {
		return j.due
	}
	return j.sent
}

type serveRun struct {
	w    workloadSpec
	o    runOpts
	res  *runResult
	root int

	spec    serve.JobSpec
	body    []byte
	client  *http.Client
	d       *daemon
	dataDir string

	ref      serve.Frame    // final frame of a direct run of the spec
	refTimes core.TaskTimes // its task times, for the core shares
	// the direct run's wall, steps and realised atoms, for the core metrics
	refWallMs float64
	refSteps  int64
	atoms     int

	firstMs   []float64 // request → first thermo frame, per completed job
	restartMs []float64 // daemon restart over the window's journal

	jobs        []jobTimes
	window      time.Duration
	inflightMax int32
	mem         [2]runtime.MemStats
}

func runServeWorkload(w workloadSpec, o runOpts) (*runResult, error) {
	j := w.job
	r := &serveRun{w: w, o: o, res: newResult(w, o)}
	r.root = o.rec.begin(w.name, -1, 0)
	r.spec = serve.JobSpec{Workload: "lj", Atoms: j.atoms, Steps: j.steps, Ranks: 1,
		ThermoEvery: j.thermoEvery, Seed: o.seed}
	var err error
	if r.body, err = json.Marshal(r.spec); err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	r.client = &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()
	defer func() {
		if r.d != nil {
			r.d.stop(r.client)
		}
	}()

	if err := r.directRun(); err != nil {
		return nil, fmt.Errorf("direct run of the job spec: %w", err)
	}
	if err := r.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.ReadMemStats(&r.mem[0])
	win := o.rec.begin("timed", r.root, 0)
	if j.openPeriod > 0 {
		r.openLoop()
	} else {
		r.closedLoop()
	}
	o.rec.end(win)
	runtime.ReadMemStats(&r.mem[1])
	r.fileSpans(win)
	r.endToEnd()
	if err := r.restorePhase(); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	if o.rec != nil {
		if err := r.layerMetrics(); err != nil {
			return nil, fmt.Errorf("per-layer metrics: %w", err)
		}
	}
	o.rec.end(r.root)
	r.res.Spans = o.rec.snapshot()
	return r.res, nil
}

// jobSystem is the served job's system as serve.runWorkload builds it:
// always decomposed under a Supervisor, here on one rank.
func (r *serveRun) jobSystem() system {
	return system{wl: "lj", atoms: r.w.job.atoms, ranks: 1, world: true, workers: 1,
		thermoEvery: r.w.job.thermoEvery}
}

// directRun runs the job spec in this binary without the service, on the
// thermo grid the service uses. Its final frame is what every served job
// must reproduce bit for bit.
func (r *serveRun) directRun() error {
	sp := r.o.rec.begin("reference.direct", r.root, 0)
	defer r.o.rec.end(sp)
	e, err := r.jobSystem().start(r.o.seed, r.o.dir, nil)
	if err != nil {
		return err
	}
	defer e.Close()
	var th core.Thermo
	zero := snap(e)
	t0 := time.Now()
	for done := 0; done < r.w.job.steps; {
		chunk := min(r.w.job.thermoEvery, r.w.job.steps-done)
		if err := e.Run(chunk); err != nil {
			return err
		}
		if th, err = e.Thermo(); err != nil {
			return err
		}
		done += chunk
	}
	r.ref = serve.Frame{Step: th.Step, Temp: th.Temperature, Prs: th.Pressure,
		PE: th.PotEnergy, KE: th.KinEnergy, Etot: th.TotalEnergy}
	r.refWallMs = time.Since(t0).Seconds() * 1e3
	st := snap(e)
	r.refTimes, r.refSteps = st.times, st.counters.Steps
	// The direct run covers a fixed step range, so its counts are exact.
	r.res.Counts = engineCounts(&zero, &st, 1)
	r.res.Info["atoms_requested"] = r.w.job.atoms
	r.atoms = e.Sims()[0].Store.N
	r.res.Info["atoms"] = r.atoms
	return nil
}

// setUp starts the daemon and runs the warm-up jobs, several times over;
// the last generation is kept for the timed window.
func (r *serveRun) setUp() error {
	j := r.w.job
	var setups []float64
	for i, t00 := 0, time.Now(); r.o.size.setups.more(i, time.Since(t00)); i++ {
		if r.d != nil {
			if err := r.d.stop(r.client); err != nil {
				return err
			}
			r.d = nil
		}
		r.dataDir = filepath.Join(r.o.dir, fmt.Sprintf("serve-%d", i))
		sp := r.o.rec.begin("setup", r.root, 0)
		t0 := time.Now()
		var err error
		r.o.rec.do("daemon.start", sp, 0, func() { r.d, err = startDaemon(r.dataDir, j.slotBudget) })
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		warm := make([]jobTimes, j.warmupJobs)
		wsp := r.o.rec.begin("warm-up", sp, 0)
		for c := 0; c < j.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := c; k < len(warm); k += j.clients {
					warm[k] = r.doJob(c, time.Time{})
				}
			}()
		}
		wg.Wait()
		r.o.rec.end(wsp)
		setups = append(setups, time.Since(t0).Seconds())
		r.o.rec.end(sp)
		for _, jt := range warm {
			if jt.err != nil {
				return fmt.Errorf("warm-up job: %w", jt.err)
			}
		}
	}
	r.res.EndToEnd["setup_s"] = median(setups)
	r.res.Samples["setup_s"] = len(setups)
	r.res.Info["setup_samples_s"] = setups
	return nil
}

// closedLoop: each client sends its next job only after the previous one
// completed, until the window has passed.
func (r *serveRun) closedLoop() {
	j := r.w.job
	perClient := make([][]jobTimes, j.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < j.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(perClient[c]) < (r.o.size.minOps+j.clients-1)/j.clients ||
				time.Since(start).Seconds() < r.o.seconds {
				perClient[c] = append(perClient[c], r.doJob(c, time.Time{}))
			}
		}()
	}
	wg.Wait()
	r.window = time.Since(start)
	for _, js := range perClient {
		r.jobs = append(r.jobs, js...)
	}
	r.inflightMax = int32(j.clients)
}

// openLoop: one generator dispatches a job every period whatever the
// service is doing, as independent users would. A job is timed from when
// it was due. More than maxInflight jobs outstanding is a growing
// backlog: the excess is not sent and counts as failed.
func (r *serveRun) openLoop() {
	j := r.w.job
	period := time.Duration(j.openPeriod) * time.Millisecond
	n := max(int(r.o.seconds*1e3)/j.openPeriod, r.o.size.minOps)
	r.jobs = make([]jobTimes, n)
	var inflight atomic.Int32
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		cur := inflight.Add(1)
		if cur > int32(j.maxInflight) {
			inflight.Add(-1)
			now := time.Now()
			r.jobs[i] = jobTimes{lane: i % j.maxInflight, due: due, sent: now,
				err: fmt.Errorf("backlog: %d jobs already in flight", cur-1)}
			continue
		}
		if cur > r.inflightMax {
			r.inflightMax = cur
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			r.jobs[i] = r.doJob(i%j.maxInflight, due)
		}()
	}
	wg.Wait()
	r.window = time.Since(start)
}

// doJob is one user's whole exchange: POST the spec, follow the SSE
// stream to the done event, GET the result.
func (r *serveRun) doJob(lane int, due time.Time) jobTimes {
	jt := jobTimes{lane: lane, due: due}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	jt.sent = time.Now()
	jt.err = r.followJob(ctx, &jt)
	return jt
}

func (r *serveRun) followJob(ctx context.Context, jt *jobTimes) error {
	req, err := http.NewRequestWithContext(ctx, "POST", r.d.base+"/api/v1/jobs", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	var sub struct{ ID string }
	code, err := r.roundTrip(req, &sub)
	jt.submitted = time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusAccepted {
		jt.rejected = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
		return fmt.Errorf("submit: status %d", code)
	}

	req, err = http.NewRequestWithContext(ctx, "GET", r.d.base+"/api/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	err = followEvents(resp.Body, jt)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}

	req, err = http.NewRequestWithContext(ctx, "GET", r.d.base+"/api/v1/jobs/"+sub.ID+"/result", nil)
	if err != nil {
		return err
	}
	var out struct {
		State  serve.State
		Result *serve.Result
	}
	code, err = r.roundTrip(req, &out)
	jt.resultDone = time.Now()
	switch {
	case err != nil:
		return fmt.Errorf("result: %w", err)
	case code != http.StatusOK || out.State != serve.StateDone || out.Result == nil:
		return fmt.Errorf("result: status %d, state %q", code, out.State)
	}
	jt.engineMs = float64(out.Result.WallMillis)
	jt.final = out.Result.Final
	return nil
}

// roundTrip sends req and decodes a JSON body into v.
func (r *serveRun) roundTrip(req *http.Request, v any) (int, error) {
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

// followEvents reads an SSE stream, stamping the first thermo frame and
// the done event.
func followEvents(body io.Reader, jt *jobTimes) error {
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch name {
		case "thermo":
			if jt.first.IsZero() {
				jt.first = time.Now()
			}
		case "done":
			jt.done = time.Now()
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream ended without a done event")
}

// ok reports a job that completed and whose final frame is the direct
// run's, bit for bit.
func (r *serveRun) ok(jt *jobTimes) bool {
	return jt.err == nil && jt.final != nil && *jt.final == r.ref && !jt.first.IsZero()
}

// fileSpans turns the clients' milestones into spans after the window,
// so the traced pass adds nothing to the timed path but the stamps the
// untraced pass takes too.
func (r *serveRun) fileSpans(win int) {
	if r.o.rec == nil {
		return
	}
	for i := range r.jobs {
		jt := &r.jobs[i]
		if jt.err != nil || jt.sent.IsZero() {
			continue
		}
		job := r.o.rec.add("job", win, jt.lane+1, jt.origin(), jt.resultDone)
		r.o.rec.add("http.submit", job, jt.lane+1, jt.sent, jt.submitted)
		r.o.rec.add("sse.to-first-frame", job, jt.lane+1, jt.submitted, jt.first)
		r.o.rec.add("sse.to-done", job, jt.lane+1, jt.first, jt.done)
		r.o.rec.add("http.result", job, jt.lane+1, jt.done, jt.resultDone)
	}
}

func (r *serveRun) endToEnd() {
	var lat []float64
	mismatched := 0
	for i := range r.jobs {
		jt := &r.jobs[i]
		r.res.Attempted++
		if !r.ok(jt) {
			r.res.Failed++
			if jt.err == nil {
				mismatched++
			} else if r.res.Failed <= 3 {
				r.res.note("job failed: %v", jt.err)
			}
			continue
		}
		lat = append(lat, jt.done.Sub(jt.origin()).Seconds()*1e3)
		r.firstMs = append(r.firstMs, jt.first.Sub(jt.origin()).Seconds()*1e3)
	}
	r.res.check("jobs-done", r.res.Failed == 0, "%d of %d jobs done", len(lat), len(r.jobs))
	r.res.check("final-equals-direct-run", mismatched == 0,
		"%d of %d served final frames differ from a direct run of the spec", mismatched, len(r.jobs))
	r.res.EndToEnd["ts_per_s"] = float64(len(lat)*r.w.job.steps) / r.window.Seconds()
	r.res.EndToEnd["job_latency_p50_ms"] = median(lat)
	for _, k := range []string{"ts_per_s", "job_latency_p50_ms"} {
		r.res.Samples[k] = len(lat)
	}
	r.res.Info["jobs_per_s"] = float64(len(lat)) / r.window.Seconds()
	r.res.Info["job_steps"] = r.w.job.steps
	r.res.Info["window_s"] = r.window.Seconds()
	r.res.Info["job_latency_p90_ms"] = percentile(lat, 90)
	r.res.Info["latency_ms"] = lat
	r.res.Info["first_frame_ms"] = r.firstMs
}

// restorePhase times a daemon restart over the journal the window
// filled: stop this generation, then Start a new one on the same data
// directory until it answers /healthz and still knows the last job.
func (r *serveRun) restorePhase() error {
	sp := r.o.rec.begin("restore", r.root, 0)
	defer r.o.rec.end(sp)
	err := r.d.stop(r.client)
	r.d = nil
	if err != nil {
		return err
	}
	for i, t00 := 0, time.Now(); r.o.size.restores.more(i, time.Since(t00)); i++ {
		id := r.o.rec.begin("daemon.restart", sp, 0)
		t0 := time.Now()
		d, err := startDaemon(r.dataDir, r.w.job.slotBudget)
		if err != nil {
			return err
		}
		var health struct{ Status string }
		code, herr := r.get(d.base+"/healthz", &health)
		var list []serve.JobStatus
		_, lerr := r.get(d.base+"/api/v1/jobs", &list)
		r.restartMs = append(r.restartMs, time.Since(t0).Seconds()*1e3)
		r.o.rec.end(id)
		if i == 0 {
			done := 0
			for _, st := range list {
				if st.State == serve.StateDone {
					done++
				}
			}
			want := r.w.job.warmupJobs + r.res.Attempted - r.res.Failed
			r.res.check("restart-keeps-jobs", herr == nil && lerr == nil && code == 200 && done >= want,
				"restarted daemon lists %d done jobs, journal should hold %d", done, want)
		}
		if err := d.stop(r.client); err != nil {
			return err
		}
	}
	r.res.Info["restore_samples_ms"] = r.restartMs
	return nil
}

func (r *serveRun) get(url string, v any) (int, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return 0, err
	}
	return r.roundTrip(req, v)
}
