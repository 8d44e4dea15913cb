package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gomd/internal/ckpt"
	"gomd/internal/fault"
	"gomd/internal/obs"
	"gomd/internal/script"
)

func mustParseFault(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	inj, err := fault.Parse(spec, 1)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	return inj
}

// e2eSpec is the small checkpointed 2-rank LJ job the end-to-end tests
// run: fast enough for the race detector, long enough to have several
// checkpoint generations and thermo frames.
func e2eSpec(steps int) JobSpec {
	return JobSpec{
		Tenant:          "t0",
		Workload:        "lj",
		Atoms:           500,
		Steps:           steps,
		Ranks:           2,
		Seed:            7,
		ThermoEvery:     10,
		CheckpointEvery: 20,
		Retries:         2,
	}
}

func startServer(t *testing.T, dir string, limits Limits, faultSpec string) *Server {
	t.Helper()
	s := &Server{DataDir: dir, Limits: limits}
	if faultSpec != "" {
		s.Fault = mustParseFault(t, faultSpec)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Server.Start: %v", err)
	}
	return s
}

func waitState(t *testing.T, s *Server, id string, want State, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := s.Status(id)
		if ok && st.State == want {
			return st
		}
		if ok && st.State.Terminal() && st.State != want {
			t.Fatalf("job %s reached %q (%s), want %q", id, st.State, st.Detail, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (%s), want %q", id, st.State, st.Detail, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitStep waits for a running job to pass a step (so interruptions
// land mid-run, not before the first chunk).
func waitStep(t *testing.T, s *Server, id string, step int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := s.Status(id)
		if ok && st.Step >= step {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at step %d, want >= %d", id, st.Step, step)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// referenceFrames runs spec uninterrupted on a fresh server and
// returns its frame sequence — the bit-identity baseline.
func referenceFrames(t *testing.T, spec JobSpec) []Frame {
	t.Helper()
	dir := t.TempDir()
	s := startServer(t, dir, Limits{}, "")
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, id, StateDone, 60*time.Second)
	frames := loadFrames(filepath.Join(dir, id+".frames.jsonl"))
	if len(frames) == 0 {
		t.Fatal("reference run produced no frames")
	}
	s.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestServeCompletesJob is the basic service path: submit, run, done,
// result, frames on the thermo grid.
func TestServeCompletesJob(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, dir, Limits{}, "")
	spec := e2eSpec(40)
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, id, StateDone, 60*time.Second)
	if st.Step != 40 || st.Tenant != "t0" {
		t.Fatalf("done status %+v", st)
	}
	res, state, ok := s.Result(id)
	if !ok || state != StateDone || res == nil {
		t.Fatalf("Result: %v %v %v", res, state, ok)
	}
	if res.Steps != 40 || res.Final == nil || res.Final.Step != 40 {
		t.Fatalf("result %+v final %+v", res, res.Final)
	}
	frames := loadFrames(filepath.Join(dir, id+".frames.jsonl"))
	want := []int64{10, 20, 30, 40}
	var got []int64
	for _, fr := range frames {
		got = append(got, fr.Step)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frame steps %v, want %v", got, want)
	}
	s.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCrashResumeBitIdentical is the kill-daemon drill: a
// checkpointed job survives a hard daemon death mid-run, and the
// restarted daemon resumes it from the newest checkpoint generation to
// a trajectory bit-identical to a run that was never interrupted.
func TestServeCrashResumeBitIdentical(t *testing.T) {
	spec := e2eSpec(60)
	ref := referenceFrames(t, spec)

	dir := t.TempDir()
	a := startServer(t, dir, Limits{}, "kill-daemon:step=30")
	id, err := a.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-a.Killed():
	case <-time.After(60 * time.Second):
		t.Fatal("kill-daemon drill never fired")
	}
	a.Wait() // every job loop abandoned; no journal transitions after death
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// The dead daemon left a checkpoint generation and a running record.
	ck, _, _, err := ckpt.ReadNewestValid(filepath.Join(dir, id+".ckpt"), spec.KeepCheckpoints)
	if err != nil {
		t.Fatalf("no checkpoint survived the crash: %v", err)
	}
	if ck.Step < int64(spec.CheckpointEvery) {
		t.Fatalf("newest generation at step %d, want >= %d", ck.Step, spec.CheckpointEvery)
	}

	b := startServer(t, dir, Limits{}, "")
	st := waitState(t, b, id, StateDone, 60*time.Second)
	if !strings.Contains(st.Detail, "resumed from checkpoint") {
		t.Fatalf("restarted daemon did not resume from a checkpoint: %+v", st)
	}
	got := loadFrames(filepath.Join(dir, id+".frames.jsonl"))
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("resumed trajectory diverged:\n got %+v\nwant %+v", got, ref)
	}
	res, _, _ := b.Result(id)
	if res == nil || res.Steps != 60 {
		t.Fatalf("result after resume: %+v", res)
	}
	b.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeDrainParksAndResumes is the SIGTERM protocol: drain runs
// the job on to its next checkpoint boundary, parks it as running in
// the journal, and a fresh daemon resumes it bit-identically.
func TestServeDrainParksAndResumes(t *testing.T) {
	spec := e2eSpec(60)
	ref := referenceFrames(t, spec)

	dir := t.TempDir()
	a := startServer(t, dir, Limits{}, "")
	id, err := a.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStep(t, a, id, 10, 60*time.Second)
	if err := a.Drain(60 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st, _ := a.Status(id)
	if st.State == StateDone {
		t.Skip("job finished before the drain landed; nothing to park")
	}
	if st.State != StateRunning || !strings.Contains(st.Detail, "parked by drain") {
		t.Fatalf("after drain: %+v", st)
	}
	if st.Step%int64(spec.CheckpointEvery) != 0 || st.Step == 0 {
		t.Fatalf("drain parked at step %d, not a checkpoint boundary", st.Step)
	}
	if _, err := a.Submit(spec); err == nil {
		t.Fatal("draining server accepted a submission")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := startServer(t, dir, Limits{}, "")
	waitState(t, b, id, StateDone, 60*time.Second)
	got := loadFrames(filepath.Join(dir, id+".frames.jsonl"))
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("drained+resumed trajectory diverged:\n got %+v\nwant %+v", got, ref)
	}
	b.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeQuotasAndCancel exercises slot scheduling, queue
// backpressure, and both cancel paths against a live server.
func TestServeQuotasAndCancel(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, dir, Limits{SlotBudget: 2, MaxQueue: 2}, "")
	long := e2eSpec(4000)
	long.CheckpointEvery = 0
	runID, err := s.Submit(long) // 2 slots: fills the budget
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, runID, StateRunning, 30*time.Second)
	qID, err := s.Submit(long) // queue has room, no slots
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if st, _ := s.Status(qID); st.State != StateQueued {
		t.Fatalf("second job %+v, want queued behind the slot budget", st)
	}
	_, err = s.Submit(long) // queue full
	rej, ok := err.(*rejection)
	if !ok || rej.Code != 429 || rej.RetryAfter <= 0 {
		t.Fatalf("over-queue submission: %v", err)
	}
	big := e2eSpec(10)
	big.Ranks = 4 // 4 slots > budget: never schedulable
	if _, err := s.Submit(big); err == nil || err.(*rejection).Code != 400 {
		t.Fatalf("over-budget job: %v", err)
	}

	// Cancel the queued job: immediate. Cancel the running one: lands at
	// the next chunk boundary, freeing its slots.
	if err := s.Cancel(qID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st, _ := s.Status(qID); st.State != StateCancelled {
		t.Fatalf("queued cancel: %+v", st)
	}
	if err := s.Cancel(runID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitState(t, s, runID, StateCancelled, 30*time.Second)
	if err := s.Cancel(runID); err == nil {
		t.Fatal("cancelling a terminal job succeeded")
	}
	s.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeHTTPAPI drives the full HTTP surface: submit a script job,
// follow its SSE stream to the done event, fetch the result, and check
// the backpressure status codes on the wire.
func TestServeHTTPAPI(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, dir, Limits{MaxQueue: 1}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	script := `units lj
lattice fcc 0.8442
region box block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
neighbor 0.3 bin
fix 1 all nve
thermo 10
timestep 0.005
run 20
`
	body, _ := json.Marshal(JobSpec{Script: script, Tenant: "curl"})
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var sub struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if sub.ID == "" {
		t.Fatal("submit returned no id")
	}

	// SSE: the stream must replay history and end with a done event.
	sresp, err := http.Get(ts.URL + "/api/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	sawLog, sawDone := false, false
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: log" {
			sawLog = true
		}
		if line == "event: done" {
			sawDone = true
			break
		}
	}
	if !sawLog || !sawDone {
		t.Fatalf("SSE stream: log=%v done=%v", sawLog, sawDone)
	}

	waitState(t, s, sub.ID, StateDone, 60*time.Second)
	rresp, err := http.Get(ts.URL + "/api/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		State  State   `json:"state"`
		Result *Result `json:"result"`
	}
	json.NewDecoder(rresp.Body).Decode(&res)
	rresp.Body.Close()
	if rresp.StatusCode != 200 || res.State != StateDone || res.Result == nil ||
		res.Result.Steps != 20 || !strings.Contains(res.Result.Output, "step") {
		t.Fatalf("result: %d %+v", rresp.StatusCode, res)
	}

	// Status codes on the wire: bad spec 400, queue full 429+Retry-After.
	resp, _ = http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"nope","steps":5}`))
	if resp.StatusCode != 400 {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}
	resp.Body.Close()
	long, _ := json.Marshal(func() JobSpec { j := e2eSpec(4000); j.CheckpointEvery = 0; return j }())
	resp, _ = http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(long))
	if resp.StatusCode != 202 {
		t.Fatalf("long submit: %d", resp.StatusCode)
	}
	var lsub struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&lsub)
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(long))
	if resp.StatusCode != 429 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("backpressure: %d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/api/v1/jobs/"+lsub.ID+"/cancel", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitState(t, s, lsub.ID, StateCancelled, 30*time.Second)

	resp, _ = http.Get(ts.URL + "/healthz")
	var hz struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if hz.Status != "ok" || hz.Draining {
		t.Fatalf("healthz: %+v", hz)
	}
	s.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeRejectsPoisonScript: a script the parse refuses is a 400
// naming its line and command, and is never journaled. Bare `thermo`
// once passed admission and then panicked the job goroutine, taking the
// daemon down; journaled as running, it did the same to every restart.
// A valid script submitted to the same daemon next still runs.
func TestServeRejectsPoisonScript(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, dir, Limits{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(`{"script":"thermo\nrun 1\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || !strings.Contains(string(body), "line 1") || !strings.Contains(string(body), "thermo") {
		t.Fatalf("poison script: %d %s, want a 400 naming line 1 and thermo", resp.StatusCode, body)
	}

	id, err := s.Submit(JobSpec{Script: `units lj
lattice fcc 0.8442
region box block 0 3 0 3 0 3
create_box 1 box
create_atoms 1 box
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
fix 1 all nve
thermo 5
run 10
`})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, id, StateDone, 30*time.Second)
	s.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jr, jobs, err := OpenJournal(filepath.Join(dir, "serve.journal"))
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if len(jobs) != 1 || jobs[0].ID != id {
		t.Fatalf("journal holds %+v, want only %s", jobs, id)
	}
}

// TestServeScriptFilesConfined: a served script's file arguments resolve
// inside the job's own directory. Paths that are absolute or climb out
// fail the job with script.ErrOutsideRoot and create nothing, and two
// jobs dumping to the same relative name do not share a file.
func TestServeScriptFilesConfined(t *testing.T) {
	const setup = `units lj
lattice fcc 0.8442
region box block 0 3 0 3 0 3
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
fix 1 all nve
`
	outer := t.TempDir()
	dir := filepath.Join(outer, "data")
	s := startServer(t, dir, Limits{}, "")
	for _, bad := range []string{"/etc/x", filepath.Join(outer, "x"), "../x", "a/../../x"} {
		id, err := s.Submit(JobSpec{Script: setup + "write_data " + bad + "\nrun 1\n"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		st := waitState(t, s, id, StateFailed, 30*time.Second)
		if !strings.Contains(st.Detail, script.ErrOutsideRoot.Error()) {
			t.Errorf("write_data %s: detail %q, want %q", bad, st.Detail, script.ErrOutsideRoot)
		}
	}
	if ents, _ := os.ReadDir(outer); len(ents) != 1 {
		t.Errorf("a script wrote outside the data directory: %v", ents)
	}

	// Two concurrent jobs, one relative name: each gets its own complete
	// trajectory (2 frames of 108 atoms + 2 header lines).
	dumping := setup + "dump 1 all xyz 5 traj.xyz\nrun 10\n"
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := s.Submit(JobSpec{Script: dumping})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone, 30*time.Second)
		data, err := os.ReadFile(filepath.Join(dir, id+".files", "traj.xyz"))
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(data), "\n"); lines != 2*(108+2) {
			t.Errorf("job %s: trajectory has %d lines, want %d", id, lines, 2*(108+2))
		}
	}
	s.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCancelStopsScript: cancelling a running script job stops
// its interpreter, so once Wait returns nothing writes into the job
// directory any more — the freed slots are really free.
func TestServeCancelStopsScript(t *testing.T) {
	const long = `units lj
lattice fcc 0.8442
region box block 0 3 0 3 0 3
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
fix 1 all nve
dump 1 all xyz 20 traj.xyz
run 1000000
`
	dir := t.TempDir()
	s := startServer(t, dir, Limits{}, "")
	id, err := s.Submit(JobSpec{Script: long})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	traj := filepath.Join(dir, id+".files", "traj.xyz")
	size := func() int64 {
		fi, err := os.Stat(traj)
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	deadline := time.Now().Add(30 * time.Second)
	for size() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("script job wrote no dump frame")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitState(t, s, id, StateCancelled, 30*time.Second)
	s.Wait()
	before := size()
	time.Sleep(200 * time.Millisecond)
	if after := size(); after != before {
		t.Errorf("dump grew from %d to %d bytes after the cancelled job's Wait", before, after)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeRestartKeepsResults: terminal jobs survive a daemon restart
// with their results intact, and IDs keep counting upward.
func TestServeRestartKeepsResults(t *testing.T) {
	dir := t.TempDir()
	a := startServer(t, dir, Limits{}, "")
	spec := e2eSpec(20)
	id, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, id, StateDone, 60*time.Second)
	a.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := startServer(t, dir, Limits{}, "")
	res, state, ok := b.Result(id)
	if !ok || state != StateDone || res == nil || res.Steps != 20 {
		t.Fatalf("result lost across restart: %v %v %v", res, state, ok)
	}
	id2, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restarted daemon reissued job ID %s", id)
	}
	waitState(t, b, id2, StateDone, 60*time.Second)
	b.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServeMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	s := &Server{DataDir: dir, Metrics: obs.NewRegistry()}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, err := s.Submit(e2eSpec(20))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone, 60*time.Second)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_submitted", "serve_done"} {
		if !strings.Contains(raw, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, raw)
		}
	}
	s.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(r interface{ Read([]byte) (int, error) }) (string, error) {
	var b bytes.Buffer
	_, err := b.ReadFrom(bufio.NewReader(r))
	return b.String(), err
}
