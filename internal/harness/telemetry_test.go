package harness

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gomd/internal/fault"
	"gomd/internal/obs"
	"gomd/internal/trace"
	"gomd/internal/workload"
)

// scrape GETs one exposition and sanity-checks its framing.
func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading scrape: %v", err)
	}
	if !strings.HasSuffix(string(body), "# EOF\n") {
		t.Fatalf("scrape not EOF-terminated:\n%.200s", body)
	}
	return string(body)
}

// TestTelemetryLiveScrape runs a 4-rank rhodopsin campaign with a live
// /metrics endpoint and scrapes it concurrently while the ranks step —
// under -race this proves the scraper only touches registry atomics.
// After the run it checks the per-rank heartbeat, worker-pool, MPI, and
// roofline series the live layer is supposed to push.
func TestTelemetryLiveScrape(t *testing.T) {
	const ranks, workers, steps = 4, 2, 80
	reg := obs.NewRegistry()
	sup := &Supervisor{
		Factory: wlFactory(workload.Rhodo, 1500, workers, nil),
		Ranks:   ranks,
		Metrics: reg,
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer sup.Close()

	ms, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer ms.Close()

	done := make(chan error, 1)
	go func() { done <- sup.Run(steps) }()

	// Scrape continuously until the run finishes: the point is concurrent
	// reads while all ranks are mid-step.
	scrapes := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		default:
			scrape(t, ms.Addr())
			scrapes++
			time.Sleep(10 * time.Millisecond)
			continue
		}
		break
	}
	if scrapes == 0 {
		t.Fatal("run finished before a single live scrape")
	}

	body := scrape(t, ms.Addr())
	for _, want := range []string{
		`gomd_health_step{rank="0"}`, // heartbeat mirror, every rank
		`gomd_health_step{rank="3"}`,
		`gomd_health_phase{rank="2"}`,
		`gomd_engine_step{rank="1"}`,
		`gomd_roofline_intensity{kernel="pair",rank="0"}`,
		`gomd_roofline_flops{kernel="neigh",rank="3"}`,
		`gomd_roofline_bytes{kernel="kspace",rank="2"}`,
		`gomd_par_live_busy_ns{kernel="pair_rows",rank="0"}`,
		`gomd_mpi_live_calls{func="MPI_Sendrecv",rank="1"}`,
		`gomd_mpi_live_bytes{func="MPI_Allreduce",rank="0"}`,
		`# TYPE gomd_step_seconds histogram`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}

	// The engine is idle now: two scrapes must be byte-identical
	// (deterministically ordered exposition).
	if again := scrape(t, ms.Addr()); again != body {
		t.Error("idle scrapes differ — exposition ordering is not deterministic")
	}
}

// TestFlightDumpOnKill kills a rank mid-run with no retry budget and
// requires the supervisor to leave a flight-recorder dump naming the
// dying rank's final steps.
func TestFlightDumpOnKill(t *testing.T) {
	const ranks, workers, killStep = 4, 2, 30
	dir := t.TempDir()
	flightPath := filepath.Join(dir, "flight.jsonl")

	inj, err := fault.Parse("kill:rank=1,step=30", 1)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	sup := &Supervisor{
		Factory:    wlFactory(workload.Rhodo, 1500, workers, inj),
		Ranks:      ranks,
		Retries:    0,
		Trace:      trace.New(&logBuf),
		FlightPath: flightPath,
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer sup.Close()

	err = sup.Run(60)
	if err == nil {
		t.Fatal("run survived an unrecoverable kill")
	}
	if !strings.Contains(err.Error(), flightPath) {
		t.Errorf("error does not reference the flight dump: %v", err)
	}

	fh, ferr := os.Open(flightPath)
	if ferr != nil {
		t.Fatalf("flight dump missing: %v", ferr)
	}
	defer fh.Close()
	recs, rerr := obs.ReadFlightDump(fh)
	if rerr != nil {
		t.Fatalf("ReadFlightDump: %v", rerr)
	}
	killed := recs[1]
	if len(killed) == 0 {
		t.Fatal("flight dump has no records for the killed rank")
	}
	last := killed[len(killed)-1].Step
	if last < killStep-5 || last > killStep+1 {
		t.Errorf("killed rank's last recorded step = %d, want ~%d", last, killStep)
	}
	for _, rec := range killed {
		if rec.WallNs <= 0 {
			t.Fatalf("record for step %d has no wall time", rec.Step)
		}
	}
	// The healthy ranks' tails should be present too — a post-mortem
	// needs the whole world, not just the dead rank.
	for r := 0; r < ranks; r++ {
		if len(recs[r]) == 0 {
			t.Errorf("flight dump has no records for rank %d", r)
		}
	}
	if !strings.Contains(logBuf.String(), "flight-dump") {
		t.Error("data log has no flight-dump entry")
	}
}

// TestFlightDumpOnRecovery checks that each recovery attempt leaves its
// own dump next to the recovery-log entry.
func TestFlightDumpOnRecovery(t *testing.T) {
	const ranks, workers, every = 4, 2, 10
	dir := t.TempDir()
	flightPath := filepath.Join(dir, "flight.jsonl")

	inj, err := fault.Parse("kill:rank=2,step=25", 1)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	sup := &Supervisor{
		Factory:         wlFactory(workload.LJ, 1000, workers, inj),
		Ranks:           ranks,
		CheckpointEvery: every,
		CheckpointPath:  filepath.Join(dir, "run.ckpt"),
		Retries:         1,
		Trace:           trace.New(&logBuf),
		FlightPath:      flightPath,
	}
	if err := sup.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer sup.Close()
	if err := sup.Run(40); err != nil {
		t.Fatalf("supervised run did not recover: %v", err)
	}
	if sup.Attempts() != 1 {
		t.Fatalf("recoveries = %d, want 1", sup.Attempts())
	}

	attemptDump := flightPath + ".attempt1"
	fh, ferr := os.Open(attemptDump)
	if ferr != nil {
		t.Fatalf("recovery flight dump missing: %v", ferr)
	}
	defer fh.Close()
	recs, rerr := obs.ReadFlightDump(fh)
	if rerr != nil {
		t.Fatalf("ReadFlightDump: %v", rerr)
	}
	if len(recs[2]) == 0 {
		t.Error("recovery dump has no records for the killed rank")
	}
	log := logBuf.String()
	if !strings.Contains(log, "last_steps") || !strings.Contains(log, attemptDump) {
		t.Errorf("recovery log entry lacks flight fields:\n%s", log)
	}
}
