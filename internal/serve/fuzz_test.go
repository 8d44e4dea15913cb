package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// allocLimit is the fuzz oracle's memory bound shared with the other
// decoder targets: 1 MiB plus 32 bytes per input byte.
func allocLimit(n int) uint64 { return uint64(1<<20 + 32*n) }

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzJobSpec feeds arbitrary bytes to the job admission path a POST
// /jobs body takes: the strict JSON decode of handleSubmit, then
// normalize. Each input is refused with an error or admitted, never
// panics, and allocates at most 1 MiB + 32 bytes per input byte. An
// admitted spec is runnable as the scheduler reads it — one of workload
// or script, a tenant, at least one rank and worker and step for a
// workload — and normalizing it again changes nothing.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"workload":"lj","steps":20}`,
		`{"workload":"lj","atoms":500,"steps":50,"ranks":2,"workers":1,"seed":7,"checkpoint_every":10,"fault":"kill:rank=1,step=5"}`,
		`{"workload":"rhodo","steps":10,"precision":"mixed","tenant":"t"}`,
		`{"script":"units lj\natom_style atomic\nlattice fcc 0.8442\nregion box block 0 4 0 4 0 4\ncreate_box 1 box\ncreate_atoms 1 box\nmass 1 1.0\nrun 10\n"}`,
		`{"workload":"lj","script":"run 1"}`,
		`{"workload":"lj","steps":-1}`,
		`{"workload":"lj","steps":1,"atoms":1e12}`,
		`{"workload":"lj","steps":1,"nope":1}`,
		`{"workload":"nope","steps":1}`,
		`{}`, `[]`, `null`, ``, `{"steps":`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		var err error
		if got, limit := allocated(func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err = dec.Decode(&spec); err == nil {
				err = spec.normalize()
			}
		}), allocLimit(len(body)); got > limit {
			t.Errorf("admitting %d bytes allocated %d (limit %d)", len(body), got, limit)
		}
		if err != nil {
			return
		}
		if (spec.Workload == "") == (spec.Script == "") || spec.Tenant == "" {
			t.Fatalf("admitted %+v: want exactly one of workload or script, and a tenant", spec)
		}
		if spec.Workload != "" && (spec.Steps < 1 || spec.Ranks < 1 || spec.Workers < 1 || spec.Atoms < 1) {
			t.Fatalf("admitted workload spec %+v has no steps, ranks, workers or atoms", spec)
		}
		again := spec
		if err := again.normalize(); err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("normalizing the admitted %+v again: %+v, %v", spec, again, err)
		}
	})
}

// FuzzJournalReplay feeds arbitrary file contents to OpenJournal, the
// replay a restarted daemon runs over its write-ahead log. Each input
// opens (the torn or corrupt tail truncated off) or fails with an
// error, never panics, and replaying allocates at most 1 MiB + 32 bytes
// per input byte. What survives is a line-aligned prefix of the input,
// and reopening it replays the same jobs.
func FuzzJournalReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	spec := &JobSpec{Workload: "lj", Steps: 20, Tenant: "a"}
	for _, a := range []struct {
		id   string
		to   State
		spec *JobSpec
		step int64
		res  *Result
	}{
		{"j1", StateQueued, spec, 0, nil},
		{"j2", StateQueued, spec, 0, nil},
		{"j1", StateRunning, nil, 10, nil},
		{"j1", StateDone, nil, 20, &Result{Steps: 20, Final: &Frame{Step: 20, Temp: 1.5}}},
		{"j2", StateCancelled, nil, 0, nil},
	} {
		if err := j.Append(a.id, a.to, a.spec, "", a.step, a.res); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	log, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 1, len(log) / 3, len(log) / 2, len(log) - 1, len(log)} {
		f.Add(log[:n])
	}
	f.Add(append(bytes.Clone(log), `{"seq":9,"job":"j3","state":"running"}`+"\n"...))
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte(`{"seq":1,"job":"x","state":"queued","spec":{"workload":"lj","steps":1e400}}` + "\n"))
	f.Fuzz(func(t *testing.T, file []byte) {
		path := filepath.Join(t.TempDir(), "serve.journal")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var j *Journal
		var jobs []JobState
		var err error
		if got, limit := allocated(func() { j, jobs, err = OpenJournal(path) }), allocLimit(len(file)); got > limit {
			t.Errorf("replaying %d bytes allocated %d (limit %d)", len(file), got, limit)
		}
		if (j == nil) == (err == nil) {
			t.Fatalf("OpenJournal: journal %v with error %v; want exactly one", j != nil, err)
		}
		if err != nil {
			return
		}
		j.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(file, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("replay kept %q of %q: want a line-aligned prefix", kept, file)
		}
		j2, again, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening the replayed journal: %v", err)
		}
		j2.Close()
		if !reflect.DeepEqual(again, jobs) {
			t.Fatalf("reopening replays %+v, the first replay read %+v", again, jobs)
		}
	})
}
