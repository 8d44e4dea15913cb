package domain_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/mpi"
	"gomd/internal/obs"
	"gomd/internal/workload"
)

// runObserved runs the rhodo workload decomposed onto nranks ranks with
// the span tracer and metrics registry enabled (rhodo exercises every
// task of the Table 1 taxonomy: CHARMM pair + bonds, PPPM k-space,
// neighbor rebuilds, halo exchange, SHAKE/NPT fixes, and — with
// ThermoEvery 1 — thermo output).
func runObserved(t *testing.T, nranks, steps int) (*domain.Engine, *obs.Tracer, *obs.Registry) {
	t.Helper()
	o := workload.Options{Atoms: 1550, Seed: 5, ThermoEvery: 1}
	tr := obs.NewTracer(nranks)
	reg := obs.NewRegistry()
	eng, err := domain.New(func() (core.Config, *atom.Store, error) {
		cfg, st, err := workload.Build(workload.Rhodo, o)
		cfg.Trace = tr
		cfg.Metrics = reg
		return cfg, st, err
	}, nranks)
	if err != nil {
		t.Fatalf("domain.New: %v", err)
	}
	if err := eng.Run(steps); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return eng, tr, reg
}

// TestTraceExportFourRanks runs 4 ranks with tracing enabled, exports
// the Chrome trace-event JSON, parses it back, and checks it is
// structurally valid: every rank present with metadata, all 8 task
// names recorded, complete ("X") events only, per-rank step spans
// sequential and non-overlapping, and MPI spans annotated with byte
// counts and peer ranks.
func TestTraceExportFourRanks(t *testing.T) {
	const nranks, steps = 4, 10
	_, tr, _ := runObserved(t, nranks, steps)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	tf, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}

	// Metadata: one process_name plus thread_name/thread_sort_index per rank.
	threadNames := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadNames[ev.Tid] = true
		case ev.Ph != "M" && ev.Ph != "X":
			t.Fatalf("unexpected event phase %q (name %s); want only M and complete X events", ev.Ph, ev.Name)
		}
	}
	for r := 0; r < nranks; r++ {
		if !threadNames[r] {
			t.Errorf("no thread_name metadata for rank %d", r)
		}
	}

	byRank := obs.ByRank(tf)
	if len(byRank) != nranks {
		t.Fatalf("events span %d tids, want %d", len(byRank), nranks)
	}

	wantTasks := map[string]bool{}
	for _, task := range core.Tasks() {
		wantTasks[task.String()] = false
	}
	for r := 0; r < nranks; r++ {
		evs := byRank[r]
		if len(evs) == 0 {
			t.Fatalf("rank %d recorded no events", r)
		}
		var steps []obs.TraceEvent
		mpiSpans := 0
		for _, ev := range evs {
			if ev.Dur < 0 {
				t.Fatalf("rank %d event %s has negative duration %g", r, ev.Name, ev.Dur)
			}
			if ev.TS < 0 {
				t.Fatalf("rank %d event %s has negative timestamp %g", r, ev.Name, ev.TS)
			}
			switch ev.Cat {
			case obs.CatTask:
				if _, ok := wantTasks[ev.Name]; !ok {
					t.Fatalf("rank %d task span %q is not in the Table 1 taxonomy", r, ev.Name)
				}
				wantTasks[ev.Name] = true
			case obs.CatStep:
				steps = append(steps, ev)
			case obs.CatMPI:
				mpiSpans++
				if _, ok := ev.Args["bytes"]; !ok {
					t.Errorf("rank %d MPI span %q lacks a bytes annotation", r, ev.Name)
				}
				if ev.Name == "MPI_Send" || ev.Name == "MPI_Sendrecv" || ev.Name == "MPI_Wait" {
					if _, ok := ev.Args["peer"]; !ok {
						t.Errorf("rank %d %s span lacks a peer annotation", r, ev.Name)
					}
				}
			}
		}
		if len(steps) != 10 {
			t.Errorf("rank %d recorded %d step spans, want 10", r, len(steps))
		}
		if mpiSpans == 0 {
			t.Errorf("rank %d recorded no MPI spans", r)
		}
		// Step spans tile the rank's timeline: monotonically increasing
		// and non-overlapping (ByRank sorts by start timestamp).
		for i := 1; i < len(steps); i++ {
			if steps[i].TS < steps[i-1].TS+steps[i-1].Dur {
				t.Errorf("rank %d step spans overlap: [%g +%g] then [%g]",
					r, steps[i-1].TS, steps[i-1].Dur, steps[i].TS)
			}
		}
	}
	for name, seen := range wantTasks {
		if !seen {
			t.Errorf("task %q never appears in the trace", name)
		}
	}
}

// TestMetricsAgreeWithMPIStats checks that the registry, written only
// by the rank goroutines' live publisher, agrees exactly with each
// rank's own mpi.Stats and engine counters once the engine is idle —
// including after a thermo evaluation outside the step loop, whose
// reductions are MPI calls too.
func TestMetricsAgreeWithMPIStats(t *testing.T) {
	const nranks = 4
	eng, _, reg := runObserved(t, nranks, 10)
	if _, err := eng.ThermoErr(); err != nil {
		t.Fatalf("ThermoErr: %v", err)
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	snap, err := obs.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	live := func(metric string, f mpi.Func, r int) float64 {
		return snap.Gauges[fmt.Sprintf("%s{func=%s,rank=%d}", metric, f, r)]
	}

	for r := 0; r < nranks; r++ {
		st := eng.World.Comm(r).Stats
		for f := mpi.Func(0); f < mpi.NumFuncs; f++ {
			fs := st.Funcs[f]
			for _, m := range []struct {
				metric string
				want   int64
			}{
				{"mpi.live_calls", fs.Calls},
				{"mpi.live_bytes", fs.Bytes},
				{"mpi.live_hops", fs.Hops},
			} {
				if got := live(m.metric, f, r); got != float64(m.want) {
					t.Errorf("rank %d %s %s: registry %v, mpi.Stats %d", r, f, m.metric, got, m.want)
				}
			}
		}
		if st.Funcs[mpi.FuncSendrecv].Calls == 0 {
			t.Errorf("rank %d made no Sendrecv calls; halo exchange missing from run", r)
		}

		c := eng.Sims[r].Counters
		for _, m := range []struct {
			name string
			want int64
		}{
			{"pair.ops", c.PairOps},
			{"neigh.pairs", c.NeighPairs},
			{"comm.ghost_atoms", c.GhostAtoms},
			{"comm.halo_bytes", c.CommBytes},
			{"comm.halo_msgs", c.CommMsgs},
			{"comm.migrated_atoms", c.MigratedAtoms},
			{"kspace.fft_comm_bytes", c.KspaceCommBytes},
			{"kspace.reduce_hops", c.KspaceCommHops},
			{"kspace.fft_ops", c.KspaceFFTOps},
		} {
			if got := snap.Gauges[obs.RankMetric(m.name, r)]; got != float64(m.want) {
				t.Errorf("rank %d %s: registry %v, Counters %d", r, m.name, got, m.want)
			}
		}
	}
}

// TestButterflyMeshReduceAccounting ties the engine's kspace-comm
// counters to the butterfly's shape on a real PPPM run: every mesh
// reduction at P=4 crosses 2*log2(4) = 4 sequential hops, per-rank
// bytes per call land on the reduce-scatter + allgather's
// ~2*len*8*(P-1)/P (the rhodo mesh, 15^3 points, does not divide by 4,
// so segment rounding shifts a few elements between ranks), and the
// MPI Allreduce bucket (which also holds thermo/rebuild reductions)
// bounds the mesh share from above — the cross-check the model's
// kspaceComm pricing rests on.
func TestButterflyMeshReduceAccounting(t *testing.T) {
	const nranks, steps = 4, 10
	eng, _, _ := runObserved(t, nranks, steps)
	stats := eng.MPIStats()
	meshLen := 0.0
	for r, s := range eng.Sims {
		c := s.Counters
		if c.KspaceCommMsgs == 0 {
			t.Fatalf("rank %d ran no mesh reductions; PPPM missing from run", r)
		}
		if c.KspaceCommHops != 4*c.KspaceCommMsgs {
			t.Errorf("rank %d mesh hops %d != 4 * %d msgs", r, c.KspaceCommHops, c.KspaceCommMsgs)
		}
		// Invert bytes/call = 2*len*8*(P-1)/P for the implied mesh size.
		perCall := float64(c.KspaceCommBytes) / float64(c.KspaceCommMsgs)
		implied := math.Round(perCall * nranks / (16 * (nranks - 1)))
		if meshLen == 0 {
			meshLen = implied
		} else if implied != meshLen {
			t.Errorf("rank %d implied mesh length %v differs from rank 0's %v", r, implied, meshLen)
		}
		// Butterfly shape, not replication: within rounding slack of the
		// formula, and strictly below the tree allreduce's log2(P)*len*8.
		if want := 16 * implied * (nranks - 1) / nranks; math.Abs(perCall-want) > 256 {
			t.Errorf("rank %d mesh bytes/call %v, want ~%v (butterfly)", r, perCall, want)
		}
		if perCall >= 16*implied {
			t.Errorf("rank %d mesh bytes/call %v not below the 2*len*8 tree-allreduce cost", r, perCall)
		}
		fs := stats[r].Funcs[mpi.FuncAllreduce]
		if fs.Hops < c.KspaceCommHops || fs.Bytes < c.KspaceCommBytes {
			t.Errorf("rank %d MPI Allreduce bucket (hops=%d bytes=%d) smaller than its mesh share (hops=%d bytes=%d)",
				r, fs.Hops, fs.Bytes, c.KspaceCommHops, c.KspaceCommBytes)
		}
	}
}
