package domain_test

import (
	"testing"

	"gomd/internal/atom"
	"gomd/internal/core"
	"gomd/internal/domain"
	"gomd/internal/fault"
	"gomd/internal/mpi"
	"gomd/internal/obs"
	"gomd/internal/workload"
)

// oneRank runs name on a 1-rank world for steps steps; mod edits the
// config before the engine is built.
func oneRank(t *testing.T, name workload.Name, atoms, steps int, mod func(*core.Config)) *domain.Engine {
	t.Helper()
	eng, err := domain.New(func() (core.Config, *atom.Store, error) {
		cfg, st, err := workload.Build(name, workload.Options{Atoms: atoms, Seed: 7})
		if mod != nil {
			mod(&cfg)
		}
		return cfg, st, err
	}, 1)
	if err != nil {
		t.Fatalf("domain.New: %v", err)
	}
	t.Cleanup(eng.Close)
	if err := eng.Run(steps); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return eng
}

// TestSelfExchangeAccounting pins what a one-rank world charges for its
// halo traffic. The numbers were recorded through Comm.SendrecvFloat64,
// before the self-exchange existed: the perfmodel prices MPI_Sendrecv
// calls and bytes and Counters.CommMsgs/CommBytes, so copying in place
// must not change them.
func TestSelfExchangeAccounting(t *testing.T) {
	for _, tc := range []struct {
		name                              workload.Name
		atoms                             int
		calls, bytes, commMsgs, commBytes int64
	}{
		{workload.LJ, 500, 246, 7968672, 246, 3984336},
		{workload.Rhodo, 1500, 486, 65598528, 486, 32799264},
	} {
		eng := oneRank(t, tc.name, tc.atoms, 40, nil)
		fs := eng.MPIStats()[0].Funcs[mpi.FuncSendrecv]
		c := eng.Sims[0].Counters
		if fs.Calls != tc.calls || fs.Bytes != tc.bytes {
			t.Errorf("%s: MPI_Sendrecv calls/bytes = %d/%d, want %d/%d", tc.name, fs.Calls, fs.Bytes, tc.calls, tc.bytes)
		}
		if c.CommMsgs != tc.commMsgs || c.CommBytes != tc.commBytes {
			t.Errorf("%s: CommMsgs/CommBytes = %d/%d, want %d/%d", tc.name, c.CommMsgs, c.CommBytes, tc.commMsgs, tc.commBytes)
		}
	}
}

// TestSelfExchangeSpans is TestMetricsAgreeWithMPIStats' invariant at
// one rank: with a tracer attached every charged call still leaves one
// comm span.
func TestSelfExchangeSpans(t *testing.T) {
	tr := obs.NewTracer(1)
	eng := oneRank(t, workload.LJ, 500, 20, func(cfg *core.Config) { cfg.Trace = tr })
	spans := map[string]int64{}
	for _, ev := range tr.Events() {
		if ev.Cat == obs.CatMPI {
			spans[ev.Name]++
		}
	}
	st := eng.MPIStats()[0]
	for _, f := range []mpi.Func{mpi.FuncSendrecv, mpi.FuncAllreduce} {
		if got, want := spans[f.String()], st.Funcs[f].Calls; got != want || want == 0 {
			t.Errorf("%s: %d spans, %d calls charged", f, got, want)
		}
	}
}

// TestSelfExchangeYieldsToFaultHook: delay:/reorder: drills intercept
// point-to-point sends inside Comm, so an installed hook must keep the
// one-rank halo on the Comm path.
func TestSelfExchangeYieldsToFaultHook(t *testing.T) {
	inj, err := fault.Parse("reorder:src=0,tag=300,step=5", 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := oneRank(t, workload.LJ, 500, 10, func(cfg *core.Config) { cfg.Fault = inj })
	// A reorder-deferred message is charged to MPI_Send when it is flushed;
	// nothing else on a one-rank world sends without receiving.
	if eng.MPIStats()[0].Funcs[mpi.FuncSend].Bytes == 0 {
		t.Error("reorder fault never fired: the halo exchange bypassed Comm")
	}
}
