package mpi_test

import (
	"testing"

	"gomd/internal/mpi"
)

func TestSendRecv(t *testing.T) {
	w := mpi.NewWorld(2)
	w.Parallel(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3}, -1)
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("recv payload: %v", got)
			}
		}
	})
	s0 := w.Comm(0).Stats
	if s0.Funcs[mpi.FuncSend].Calls != 1 || s0.Funcs[mpi.FuncSend].Bytes != 24 {
		t.Errorf("send stats: %+v", s0.Funcs[mpi.FuncSend])
	}
	s1 := w.Comm(1).Stats
	if s1.Funcs[mpi.FuncWait].Calls != 1 {
		t.Errorf("wait stats: %+v", s1.Funcs[mpi.FuncWait])
	}
}

// TestOutOfOrderTags: a receive must match its tag even when another
// message arrives first.
func TestOutOfOrderTags(t *testing.T) {
	w := mpi.NewWorld(2)
	w.Parallel(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 100, []float64{100}, -1)
			c.Send(1, 200, []float64{200}, -1)
		} else {
			second := c.Recv(0, 200)
			first := c.Recv(0, 100)
			if second[0] != 200 || first[0] != 100 {
				t.Errorf("tag matching broke: %v %v", first, second)
			}
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		w := mpi.NewWorld(n)
		results := make([][]float64, n)
		w.Parallel(func(c *mpi.Comm) {
			buf := []float64{float64(c.Rank()), 1}
			c.Allreduce(buf)
			results[c.Rank()] = buf
		})
		wantSum := float64(n*(n-1)) / 2
		for r, got := range results {
			if got[0] != wantSum || got[1] != float64(n) {
				t.Errorf("n=%d rank %d: %v (want [%v %v])", n, r, got, wantSum, float64(n))
			}
		}
	}
}

func TestAllreduceScalarAndMax(t *testing.T) {
	w := mpi.NewWorld(4)
	sums := make([]float64, 4)
	maxes := make([]float64, 4)
	w.Parallel(func(c *mpi.Comm) {
		sums[c.Rank()] = c.AllreduceScalar(float64(c.Rank() + 1))
		maxes[c.Rank()] = c.AllreduceMax(float64((c.Rank() * 7) % 5))
	})
	for r := range sums {
		if sums[r] != 10 {
			t.Errorf("rank %d scalar sum %v", r, sums[r])
		}
		if maxes[r] != 4 { // values are 0,2,4,1
			t.Errorf("rank %d max %v", r, maxes[r])
		}
	}
}

func TestSendrecvRing(t *testing.T) {
	n := 6
	w := mpi.NewWorld(n)
	out := make([]float64, n)
	w.Parallel(func(c *mpi.Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		got := c.Sendrecv(right, []float64{float64(c.Rank())}, -1, left, 9)
		out[c.Rank()] = got[0]
	})
	for r := range out {
		want := float64((r + n - 1) % n)
		if out[r] != want {
			t.Errorf("ring rank %d got %v want %v", r, out[r], want)
		}
	}
}

// TestSelfSendrecv: a rank exchanging with itself (periodic dimension of
// extent 1) must receive its own payload.
func TestSelfSendrecv(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Parallel(func(c *mpi.Comm) {
		got := c.Sendrecv(0, []float64{42}, -1, 0, 3)
		if got[0] != 42 {
			t.Errorf("self exchange: %v", got)
		}
	})
}

// TestWorldSurvivesMultipleParallelSections: state (mailboxes, stats)
// persists across SPMD sections like a long-lived MPI job.
func TestWorldSurvivesMultipleParallelSections(t *testing.T) {
	w := mpi.NewWorld(3)
	for round := 0; round < 5; round++ {
		w.Parallel(func(c *mpi.Comm) {
			c.AllreduceScalar(1)
		})
	}
	if calls := w.Comm(0).Stats.Funcs[mpi.FuncAllreduce].Calls; calls != 5 {
		t.Errorf("allreduce calls across sections: %d", calls)
	}
}

func TestBarrierReclassifies(t *testing.T) {
	w := mpi.NewWorld(2)
	w.Parallel(func(c *mpi.Comm) {
		c.Barrier()
	})
	s := w.Comm(0).Stats
	if s.Funcs[mpi.FuncAllreduce].Calls != 0 {
		t.Errorf("barrier leaked into allreduce stats: %+v", s.Funcs[mpi.FuncAllreduce])
	}
	if s.Funcs[mpi.FuncOther].Calls != 1 {
		t.Errorf("barrier not filed under others: %+v", s.Funcs[mpi.FuncOther])
	}
}

func TestFuncNames(t *testing.T) {
	want := map[mpi.Func]string{
		mpi.FuncInit:      "MPI_Init",
		mpi.FuncSend:      "MPI_Send",
		mpi.FuncSendrecv:  "MPI_Sendrecv",
		mpi.FuncWait:      "MPI_Wait",
		mpi.FuncAllreduce: "MPI_Allreduce",
		mpi.FuncOther:     "others",
	}
	for f, name := range want {
		if f.String() != name {
			t.Errorf("%v name %q", int(f), f.String())
		}
	}
}
