package mpi_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gomd/internal/mpi"
)

// refVector builds rank r's contribution: integer parts plus sixteenths,
// so FP addition is exact and every association order yields the same
// bits — a flat rank-order reduction is then a valid bit-level reference
// for the tree and butterfly algorithms.
func refVector(rank, length int) []float64 {
	v := make([]float64, length)
	for i := range v {
		v[i] = float64((rank+1)*(i+3)%17) + float64(rank)/16.0
	}
	return v
}

// flatSum is the reference flat reduction: rank-order accumulation.
func flatSum(n, length int) []float64 {
	want := make([]float64, length)
	for r := 0; r < n; r++ {
		for i, v := range refVector(r, length) {
			want[i] += v
		}
	}
	return want
}

// TestAllreduceTreeMatchesFlat: the tree must reproduce the flat
// reduction bit-for-bit on every rank, across power-of-two and
// non-power-of-two worlds.
func TestAllreduceTreeMatchesFlat(t *testing.T) {
	const length = 37
	for _, n := range []int{2, 3, 5, 6, 7, 8, 11, 12, 16} {
		want := flatSum(n, length)
		results := make([][]float64, n)
		w := mpi.NewWorld(n)
		w.Parallel(func(c *mpi.Comm) {
			buf := refVector(c.Rank(), length)
			c.Allreduce(buf)
			results[c.Rank()] = buf
		})
		for r := 0; r < n; r++ {
			for i := range want {
				if results[r][i] != want[i] {
					t.Fatalf("n=%d rank %d elem %d: tree %v, flat %v",
						n, r, i, results[r][i], want[i])
				}
			}
		}
	}
}

// TestAllreduceMaxMatchesFlat: max is order-independent at the bit
// level, so any world size must agree exactly with the flat reference.
func TestAllreduceMaxMatchesFlat(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13, 16} {
		want := -1.0
		for r := 0; r < n; r++ {
			if v := float64((r*31)%n) + 0.25; v > want {
				want = v
			}
		}
		results := make([]float64, n)
		w := mpi.NewWorld(n)
		w.Parallel(func(c *mpi.Comm) {
			results[c.Rank()] = c.AllreduceMax(float64((c.Rank()*31)%n) + 0.25)
		})
		for r := 0; r < n; r++ {
			if results[r] != want {
				t.Fatalf("n=%d rank %d: max %v want %v", n, r, results[r], want)
			}
		}
	}
}

// TestAllreduceHopCount: the acceptance criterion — a 1k-element
// Allreduce at 16 ranks must take log2(16) = 4 sequential hops per
// rank, not the O(P) of a flat gather, and each rank sends one vector
// per hop.
func TestAllreduceHopCount(t *testing.T) {
	const n, length = 16, 1000
	w := mpi.NewWorld(n)
	w.Parallel(func(c *mpi.Comm) {
		buf := refVector(c.Rank(), length)
		c.Allreduce(buf)
	})
	for r := 0; r < n; r++ {
		fs := w.Comm(r).Stats.Funcs[mpi.FuncAllreduce]
		if fs.Calls != 1 {
			t.Errorf("rank %d calls = %d, want 1", r, fs.Calls)
		}
		if fs.Hops != 4 {
			t.Errorf("rank %d hops = %d, want log2(16) = 4", r, fs.Hops)
		}
		if want := int64(4 * 8 * length); fs.Bytes != want {
			t.Errorf("rank %d bytes = %d, want %d (one vector per hop)", r, fs.Bytes, want)
		}
	}
}

// TestReduceScatterAllgatherStats: the butterfly's acceptance numbers at
// P=16, 1024 elements — per rank 2·log2(P) = 8 hops and
// 2·len·8·(P-1)/P = 15360 bytes sent, checked against mpi.Stats (the
// old whole-mesh allreduce sent len·8·(P-1) = 122880 bytes per rank).
func TestReduceScatterAllgatherStats(t *testing.T) {
	const n, length = 16, 1024
	want := flatSum(n, length)
	results := make([][]float64, n)
	w := mpi.NewWorld(n)
	w.Parallel(func(c *mpi.Comm) {
		buf := refVector(c.Rank(), length)
		hops, bytes := c.ReduceScatterAllgather(buf)
		if hops != 8 {
			t.Errorf("rank %d returned hops = %d, want 2*log2(16) = 8", c.Rank(), hops)
		}
		if bytes != 2*length*8*(n-1)/n {
			t.Errorf("rank %d returned bytes = %d, want %d", c.Rank(), bytes, 2*length*8*(n-1)/n)
		}
		results[c.Rank()] = buf
	})
	for r := 0; r < n; r++ {
		fs := w.Comm(r).Stats.Funcs[mpi.FuncAllreduce]
		if fs.Calls != 1 || fs.Hops != 8 || fs.Bytes != 15360 {
			t.Errorf("rank %d stats calls=%d hops=%d bytes=%d, want 1/8/15360",
				r, fs.Calls, fs.Hops, fs.Bytes)
		}
		for i := range want {
			if results[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: %v want %v", r, i, results[r][i], want[i])
			}
		}
	}
}

// TestReduceScatterAllgatherShapes: correctness across non-power-of-two
// worlds and vector lengths that do not divide evenly (including
// segments that shrink to zero elements deep in the halving).
func TestReduceScatterAllgatherShapes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 6, 7, 12} {
		for _, length := range []int{1, 3, 10, 64, 101} {
			want := flatSum(n, length)
			results := make([][]float64, n)
			w := mpi.NewWorld(n)
			w.Parallel(func(c *mpi.Comm) {
				buf := refVector(c.Rank(), length)
				c.ReduceScatterAllgather(buf)
				results[c.Rank()] = buf
			})
			for r := 0; r < n; r++ {
				for i := range want {
					if results[r][i] != want[i] {
						t.Fatalf("n=%d len=%d rank %d elem %d: %v want %v",
							n, length, r, i, results[r][i], want[i])
					}
				}
			}
		}
	}
}

// TestBarrierLeavesAllreduceUntouched: the acceptance criterion for the
// old reclassification drift — after 1000 barriers the Allreduce bucket
// must be identical, field for field, to before the first call.
func TestBarrierLeavesAllreduceUntouched(t *testing.T) {
	const n = 4
	w := mpi.NewWorld(n)
	w.Parallel(func(c *mpi.Comm) {
		c.AllreduceScalar(float64(c.Rank())) // non-zero baseline bucket
	})
	before := make([]mpi.FuncStats, n)
	for r := 0; r < n; r++ {
		before[r] = w.Comm(r).Stats.Funcs[mpi.FuncAllreduce]
	}
	w.Parallel(func(c *mpi.Comm) {
		for i := 0; i < 1000; i++ {
			c.Barrier()
		}
	})
	for r := 0; r < n; r++ {
		after := w.Comm(r).Stats.Funcs[mpi.FuncAllreduce]
		if after != before[r] {
			t.Errorf("rank %d Allreduce bucket drifted across 1000 barriers:\nbefore %+v\nafter  %+v",
				r, before[r], after)
		}
		if calls := w.Comm(r).Stats.Funcs[mpi.FuncOther].Calls; calls != 1000 {
			t.Errorf("rank %d barrier calls filed under others: %d, want 1000", r, calls)
		}
	}
}

// TestNoNegativeFuncStats: after a mixed workload no instrumentation
// field may ever be negative (the drift bug's signature).
func TestNoNegativeFuncStats(t *testing.T) {
	const n = 5
	w := mpi.NewWorld(n)
	w.Parallel(func(c *mpi.Comm) {
		for i := 0; i < 20; i++ {
			right := (c.Rank() + 1) % n
			left := (c.Rank() + n - 1) % n
			c.Sendrecv(right, []float64{1, 2}, -1, left, 42)
			c.AllreduceScalar(1)
			c.AllreduceMax(float64(c.Rank()))
			c.Barrier()
			buf := refVector(c.Rank(), 16)
			c.ReduceScatterAllgather(buf)
		}
	})
	for r := 0; r < n; r++ {
		for f := mpi.Func(0); f < mpi.NumFuncs; f++ {
			fs := w.Comm(r).Stats.Funcs[f]
			if fs.Calls < 0 || fs.Bytes < 0 || fs.Hops < 0 || fs.Time < 0 || fs.WaitTime < 0 {
				t.Errorf("rank %d %s went negative: %+v", r, f, fs)
			}
		}
	}
}

// TestMailboxStallPanics: a send into a mailbox nobody drains must
// panic with diagnostics after the world's MailboxStall bound instead
// of hanging the world forever.
func TestMailboxStallPanics(t *testing.T) {
	w := mpi.NewWorldWith(2, mpi.WorldOptions{MailboxStall: 50 * time.Millisecond})
	c := w.Comm(0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overfilling a mailbox did not panic")
		}
		msg := fmt.Sprint(r)
		for _, frag := range []string{"stalled", "rank 0", "rank 1", "tag 7"} {
			if !strings.Contains(msg, frag) {
				t.Errorf("stall panic missing %q: %s", frag, msg)
			}
		}
	}()
	for i := 0; i < 64*2+1; i++ { // one past the mailbox capacity
		c.Send(1, 7, []float64{1}, -1)
	}
}

// TestPayloadAccounting: a send is charged 8 bytes per float unless the
// caller overrides the modeled size (a packed struct payload is priced
// by its sender's model).
func TestPayloadAccounting(t *testing.T) {
	w := mpi.NewWorld(2)
	w.Parallel(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{1, 2, 3}, -1)
			c.Send(1, 6, []float64{1, 2, 3}, 40)
		} else {
			c.Recv(0, 5)
			c.Recv(0, 6)
		}
	})
	if got := w.Comm(0).Stats.Funcs[mpi.FuncSend].Bytes; got != 24+40 {
		t.Errorf("send bytes = %d, want 24 modeled + 40 overridden", got)
	}
	if got := w.Comm(1).Stats.Funcs[mpi.FuncWait].Bytes; got != 24+40 {
		t.Errorf("receive bytes = %d, want 24 + 40", got)
	}
}
