package par_test

import (
	"sync/atomic"
	"testing"

	"gomd/internal/obs"
	"gomd/internal/par"
)

// TestChunkPartition checks that Chunk tiles [0,n) exactly: contiguous,
// ascending, no gaps or overlap, for awkward n/W combinations.
func TestChunkPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 16, 100, 1023} {
		for W := 1; W <= 9; W++ {
			next := 0
			for w := 0; w < W; w++ {
				lo, hi := par.Chunk(n, W, w)
				if lo != next {
					t.Fatalf("n=%d W=%d w=%d: lo=%d want %d", n, W, w, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d W=%d w=%d: hi=%d < lo=%d", n, W, w, hi, lo)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d W=%d: chunks end at %d", n, W, next)
			}
		}
	}
}

// TestRunCoversAllIndices verifies every index is visited exactly once
// for pools of several sizes, including W > n.
func TestRunCoversAllIndices(t *testing.T) {
	for _, W := range []int{1, 2, 4, 7} {
		p := par.NewPool(W)
		for _, n := range []int{0, 1, 3, 64, 1000} {
			visits := make([]int32, n)
			p.Run("cover", n, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("W=%d n=%d: index %d visited %d times", W, n, i, v)
				}
			}
		}
		p.Close()
	}
}

// TestNilAndInlinePools checks the zero-goroutine paths run fn inline
// with the full range and a worker id of 0.
func TestNilAndInlinePools(t *testing.T) {
	for _, p := range []*par.Pool{nil, par.NewPool(0), par.NewPool(1)} {
		if got := p.Workers(); got != 1 {
			t.Fatalf("Workers() = %d, want 1", got)
		}
		called := 0
		p.Run("inline", 10, func(w, lo, hi int) {
			called++
			if w != 0 || lo != 0 || hi != 10 {
				t.Fatalf("inline run got (w=%d, lo=%d, hi=%d)", w, lo, hi)
			}
		})
		if called != 1 {
			t.Fatalf("inline run called fn %d times", called)
		}
		p.Close()
		p.Close() // idempotent
	}
}

// TestDisjointWritesRaceClean exercises the pool's intended access
// pattern — disjoint writes into a shared slice — under the race
// detector, across repeated barriers.
func TestDisjointWritesRaceClean(t *testing.T) {
	p := par.NewPool(4)
	defer p.Close()
	out := make([]float64, 10000)
	for iter := 0; iter < 50; iter++ {
		p.Run("disjoint", len(out), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] += float64(w + 1)
			}
		})
	}
	var sum float64
	for _, v := range out {
		sum += v
	}
	if sum == 0 {
		t.Fatal("no writes observed")
	}
}

// TestStatsAndPublish checks per-kernel accounting and the live gauges
// PublishLive exports it under.
func TestStatsAndPublish(t *testing.T) {
	p := par.NewPool(3)
	defer p.Close()
	for i := 0; i < 5; i++ {
		p.Run("k1", 300, func(w, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			_ = s
		})
	}
	ks := p.Stats("k1")
	if ks.Runs != 5 {
		t.Fatalf("Runs = %d, want 5", ks.Runs)
	}
	if ks.WallNs <= 0 {
		t.Fatalf("WallNs = %d, want > 0", ks.WallNs)
	}
	if u := ks.Util(3); u < 0 || u > 1.000001 {
		t.Fatalf("Util = %v, want within [0,1]", u)
	}
	reg := obs.NewRegistry()
	p.PublishLive(reg, 2)
	if got := reg.Gauge(obs.KernelMetric("par.live_runs", 2, "k1")).Value(); got != 5 {
		t.Fatalf("published runs = %v, want 5", got)
	}
	if got := reg.Gauge(obs.KernelMetric("par.live_wall_ns", 2, "k1")).Value(); got != float64(ks.WallNs) {
		t.Fatalf("published wall = %v, want %d", got, ks.WallNs)
	}
	if reg.Gauge(obs.RankMetric("par.workers", 2)).Value() != 3 {
		t.Fatal("par.workers gauge not published")
	}
}

// TestSpanEmission checks one CatKernel span per barrier.
func TestSpanEmission(t *testing.T) {
	tr := obs.NewTracer(1)
	p := par.NewPool(2)
	defer p.Close()
	p.SetSpan(tr.Rank(0))
	p.Run("spread", 64, func(w, lo, hi int) {})
	p.Run("spread", 64, func(w, lo, hi int) {})
	n := 0
	for _, ev := range tr.Events() {
		if ev.Cat == obs.CatKernel && ev.Name == "par_spread" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("got %d par_spread spans, want 2", n)
	}
}

// TestEmptyRunSkipsDispatch ensures n=0 runs do nothing on a real pool.
func TestEmptyRunSkipsDispatch(t *testing.T) {
	p := par.NewPool(4)
	defer p.Close()
	p.Run("empty", 0, func(w, lo, hi int) {
		t.Error("fn called for n=0")
	})
	if ks := p.Stats("empty"); ks.Runs != 0 {
		t.Fatalf("empty run recorded %d barriers", ks.Runs)
	}
}

// TestPoolOccupiesHelpers: a pool adds its helper goroutines to the
// process's compute count for its life; an inline pool adds nothing.
func TestPoolOccupiesHelpers(t *testing.T) {
	before := par.Occupied()
	par.NewPool(1).Close()
	p := par.NewPool(3)
	if got := par.Occupied(); got != before+2 {
		t.Fatalf("with a 3-worker pool open: occupied %d, want %d", got, before+2)
	}
	p.Close()
	p.Close()
	if got := par.Occupied(); got != before {
		t.Fatalf("after Close: occupied %d, want %d", got, before)
	}
}
