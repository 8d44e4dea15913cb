// Transport conformance suite: one table-driven matrix every transport
// must pass identically. The channel transport is the reference
// semantics; the TCP transport (simulated here as one process-per-rank
// set of worlds wired over loopback) must be observably identical —
// point-to-point ordering per (src,tag), bit-identical collectives,
// abort unblocking parked peers, recv-deadline diagnosis, and comm
// snapshots that report remote mailbox depth. Any future transport
// plugs into the same table.
package mpi_test

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gomd/internal/mpi"
)

// multiWorld is one transport case's view of a world: the set of World
// objects that jointly cover ranks 0..n-1 (one for the channel
// transport, one per simulated process for TCP).
type multiWorld struct {
	worlds []*mpi.World
}

// transportCase builds a multiWorld for a given size and options.
type transportCase struct {
	name  string
	build func(t *testing.T, n int, opts mpi.WorldOptions) *multiWorld
}

// transportCases is the conformance matrix: every test below runs once
// per entry.
func transportCases() []transportCase {
	return []transportCase{
		{name: "chan", build: buildChanWorld},
		{name: "tcp", build: buildTCPWorlds},
	}
}

func buildChanWorld(t *testing.T, n int, opts mpi.WorldOptions) *multiWorld {
	w := mpi.NewWorldWith(n, opts)
	t.Cleanup(func() { w.Close() })
	return &multiWorld{worlds: []*mpi.World{w}}
}

// buildTCPWorlds simulates n processes, one rank each, rendezvousing
// over loopback: rank 0 hosts the coordinator, ranks 1..n-1 join.
func buildTCPWorlds(t *testing.T, n int, opts mpi.WorldOptions) *multiWorld {
	co, err := mpi.ListenTCP("127.0.0.1:0", n)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	worlds := make([]*mpi.World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 1; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = mpi.JoinTCP(co.Addr(), []int{r}, opts)
		}(r)
	}
	worlds[0], errs[0] = co.Host([]int{0}, opts)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rendezvous rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			w.Close()
		}
	})
	return &multiWorld{worlds: worlds}
}

// runSPMD runs body over every rank of the multi-world (each world's
// Parallel on its own goroutine, like separate OS processes) and
// returns each world's error.
func (mw *multiWorld) runSPMD(body func(c *mpi.Comm)) []error {
	errs := make([]error, len(mw.worlds))
	var wg sync.WaitGroup
	for i, w := range mw.worlds {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			errs[i] = w.Parallel(body)
		}(i, w)
	}
	wg.Wait()
	return errs
}

// requireAllOK fails on any world-level error.
func requireAllOK(t *testing.T, errs []error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("world %d: %v", i, err)
		}
	}
}

// TestTransportConformanceP2POrdering: messages between one (src,dst)
// pair under one tag arrive in send order, and out-of-order receives
// across tags match correctly (the pend-buffer path), on every
// transport.
func TestTransportConformanceP2POrdering(t *testing.T) {
	const n, msgs = 4, 16
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			var mu sync.Mutex
			got := map[int][]float64{} // receiving rank -> tag-1 sequence observed
			errs := mw.runSPMD(func(c *mpi.Comm) {
				next := (c.Rank() + 1) % n
				prev := (c.Rank() - 1 + n) % n
				// Interleave two tags toward next.
				for i := 0; i < msgs; i++ {
					c.Send(next, 1, []float64{float64(i)}, -1)
					c.Send(next, 2, []float64{float64(100 + i)}, -1)
				}
				// Drain tag 2 first: every tag-1 message is an
				// out-of-order buffer hit, yet per-tag order must hold.
				for i := 0; i < msgs; i++ {
					v := c.Recv(prev, 2)
					if v[0] != float64(100+i) {
						t.Errorf("rank %d tag 2 msg %d: got %v", c.Rank(), i, v[0])
					}
				}
				seq := make([]float64, 0, msgs)
				for i := 0; i < msgs; i++ {
					seq = append(seq, c.Recv(prev, 1)[0])
				}
				mu.Lock()
				got[c.Rank()] = seq
				mu.Unlock()
			})
			requireAllOK(t, errs)
			for r, seq := range got {
				for i, v := range seq {
					if v != float64(i) {
						t.Fatalf("rank %d: tag 1 sequence %v broken at %d", r, seq, i)
					}
				}
			}
		})
	}
}

// TestTransportConformanceCollectives: all three collectives produce
// results bit-identical to the flat reference on every transport —
// integer-valued inputs make the flat sum exactly representable, so
// association order cannot hide behind rounding.
func TestTransportConformanceCollectives(t *testing.T) {
	const n, length = 4, 8
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			var mu sync.Mutex
			sums := map[int][]float64{}
			butts := map[int][]float64{}
			maxes := map[int]float64{}
			errs := mw.runSPMD(func(c *mpi.Comm) {
				vec := make([]float64, length)
				for i := range vec {
					vec[i] = float64((c.Rank()+1)*1000 + i)
				}
				sum := append([]float64(nil), vec...)
				c.Allreduce(sum)
				butt := append([]float64(nil), vec...)
				c.ReduceScatterAllgather(butt)
				mx := c.AllreduceMax(float64(c.Rank() * 7))
				c.Barrier()
				mu.Lock()
				sums[c.Rank()] = sum
				butts[c.Rank()] = butt
				maxes[c.Rank()] = mx
				mu.Unlock()
			})
			requireAllOK(t, errs)
			for i := 0; i < length; i++ {
				var flat float64
				for r := 0; r < n; r++ {
					flat += float64((r+1)*1000 + i)
				}
				for r := 0; r < n; r++ {
					if sums[r][i] != flat {
						t.Fatalf("rank %d Allreduce[%d] = %v, flat %v", r, i, sums[r][i], flat)
					}
					if butts[r][i] != flat {
						t.Fatalf("rank %d butterfly[%d] = %v, flat %v", r, i, butts[r][i], flat)
					}
				}
			}
			for r := 0; r < n; r++ {
				if maxes[r] != float64((n-1)*7) {
					t.Fatalf("rank %d AllreduceMax = %v, want %v", r, maxes[r], float64((n-1)*7))
				}
			}
		})
	}
}

// TestTransportConformanceCollectiveBits: with irrational inputs the
// reduced vector must still be bitwise identical on every rank (the
// engine's collective rebuild decisions rest on exact agreement), and
// bitwise identical across transports.
func TestTransportConformanceCollectiveBits(t *testing.T) {
	const n, length = 4, 16
	perTransport := map[string][]uint64{}
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			var mu sync.Mutex
			results := map[int][]float64{}
			errs := mw.runSPMD(func(c *mpi.Comm) {
				vec := make([]float64, length)
				for i := range vec {
					vec[i] = math.Sqrt(float64(c.Rank()*length+i) + 0.1)
				}
				c.Allreduce(vec)
				mu.Lock()
				results[c.Rank()] = vec
				mu.Unlock()
			})
			requireAllOK(t, errs)
			bits := make([]uint64, length)
			for i := range bits {
				bits[i] = math.Float64bits(results[0][i])
			}
			for r := 1; r < n; r++ {
				for i := range bits {
					if math.Float64bits(results[r][i]) != bits[i] {
						t.Fatalf("rank %d Allreduce[%d] differs bitwise from rank 0", r, i)
					}
				}
			}
			perTransport[tc.name] = bits
		})
	}
	ref := perTransport["chan"]
	for name, bits := range perTransport {
		for i := range bits {
			if bits[i] != ref[i] {
				t.Fatalf("transport %q Allreduce[%d] differs bitwise from chan", name, i)
			}
		}
	}
}

// TestTransportConformanceAbortUnblocks: a rank failure must unblock
// peers parked in receives on every world of the universe — including
// worlds in other (simulated) processes — and every world must report
// the same originating rank.
func TestTransportConformanceAbortUnblocks(t *testing.T) {
	const n = 4
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			errs := mw.runSPMD(func(c *mpi.Comm) {
				if c.Rank() == 0 {
					time.Sleep(50 * time.Millisecond) // let peers park first
					panic("injected failure on rank 0")
				}
				c.Recv(0, 42) // never satisfied; must unwind via abort
			})
			for i, err := range errs {
				if err == nil {
					t.Fatalf("world %d: Parallel returned nil, want rank-0 failure", i)
				}
				re, ok := err.(*mpi.RankError)
				if !ok {
					t.Fatalf("world %d: error %T, want *RankError", i, err)
				}
				if re.Rank != 0 {
					t.Fatalf("world %d: failure attributed to rank %d, want 0", i, re.Rank)
				}
				if !strings.Contains(err.Error(), "injected failure on rank 0") {
					t.Fatalf("world %d: cause text lost: %v", i, err)
				}
			}
		})
	}
}

// TestTransportConformanceRecvDeadline: a bounded receive that never
// matches must fail with the park diagnosis (not hang) on every
// transport.
func TestTransportConformanceRecvDeadline(t *testing.T) {
	const n = 2
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{RecvStall: 100 * time.Millisecond})
			errs := mw.runSPMD(func(c *mpi.Comm) {
				if c.Rank() == 1 {
					c.Recv(0, 7) // rank 0 never sends tag 7
				}
			})
			var failed error
			for _, err := range errs {
				if err != nil {
					failed = err
					break
				}
			}
			if failed == nil {
				t.Fatal("bounded receive never diagnosed")
			}
			for _, want := range []string{"stalled", "blocking receive"} {
				if !strings.Contains(failed.Error(), want) {
					t.Fatalf("diagnosis %q missing %q", failed.Error(), want)
				}
			}
		})
	}
}

// TestTransportConformanceSnapshot: SnapshotComm taken from rank 0's
// world must report a remote rank's park state and unmatched mailbox
// depth — over TCP that information crosses the wire via the snapshot
// exchange.
func TestTransportConformanceSnapshot(t *testing.T) {
	const n = 2
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			release := make(chan struct{})
			done := make(chan []error, 1)
			go func() {
				done <- mw.runSPMD(func(c *mpi.Comm) {
					switch c.Rank() {
					case 0:
						// Two unmatched messages, then hold until the
						// snapshot below has seen rank 1 parked.
						c.Send(1, 5, []float64{1}, -1)
						c.Send(1, 6, []float64{2}, -1)
						<-release
						c.Send(1, 9, []float64{3}, -1)
					case 1:
						c.Recv(0, 9)
					}
				})
			}()
			deadline := time.Now().Add(5 * time.Second)
			var snap []mpi.CommState
			for {
				if time.Now().After(deadline) {
					t.Fatalf("snapshot never showed rank 1 parked with 2 unmatched: %+v", snap)
				}
				snap = mw.worlds[0].SnapshotComm()
				s := snap[1]
				if s.Parked != nil && s.Parked.Op == "MPI_Wait" && s.Unmatched == 2 {
					if s.Parked.Peer != 0 || s.Parked.Tag != 9 {
						t.Fatalf("rank 1 park misreported: %+v", s.Parked)
					}
					if s.InboxCap <= 0 {
						t.Fatalf("rank 1 mailbox capacity missing: %+v", s)
					}
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			close(release)
			requireAllOK(t, <-done)
		})
	}
}

// TestTransportConformanceStats: call counts and collective hop counts
// must be identical across transports (bytes legitimately differ by
// framing overhead — that contract is pinned by
// TestWireByteAccountingOverhead).
func TestTransportConformanceStats(t *testing.T) {
	const n = 4
	type profile struct {
		calls [mpi.NumFuncs]int64
		hops  [mpi.NumFuncs]int64
	}
	collect := func(t *testing.T, tc transportCase) map[int]profile {
		mw := tc.build(t, n, mpi.WorldOptions{})
		var mu sync.Mutex
		out := map[int]profile{}
		errs := mw.runSPMD(func(c *mpi.Comm) {
			next := (c.Rank() + 1) % n
			prev := (c.Rank() - 1 + n) % n
			c.Send(next, 1, []float64{1, 2, 3}, -1)
			c.Recv(prev, 1)
			c.Sendrecv(next, []float64{4, 5}, -1, prev, 2)
			buf := []float64{float64(c.Rank())}
			c.Allreduce(buf)
			c.Barrier()
			var p profile
			for f := mpi.Func(0); f < mpi.NumFuncs; f++ {
				p.calls[f] = c.Stats.Funcs[f].Calls
				p.hops[f] = c.Stats.Funcs[f].Hops
			}
			mu.Lock()
			out[c.Rank()] = p
			mu.Unlock()
		})
		requireAllOK(t, errs)
		return out
	}
	cases := transportCases()
	ref := collect(t, cases[0])
	for _, tc := range cases[1:] {
		t.Run(tc.name, func(t *testing.T) {
			got := collect(t, tc)
			for r := 0; r < n; r++ {
				if got[r] != ref[r] {
					t.Fatalf("rank %d profile diverges from chan:\n chan %+v\n %s %+v",
						r, ref[r], tc.name, got[r])
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Caller-buffered exchange (SendrecvFloat64) beside the allocating
// forms. Same matrix: the channel world moves a pooled transit copy, the
// TCP world a pooled frame that the receiving rank decodes; callers must
// not be able to tell.

// ramp returns n floats base, base+1, ...
func ramp(n int, base float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = base + float64(i)
	}
	return v
}

func requireRamp(t *testing.T, what string, got []float64, n int, base float64) {
	t.Helper()
	if len(got) != n {
		t.Errorf("%s: %d floats, want %d", what, len(got), n)
		return
	}
	for i, v := range got {
		if v != base+float64(i) {
			t.Errorf("%s: [%d] = %v, want %v", what, i, v, base+float64(i))
			return
		}
	}
}

// TestTransportConformanceFloat64BufferOwnership: MPI's buffer contract.
// The sender scribbles over send the moment the call returns and the
// receiver still sees the values of the call; recv may be nil, too
// small, or larger than needed, and is reallocated only in the first two
// cases.
func TestTransportConformanceFloat64BufferOwnership(t *testing.T) {
	const n, rounds = 2, 8
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			requireAllOK(t, mw.runSPMD(func(c *mpi.Comm) {
				peer := 1 - c.Rank()
				send := make([]float64, 300)
				var recv []float64 // nil on the first round
				for r := 0; r < rounds; r++ {
					size := 300 - 40*r // shrinking: recv is larger than needed after round 0
					base := float64(1000*c.Rank() + r)
					copy(send, ramp(size, base))
					before := recv
					recv = c.SendrecvFloat64(peer, send[:size], peer, 7, recv)
					for i := range send {
						send[i] = -1 // the buffer is ours again
					}
					requireRamp(t, "recv", recv, size, float64(1000*peer+r))
					if r > 0 && &recv[0] != &before[0] {
						t.Errorf("round %d: recv reallocated though %d floats fit in cap %d", r, size, cap(before))
					}
				}
				// Too small: grown, and the old buffer left alone.
				small := make([]float64, 2, 4)
				small[0], small[1] = 42, 43
				got := c.SendrecvFloat64(peer, ramp(100, 5), peer, 8, small)
				requireRamp(t, "grown recv", got, 100, 5)
				if small[0] != 42 || small[1] != 43 {
					t.Errorf("a too-small recv was written before being replaced: %v", small)
				}
			}))
		})
	}
}

// TestTransportConformanceNullPartners: either partner of Sendrecv and
// SendrecvFloat64 may be -1 (a slab boundary). The call then sends only,
// receives only, or does nothing, and is charged as MPI_Send, MPI_Wait,
// or not at all.
func TestTransportConformanceNullPartners(t *testing.T) {
	const n = 2
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			requireAllOK(t, mw.runSPMD(func(c *mpi.Comm) {
				scratch := make([]float64, 0, 16)
				if got := c.SendrecvFloat64(-1, ramp(3, 0), -1, 1, scratch); len(got) != 0 {
					t.Errorf("SendrecvFloat64, no partners: got %v", got)
				}
				if got := c.Sendrecv(-1, ramp(3, 0), -1, -1, 1); got != nil {
					t.Errorf("Sendrecv, no partners: got %v", got)
				}
				switch c.Rank() {
				case 0: // sends up, has nobody below
					if got := c.SendrecvFloat64(1, ramp(5, 10), -1, 2, scratch); len(got) != 0 {
						t.Errorf("SendrecvFloat64 send-only call returned %v", got)
					}
					if got := c.Sendrecv(1, ramp(5, 20), -1, -1, 3); got != nil {
						t.Errorf("Sendrecv send-only call returned %v", got)
					}
				case 1: // receives from below, has nobody above
					requireRamp(t, "SendrecvFloat64 recv-only", c.SendrecvFloat64(-1, nil, 0, 2, scratch), 5, 10)
					requireRamp(t, "Sendrecv recv-only", c.Sendrecv(-1, nil, 0, 0, 3), 5, 20)
				}
				f := c.Stats.Funcs
				want := [3]int64{2, 0, 0} // rank 0: two MPI_Send
				if c.Rank() == 1 {
					want = [3]int64{0, 2, 0} // rank 1: two MPI_Wait
				}
				if got := [3]int64{f[mpi.FuncSend].Calls, f[mpi.FuncWait].Calls, f[mpi.FuncSendrecv].Calls}; got != want {
					t.Errorf("rank %d send/wait/sendrecv calls %v, want %v", c.Rank(), got, want)
				}
			}))
		})
	}
}

// TestTransportConformanceFloat64OutOfOrder: typed messages that arrive
// before their receive is posted wait in the out-of-order buffer — still
// in their pooled transit or wire form — and match by (src, tag) in send
// order.
func TestTransportConformanceFloat64OutOfOrder(t *testing.T) {
	const n, msgs = 2, 12
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			requireAllOK(t, mw.runSPMD(func(c *mpi.Comm) {
				peer := 1 - c.Rank()
				for i := 0; i < msgs; i++ {
					c.SendrecvFloat64(peer, ramp(64+i, float64(i)), -1, 1, nil)
					c.SendrecvFloat64(peer, ramp(32, float64(100+i)), -1, 2, nil)
				}
				var recv []float64
				for i := 0; i < msgs; i++ { // tag 2 first: every tag-1 message goes through pend
					recv = c.SendrecvFloat64(-1, nil, peer, 2, recv)
					requireRamp(t, "tag 2", recv, 32, float64(100+i))
				}
				for i := 0; i < msgs; i++ {
					recv = c.SendrecvFloat64(-1, nil, peer, 1, recv)
					requireRamp(t, "tag 1", recv, 64+i, float64(i))
				}
			}))
		})
	}
}

// TestTransportConformanceFloat64MixedLanes: every send form matches
// every receive form — a SendrecvFloat64 send arrives whole at Recv, a
// Send lands in a SendrecvFloat64 receive buffer, and an empty vector
// reaches either side as one. What Recv returns is its caller's own
// slice, never pooled memory.
func TestTransportConformanceFloat64MixedLanes(t *testing.T) {
	const n = 2
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			requireAllOK(t, mw.runSPMD(func(c *mpi.Comm) {
				switch c.Rank() {
				case 0:
					c.SendrecvFloat64(1, ramp(200, 1), -1, 1, nil) // SendrecvFloat64 -> Recv
					c.SendrecvFloat64(1, ramp(200, 9), -1, 1, nil)
					c.Send(1, 2, ramp(70, 3), -1) // Send -> SendrecvFloat64
					c.Send(1, 3, nil, 0)          // a nil payload is an empty vector
					c.SendrecvFloat64(1, nil, -1, 4, nil)
				case 1:
					first := c.Recv(0, 1)
					second := c.Recv(0, 1) // would reuse first's pooled buffer, were it pooled
					requireRamp(t, "Recv of a SendrecvFloat64 send", first, 200, 1)
					requireRamp(t, "second Recv", second, 200, 9)
					recv := make([]float64, 0, 128)
					recv = c.SendrecvFloat64(-1, nil, 0, 2, recv)
					requireRamp(t, "SendrecvFloat64 receive of a Send", recv, 70, 3)
					if got := c.SendrecvFloat64(-1, nil, 0, 3, recv); len(got) != 0 {
						t.Errorf("SendrecvFloat64 receive of a nil payload: %v", got)
					}
					if got := c.Recv(0, 4); len(got) != 0 {
						t.Errorf("Recv of an empty SendrecvFloat64 send: %v", got)
					}
				}
			}))
		})
	}
}

// TestTransportConformanceFloat64AbortUnblocks: a rank parked in a typed
// receive unwinds on a world abort exactly like one parked in Recv.
func TestTransportConformanceFloat64AbortUnblocks(t *testing.T) {
	const n = 3
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			errs := mw.runSPMD(func(c *mpi.Comm) {
				if c.Rank() == 0 {
					time.Sleep(50 * time.Millisecond) // let peers park first
					panic("injected failure on rank 0")
				}
				c.SendrecvFloat64(-1, nil, 0, 42, nil) // never satisfied
			})
			for i, err := range errs {
				re, ok := err.(*mpi.RankError)
				if !ok || re.Rank != 0 || !strings.Contains(err.Error(), "injected failure on rank 0") {
					t.Fatalf("world %d: %v, want rank 0's failure", i, err)
				}
			}
		})
	}
}

// holdFirst is a FaultHook that reorders the first message under tag.
type holdFirst struct {
	tag  int
	done atomic.Bool
}

func (h *holdFirst) OnSend(src, dst, tag int) (time.Duration, bool) {
	return 0, src == 0 && tag == h.tag && !h.done.Swap(true)
}

// TestTransportConformanceFloat64ReorderOwnsCopy: a reorder fault defers
// delivery past the sending call's return, and the caller reuses send at
// once — the deferred message must carry the values of the call that
// sent it, not whatever the buffer holds when it is finally released.
func TestTransportConformanceFloat64ReorderOwnsCopy(t *testing.T) {
	const n = 2
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			mw.worlds[0].SetFaultHook(&holdFirst{tag: 1})
			requireAllOK(t, mw.runSPMD(func(c *mpi.Comm) {
				switch c.Rank() {
				case 0:
					send := ramp(500, 1)
					c.SendrecvFloat64(1, send, -1, 1, nil) // held
					copy(send, ramp(500, -7000))
					c.SendrecvFloat64(1, send, -1, 2, nil) // overtakes, then flushes the held one
				case 1:
					var recv []float64
					recv = c.SendrecvFloat64(-1, nil, 0, 1, recv)
					requireRamp(t, "held message", recv, 500, 1)
					recv = c.SendrecvFloat64(-1, nil, 0, 2, recv)
					requireRamp(t, "overtaking message", recv, 500, -7000)
				}
			}))
		})
	}
}

// TestTransportConformanceFloat64Stats: the same traffic sent through
// SendrecvFloat64 and through Send/Recv/Sendrecv produces the same
// profile — calls and bytes per MPI function, on every rank — so
// mpi.msgs_per_step, mpi.bytes_per_step and the perfmodel's MPI
// breakdown do not depend on which form a caller uses.
func TestTransportConformanceFloat64Stats(t *testing.T) {
	const n = 4
	type profile struct{ calls, bytes [mpi.NumFuncs]int64 }
	collect := func(t *testing.T, tc transportCase, typed bool) map[int]profile {
		mw := tc.build(t, n, mpi.WorldOptions{})
		var mu sync.Mutex
		out := map[int]profile{}
		requireAllOK(t, mw.runSPMD(func(c *mpi.Comm) {
			next, prev := (c.Rank()+1)%n, (c.Rank()-1+n)%n
			if c.Rank() == n-1 {
				next = -1 // a non-periodic edge: the three-way switch
			}
			if c.Rank() == 0 {
				prev = -1
			}
			for i, size := range []int{0, 1, 37, 2560} {
				send := ramp(size, float64(i))
				if typed {
					c.SendrecvFloat64(next, send, prev, 10+i, nil)
					c.SendrecvFloat64(c.Rank(), send, c.Rank(), 20+i, nil) // self-exchange: a 1-rank periodic dimension
					continue
				}
				switch {
				case next >= 0 && prev >= 0:
					c.Sendrecv(next, send, -1, prev, 10+i)
				case next >= 0:
					c.Send(next, 10+i, send, -1)
				case prev >= 0:
					c.Recv(prev, 10+i)
				}
				c.Sendrecv(c.Rank(), send, -1, c.Rank(), 20+i)
			}
			var p profile
			for f := mpi.Func(0); f < mpi.NumFuncs; f++ {
				p.calls[f], p.bytes[f] = c.Stats.Funcs[f].Calls, c.Stats.Funcs[f].Bytes
			}
			mu.Lock()
			out[c.Rank()] = p
			mu.Unlock()
		}))
		return out
	}
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			anyLane, typedLane := collect(t, tc, false), collect(t, tc, true)
			for r := 0; r < n; r++ {
				if anyLane[r] != typedLane[r] {
					t.Fatalf("rank %d profile differs between lanes:\n any   %+v\n typed %+v", r, anyLane[r], typedLane[r])
				}
			}
			if anyLane[1].calls[mpi.FuncSendrecv] != 8 || anyLane[0].calls[mpi.FuncSend] != 4 || anyLane[n-1].calls[mpi.FuncWait] != 4 {
				t.Fatalf("the traffic did not exercise all three functions: %+v", anyLane)
			}
		})
	}
}

// TestTransportConformanceAbortAfterTraffic: an abort is one frame
// queued on every link, so it must never be recycled the way single-owner
// data frames are — after heavy pooled traffic on all links, the abort
// still reaches each peer intact and names the rank that failed.
func TestTransportConformanceAbortAfterTraffic(t *testing.T) {
	const n, rounds = 4, 200
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			errs := mw.runSPMD(func(c *mpi.Comm) {
				send := ramp(2560, float64(c.Rank()))
				var recv []float64
				for i := 0; i < rounds; i++ {
					for hop := 1; hop < n; hop++ { // every pair, so every link carries data
						to, from := (c.Rank()+hop)%n, (c.Rank()-hop+n)%n
						recv = c.SendrecvFloat64(to, send, from, hop, recv)
						requireRamp(t, "pre-abort traffic", recv, 2560, float64(from))
					}
				}
				if c.Rank() == 0 {
					panic("injected failure after traffic")
				}
				for { // keep the pools churning while the abort is in flight
					recv = c.SendrecvFloat64((c.Rank()%(n-1))+1, send, ((c.Rank()+n-3)%(n-1))+1, 9, recv)
				}
			})
			for i, err := range errs {
				re, ok := err.(*mpi.RankError)
				if !ok || re.Rank != 0 || !strings.Contains(err.Error(), "injected failure after traffic") {
					t.Fatalf("world %d: %v, want rank 0's failure intact", i, err)
				}
			}
		})
	}
}

// TestTransportConformanceFloat64SteadyStateAllocs pins the point of
// SendrecvFloat64: after warm-up a 2,560-float exchange (the lj_halo_tcp x-face
// message) allocates nothing, on the channel world and on loopback TCP,
// where the count is process-wide — both ranks, which write their own
// frames, and both links' reader goroutines included. A pool that hands
// out &slice, a boxed payload, or a per-frame header buffer each show up
// here as +1.
func TestTransportConformanceFloat64SteadyStateAllocs(t *testing.T) {
	const n, floats, runs = 2, 2560, 200
	limit := map[string]float64{"chan": 0, "tcp": 0}
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			mw := tc.build(t, n, mpi.WorldOptions{})
			var allocs float64
			requireAllOK(t, mw.runSPMD(func(c *mpi.Comm) {
				peer := 1 - c.Rank()
				send, recv := ramp(floats, 0), make([]float64, floats)
				exchange := func() { recv = c.SendrecvFloat64(peer, send, peer, 1, recv) }
				for i := 0; i < 20; i++ {
					exchange()
				}
				if c.Rank() == 0 {
					allocs = testing.AllocsPerRun(runs, exchange)
				} else {
					for i := 0; i < runs+1; i++ { // AllocsPerRun makes one warm-up call
						exchange()
					}
				}
			}))
			t.Logf("%s: %.0f allocations per exchange", tc.name, allocs)
			if allocs > limit[tc.name] {
				t.Fatalf("%s: %.0f allocations per %d-float exchange in steady state, want <= %.0f",
					tc.name, allocs, floats, limit[tc.name])
			}
		})
	}
}
