// TCP-transport specifics beyond the conformance matrix: the framing
// byte-accounting contract (mpi.Stats must report wire bytes, so the
// perfmodel's comm pricing can be validated against measured traffic),
// multi-rank-per-process worlds, wire corruption surfacing as typed
// CRC failures on the RankError path, and rendezvous error handling.
package mpi_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gomd/internal/mpi"
)

// wireFrameOverhead mirrors the transport's fixed frame header size.
// Pinned here as a literal: if the header layout changes, this test
// must be revisited together with the perfmodel's comm pricing.
const wireFrameOverhead = 36

// TestWireByteAccountingOverhead: on pure []float64 traffic (encoded
// size == logical size), channel and TCP byte accounting must diverge
// by exactly the framing overhead — one header per point-to-point
// message, on both the send and the receive side.
func TestWireByteAccountingOverhead(t *testing.T) {
	const n = 2
	lengths := []int{0, 1, 3, 64, 1000} // 0 = nil-codec frame: pure header
	type profile struct {
		send0, wait1, sendrecv0 int64
	}
	collect := func(t *testing.T, tc transportCase) profile {
		mw := tc.build(t, n, mpi.WorldOptions{})
		var mu sync.Mutex
		var p profile
		errs := mw.runSPMD(func(c *mpi.Comm) {
			switch c.Rank() {
			case 0:
				for _, l := range lengths {
					var payload []float64
					if l > 0 {
						payload = make([]float64, l)
					}
					c.Send(1, 1, payload, -1)
				}
				c.Sendrecv(1, []float64{1, 2}, -1, 1, 2)
				mu.Lock()
				p.send0 = c.Stats.Funcs[mpi.FuncSend].Bytes
				p.sendrecv0 = c.Stats.Funcs[mpi.FuncSendrecv].Bytes
				mu.Unlock()
			case 1:
				for range lengths {
					c.Recv(0, 1)
				}
				c.Sendrecv(0, []float64{3, 4, 5}, -1, 0, 2)
				mu.Lock()
				p.wait1 = c.Stats.Funcs[mpi.FuncWait].Bytes
				mu.Unlock()
			}
		})
		requireAllOK(t, errs)
		return p
	}
	cases := transportCases()
	ref := collect(t, cases[0]) // chan: logical payload bytes
	var logical int64
	for _, l := range lengths {
		logical += int64(8 * l)
	}
	if ref.send0 != logical {
		t.Fatalf("chan send bytes %d, want logical %d", ref.send0, logical)
	}
	frames := int64(len(lengths))
	for _, tc := range cases[1:] {
		t.Run(tc.name, func(t *testing.T) {
			got := collect(t, tc)
			if d := got.send0 - ref.send0; d != frames*wireFrameOverhead {
				t.Fatalf("send-side divergence %d bytes over %d frames, want exactly %d",
					d, frames, frames*wireFrameOverhead)
			}
			if d := got.wait1 - ref.wait1; d != frames*wireFrameOverhead {
				t.Fatalf("recv-side divergence %d bytes, want exactly %d",
					d, frames*wireFrameOverhead)
			}
			// Sendrecv moves one frame out and one frame in per call.
			if d := got.sendrecv0 - ref.sendrecv0; d != 2*wireFrameOverhead {
				t.Fatalf("sendrecv divergence %d bytes, want exactly %d",
					d, 2*wireFrameOverhead)
			}
		})
	}
}

// TestTCPMultiRankProcesses: a world whose processes host several ranks
// each must route co-resident traffic through the in-process mailbox
// path and remote traffic over the wire, with both collectives and the
// ring exchange agreeing with the flat reference.
func TestTCPMultiRankProcesses(t *testing.T) {
	const n = 4
	co, err := mpi.ListenTCP("127.0.0.1:0", n)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	var wj *mpi.World
	var joinErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wj, joinErr = mpi.JoinTCP(co.Addr(), []int{2, 3}, mpi.WorldOptions{})
	}()
	wc, hostErr := co.Host([]int{0, 1}, mpi.WorldOptions{})
	wg.Wait()
	if hostErr != nil || joinErr != nil {
		t.Fatalf("rendezvous: host=%v join=%v", hostErr, joinErr)
	}
	defer wc.Close()
	defer wj.Close()

	if got := wc.LocalRanks(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("coordinator LocalRanks = %v", got)
	}
	if wc.Comm(2) != nil || wj.Comm(0) != nil {
		t.Fatal("remote ranks must have nil Comm")
	}

	var mu sync.Mutex
	sums := map[int]float64{}
	ring := map[int]float64{}
	body := func(c *mpi.Comm) {
		s := c.AllreduceScalar(float64(c.Rank() + 1))
		next, prev := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		got := c.Sendrecv(next, []float64{float64(c.Rank())}, -1, prev, 3)
		mu.Lock()
		sums[c.Rank()] = s
		ring[c.Rank()] = got[0]
		mu.Unlock()
	}
	errc := make(chan error, 2)
	go func() { errc <- wc.Parallel(body) }()
	go func() { errc <- wj.Parallel(body) }()
	if err := <-errc; err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	for r := 0; r < n; r++ {
		if sums[r] != 10 { // 1+2+3+4
			t.Fatalf("rank %d allreduce = %v, want 10", r, sums[r])
		}
		if ring[r] != float64((r-1+n)%n) {
			t.Fatalf("rank %d ring recv = %v, want %d", r, ring[r], (r-1+n)%n)
		}
	}
}

// wireFlip corrupts the first frame it sees under the given tag —
// after the CRC is computed, so the receiver must diagnose it.
type wireFlip struct {
	tag  int
	done atomic.Bool
}

func (h *wireFlip) OnFrame(src, dst, tag int, frame []byte) {
	if tag == h.tag && len(frame) > wireFrameOverhead && !h.done.Swap(true) {
		frame[wireFrameOverhead] ^= 0x01
	}
}

// TestTCPWireCorruptionTypedRecovery: a corrupted frame must fail the
// receiving world with a typed crc-mismatch *FrameError through the
// standard RankError path, and the abort must propagate back so every
// process' Parallel returns — never a hang.
func TestTCPWireCorruptionTypedRecovery(t *testing.T) {
	mw := buildTCPWorlds(t, 2, mpi.WorldOptions{})
	mw.worlds[0].SetWireFaultHook(&wireFlip{tag: 13})
	errs := mw.runSPMD(func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 13, []float64{1, 2, 3}, -1)
			c.Recv(1, 99) // park until the abort unwinds us
		} else {
			c.Recv(0, 13)
		}
	})
	for i, err := range errs {
		if err == nil {
			t.Fatalf("world %d survived wire corruption", i)
		}
		if !strings.Contains(err.Error(), "crc-mismatch") {
			t.Fatalf("world %d error lacks crc diagnosis: %v", i, err)
		}
	}
	// The receiving world carries the typed error in its chain.
	var fe *mpi.FrameError
	if !errors.As(errs[1], &fe) || fe.Reason != "crc-mismatch" {
		t.Fatalf("world 1 error chain lacks *FrameError(crc-mismatch): %v", errs[1])
	}
}

// TestTCPRendezvousRejectsRankOverlap: two processes claiming the same
// rank must fail the launch with a diagnosis, not assemble a broken
// world.
func TestTCPRendezvousRejectsRankOverlap(t *testing.T) {
	co, err := mpi.ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		w, err := mpi.JoinTCP(co.Addr(), []int{0}, mpi.WorldOptions{}) // overlaps coordinator's rank 0
		if w != nil {
			w.Close()
		}
		done <- err
	}()
	w, err := co.Host([]int{0}, mpi.WorldOptions{})
	if err == nil {
		w.Close()
		t.Fatal("Host accepted an overlapping rank claim")
	}
	if !strings.Contains(err.Error(), "claimed twice") {
		t.Fatalf("overlap diagnosis: %v", err)
	}
	if jerr := <-done; jerr == nil {
		t.Fatal("joiner succeeded against a failed rendezvous")
	}
}

// TestTCPRendezvousSizeValidation: trivially invalid worlds are
// rejected before any socket work.
func TestTCPRendezvousSizeValidation(t *testing.T) {
	if _, err := mpi.ListenTCP("127.0.0.1:0", 1); err == nil {
		t.Fatal("ListenTCP accepted a 1-rank world")
	}
	co, err := mpi.ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer co.Close()
	if _, err := co.Host(nil, mpi.WorldOptions{}); err == nil {
		t.Fatal("Host accepted an empty local rank set")
	}
}

// TestTCPWorldSurvivesMultipleParallelSections: like the channel
// transport, a TCP world is a persistent job — mailboxes and stats
// survive across SPMD sections.
func TestTCPWorldSurvivesMultipleParallelSections(t *testing.T) {
	mw := buildTCPWorlds(t, 2, mpi.WorldOptions{})
	for section := 0; section < 3; section++ {
		errs := mw.runSPMD(func(c *mpi.Comm) {
			if got := c.AllreduceScalar(1); got != 2 {
				t.Errorf("section %d: allreduce = %v", section, got)
			}
		})
		requireAllOK(t, errs)
	}
}

// TestTCPProcessDeathAbortsWorld: a peer process dying without an
// abort frame (socket torn down — the kill -9 analogue) must abort the
// surviving worlds with a link-loss diagnosis instead of hanging them.
func TestTCPProcessDeathAbortsWorld(t *testing.T) {
	mw := buildTCPWorlds(t, 2, mpi.WorldOptions{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		mw.worlds[1].Close() // rank 1's "process" dies mid-section
	}()
	err := mw.worlds[0].Parallel(func(c *mpi.Comm) {
		c.Recv(1, 5) // never satisfied
	})
	if err == nil {
		t.Fatal("survivor never noticed the dead peer")
	}
	if !strings.Contains(err.Error(), "lost") {
		t.Fatalf("link-loss diagnosis missing: %v", err)
	}
}

// TestTCPPeerFinishedBeforeParkAborts: a peer that finalizes cleanly
// (bye, then EOF) before any local rank parks on it is remembered, so a
// rank that parks on it later — a process whose build failed after the
// rendezvous leaves its peers in their first collective — gets a typed
// RankError within the bye grace, not a wait until a hang timeout.
func TestTCPPeerFinishedBeforeParkAborts(t *testing.T) {
	mw := buildTCPWorlds(t, 2, mpi.WorldOptions{})
	mw.worlds[1].Close() // the joiner finalizes right after the rendezvous
	time.Sleep(200 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		done <- mw.worlds[0].Parallel(func(c *mpi.Comm) {
			c.AllreduceScalar(1) // parks on the finished peer
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("rank parked on a finished peer was not aborted within 2s")
	}
	var re *mpi.RankError
	if !errors.As(err, &re) {
		t.Fatalf("Parallel returned %v, want a *mpi.RankError", err)
	}
	if !strings.Contains(err.Error(), "peer finalized while rank 0 was parked") {
		t.Fatalf("finished-peer diagnosis missing: %v", err)
	}
}
