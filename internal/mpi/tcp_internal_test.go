// The TCP write path at its edges: a peer that never reads, an abort
// while a rank is blocked sending to it, and a sender that closes right
// after its last frame.
package mpi

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipeWorld launches rank 0's world of two over a net.Pipe link to
// rank 1's process, whose end of the pipe is never read: every remote
// write blocks until its deadline, an abort, or the link closing.
func pipeWorld(t *testing.T, opts WorldOptions) *World {
	t.Helper()
	near, far := net.Pipe()
	table := []procInfo{{proc: 0, ranks: []int{0}}, {proc: 1, ranks: []int{1}}}
	links := []*peerLink{nil, newPeerLink(1, []int{1}, near, newLinkReader(near))}
	w := launchWorld(2, []int{0}, opts, 42, 0, table, links)
	t.Cleanup(func() {
		w.Close()
		far.Close()
	})
	return w
}

// TestTCPWriteStallFailsTyped: a send to a peer that stopped reading
// fails within the world's MailboxStall with a RankError that says it
// stalled and names the peer process.
func TestTCPWriteStallFailsTyped(t *testing.T) {
	w := pipeWorld(t, WorldOptions{MailboxStall: 50 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		done <- w.Parallel(func(c *Comm) {
			for i := 0; i < 2000; i++ {
				c.Send(1, 1, []float64{float64(i)}, -1)
			}
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a send to a peer that never reads did not fail within 2s")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("Parallel returned %v, want a *RankError", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "stalled") || !strings.Contains(msg, "proc 1") {
		t.Fatalf("stall diagnosis lacks \"stalled\" or the proc: %v", err)
	}
}

// TestTCPAbortUnblocksWriter: a rank blocked sending to a peer that
// never reads unwinds with the abort's cause once the world aborts,
// well before the default 30s stall bound.
func TestTCPAbortUnblocksWriter(t *testing.T) {
	w := pipeWorld(t, WorldOptions{})
	done := make(chan error, 1)
	go func() {
		done <- w.Parallel(func(c *Comm) {
			for i := 0; i < 1<<20; i++ {
				c.Send(1, 1, []float64{float64(i)}, -1)
			}
		})
	}()
	time.Sleep(100 * time.Millisecond)
	cause := &RankError{Rank: 1, Cause: "test abort"}
	aborted := time.Now()
	w.Abort(cause)
	select {
	case err := <-done:
		if re, ok := err.(*RankError); !ok || re != cause {
			t.Fatalf("Parallel returned %v, want the abort's cause", err)
		}
		if d := time.Since(aborted); d >= time.Second {
			t.Fatalf("blocked sender unwound %v after the abort, want < 1s", d)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked sender did not unwind within 1s of the abort")
	}
}

// TestTCPCloseAfterSendsDeliversAll: a world that sends K frames and
// closes at once loses none of them, and its peer sees a clean bye
// departure, not an abort.
func TestTCPCloseAfterSendsDeliversAll(t *testing.T) {
	const k = 2000
	co, err := ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	var sender *World
	var joinErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sender, joinErr = JoinTCP(co.Addr(), []int{1}, WorldOptions{})
	}()
	recv, hostErr := co.Host([]int{0}, WorldOptions{})
	wg.Wait()
	if hostErr != nil || joinErr != nil {
		t.Fatalf("rendezvous: host=%v join=%v", hostErr, joinErr)
	}
	defer recv.Close()

	sent := make(chan error, 1)
	go func() {
		err := sender.Parallel(func(c *Comm) {
			for i := 0; i < k; i++ {
				c.Send(0, 1, []float64{float64(i)}, -1)
			}
		})
		sender.Close()
		sent <- err
	}()
	err = recv.Parallel(func(c *Comm) {
		for i := 0; i < k; i++ {
			if got := c.Recv(1, 1).([]float64); got[0] != float64(i) {
				panic(fmt.Sprintf("frame %d carried %v", i, got[0]))
			}
		}
	})
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("sender: %v", err)
	}
	link := recv.tr.(*tcpTransport).links[1]
	for deadline := time.Now().Add(2 * time.Second); !link.peerBye.Load(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("receiver never saw the sender's bye")
		}
	}
	time.Sleep(100 * time.Millisecond) // the EOF after the bye lands
	if err := recv.Aborted(); err != nil {
		t.Fatalf("a clean departure aborted the receiver: %v", err)
	}
}
