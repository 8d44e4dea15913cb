package mpi

// Rendezvous failure drills: a peer that dies or wedges mid-handshake
// must surface a typed *RendezvousError naming the broken phase within
// the rendezvous deadline — never a hang, and never an untyped error —
// because supervisors decide "re-run the rendezvous" vs "give up" on
// exactly that type. The misbehaving peers are handcrafted from raw
// frames so each test controls precisely where the handshake breaks.

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"
)

// rendezvousDeadline keeps the failure drills fast: long enough for the
// handshake frames to move on loopback, short enough that a test run
// proves "fails within the deadline" cheaply.
const rendezvousDeadline = 2 * time.Second

// requirePhase asserts err is a *RendezvousError for the given phase.
func requirePhase(t *testing.T, err error, phase string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want a rendezvous %s failure, got nil", phase)
	}
	var re *RendezvousError
	if !errors.As(err, &re) {
		t.Fatalf("want *RendezvousError, got %T: %v", err, err)
	}
	if re.Phase != phase {
		t.Fatalf("rendezvous failed in phase %q, want %q (err: %v)", re.Phase, phase, err)
	}
	if re.Unwrap() == nil {
		t.Errorf("RendezvousError carries no underlying cause: %v", err)
	}
}

// requireWithin fails if fn took longer than the rendezvous deadline
// plus slack — the whole point of the deadline is that a dead peer
// cannot hang the launch.
func requireWithin(t *testing.T, bound time.Duration, fn func() error) error {
	t.Helper()
	start := time.Now()
	err := fn()
	if took := time.Since(start); took > bound {
		t.Errorf("rendezvous took %v, bound was %v", took, bound)
	}
	return err
}

// TestTCPRendezvousJoinerDiesBeforeReady: a joiner says hello, receives
// the peer table, and dies before confirming its mesh — the classic
// mid-handshake crash. The coordinator must fail the launch with a
// typed "ready"-phase error inside the deadline, not block forever
// holding the world hostage.
func TestTCPRendezvousJoinerDiesBeforeReady(t *testing.T) {
	co, err := ListenTCP("127.0.0.1:0", 4)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	hostErr := make(chan error, 1)
	go func() {
		w, err := co.Host([]int{0, 1}, WorldOptions{Rendezvous: rendezvousDeadline})
		if w != nil {
			w.Close()
		}
		hostErr <- err
	}()

	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatalf("dial coordinator: %v", err)
	}
	hello := encodeFrame(frameHeader{kind: frameHello},
		encodeHelloPayload([]int{2, 3}, "127.0.0.1:1"))
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	// Receive the peer table like a live joiner would, then die.
	if _, _, err := readFrame(bufio.NewReader(conn), 0); err != nil {
		t.Fatalf("reading peer table: %v", err)
	}
	conn.Close()

	err = requireWithin(t, rendezvousDeadline+time.Second, func() error { return <-hostErr })
	requirePhase(t, err, "ready")
}

// TestTCPRendezvousCoordinatorDiesBeforePeers: the coordinator accepts
// a joiner's hello and dies before broadcasting the peer table. The
// joiner must fail with a typed "peers"-phase error inside the
// deadline.
func TestTCPRendezvousCoordinatorDiesBeforePeers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Consume the hello so the joiner's write succeeds, then die
		// without ever sending the peer table.
		readFrame(bufio.NewReader(conn), 0)
		conn.Close()
	}()

	err = requireWithin(t, rendezvousDeadline+time.Second, func() error {
		w, err := JoinTCP(ln.Addr().String(), []int{2, 3},
			WorldOptions{Rendezvous: rendezvousDeadline})
		if w != nil {
			w.Close()
		}
		return err
	})
	requirePhase(t, err, "peers")
}

// TestTCPRendezvousDialDeadline: a joiner pointed at an address nobody
// listens on must exhaust its (jittered, backed-off) dial retries and
// return a typed "dial"-phase error once the budget lapses.
func TestTCPRendezvousDialDeadline(t *testing.T) {
	// Grab a loopback port that is certainly not listening: bind, note
	// the address, release.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const budget = 500 * time.Millisecond
	err = requireWithin(t, budget+time.Second, func() error {
		w, err := JoinTCP(addr, []int{1}, WorldOptions{Rendezvous: budget})
		if w != nil {
			w.Close()
		}
		return err
	})
	requirePhase(t, err, "dial")
}

// TestTCPRendezvousAcceptDeadline: a coordinator whose remaining ranks
// never join must fail with a typed "accept"-phase error when the
// deadline lapses, reporting how many ranks were still missing.
func TestTCPRendezvousAcceptDeadline(t *testing.T) {
	co, err := ListenTCP("127.0.0.1:0", 4)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	const budget = 500 * time.Millisecond
	err = requireWithin(t, budget+time.Second, func() error {
		w, err := co.Host([]int{0, 1}, WorldOptions{Rendezvous: budget})
		if w != nil {
			w.Close()
		}
		return err
	})
	requirePhase(t, err, "accept")
}

// TestTCPRendezvousSurvivesStrayDialer: a connection that speaks
// garbage (a port scanner, a confused client) must not poison the
// rendezvous — the coordinator drops it and keeps waiting for real
// joiners, and the world still forms.
func TestTCPRendezvousSurvivesStrayDialer(t *testing.T) {
	co, err := ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	hostRes := make(chan error, 1)
	var hostWorld *World
	go func() {
		w, err := co.Host([]int{0}, WorldOptions{Rendezvous: rendezvousDeadline})
		hostWorld = w
		hostRes <- err
	}()

	stray, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatalf("stray dial: %v", err)
	}
	if _, err := stray.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatalf("stray write: %v", err)
	}
	stray.Close()

	w, err := JoinTCP(co.Addr(), []int{1}, WorldOptions{Rendezvous: rendezvousDeadline})
	if err != nil {
		t.Fatalf("JoinTCP after stray dialer: %v", err)
	}
	defer w.Close()
	if err := <-hostRes; err != nil {
		t.Fatalf("Host after stray dialer: %v", err)
	}
	defer hostWorld.Close()
	if w.Size != 2 || hostWorld.Size != 2 {
		t.Fatalf("world sizes %d/%d, want 2/2", w.Size, hostWorld.Size)
	}
}

// TestTCPRendezvousRejectsBadPeerTable: a joiner checks the peer table
// its coordinator sends before it allocates anything from it, so a
// stray or buggy listener at -join's address gets a typed "peers"-phase
// error, never a panic or a world sized by the table. The joiner hosts
// rank 1 in every case.
func TestTCPRendezvousRejectsBadPeerTable(t *testing.T) {
	p := func(proc int, ranks ...int) procInfo {
		return procInfo{proc: proc, addr: "127.0.0.1:1", ranks: ranks}
	}
	cases := []struct {
		name     string
		size     int
		selfProc int
		table    []procInfo
	}{
		{"self beyond the table", 2, 5, []procInfo{p(0, 0), p(1, 1)}},
		{"self is the coordinator", 2, 0, []procInfo{p(0, 0), p(1, 1)}},
		{"rank beyond the size", 2, 1, []procInfo{p(0, 0, 2), p(1, 1)}},
		{"size below the joiner's rank", 1, 1, []procInfo{p(0, 0), p(1, 1)}},
		{"size of 2^31", 1 << 31, 1, []procInfo{p(0, 0), p(1, 1)}},
		{"size past the rank bound", maxRanks + 1, 1, []procInfo{p(0, 0), p(1, 1)}},
		{"rank hosted twice", 2, 1, []procInfo{p(0, 0, 1), p(1, 1)}},
		{"rank hosted nowhere", 3, 1, []procInfo{p(0, 0), p(1, 1)}},
		{"entry names another process", 2, 1, []procInfo{p(0, 0), p(2, 1)}},
		{"joiner's ranks differ", 2, 1, []procInfo{p(0, 1), p(1, 0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer ln.Close()
			served := make(chan net.Conn, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					served <- nil
					return
				}
				// Answer the hello with the table and hold the connection
				// open, so the joiner fails on the table and not on an EOF.
				readFrame(bufio.NewReader(conn), 0)
				conn.Write(encodeFrame(frameHeader{kind: framePeers, world: 42},
					encodePeersPayload(tc.size, tc.selfProc, tc.table)))
				served <- conn
			}()
			err = requireWithin(t, rendezvousDeadline, func() error {
				w, err := JoinTCP(ln.Addr().String(), []int{1}, WorldOptions{Rendezvous: rendezvousDeadline})
				if w != nil {
					w.Close()
				}
				return err
			})
			if conn := <-served; conn != nil {
				conn.Close()
			}
			requirePhase(t, err, "peers")
		})
	}
}
