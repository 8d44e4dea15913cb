// Transport extraction: the World's message-moving layer is an
// interface so a communicator universe can span OS processes. The
// reference implementation is the in-process channel transport every
// existing caller gets from NewWorld; tcp.go implements the same
// contract over length-prefixed TCP frames. Matching (the per-rank
// out-of-order buffer), park-state bookkeeping, statistics, and the
// abort channel stay in World/Comm — a Transport only moves framed
// messages between ranks and carries the control plane (abort
// propagation, remote comm-state snapshots) across process boundaries.
package mpi

import (
	"errors"
	"fmt"
	"time"
)

// Transport moves messages between the ranks of a World. Implementations
// live in this package (the message type is deliberately unexported:
// the conformance suite in conformance_test.go is the contract any new
// transport must pass, and it exercises transports only through the
// World API).
type Transport interface {
	// Name identifies the transport kind ("chan", "tcp") in diagnostics.
	Name() string

	// Deliver blocks until m is accepted into rank dst's mailbox path:
	// the local inbox channel, or a framed write toward the process
	// hosting dst. It returns the wire bytes charged for the transfer —
	// the logical payload size for in-process delivery, the framed size
	// (header + encoded payload) for remote delivery — so mpi.Stats
	// reports what actually crossed the wire. It returns errAborted when
	// the world aborts mid-delivery, a *stallError past the world's
	// MailboxStall bound, and transport-specific errors (codec, socket)
	// otherwise; the Comm layer converts these to the abort sentinel and
	// rank-failure panics.
	Deliver(dst int, m message) (wire int, err error)

	// PropagateAbort announces a locally recorded world failure to every
	// remote process (no-op for the in-process transport). Remote worlds
	// record the failure without re-broadcasting, so propagation
	// terminates.
	PropagateAbort(e *RankError)

	// FillRemote merges the comm states of remote ranks into out
	// (indexed by rank, len == world size). Local ranks are already
	// filled by SnapshotComm; the in-process transport has no remote
	// ranks and does nothing. Best-effort: an unreachable peer leaves
	// its ranks' entries zero-valued rather than blocking the watchdog.
	FillRemote(out []CommState)

	// Close releases transport resources (sockets, pump goroutines).
	// Idempotent via World.Close.
	Close() error
}

// errAborted is the sentinel a Transport returns when the world aborts
// while a delivery is blocked; the Comm layer converts it to the
// abortPanic unwind.
var errAborted = errors.New("mpi: world aborted")

// WireFaultHook intercepts encoded wire frames on the TCP transport's
// send side for deterministic fault injection (internal/fault's
// corrupt-wire action). OnFrame may mutate frame in place; the CRC has
// already been computed, so a payload flip surfaces on the receiver as
// a typed crc-mismatch *FrameError and exercises the whole
// wire-corruption recovery path. frame is a pooled buffer the sending
// rank recycles once it is on the socket: OnFrame must not retain it.
type WireFaultHook interface {
	OnFrame(src, dst, tag int, frame []byte)
}

// stallError carries the mailbox-stall diagnosis; the Comm layer panics
// with its text verbatim (the historical panic shape supervisors and
// tests pattern-match).
type stallError struct{ msg string }

func (e *stallError) Error() string { return e.msg }

// chanTransport is the reference transport: every rank is a goroutine
// in this process and delivery is a buffered-channel enqueue. It is the
// implementation all pre-transport revisions of this package hard-wired.
type chanTransport struct {
	w *World
}

// Name implements Transport.
func (tr *chanTransport) Name() string { return "chan" }

// Deliver implements Transport via the shared local-mailbox path.
func (tr *chanTransport) Deliver(dst int, m message) (int, error) {
	return tr.w.deliverLocal(dst, m)
}

// PropagateAbort implements Transport: every rank shares the in-process
// abort channel, so there is nobody remote to tell.
func (tr *chanTransport) PropagateAbort(e *RankError) {}

// FillRemote implements Transport: all ranks are local.
func (tr *chanTransport) FillRemote(out []CommState) {}

// Close implements Transport.
func (tr *chanTransport) Close() error { return nil }

// deliverLocal enqueues m into local rank dst's mailbox, blocking with
// the world's MailboxStall bound. Shared by the channel transport (all
// deliveries) and the TCP transport (same-process destinations and the
// inbound side of its per-peer readers). The message outlives the
// sending call from here on, so a borrowed float64 payload is swapped for
// a pooled transit copy first; the receiving rank returns it.
func (w *World) deliverLocal(dst int, m message) (int, error) {
	m = m.owned()
	select {
	case w.inbox[dst] <- m:
		return m.bytes, nil
	default:
	}
	stall := w.opts.MailboxStall
	timer := time.NewTimer(stall)
	defer timer.Stop()
	select {
	case w.inbox[dst] <- m:
		return m.bytes, nil
	case <-w.abort:
		return 0, errAborted
	case <-timer.C:
		return 0, &stallError{fmt.Sprintf(
			"mpi: rank %d -> rank %d (tag %d, %d bytes) stalled %v on a full mailbox: dst inbox %d/%d queued, %d unmatched messages pending on rank %d — likely a collective ordering or tag-matching deadlock",
			m.src, dst, m.tag, m.bytes, stall,
			len(w.inbox[dst]), cap(w.inbox[dst]), len(w.pend[m.src]), m.src)}
	}
}
