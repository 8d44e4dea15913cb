// The two halves of a World's delivery path. A rank in this process is
// reached through its mailbox (deliverLocal, below); a rank in another
// process through the link to that process (tcp.go). There is no
// transport interface: a World built by NewWorld has no links, a World
// built by the TCP rendezvous holds them in World.net, and Comm.deliver
// picks the half by the destination. Matching (the per-rank out-of-order
// buffer), park-state bookkeeping, statistics and the abort channel are
// the same for both.
package mpi

import (
	"errors"
	"fmt"
	"time"
)

// errAborted is the sentinel a delivery returns when the world aborts
// while it is blocked; the Comm layer converts it to the abortPanic
// unwind.
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

// deliverLocal enqueues m into local rank dst's mailbox, blocking with
// the world's MailboxStall bound. It takes every delivery to a rank in
// this process, from a sending rank or from a link's reader. The message
// outlives the sending call from here on, so a borrowed float64 payload
// is swapped for a pooled transit copy first; the receiving rank returns
// it. It returns the logical payload size, the bytes charged for an
// in-process transfer.
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
