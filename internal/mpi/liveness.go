// Liveness support for the runtime: per-world stall bounds, park-state
// tracking on every blocking primitive, and comm-state snapshots. The
// health watchdog (internal/health) reads SnapshotComm when a rank stops
// making progress, so a hang diagnosis can say exactly which primitive
// each rank is parked in — the information a stuck MPI job's operator
// normally digs out of stack dumps by hand.
package mpi

import (
	"fmt"
	"time"
)

// WorldOptions tunes a world's liveness bounds. The zero value keeps the
// historical defaults.
type WorldOptions struct {
	// MailboxStall bounds how long a send may block on a full destination
	// mailbox before panicking with diagnostics. 0 selects the 30s
	// default.
	MailboxStall time.Duration
	// RecvStall, when > 0, bounds how long a blocking receive may wait
	// for a matching message before panicking with park diagnostics
	// (peer dead or desynchronized). The default 0 leaves receives
	// unbounded: supervised runs detect receive-side hangs through the
	// health watchdog instead, which can diagnose the whole world.
	RecvStall time.Duration
	// StragglerGrace bounds how long an aborted Parallel section waits
	// for the surviving ranks to unwind before returning the failure
	// anyway. Every runtime primitive is abort-aware, so ranks normally
	// unwind at their next communication; a rank hung in pure compute
	// never will, and without the bound the whole supervisor would hang
	// with it (its goroutine is leaked instead — the world is already
	// permanently dead). 0 selects the 2s default; negative waits
	// forever (the historical behavior).
	StragglerGrace time.Duration
	// Rendezvous bounds every blocking step of the TCP rendezvous
	// handshake (coordinator accepts, joiner dial retries, peer-table and
	// ready/go exchanges, mesh wiring). 0 selects the 30s default. Only
	// TCP worlds consult it; the channel transport has no rendezvous.
	Rendezvous time.Duration
}

// defaultStragglerGrace bounds Parallel's post-abort wait for ranks that
// never reach another abort-aware primitive.
const defaultStragglerGrace = 2 * time.Second

// withDefaults resolves zero options against the package defaults.
func (o WorldOptions) withDefaults() WorldOptions {
	if o.MailboxStall == 0 {
		o.MailboxStall = defaultMailboxStall
	}
	if o.StragglerGrace == 0 {
		o.StragglerGrace = defaultStragglerGrace
	}
	return o
}

// parkOp encodes which kind of blocking section a rank is inside.
type parkOp int32

const (
	parkNone parkOp = iota
	parkSend        // blocked delivering into a full mailbox
	parkRecv        // blocked waiting for a matching message
	parkHang        // parked by an injected hang fault
)

// parkEnter publishes that this rank is entering a blocking section.
// The op is stored last so a concurrent snapshot that observes it also
// observes the peer/tag/since it belongs to.
func (c *Comm) parkEnter(op parkOp, peer, tag int) {
	c.parkSince.Store(time.Now().UnixNano())
	c.parkPeer.Store(int32(peer))
	c.parkTag.Store(int64(tag))
	c.parkOp.Store(int32(op))
}

// parkExit clears the park state after the blocking section completes.
// Panic unwinds skip it deliberately: the goroutine is dead and leaving
// the last park visible makes post-mortem snapshots more informative.
func (c *Comm) parkExit() { c.parkOp.Store(int32(parkNone)) }

// Park describes the blocking primitive a rank is currently inside.
type Park struct {
	// Op is the primitive name: "MPI_Send", "MPI_Wait", "MPI_Allreduce",
	// "MPI_Barrier", or "injected-hang".
	Op string
	// Peer is the blocking peer rank (-1 when not applicable).
	Peer int
	// Tag is the message tag being sent or awaited.
	Tag int
	// Since is when the rank entered the blocking section.
	Since time.Time
}

// CommState is one rank's communication posture in a World.SnapshotComm.
type CommState struct {
	Rank int
	// Parked is nil while the rank is not blocked inside a primitive.
	Parked *Park
	// Inbox/InboxCap are the rank's mailbox depth and capacity.
	Inbox, InboxCap int
	// Unmatched counts out-of-order messages buffered on this rank
	// awaiting a matching receive (nonzero values point at tag or
	// ordering mismatches).
	Unmatched int
}

// SnapshotComm captures every rank's communication posture without
// stopping the world: local park states are read from per-rank atomics,
// so the snapshot is safe to take from a watchdog goroutine while ranks
// run; remote ranks (TCP worlds) are filled by a best-effort snapshot
// exchange with their hosting processes, so a hang diagnosis can name
// the parked primitive on every rank of a process-spanning world.
func (w *World) SnapshotComm() []CommState {
	out := make([]CommState, w.Size)
	for r := range out {
		out[r] = CommState{Rank: r}
	}
	for _, r := range w.local {
		out[r] = w.localCommState(r)
	}
	w.tr.FillRemote(out)
	return out
}

// localCommState snapshots one local rank's posture from its atomics.
func (w *World) localCommState(r int) CommState {
	c := w.comms[r]
	cs := CommState{
		Rank:      r,
		Inbox:     len(w.inbox[r]),
		InboxCap:  cap(w.inbox[r]),
		Unmatched: int(c.unmatched.Load()),
	}
	if op := parkOp(c.parkOp.Load()); op != parkNone {
		tag := int(c.parkTag.Load())
		cs.Parked = &Park{
			Op:    parkOpName(op, tag),
			Peer:  int(c.parkPeer.Load()),
			Tag:   tag,
			Since: time.Unix(0, c.parkSince.Load()),
		}
	}
	return cs
}

// parkOpName renders the primitive a park belongs to. Collective hops
// are classified by their reserved tag ranges so a rank parked inside an
// allreduce round reads "MPI_Allreduce", not a bare send/recv.
func parkOpName(op parkOp, tag int) string {
	switch op {
	case parkHang:
		return "injected-hang"
	case parkSend:
		if name, ok := collectiveForTag(tag); ok {
			return name
		}
		return "MPI_Send"
	default:
		if name, ok := collectiveForTag(tag); ok {
			return name
		}
		return "MPI_Wait"
	}
}

// WaitCommitEvent parks the calling rank until done closes — the
// local-durability wait of the distributed checkpoint commit
// (internal/ckpt's sharded writer: every rank of a process blocks here
// until the last local rank has fsynced the shard). The park is
// abort-aware, so a sibling rank dying mid-checkpoint unwinds this rank
// along the standard secondary path instead of leaking it, and the park
// state reads "ckpt-commit" in SnapshotComm/hang diagnoses (the tag
// falls in the reserved commit band).
func (c *Comm) WaitCommitEvent(done <-chan struct{}) {
	select {
	case <-done:
		return
	default:
	}
	c.parkEnter(parkRecv, -1, TagCkptVote)
	select {
	case <-done:
		c.parkExit()
	case <-c.world.abort:
		panic(abortPanic{c.world.abortErr})
	}
}

// ParkInjectedHang parks the calling rank forever — the fault injector's
// hang action. The park is abort-aware: when the health watchdog (or any
// rank failure) aborts the world, the rank unwinds along the standard
// secondary path instead of leaking. The park state reads
// "injected-hang" in SnapshotComm, which is how hang diagnoses tell the
// culprit from the ranks it wedged.
func (c *Comm) ParkInjectedHang() {
	c.parkEnter(parkHang, -1, 0)
	<-c.world.abort
	panic(abortPanic{c.world.abortErr})
}

// recvStallPanic builds the diagnosis for a receive that exceeded the
// world's RecvStall bound (same shape as the mailbox-stall text).
func (c *Comm) recvStallPanic(src, tag int, d time.Duration) string {
	w := c.world
	return fmt.Sprintf(
		"mpi: rank %d stalled %v in a blocking receive (src %d, tag %d): inbox %d/%d queued, %d unmatched messages pending — peer dead or desynchronized",
		c.rank, d, src, tag,
		len(w.inbox[c.rank]), cap(w.inbox[c.rank]), len(w.pend[c.rank]))
}
