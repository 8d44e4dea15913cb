// Package mpi implements the message-passing runtime the decomposed
// engine runs on: a fixed set of ranks (goroutines) exchanging float64
// vectors through per-rank mailboxes, with the narrow primitive set
// LAMMPS actually uses — Send, Recv (Wait), Sendrecv, Allreduce, plus
// Init — instrumented per function exactly like the paper's Figure 5
// breakdown (time, call count, and payload bytes per MPI function).
// As in LAMMPS, where every exchange is an MPI_DOUBLE buffer, a vector
// is the only payload: callers with struct state (ghosts, migrating
// atoms, checkpoint votes) pack it, integers stored as their bits.
// Every send follows MPI's buffer contract — the caller's slice is its
// own again when the call returns — and the runtime moves pooled copies
// in between (pool.go). SendrecvFloat64 adds a caller-owned receive
// buffer, so the per-step halo allocates nothing in steady state.
//
// The runtime executes real message passing (correctness: a decomposed
// run reproduces the serial trajectory); the wall-clock of a 64-rank run
// on this machine is NOT the figure-generation time source — the
// performance model (internal/perfmodel) converts the runtime's measured
// message/byte/wait counters into platform time for the paper's plots.
package mpi

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gomd/internal/obs"
	"gomd/internal/par"
)

// Func enumerates the instrumented MPI functions, following the paper's
// Figure 5/12 legend.
type Func int

const (
	// FuncInit is MPI_Init.
	FuncInit Func = iota
	// FuncSend is MPI_Send.
	FuncSend
	// FuncSendrecv is MPI_Sendrecv.
	FuncSendrecv
	// FuncWait is MPI_Wait (blocking receive time).
	FuncWait
	// FuncAllreduce is MPI_Allreduce.
	FuncAllreduce
	// FuncOther is everything else (barriers, bcasts).
	FuncOther

	// NumFuncs is the number of instrumented functions.
	NumFuncs
)

var funcNames = [NumFuncs]string{
	"MPI_Init", "MPI_Send", "MPI_Sendrecv", "MPI_Wait", "MPI_Allreduce", "others",
}

// String implements fmt.Stringer.
func (f Func) String() string {
	if f >= 0 && f < NumFuncs {
		return funcNames[f]
	}
	return "MPI_?"
}

// FuncStats aggregates one function's activity on one rank.
type FuncStats struct {
	Calls int64
	// Bytes counts payload bytes this rank put on the wire (sends), plus —
	// for the point-to-point receive side — bytes accepted under MPI_Wait
	// and MPI_Sendrecv. Collectives count send-side only, so every wire
	// byte of a collective is charged exactly once world-wide.
	Bytes int64
	// Hops counts sequential message rounds this rank traversed inside
	// collective calls (the critical-path depth: log2 P for the tree
	// algorithms, 2 log2 P for the reduce-scatter + allgather butterfly).
	// Point-to-point calls leave it zero.
	Hops int64
	Time time.Duration `json:",omitempty"`
	// WaitTime is the portion spent blocked on a peer (the imbalance
	// metric of Figure 4 bottom: time waiting for data).
	WaitTime time.Duration `json:",omitempty"`
}

// Stats is the per-rank MPI profile.
type Stats struct {
	Funcs [NumFuncs]FuncStats
}

// TotalTime sums time across functions.
func (s *Stats) TotalTime() time.Duration {
	var t time.Duration
	for i := range s.Funcs {
		t += s.Funcs[i].Time
	}
	return t
}

// TotalWait sums blocked time across functions.
func (s *Stats) TotalWait() time.Duration {
	var t time.Duration
	for i := range s.Funcs {
		t += s.Funcs[i].WaitTime
	}
	return t
}

// lane says which form a message's payload travels in. Every payload is
// a float64 vector; the lane says who owns its memory.
type lane uint8

const (
	// laneBorrowed: f64 is the caller's send slice, valid only until the
	// sending call returns. A transport encodes from it or takes a
	// transit copy before the message outlives the call; it never
	// reaches a mailbox.
	laneBorrowed lane = iota
	// laneTransit: f64 is a pooled copy the runtime owns.
	laneTransit
	// laneWire: raw is a codecFloat64 frame payload, CRC-verified and
	// still encoded, in a pooled buffer the runtime owns.
	laneWire
)

// message is one in-flight transfer.
type message struct {
	src, tag int
	bytes    int
	lane     lane
	f64      []float64
	raw      []byte
}

// owned returns m safe to outlive the call that sent it: a borrowed
// payload is replaced by a pooled transit copy.
func (m message) owned() message {
	if m.lane == laneBorrowed {
		t := floatPool.get(len(m.f64))
		copy(t, m.f64)
		m.f64, m.lane = t, laneTransit
	}
	return m
}

// floatsInto lands a received payload in recv, grown only when too
// small, and returns it cut to the received length; the pooled buffer
// that carried it goes back. The caller owns what it gets on every path.
func (m message) floatsInto(recv []float64) []float64 {
	if m.lane == laneWire {
		recv = sized(recv, len(m.raw)/8)
		getFloat64s(recv, m.raw)
		bytePool.put(m.raw)
		return recv
	}
	recv = sized(recv, len(m.f64))
	copy(recv, m.f64)
	floatPool.put(m.f64)
	return recv
}

// sized returns buf with length n, reallocating only when its capacity
// is too small.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// World is a communicator universe of Size ranks with persistent
// mailboxes; it survives across multiple Parallel sections, like an MPI
// job spanning many collective phases. A world built by NewWorld hosts
// every rank in this process and has no links; a world built by the TCP
// rendezvous (ListenTCP/JoinTCP) hosts only the ranks in LocalRanks —
// the rest live in peer processes and are reached through net's links.
type World struct {
	Size  int
	local []int          // ranks hosted in this process, ascending
	inbox []chan message // indexed by rank; nil for remote ranks
	pend  [][]message    // per-rank out-of-order buffer (local only)
	comms []*Comm        // nil for remote ranks

	// net holds the links to the processes hosting the other ranks
	// (tcp.go); nil when every rank is in this process.
	net *tcpTransport

	// Abort protocol (the MPI_Abort analogue). The first rank failure
	// records its RankError and closes abort; every primitive blocked in
	// a send or receive selects on the channel and unwinds with an
	// abortPanic, so peers of a dead rank never deadlock. An aborted
	// world is permanently dead — supervisors rebuild a fresh one.
	abort     chan struct{}
	abortOnce sync.Once
	abortErr  *RankError

	// fault, when non-nil, intercepts point-to-point sends for
	// deterministic fault injection (internal/fault). Nil costs one
	// pointer check per send.
	fault FaultHook
	// wireFault, when non-nil, intercepts encoded wire frames on the TCP
	// transport's send side (after the CRC is computed, so a mutation
	// surfaces as a receiver-side CRC failure). Ignored by a world
	// without links — there is no wire to corrupt.
	wireFault WireFaultHook

	// opts holds the liveness bounds resolved at world creation (see
	// WorldOptions in liveness.go).
	opts WorldOptions
}

// RankError is the structured form of a rank failure: the root-cause
// panic of the first rank that died, converted by Parallel's per-rank
// supervision. The cause's text (including the runtime's original
// mailbox-stall and bad-payload diagnostics) is preserved verbatim
// in Error() for greppability.
type RankError struct {
	Rank  int
	Cause any
	Stack []byte
}

// Error implements error.
func (e *RankError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed: %v", e.Rank, e.Cause)
}

// Unwrap exposes an error cause for errors.As/Is chains.
func (e *RankError) Unwrap() error {
	if err, ok := e.Cause.(error); ok {
		return err
	}
	return nil
}

// abortPanic is the sentinel thrown into primitives blocked when the
// world aborts; Parallel recognizes it as a secondary unwind (the root
// cause is already recorded) and discards it.
type abortPanic struct{ err *RankError }

// FaultHook intercepts point-to-point sends (Send/Sendrecv) for
// deterministic fault injection. OnSend may delay delivery (sleep
// before the message is enqueued) or defer it (reorder: the message is
// held until the sender's next point-to-point or receive operation,
// exercising the receivers' out-of-order matching). Collective hops are
// not intercepted.
type FaultHook interface {
	OnSend(src, dst, tag int) (delay time.Duration, reorder bool)
}

// SetFaultHook installs h (nil removes it). Call between parallel
// sections only.
func (w *World) SetFaultHook(h FaultHook) { w.fault = h }

// SetWireFaultHook installs a frame-level fault hook (nil removes it).
// Only the TCP transport consults it. Call between parallel sections
// only.
func (w *World) SetWireFaultHook(h WireFaultHook) { w.wireFault = h }

// NewWorld creates a world of n ranks with default liveness bounds.
func NewWorld(n int) *World { return NewWorldWith(n, WorldOptions{}) }

// NewWorldWith creates a world of n ranks with explicit liveness bounds.
func NewWorldWith(n int, opts WorldOptions) *World { return newWorld(n, nil, opts) }

// newWorld builds the rank-local state of a world hosting the given
// ranks (nil = all n). A TCP world attaches its links afterwards.
func newWorld(n int, local []int, opts WorldOptions) *World {
	if n < 1 {
		panic("mpi: world size must be >= 1")
	}
	if local == nil {
		local = make([]int, n)
		for i := range local {
			local[i] = i
		}
	}
	w := &World{
		Size:  n,
		local: local,
		inbox: make([]chan message, n),
		pend:  make([][]message, n),
		comms: make([]*Comm, n),
		abort: make(chan struct{}),
		opts:  opts.withDefaults(),
	}
	for _, i := range local {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("mpi: local rank %d outside world of %d", i, n))
		}
		w.inbox[i] = make(chan message, 64*n)
		w.comms[i] = &Comm{world: w, rank: i}
		w.comms[i].Stats.Funcs[FuncInit].Calls = 1
	}
	return w
}

// Comm returns rank r's communicator, or nil when r is hosted by a
// remote process (only LocalRanks have endpoints here).
func (w *World) Comm(r int) *Comm { return w.comms[r] }

// LocalRanks returns the ranks hosted in this process, ascending. The
// slice is shared; callers must not mutate it. For channel worlds it is
// every rank.
func (w *World) LocalRanks() []int { return w.local }

// Transport names how the world moves messages, for diagnostics: "chan"
// when every rank is in this process, "tcp" when it has links to others.
func (w *World) Transport() string {
	if w.net != nil {
		return "tcp"
	}
	return "chan"
}

// ID returns the world's rendezvous identity: the random 64-bit id the
// coordinator minted for a TCP world (every frame carries it, so stray
// dialers and stale peers are rejected), or 0 for in-process channel
// worlds, which need none. Supervisors log it so recovery attempts in
// different processes can be correlated post-hoc — two JSONL streams
// naming the same world id rebuilt the same rendezvous.
func (w *World) ID() uint64 {
	if w.net != nil {
		return w.net.worldID
	}
	return 0
}

// Close releases the world's links (sockets and their reader
// goroutines; a no-op for channel worlds). Idempotent. The world must
// not be used afterwards.
func (w *World) Close() error {
	if w.net != nil {
		w.net.close()
	}
	return nil
}

// Abort records the first rank failure, releases every local rank
// blocked in a primitive, and propagates the failure to remote
// processes. Idempotent; later failures are discarded (they are
// cascades of the first).
func (w *World) Abort(e *RankError) {
	w.abortLocal(e)
	if w.net != nil {
		w.net.PropagateAbort(w.abortErr)
	}
}

// abortLocal is the in-process half of Abort: used directly for aborts
// that arrived over the wire, which must not be re-broadcast.
func (w *World) abortLocal(e *RankError) {
	w.abortOnce.Do(func() {
		w.abortErr = e
		close(w.abort)
	})
}

// Aborted returns the recorded rank failure, or nil while the world is
// healthy. A non-nil result is permanent.
func (w *World) Aborted() *RankError {
	select {
	case <-w.abort:
		return w.abortErr
	default:
		return nil
	}
}

// Parallel runs body on every local rank concurrently and waits for
// all of them (an SPMD section; for a process-spanning world, every
// process runs its own Parallel over its LocalRanks and the links
// stitch the sections together). Each rank goroutine runs supervised: a panic
// becomes a *RankError, aborts the world (unblocking peers parked in
// Send/Wait/Allreduce), and is returned once every rank has unwound.
// On an already-aborted world Parallel returns the recorded failure
// without running body.
//
// After an abort, ranks unwind at their next abort-aware primitive; a
// rank hung in pure compute never reaches one, so the wait for
// stragglers is bounded by WorldOptions.StragglerGrace — past it the
// failure is returned anyway and the stuck goroutine is leaked (the
// world is permanently dead either way; supervisors rebuild a fresh
// one).
func (w *World) Parallel(body func(c *Comm)) error {
	if err := w.Aborted(); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(len(w.local))
	// Every rank is counted before any starts, so that no rank's first
	// receive polls on a count that misses a peer; a straggler leaked
	// after an abort keeps its count.
	vacates := make([]func(), len(w.local))
	for i := range vacates {
		vacates[i] = par.Occupy(1)
	}
	for i, r := range w.local {
		vacate := vacates[i]
		go func(c *Comm) {
			defer wg.Done()
			defer vacate()
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if _, secondary := rec.(abortPanic); secondary {
					// Unwound by a peer's abort; root cause already filed.
					return
				}
				w.Abort(&RankError{Rank: c.rank, Cause: rec, Stack: debug.Stack()})
			}()
			body(c)
		}(w.comms[r])
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-w.abort:
		if grace := w.opts.StragglerGrace; grace < 0 {
			<-done
		} else {
			timer := time.NewTimer(grace)
			defer timer.Stop()
			select {
			case <-done:
			case <-timer.C:
				// A straggler is stuck outside the messaging layer and will
				// never see the abort; its goroutine is leaked.
			}
		}
	}
	if err := w.Aborted(); err != nil {
		return err
	}
	return nil
}

// Comm is one rank's endpoint.
type Comm struct {
	world *World
	rank  int
	// Stats is the Figure 4/5 instrumentation.
	Stats Stats
	// span, when non-nil, receives one timeline span per primitive call,
	// annotated with payload bytes and peer rank (internal/obs).
	span *obs.Rank
	// held is a message deferred by a reorder fault injection, released
	// by this rank's next point-to-point operation. Only the owning rank
	// goroutine touches it.
	held []heldMessage

	// Park state (liveness.go): which blocking section this rank is
	// inside, readable from a watchdog goroutine while the rank runs.
	parkOp    atomic.Int32
	parkPeer  atomic.Int32
	parkTag   atomic.Int64
	parkSince atomic.Int64 // unix nanos
	// unmatched mirrors len(world.pend[rank]) for lock-free snapshots.
	unmatched atomic.Int64
	// polls counts the receives that entered the poll phase.
	polls atomic.Int64
	// pumped is poll's scratch for the frames a pump reads for this rank.
	pumped []message
}

// heldMessage is one reorder-deferred in-flight message.
type heldMessage struct {
	dst int
	m   message
}

// SetSpan attaches a per-rank span timeline to this endpoint; nil
// detaches it. Call between parallel sections only.
func (c *Comm) SetSpan(r *obs.Rank) { c.span = r }

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.Size }

// defaultMailboxStall is the 30s send bound a world adopts when
// WorldOptions.MailboxStall is 0.
const defaultMailboxStall = 30 * time.Second

// deliver hands m to dst's mailbox when dst is in this process and to
// the link toward dst's process otherwise, panicking with rank/tag/
// queue diagnostics if delivery stalls past the world's MailboxStall
// bound. A world abort unblocks the send and unwinds with the abort
// sentinel, so a dead destination cannot wedge its peers. Returns the
// wire bytes actually charged: the logical payload size in-process, the
// framed size (header + encoded payload) across a link.
func (c *Comm) deliver(dst int, m message) int {
	w := c.world
	c.parkEnter(parkSend, dst, m.tag)
	if dst < 0 || dst >= w.Size {
		panic(fmt.Errorf("mpi: send to rank %d outside world of %d", dst, w.Size))
	}
	var wire int
	var err error
	if w.inbox[dst] != nil {
		wire, err = w.deliverLocal(dst, m)
	} else {
		wire, err = w.net.Deliver(dst, m)
	}
	if err == errAborted {
		panic(abortPanic{w.abortErr})
	}
	if e, ok := err.(*stallError); ok {
		panic(e.msg)
	}
	if err != nil {
		// A dead socket: a rank error with the typed cause preserved.
		panic(err)
	}
	c.parkExit()
	return wire
}

// sendP2P routes one point-to-point message through the fault hook
// (when installed) and delivers it, plus any message a reorder fault
// previously deferred. Collective hops bypass it (collSend delivers
// directly). Returns the wire bytes charged now (0 for a
// reorder-deferred message; its bytes are charged on release).
func (c *Comm) sendP2P(dst int, m message) int {
	if h := c.world.fault; h != nil {
		delay, reorder := h.OnSend(c.rank, dst, m.tag)
		if delay > 0 {
			time.Sleep(delay)
		}
		if reorder {
			// Delivery is deferred past this call's return: the held
			// message must own its floats, not borrow the caller's slice.
			c.held = append(c.held, heldMessage{dst: dst, m: m.owned()})
			return 0
		}
	}
	wire := c.deliver(dst, m)
	c.flushHeld()
	return wire
}

// flushHeld releases reorder-deferred messages (after the operation
// that overtook them), charging their wire bytes to MPI_Send.
func (c *Comm) flushHeld() {
	for _, hm := range c.held {
		c.Stats.Funcs[FuncSend].Bytes += int64(c.deliver(hm.dst, hm.m))
	}
	c.held = c.held[:0]
}

// procNull is MPI_PROC_NULL: as a destination or source of any
// point-to-point call it switches that half of the call off. The domain
// backend's neighborRank returns it at non-periodic boundaries.
const procNull = -1

// p2p is the one point-to-point path under Send, Recv, Sendrecv and
// SendrecvFloat64: a send to dst then a receive from src, either half
// skipped for procNull, charged to MPI_Send, MPI_Wait or MPI_Sendrecv by
// which halves ran. The send is modeled as sbytes, or 8 per float when
// sbytes < 0. Stats charge the transport's wire bytes — identical to the
// modeled size in-process, header + encoded payload over TCP. The
// received payload lands in recv (grown only when too small); the result
// is recv[:0] when there is no source.
func (c *Comm) p2p(dst int, send []float64, sbytes, src, tag int, recv []float64) []float64 {
	recv = recv[:0]
	if sbytes < 0 {
		sbytes = 8 * len(send)
	}
	var f Func
	peer := dst
	switch {
	case dst != procNull && src != procNull:
		f = FuncSendrecv
	case dst != procNull:
		f = FuncSend
	case src != procNull:
		f, peer = FuncWait, src
	default:
		return recv
	}
	var bytes int
	var wait time.Duration
	t0 := time.Now()
	t1 := t0
	if dst != procNull {
		bytes = c.sendP2P(dst, message{src: c.rank, tag: tag, bytes: sbytes, lane: laneBorrowed, f64: send})
		t1 = time.Now()
	}
	if src != procNull {
		m := c.recvMatch(src, tag)
		recv = m.floatsInto(recv)
		bytes += m.bytes
		wait = time.Since(t1)
	}
	el := t1.Sub(t0) + wait
	st := &c.Stats.Funcs[f]
	st.Calls++
	st.Bytes += int64(bytes)
	st.Time += el
	st.WaitTime += wait
	if c.span != nil {
		c.span.Comm(funcNames[f], t0, el, int64(bytes), peer)
	}
	return recv
}

// Send transmits data to rank dst under tag; data is the caller's again
// when Send returns. bytes, when >= 0, overrides the modeled wire size
// (a packed struct payload is priced by its sender's model, not by its
// float count).
func (c *Comm) Send(dst, tag int, data []float64, bytes int) {
	c.p2p(dst, data, bytes, procNull, tag, nil)
}

// Recv blocks until a message from src with tag arrives and returns its
// payload in a fresh slice (nil when empty); the blocked time is charged
// to MPI_Wait.
func (c *Comm) Recv(src, tag int) []float64 {
	return c.p2p(procNull, nil, 0, src, tag, nil)
}

// Sendrecv sends sdata to dst and receives from src under the same tag,
// returning the payload in a fresh slice. Either partner may be -1
// (MPI_PROC_NULL: a rank at the top of a slab box still receives from
// below though it sends nothing up); the call is then a plain MPI_Send or
// MPI_Wait and is charged as one, and the result is nil when there is no
// source. sbytes, when >= 0, overrides the modeled send size as in Send.
func (c *Comm) Sendrecv(dst int, sdata []float64, sbytes, src, tag int) []float64 {
	return c.p2p(dst, sdata, sbytes, src, tag, nil)
}

// SendrecvFloat64 is the halo-exchange primitive: Sendrecv with
// caller-owned buffers on both sides.
//
// Buffers follow MPI's contract. send belongs to the caller again as
// soon as the call returns: the runtime has copied or encoded it by
// then, whatever the transport and whatever faults defer delivery. recv
// is caller-owned too: it is grown only when too small and returned cut
// to the received length (length 0 when src is -1), so a caller that
// stores the result back reuses one allocation for the life of the run.
func (c *Comm) SendrecvFloat64(dst int, send []float64, src, tag int, recv []float64) []float64 {
	return c.p2p(dst, send, -1, src, tag, recv)
}

// recvPollBudget bounds the poll phase of a receive: how long a waiting
// rank spins on its mailbox before it parks. A variable only so internal
// tests can lengthen it.
var recvPollBudget = 2 * time.Millisecond

// pollYieldEvery is how many polls pass between yields of the processor
// (about 10 µs). A poll that also pumps a link makes a system call, and
// yields every pumpYieldEvery polls instead.
const (
	pollYieldEvery = 1024
	pumpYieldEvery = 16
)

// recvMatch is the one receive path: it returns the first message from
// src with tag, buffering the others it meets out of order.
//
// A receive that has to wait publishes its park state, then, where
// pollable allows it, polls for up to recvPollBudget before it parks on
// its mailbox. Parked on a channel, a rank is woken onto its sender's
// processor and resumes only once an idle processor steals it; polling,
// it picks the message up on its own. A receive from a rank across a
// TCP link reads the link itself while it polls (pump): parked, it would
// wait for the network poller to wake the link's reader goroutine, and
// for that goroutine to wake it. Either way the time is MPI_Wait time,
// as under an MPI whose waits busy-poll.
//
// A receive from a rank in another process also waits on that process'
// departure (peerLink.fin). Once it has come, everything the process
// sent is in this rank's mailbox or out-of-order buffer: a receive the
// mailbox does not satisfy then never will be, and fails the world.
func (c *Comm) recvMatch(src, tag int) message {
	// A receive is an ordering point: release any reorder-deferred sends
	// before blocking (the peers may be waiting on them).
	c.flushHeld()
	// Check the out-of-order buffer first.
	if m, ok := c.takePending(src, tag); ok {
		return m
	}
	w := c.world
	c.parkEnter(parkRecv, src, tag)
	start := time.Now()
	stall := w.opts.RecvStall
	link := w.link(src)
	if poll, pump := c.pollable(link); poll {
		c.polls.Add(1)
		budget := recvPollBudget
		if stall > 0 {
			budget = min(budget, stall)
		}
		if m, ok := c.poll(src, tag, pump, start.Add(budget)); ok {
			return m
		}
	}
	// Park, with the rest of the world's RecvStall bound, if any.
	var stallC <-chan time.Time
	if stall > 0 {
		timer := time.NewTimer(stall - time.Since(start))
		defer timer.Stop()
		stallC = timer.C
	}
	var fin <-chan struct{} // nil: src is in this process
	if link != nil {
		fin = link.fin
	}
	for {
		select {
		case m := <-w.inbox[c.rank]:
			if c.accept(m, src, tag) {
				return m
			}
		case <-w.abort:
			panic(abortPanic{w.abortErr})
		case <-stallC:
			panic(c.recvStallPanic(src, tag, stall))
		case <-fin:
			return c.departed(link, src, tag)
		}
	}
}

// departed ends a wait on src after src's process said bye and its link
// l ended: the awaited message is in the mailbox now, or it never comes
// and the world fails with the departure named.
func (c *Comm) departed(l *peerLink, src, tag int) message {
	w := c.world
	for len(w.inbox[c.rank]) > 0 {
		if m := <-w.inbox[c.rank]; c.accept(m, src, tag) {
			return m
		}
	}
	if w.Aborted() == nil {
		w.Abort(&RankError{
			Rank: src,
			Cause: fmt.Errorf("mpi: link to proc %d (ranks %v) lost: peer finalized while rank %d was parked in %s on rank %d",
				l.proc, l.ranks, c.rank, parkOpName(parkRecv, tag), src),
			Stack: debug.Stack(),
		})
	}
	panic(abortPanic{w.abortErr})
}

// pollable reports whether a waiting receive may poll, and the link it
// pumps while it does (nil: the mailbox alone), given link, the link to
// the source's process (nil when the source is in this one). It polls
// only while the process runs no more compute goroutines — ranks, pool
// helpers, serial interpreters (par.Occupy) — than it has processors,
// and then in a world whose every rank is in this process, or when the
// source is across a link with a socket descriptor. A local source in a
// world with remote ranks is waited for parked.
func (c *Comm) pollable(link *peerLink) (bool, *peerLink) {
	if link != nil && link.sock == nil {
		link = nil
	}
	w := c.world
	if len(w.local) < w.Size && link == nil {
		return false, nil
	}
	return par.Occupied() <= runtime.GOMAXPROCS(0), link
}

// poll checks the mailbox and the abort channel, and pumps link when it
// is not nil, without blocking until the message from src with tag
// arrives (true), deadline passes or link's process has departed
// (false). Every pollYieldEvery polls (pumpYieldEvery with a link) it
// yields, so a goroutine this rank readied runs here instead of waiting
// to be stolen.
func (c *Comm) poll(src, tag int, link *peerLink, deadline time.Time) (message, bool) {
	w := c.world
	yieldEvery := pollYieldEvery
	if link != nil {
		yieldEvery = pumpYieldEvery
	}
	// One-case selects, not one with several cases: each is a lock-free
	// check while its channel is empty.
	for i := 1; ; i++ {
		select {
		case m := <-w.inbox[c.rank]:
			if c.accept(m, src, tag) {
				return m, true
			}
		default:
		}
		select {
		case <-w.abort:
			panic(abortPanic{w.abortErr})
		default:
		}
		if link != nil {
			var before int
			if c.pumped, before = w.net.pump(link, c.rank, c.pumped[:0]); len(c.pumped) > 0 {
				if m, ok := c.acceptPumped(c.pumped, before, src, tag); ok {
					return m, true
				}
			}
			select {
			case <-link.fin:
				return message{}, false // the park decides, at once
			default:
			}
		}
		if i%yieldEvery == 0 {
			if time.Now().After(deadline) {
				return message{}, false
			}
			runtime.Gosched()
		}
	}
}

// accept ends a wait on m when it is the awaited message (true) and
// files it in the out-of-order buffer otherwise.
func (c *Comm) accept(m message, src, tag int) bool {
	if m.src == src && m.tag == tag {
		c.parkExit()
		return true
	}
	c.file(m)
	return false
}

// acceptPumped ends a wait on the first match in ms, frames this rank
// read off a link itself, or files them all. The first before messages
// of the mailbox may include frames the link delivered there ahead of
// ms; they are filed first, so the per-(src, tag) order holds.
func (c *Comm) acceptPumped(ms []message, before, src, tag int) (message, bool) {
	inbox := c.world.inbox[c.rank]
	for ; before > 0; before-- {
		c.file(<-inbox)
	}
	for _, m := range ms {
		c.file(m)
	}
	if m, ok := c.takePending(src, tag); ok {
		c.parkExit()
		return m, true
	}
	return message{}, false
}

// file appends m to the out-of-order buffer.
func (c *Comm) file(m message) {
	c.world.pend[c.rank] = append(c.world.pend[c.rank], m)
	c.unmatched.Add(1)
}

// takePending removes and returns the first buffered message from src
// with tag.
func (c *Comm) takePending(src, tag int) (message, bool) {
	w := c.world
	pend := w.pend[c.rank]
	for i, m := range pend {
		if m.src == src && m.tag == tag {
			w.pend[c.rank] = append(pend[:i], pend[i+1:]...)
			c.unmatched.Add(-1)
			return m, true
		}
	}
	return message{}, false
}

// String summarizes the profile (debugging aid).
func (s *Stats) String() string {
	out := ""
	for f := Func(0); f < NumFuncs; f++ {
		fs := s.Funcs[f]
		if fs.Calls == 0 {
			continue
		}
		out += fmt.Sprintf("%s: calls=%d bytes=%d hops=%d time=%v wait=%v\n",
			f, fs.Calls, fs.Bytes, fs.Hops, fs.Time, fs.WaitTime)
	}
	return out
}
