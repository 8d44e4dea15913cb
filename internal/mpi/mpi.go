// Package mpi implements the message-passing runtime the decomposed
// engine runs on: a fixed set of ranks (goroutines) exchanging typed
// messages through per-rank mailboxes, with the narrow primitive set
// LAMMPS actually uses — Send, Recv (Wait), Sendrecv, Allreduce, plus
// Init — instrumented per function exactly like the paper's Figure 5
// breakdown (time, call count, and payload bytes per MPI function).
// SendrecvFloat64 is Sendrecv with MPI's buffer contract for the per-step
// halo vectors: caller-owned send and receive buffers, pooled buffers in
// between (pool.go), no allocation in steady state.
//
// The runtime executes real message passing (correctness: a decomposed
// run reproduces the serial trajectory); the wall-clock of a 64-rank run
// on this machine is NOT the figure-generation time source — the
// performance model (internal/perfmodel) converts the runtime's measured
// message/byte/wait counters into platform time for the paper's plots.
package mpi

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gomd/internal/obs"
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
	Time time.Duration
	// WaitTime is the portion spent blocked on a peer (the imbalance
	// metric of Figure 4 bottom: time waiting for data).
	WaitTime time.Duration
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

// lane says which form a message's payload travels in.
type lane uint8

const (
	// laneAny: data, handed over by reference in-process (struct payloads,
	// collective hops, nil) and through the codec registry over TCP.
	laneAny lane = iota
	// laneBorrowed: f64 is the send slice of a SendrecvFloat64 call, valid
	// only until that call returns. A transport encodes from it or takes a
	// transit copy before the message outlives the call; it never reaches
	// a mailbox.
	laneBorrowed
	// laneTransit: f64 is a pooled copy the runtime owns.
	laneTransit
	// laneWire: raw is a codecFloat64 frame payload, CRC-verified and
	// still encoded, in a pooled buffer the runtime owns.
	laneWire
)

// message is one in-flight transfer. Floats travel in a typed field, not
// boxed in data: the halo loops send thousands of them a second.
type message struct {
	src, tag int
	bytes    int
	lane     lane
	data     any
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

// floats returns the payload of a message about to be encoded when it is
// a float64 vector, whichever lane carries it.
func (m message) floats() ([]float64, bool) {
	if m.lane == laneAny {
		v, ok := m.data.([]float64)
		return v, ok
	}
	return m.f64, true
}

// floatsInto lands a received payload in recv, grown only when too
// small, and returns it cut to the received length; the pooled buffer
// that carried it goes back. A generic-lane []float64 is copied, so the
// caller owns what it gets on every path.
func (m message) floatsInto(recv []float64) []float64 {
	switch m.lane {
	case laneTransit:
		recv = sized(recv, len(m.f64))
		copy(recv, m.f64)
		floatPool.put(m.f64)
	case laneWire:
		recv = sized(recv, len(m.raw)/8)
		getFloat64s(recv, m.raw)
		bytePool.put(m.raw)
	default:
		switch d := m.data.(type) {
		case nil:
			recv = recv[:0]
		case []float64:
			recv = sized(recv, len(d))
			copy(recv, d)
		default:
			panic(fmt.Sprintf("mpi: float64 receive from rank %d (tag %d) matched a %T payload", m.src, m.tag, d))
		}
	}
	return recv
}

// payload surrenders a received message to the generic lane: data as it
// is, a typed payload decoded into a fresh slice (collectives and tests
// mix the lanes).
func (m message) payload() any {
	if m.lane == laneAny {
		return m.data
	}
	return m.floatsInto(nil)
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
// every rank in this process (the channel transport); a world built by
// the TCP rendezvous (ListenTCP/JoinTCP) hosts only the ranks in
// LocalRanks — the rest live in peer processes and are reached through
// the transport.
type World struct {
	Size  int
	local []int          // ranks hosted in this process, ascending
	inbox []chan message // indexed by rank; nil for remote ranks
	pend  [][]message    // per-rank out-of-order buffer (local only)
	comms []*Comm        // nil for remote ranks

	// tr moves messages between ranks: in-process channels (the
	// reference) or length-prefixed TCP frames.
	tr Transport

	// Abort protocol (the MPI_Abort analogue). The first rank failure
	// records its RankError and closes abort; every primitive blocked in
	// a send or receive selects on the channel and unwinds with an
	// abortPanic, so peers of a dead rank never deadlock. An aborted
	// world is permanently dead — supervisors rebuild a fresh one.
	abort     chan struct{}
	abortOnce sync.Once
	abortErr  *RankError
	closeOnce sync.Once

	// fault, when non-nil, intercepts point-to-point sends for
	// deterministic fault injection (internal/fault). Nil costs one
	// pointer check per send.
	fault FaultHook
	// wireFault, when non-nil, intercepts encoded wire frames on the TCP
	// transport's send side (after the CRC is computed, so a mutation
	// surfaces as a receiver-side CRC failure). Ignored by the channel
	// transport — there is no wire to corrupt.
	wireFault WireFaultHook

	// opts holds the liveness bounds resolved at world creation (see
	// WorldOptions in liveness.go).
	opts WorldOptions
}

// RankError is the structured form of a rank failure: the root-cause
// panic of the first rank that died, converted by Parallel's per-rank
// supervision. The cause's text (including the runtime's original
// mailbox-stall and unknown-payload diagnostics) is preserved verbatim
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
func NewWorldWith(n int, opts WorldOptions) *World {
	w := newWorld(n, nil, opts)
	w.tr = &chanTransport{w: w}
	return w
}

// newWorld builds the rank-local state of a world hosting the given
// ranks (nil = all n). The caller attaches the transport.
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

// Transport exposes the world's message-moving layer (diagnostics and
// the transport conformance suite).
func (w *World) Transport() Transport { return w.tr }

// ID returns the world's rendezvous identity: the random 64-bit id the
// coordinator minted for a TCP world (every frame carries it, so stray
// dialers and stale peers are rejected), or 0 for in-process channel
// worlds, which need none. Supervisors log it so recovery attempts in
// different processes can be correlated post-hoc — two JSONL streams
// naming the same world id rebuilt the same rendezvous.
func (w *World) ID() uint64 {
	if t, ok := w.tr.(*tcpTransport); ok {
		return t.worldID
	}
	return 0
}

// Close releases the world's transport resources (sockets and pump
// goroutines for TCP worlds; a no-op for channel worlds). Idempotent.
// The world must not be used afterwards.
func (w *World) Close() error {
	var err error
	w.closeOnce.Do(func() { err = w.tr.Close() })
	return err
}

// Abort records the first rank failure, releases every local rank
// blocked in a primitive, and propagates the failure to remote
// processes. Idempotent; later failures are discarded (they are
// cascades of the first).
func (w *World) Abort(e *RankError) {
	w.abortLocal(e)
	w.tr.PropagateAbort(w.abortErr)
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
// process runs its own Parallel over its LocalRanks and the transport
// stitches the sections together). Each rank goroutine runs supervised: a panic
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
	for _, r := range w.local {
		go func(c *Comm) {
			defer wg.Done()
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

// Sized is implemented by payload types that know their own wire size;
// it lets callers pass bytes < 0 for struct payloads without those
// messages silently vanishing from the Figure 5 byte profile.
type Sized interface {
	WireBytes() int
}

// payloadBytes models the wire size of a payload, or -1 when the type is
// unrecognized (callers must then either pass an explicit byte count or
// implement Sized — unknown types are an accounting error, not 0 bytes).
func payloadBytes(data any) int {
	switch d := data.(type) {
	case []float64:
		return 8 * len(d)
	case Sized:
		return d.WireBytes()
	case nil:
		return 0
	default:
		return -1
	}
}

// mustPayloadBytes resolves a wire size, panicking on unknown payload
// types so new message kinds cannot silently report 0 bytes.
func mustPayloadBytes(data any) int {
	b := payloadBytes(data)
	if b < 0 {
		panic(fmt.Sprintf("mpi: payload type %T has no modeled wire size; pass an explicit byte count or implement mpi.Sized", data))
	}
	return b
}

// defaultMailboxStall is the 30s send bound a world adopts when
// WorldOptions.MailboxStall is 0.
const defaultMailboxStall = 30 * time.Second

// deliver hands m to the world's transport, panicking with rank/tag/
// queue diagnostics if delivery stalls past the world's MailboxStall
// bound. A world abort unblocks the send and unwinds with the abort
// sentinel, so a dead destination cannot wedge its peers. Returns the
// wire bytes actually charged (framed size for remote destinations).
func (c *Comm) deliver(dst int, m message) int {
	w := c.world
	c.parkEnter(parkSend, dst, m.tag)
	wire, err := w.tr.Deliver(dst, m)
	if err != nil {
		switch e := err.(type) {
		case *stallError:
			panic(e.msg)
		default:
			if err == errAborted {
				panic(abortPanic{w.abortErr})
			}
			// Transport failure (unregistered codec, dead socket):
			// a rank error with the typed cause preserved.
			panic(err)
		}
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
// which halves ran. Stats charge the transport's wire bytes — identical
// to the modeled size in-process, header + encoded payload over TCP. A
// non-nil recv selects the typed receive (the payload lands in *recv);
// otherwise the generic payload is returned.
func (c *Comm) p2p(dst int, sm message, src, tag int, recv *[]float64) (data any) {
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
		return nil
	}
	var bytes int
	var wait time.Duration
	t0 := time.Now()
	t1 := t0
	if dst != procNull {
		bytes = c.sendP2P(dst, sm)
		t1 = time.Now()
	}
	if src != procNull {
		m := c.recvMatch(src, tag)
		if recv != nil {
			*recv = m.floatsInto(*recv)
		} else {
			data = m.payload()
		}
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
	return data
}

// Send transmits data to rank dst under tag. bytes, when >= 0, overrides
// the modeled wire size (used for struct payloads whose packed size the
// caller knows).
func (c *Comm) Send(dst, tag int, data any, bytes int) {
	if bytes < 0 {
		bytes = mustPayloadBytes(data)
	}
	c.p2p(dst, message{src: c.rank, tag: tag, bytes: bytes, data: data}, procNull, tag, nil)
}

// Recv blocks until a message from src with tag arrives and returns its
// payload; the blocked time is charged to MPI_Wait.
func (c *Comm) Recv(src, tag int) any {
	return c.p2p(procNull, message{}, src, tag, nil)
}

// Sendrecv sends sdata to dst and receives from src under the same tag.
// Either partner may be -1 (MPI_PROC_NULL: a rank at the top of a slab
// box still receives from below though it sends nothing up); the call is
// then a plain MPI_Send or MPI_Wait and is charged as one, and the result
// is nil when there is no source.
func (c *Comm) Sendrecv(dst int, sdata any, sbytes, src, tag int) any {
	if sbytes < 0 {
		sbytes = mustPayloadBytes(sdata)
	}
	return c.p2p(dst, message{src: c.rank, tag: tag, bytes: sbytes, data: sdata}, src, tag, nil)
}

// SendrecvFloat64 is the halo-exchange primitive: Sendrecv for float64
// vectors, -1 partners included, with caller-owned buffers on both sides
// instead of a boxed payload that changes hands.
//
// Buffers follow MPI's contract. send belongs to the caller again as
// soon as the call returns: the runtime has copied or encoded it by
// then, whatever the transport and whatever faults defer delivery. recv
// is caller-owned too: it is grown only when too small and returned cut
// to the received length (length 0 when src is -1), so a caller that
// stores the result back reuses one allocation for the life of the run.
func (c *Comm) SendrecvFloat64(dst int, send []float64, src, tag int, recv []float64) []float64 {
	recv = recv[:0]
	c.p2p(dst, message{src: c.rank, tag: tag, bytes: 8 * len(send), lane: laneBorrowed, f64: send}, src, tag, &recv)
	return recv
}

func (c *Comm) recvMatch(src, tag int) message {
	// A receive is an ordering point: release any reorder-deferred sends
	// before blocking (the peers may be waiting on them).
	c.flushHeld()
	// Check the out-of-order buffer first.
	pend := c.world.pend[c.rank]
	for i, m := range pend {
		if m.src == src && m.tag == tag {
			c.world.pend[c.rank] = append(pend[:i], pend[i+1:]...)
			c.unmatched.Add(-1)
			return m
		}
	}
	// Blocking path: publish the park state and, when the world bounds
	// receive stalls, arm the deadline.
	var stallC <-chan time.Time
	if d := c.world.opts.RecvStall; d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		stallC = timer.C
	}
	c.parkEnter(parkRecv, src, tag)
	for {
		select {
		case m := <-c.world.inbox[c.rank]:
			if m.src == src && m.tag == tag {
				c.parkExit()
				return m
			}
			c.world.pend[c.rank] = append(c.world.pend[c.rank], m)
			c.unmatched.Add(1)
		case <-c.world.abort:
			panic(abortPanic{c.world.abortErr})
		case <-stallC:
			panic(c.recvStallPanic(src, tag, c.world.opts.RecvStall))
		}
	}
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
