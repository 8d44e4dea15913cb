// TCP transport: a World spanning OS processes over length-prefixed
// frames (frame.go) carrying float64 vectors (codec.go). Each process
// hosts a subset of ranks; deliveries to co-resident ranks take the
// same in-process mailbox path as the channel transport (bit-identical
// semantics), deliveries to remote ranks are framed onto a per-peer
// ordered connection. The control plane — abort propagation, watchdog
// comm-state snapshots — rides the same links as dedicated frame kinds.
//
// Rendezvous: a coordinator listens (ListenTCP), joiners dial (JoinTCP)
// and announce the ranks they host plus a mesh listener address. Once
// every rank is covered the coordinator assigns process indices, picks
// a random world id, and broadcasts the peer table; joiners wire a full
// mesh among themselves (dial-lower/accept-higher), confirm ready, and
// the coordinator releases the world with a go frame. The rendezvous
// connections double as the proc-0 data links.
//
// Ordering: each peer pair shares one connection, and a sending rank
// writes its frame onto it itself under the link's write lock before
// its send returns. A rank's sends are sequential and the lock keeps
// frames whole, so messages between any (src,dst) pair arrive in send
// order — the same per-(src,tag) FIFO the channel transport provides,
// which is what the engine's bit-reproducibility rests on. The read
// side keeps that order with a read token: one goroutine at a time —
// the link's reader, or a rank that waits on the link and reads it
// itself (pump) — reads whole frames and acts on them in stream order.
package mpi

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mathrand "math/rand"
	"net"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// rendezvousTimeout bounds every blocking step of the handshake (dial
// retry, hello collection, mesh wiring, ready/go), so a missing peer
// fails the launch with a diagnosis instead of hanging it. Override per
// world with WorldOptions.Rendezvous.
const rendezvousTimeout = 30 * time.Second

// rendezvous resolves the handshake deadline against the default.
func (o WorldOptions) rendezvous() time.Duration {
	if o.Rendezvous > 0 {
		return o.Rendezvous
	}
	return rendezvousTimeout
}

// RendezvousError is a typed rendezvous failure: which phase of the
// handshake broke (a peer died, never appeared, or spoke garbage)
// before a world existed to abort. Callers distinguish it from
// post-launch failures — there is no world to recover, only a
// rendezvous to re-run.
type RendezvousError struct {
	// Phase names the handshake step that failed: "accept" (coordinator
	// collecting hellos), "peers" (peer-table broadcast/await), "ready"
	// (coordinator awaiting mesh confirmation), "go" (world release),
	// "dial" (joiner reaching the coordinator), "mesh" (joiner-to-joiner
	// wiring), "world-id" (entropy failure minting the id).
	Phase string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *RendezvousError) Error() string {
	return fmt.Sprintf("mpi: rendezvous %s: %v", e.Phase, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *RendezvousError) Unwrap() error { return e.Err }

// abortFlushTimeout bounds how long abort propagation waits to put its
// frame on a link before falling back to closing the connection (the
// peer then observes a link failure, which aborts it just the same).
const abortFlushTimeout = 250 * time.Millisecond

// snapshotTimeout bounds FillRemote's wait for each peer's comm-state
// response; an unresponsive peer leaves its ranks' entries zero-valued.
const snapshotTimeout = 500 * time.Millisecond

// closeFlushTimeout bounds how long a graceful Close spends putting its
// bye on the links before the sockets are torn down regardless.
const closeFlushTimeout = time.Second

// byeGraceTimeout is how long a clean peer departure (bye frame + EOF)
// may leave a local rank parked on the departed ranks before it is
// diagnosed as an abort: long enough for an in-flight wakeup to land,
// short enough that a misaligned program fails promptly.
const byeGraceTimeout = 250 * time.Millisecond

// RemoteAbort is the cause recorded when a world abort arrives over the
// wire: the originating rank's failure text and stack, carried across
// the process boundary so every process' RankError reads the same root
// cause.
type RemoteAbort struct {
	// Rank is the originating (failed) rank.
	Rank int
	// Text is the original cause rendered to text.
	Text string
	// Stack is the originating rank's stack trace.
	Stack string
}

// String preserves the original failure text, so a RankError wrapping a
// RemoteAbort greps identically to the local one.
func (r RemoteAbort) String() string { return r.Text }

// linkReadBuf sizes a link's buffered reader so one read call takes in a
// whole halo payload (tens of KB); bufio's 4 KiB default needed several.
const linkReadBuf = 64 << 10

// linkReader is a connection's buffered reader and the socket reader
// under it: the descriptor itself where the platform allows it
// (sock_unix.go), nil for a connection without one, read through the
// connection.
type linkReader struct {
	*bufio.Reader
	sock *sock
}

func newLinkReader(conn net.Conn) linkReader {
	if s := newSock(conn); s != nil {
		return linkReader{bufio.NewReaderSize(s, linkReadBuf), s}
	}
	return linkReader{bufio.NewReaderSize(conn, linkReadBuf), nil}
}

// peerLink is one ordered connection to a peer process.
type peerLink struct {
	t     *tcpTransport // set on links a rank may pump
	proc  int
	ranks []int
	conn  net.Conn
	// rmu is the read token. Its holder owns br, the socket's read side,
	// hdr and rdone, and lets go of it only between frames.
	rmu   sync.Mutex
	br    *bufio.Reader
	sock  *sock // nil: no descriptor; the link is never pumped
	hdr   []byte
	rdone bool // reading has ended: the link failed or a frame failed the world
	// mu serializes writes: every frame goes on conn whole, under mu,
	// with the writer's deadline set. werr (guarded by mu) is the first
	// failed write; it may have left part of a frame on the wire, so
	// nothing is written after it.
	mu   sync.Mutex
	werr error
	// peerBye records that the peer announced a graceful finalize, so
	// the EOF that follows is a clean departure, not a process death.
	peerBye atomic.Bool
}

// tcpTransport implements Transport over a full mesh of peerLinks.
type tcpTransport struct {
	w        *World
	worldID  uint64
	selfProc int
	rankProc []int       // rank -> hosting proc index
	links    []*peerLink // proc index -> link (nil for self)

	closed    chan struct{}
	closeOnce sync.Once
	bcastOnce sync.Once

	snapMu   sync.Mutex
	snapSeq  uint32
	snapWait map[uint32]chan []CommState

	// framesSent / wireSent meter outbound traffic across all links
	// (conformance and byte-accounting tests).
	framesSent atomic.Int64
	wireSent   atomic.Int64
}

// Name implements Transport.
func (t *tcpTransport) Name() string { return "tcp" }

// writeFrame puts one frame on the link; the caller holds l.mu and has
// set the write deadline.
func (l *peerLink) writeFrame(frame []byte) error {
	if l.werr == nil {
		_, l.werr = l.conn.Write(frame)
	}
	return l.werr
}

// writeBy writes a control frame by deadline, lock wait included: the
// abort broadcast and the bye must not wait forever behind a wedged
// write. It reports whether the frame went out.
func (l *peerLink) writeBy(frame []byte, deadline time.Time) bool {
	for !l.mu.TryLock() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	defer l.mu.Unlock()
	l.conn.SetWriteDeadline(deadline)
	return l.writeFrame(frame) == nil
}

// tryControl writes a control frame only if no rank holds the link at
// this moment, so neither the watchdog nor a reader ever waits behind
// a data write. A failed write is a lost link.
func (t *tcpTransport) tryControl(l *peerLink, frame []byte) bool {
	if !l.mu.TryLock() {
		return false
	}
	l.conn.SetWriteDeadline(time.Now().Add(snapshotTimeout))
	err := l.writeFrame(frame)
	l.mu.Unlock()
	if err != nil {
		t.linkLost(l, fmt.Errorf("write: %w", err))
	}
	return err == nil
}

// expireLinks fails every read and write in progress or still to come
// on this transport's links at once; the abort path calls it so a rank
// blocked writing to a peer, or reading the rest of a frame off a link
// it pumps, unwinds with the abort.
func (t *tcpTransport) expireLinks() {
	for _, l := range t.links {
		if l != nil {
			l.conn.SetDeadline(time.Unix(1, 0))
		}
	}
}

// Deliver implements Transport: co-resident destinations take the
// in-process mailbox path and charge logical payload bytes; remote
// destinations are framed, written to the link by the sending rank
// within the world's MailboxStall, and charge header + encoded payload
// — the bytes that actually cross the wire.
func (t *tcpTransport) Deliver(dst int, m message) (int, error) {
	w := t.w
	if dst < 0 || dst >= w.Size {
		return 0, fmt.Errorf("mpi: send to rank %d outside world of %d", dst, w.Size)
	}
	if w.inbox[dst] != nil {
		return w.deliverLocal(dst, m)
	}
	h := frameHeader{
		kind: frameData, world: t.worldID,
		src: int32(m.src), dst: int32(dst), tag: int32(m.tag),
	}
	frame := encodeFloat64Frame(h, m.f64)
	if m.lane == laneTransit {
		floatPool.put(m.f64) // a reorder-held copy, now encoded
	}
	if h := w.wireFault; h != nil {
		h.OnFrame(m.src, dst, m.tag, frame)
	}
	l := t.links[t.rankProc[dst]]
	stall := w.opts.MailboxStall
	l.mu.Lock()
	l.conn.SetWriteDeadline(time.Now().Add(stall))
	// Checked after the deadline is set, so an abort's expiry of it is
	// never overwritten: either this sees the abort or the write does.
	err := errAborted
	if w.Aborted() == nil {
		err = l.writeFrame(frame)
	}
	l.mu.Unlock()
	n := len(frame)
	bytePool.put(frame)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) && w.Aborted() == nil {
			return 0, &stallError{fmt.Sprintf(
				"mpi: rank %d -> rank %d (tag %d, %d bytes) stalled %v writing to proc %d — peer process dead or not reading",
				m.src, dst, m.tag, m.bytes, stall, l.proc)}
		}
		t.linkLost(l, fmt.Errorf("write: %w", err)) // quiet once aborted
		if w.Aborted() != nil {
			return 0, errAborted
		}
		return 0, err
	}
	t.framesSent.Add(1)
	t.wireSent.Add(int64(n))
	return n, nil
}

// PropagateAbort implements Transport: the first local failure is
// broadcast to every peer once; remote worlds record it without
// re-broadcasting (the mesh means every process hears the origin
// directly), so propagation terminates.
func (t *tcpTransport) PropagateAbort(e *RankError) {
	t.bcastOnce.Do(func() {
		payload := encodeAbortPayload(fmt.Sprint(e.Cause), string(e.Stack))
		frame := encodeFrame(frameHeader{
			kind: frameAbort, world: t.worldID,
			src: int32(e.Rank), dst: -1,
		}, payload)
		for _, l := range t.links {
			if l == nil {
				continue
			}
			if !l.writeBy(frame, time.Now().Add(abortFlushTimeout)) {
				// Link wedged or broken: close it instead — the peer's
				// reader observes the loss and aborts its world.
				l.conn.Close()
			}
		}
		t.expireLinks()
	})
}

// FillRemote implements Transport: ask every peer process for its
// ranks' comm states, best-effort with a bounded wait, and merge the
// answers. Each peer owns a disjoint rank set, so responses write
// disjoint entries of out.
func (t *tcpTransport) FillRemote(out []CommState) {
	var wg sync.WaitGroup
	for _, l := range t.links {
		if l == nil {
			continue
		}
		wg.Add(1)
		go func(l *peerLink) {
			defer wg.Done()
			states, ok := t.requestSnapshot(l)
			if !ok {
				return
			}
			owned := make(map[int]bool, len(l.ranks))
			for _, r := range l.ranks {
				owned[r] = true
			}
			for _, s := range states {
				if s.Rank >= 0 && s.Rank < len(out) && owned[s.Rank] {
					out[s.Rank] = s
				}
			}
		}(l)
	}
	wg.Wait()
}

// requestSnapshot sends one snapReq to a peer and waits (bounded) for
// the correlated response.
func (t *tcpTransport) requestSnapshot(l *peerLink) ([]CommState, bool) {
	t.snapMu.Lock()
	t.snapSeq++
	seq := t.snapSeq
	ch := make(chan []CommState, 1)
	if t.snapWait == nil {
		t.snapWait = map[uint32]chan []CommState{}
	}
	t.snapWait[seq] = ch
	t.snapMu.Unlock()
	defer func() {
		t.snapMu.Lock()
		delete(t.snapWait, seq)
		t.snapMu.Unlock()
	}()

	frame := encodeFrame(frameHeader{
		kind: frameSnapReq, world: t.worldID, src: -1, dst: int32(l.proc),
	}, binary.LittleEndian.AppendUint32(nil, seq))
	if !t.tryControl(l, frame) {
		return nil, false // link busy or lost; don't block the watchdog
	}
	timer := time.NewTimer(snapshotTimeout)
	defer timer.Stop()
	select {
	case states := <-ch:
		return states, true
	case <-timer.C:
		return nil, false
	case <-t.closed:
		return nil, false
	}
}

// Close implements Transport.
func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		// Graceful finalize: every data frame is already on the socket (a
		// send returns once its frame is written), so announcing the
		// departure lets a peer still draining its last section tell this
		// clean shutdown from a process death. Best effort — a peer that
		// misses the bye sees a raw EOF and aborts — and skipped on
		// aborted worlds, where the abort frames already said everything.
		if t.w.Aborted() == nil {
			bye := encodeFrame(frameHeader{
				kind: frameBye, world: t.worldID, src: int32(t.selfProc),
			}, nil)
			deadline := time.Now().Add(closeFlushTimeout)
			for _, l := range t.links {
				if l != nil {
					l.writeBy(bye, deadline)
				}
			}
		}
		close(t.closed)
		for _, l := range t.links {
			if l != nil {
				l.conn.Close()
			}
		}
	})
	return nil
}

// start launches the reader for every link; writes happen on the
// goroutine that sends.
func (t *tcpTransport) start() {
	for _, l := range t.links {
		if l != nil {
			go t.readLoop(l)
		}
	}
}

// linkPayload picks the buffer a live link reads a frame's payload into:
// pooled for data (it travels to the receiving rank still encoded, and
// that rank returns it), fresh for control frames, whose decoders may
// keep what they parse.
func linkPayload(h frameHeader) []byte {
	if h.kind == frameData {
		return bytePool.get(int(h.paylen))
	}
	return make([]byte, h.paylen)
}

// readLoop is the link's reader. It takes the read token and acts on
// every frame that has arrived, bytes left in the buffer by the
// rendezvous included, then waits, without the token and without
// consuming a byte, until more arrive. A rank pumping the link may read
// them first; the reader then finds nothing and waits again. A link
// without a descriptor is read blocking, under the token, for as long
// as it lives.
func (t *tcpTransport) readLoop(l *peerLink) {
	for {
		l.rmu.Lock()
		for !l.rdone && l.arrived() {
			t.readOne(l, -1)
		}
		done := l.rdone
		l.rmu.Unlock()
		if done {
			return
		}
		if err := l.sock.await(); err != nil {
			l.rmu.Lock()
			if !l.rdone {
				t.readFailed(l, err)
			}
			l.rmu.Unlock()
			return
		}
	}
}

// pump lets rank self, waiting in a receive from a rank across l, read
// the link itself instead of waiting for the reader goroutine to be
// woken. It takes the read token only if it is free and acts on the
// frames that have arrived, appending the data frames addressed to self
// to mine, in stream order, for the receive to match. It stops reading
// the socket at the first of them, but not before the link's buffer is
// empty: the reader waits on the socket alone and would never see bytes
// left there. before counts the messages in self's mailbox when the
// token is let go: every frame the link delivered there is among them.
func (t *tcpTransport) pump(l *peerLink, self int, mine []message) (_ []message, before int) {
	if !l.rmu.TryLock() {
		return mine, 0
	}
	defer l.rmu.Unlock()
	for !l.rdone && (l.br.Buffered() > 0 || len(mine) == 0 && l.arrived()) {
		if m, ok := t.readOne(l, self); ok {
			mine = append(mine, m)
		}
	}
	return mine, len(t.w.inbox[self])
}

// arrived reports, for the read token's holder, whether a frame has at
// least begun to arrive. A link without a descriptor cannot tell, and
// reads as arrived: its reader blocks in the read.
func (l *peerLink) arrived() bool {
	return l.br.Buffered() > 0 || l.sock == nil || l.sock.readable()
}

// readOne reads one frame off l and acts on it (dispatch); the caller
// holds the read token.
func (t *tcpTransport) readOne(l *peerLink, self int) (message, bool) {
	h, payload, err := readFrameInto(l.br, t.worldID, l.hdr, linkPayload)
	if err != nil {
		t.readFailed(l, err)
		return message{}, false
	}
	return t.dispatch(l, h, payload, self)
}

// readFailed ends reading l on err: a clean departure (bye, then EOF) is
// watched by peerFinished, anything else is a lost link.
func (t *tcpTransport) readFailed(l *peerLink, err error) {
	l.rdone = true
	if err == io.EOF && l.peerBye.Load() {
		go t.peerFinished(l)
		return
	}
	t.linkLost(l, err)
}

// dispatch acts on one frame read off l under its read token: data into
// the addressed rank's mailbox — or, when it is addressed to self, back
// to the caller (true) — aborts into the local abort protocol, snapshot
// requests back out as responses. A frame that ends the link's reading
// (an abort, a frame that fails the world) sets l.rdone.
func (t *tcpTransport) dispatch(l *peerLink, h frameHeader, payload []byte, self int) (message, bool) {
	switch h.kind {
	case frameData:
		// Delivered still encoded: the receiving rank decodes straight
		// into its caller's buffer — one copy fewer than decoding here.
		m := message{src: int(h.src), tag: int(h.tag), bytes: frameHeaderLen + len(payload),
			lane: laneWire, raw: payload}
		if derr := checkDataPayload(h.codec, payload); derr != nil {
			t.w.Abort(&RankError{Rank: int(h.src), Cause: derr, Stack: debug.Stack()})
			l.rdone = true
			break
		}
		dst := int(h.dst)
		if dst < 0 || dst >= t.w.Size || t.w.inbox[dst] == nil {
			t.w.Abort(&RankError{Rank: int(h.src), Cause: &FrameError{
				"bad-dst", fmt.Sprintf("frame addressed to rank %d, not hosted here", dst)},
				Stack: debug.Stack()})
			l.rdone = true
			break
		}
		if dst == self {
			return m, true
		}
		if _, derr := t.w.deliverLocal(dst, m); derr != nil {
			if derr != errAborted {
				t.w.Abort(&RankError{Rank: dst, Cause: derr, Stack: debug.Stack()})
			}
			l.rdone = true
		}
	case frameAbort:
		text, stack := decodeAbortPayload(payload)
		t.w.abortLocal(&RankError{
			Rank:  int(h.src),
			Cause: RemoteAbort{Rank: int(h.src), Text: text, Stack: stack},
			Stack: []byte(stack),
		})
		t.expireLinks()
		l.rdone = true
	case frameSnapReq:
		if len(payload) < 4 {
			break
		}
		states := make([]CommState, 0, len(t.w.local))
		for _, r := range t.w.local {
			states = append(states, t.w.localCommState(r))
		}
		resp := encodeFrame(frameHeader{
			kind: frameSnapResp, world: t.worldID,
			src: int32(t.selfProc), dst: int32(l.proc),
		}, encodeSnapPayload(binary.LittleEndian.Uint32(payload), states))
		t.tryControl(l, resp) // dropped while a rank writes; the requester times out
	case frameSnapResp:
		if len(payload) < 4 {
			break
		}
		seq := binary.LittleEndian.Uint32(payload)
		states, derr := decodeSnapPayload(payload)
		if derr != nil {
			break
		}
		t.snapMu.Lock()
		ch := t.snapWait[seq]
		t.snapMu.Unlock()
		if ch != nil {
			select {
			case ch <- states:
			default:
			}
		}
	case frameBye:
		l.peerBye.Store(true)
	default:
		// Rendezvous kinds after launch: protocol violation.
		t.w.Abort(&RankError{Rank: int(h.src), Cause: &FrameError{
			"bad-kind", fmt.Sprintf("rendezvous frame kind %d on a live world link", h.kind)},
			Stack: debug.Stack()})
		l.rdone = true
	}
	return message{}, false
}

// peerFinished handles a clean departure (bye frame, then EOF): the
// peer finalized deliberately, which is harmless at shutdown. But a
// local rank parked on one of its ranks — now, or at any later point
// while this transport lives — has desynchronized the SPMD program: that
// message will never come, so only an abort can unblock the rank. The
// finished link is therefore watched until the transport closes or the
// world aborts, and a park on it that outlasts a short grace period (a
// wakeup already delivered by the final data frames may still be
// landing) aborts the world. Only code after a bye runs here; the data
// path is untouched.
func (t *tcpTransport) peerFinished(l *peerLink) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var since time.Time // when the current park on l was first seen
	for {
		if t.w.Aborted() != nil {
			return
		}
		rank, peer, op := t.parkedOn(l)
		switch {
		case rank < 0:
			since = time.Time{}
		case since.IsZero():
			since = time.Now()
		case time.Since(since) > byeGraceTimeout:
			t.w.Abort(&RankError{
				Rank: peer,
				Cause: fmt.Errorf("mpi: link to proc %d (ranks %v) lost: peer finalized while rank %d was parked in %s on rank %d",
					l.proc, l.ranks, rank, op, peer),
				Stack: debug.Stack(),
			})
			return
		}
		select {
		case <-t.closed:
			return
		case <-tick.C:
		}
	}
}

// parkedOn returns the first local rank parked on one of the link's
// ranks (with the peer and primitive), or -1.
func (t *tcpTransport) parkedOn(l *peerLink) (rank, peer int, op string) {
	for _, r := range t.w.local {
		cs := t.w.localCommState(r)
		if cs.Parked == nil {
			continue
		}
		for _, pr := range l.ranks {
			if cs.Parked.Peer == pr {
				return r, pr, cs.Parked.Op
			}
		}
	}
	return -1, -1, ""
}

// linkLost handles a connection failure: quiet if the world is already
// dead or the transport is closing, otherwise it is a rank failure (the
// peer process died without an abort frame — the TCP analogue of a
// kill -9).
func (t *tcpTransport) linkLost(l *peerLink, err error) {
	select {
	case <-t.closed:
		return
	default:
	}
	if t.w.Aborted() != nil {
		return
	}
	rank := -1
	if len(l.ranks) > 0 {
		rank = l.ranks[0]
	}
	t.w.Abort(&RankError{
		Rank:  rank,
		Cause: fmt.Errorf("mpi: link to proc %d (ranks %v) lost: %w", l.proc, l.ranks, err),
		Stack: debug.Stack(),
	})
}

// ---------------------------------------------------------------------
// Control-plane payload encodings.

func encodeAbortPayload(text, stack string) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(text)))
	buf = append(buf, text...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(stack)))
	return append(buf, stack...)
}

func decodeAbortPayload(buf []byte) (text, stack string) {
	var ok bool
	if text, buf, ok = readString(buf); !ok {
		return "(malformed abort frame)", ""
	}
	if stack, _, ok = readString(buf); !ok {
		return text, ""
	}
	return text, stack
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, bool) {
	if len(buf) < 4 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if n < 0 || len(buf) < n {
		return "", nil, false
	}
	return string(buf[:n]), buf[n:], true
}

// encodeSnapPayload renders seq + comm states for a snapResp frame.
func encodeSnapPayload(seq uint32, states []CommState) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(states)))
	for _, s := range states {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Rank))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Inbox))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.InboxCap))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Unmatched))
		if s.Parked == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = appendString(buf, s.Parked.Op)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Parked.Peer))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Parked.Tag))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Parked.Since.UnixNano()))
	}
	return buf
}

func decodeSnapPayload(buf []byte) ([]CommState, error) {
	malformed := fmt.Errorf("mpi: malformed snapshot payload")
	if len(buf) < 8 {
		return nil, malformed
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[8:]
	if n < 0 || n > 1<<16 {
		return nil, malformed
	}
	out := make([]CommState, 0, min(n, len(buf)/17)) // an entry is >= 17 bytes
	for i := 0; i < n; i++ {
		if len(buf) < 17 {
			return nil, malformed
		}
		s := CommState{
			Rank:      int(int32(binary.LittleEndian.Uint32(buf))),
			Inbox:     int(int32(binary.LittleEndian.Uint32(buf[4:]))),
			InboxCap:  int(int32(binary.LittleEndian.Uint32(buf[8:]))),
			Unmatched: int(int32(binary.LittleEndian.Uint32(buf[12:]))),
		}
		parked := buf[16]
		buf = buf[17:]
		if parked != 0 {
			var op string
			var ok bool
			if op, buf, ok = readString(buf); !ok || len(buf) < 20 {
				return nil, malformed
			}
			s.Parked = &Park{
				Op:    op,
				Peer:  int(int32(binary.LittleEndian.Uint32(buf))),
				Tag:   int(int64(binary.LittleEndian.Uint64(buf[4:]))),
				Since: time.Unix(0, int64(binary.LittleEndian.Uint64(buf[12:]))),
			}
			buf = buf[20:]
		}
		out = append(out, s)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Rendezvous.

// procInfo is one process' entry in the rendezvous peer table.
type procInfo struct {
	proc  int
	addr  string // mesh listener address ("" for the coordinator)
	ranks []int
}

func encodeHelloPayload(ranks []int, addr string) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(ranks)))
	for _, r := range ranks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	return appendString(buf, addr)
}

func decodeHelloPayload(buf []byte) (ranks []int, addr string, err error) {
	malformed := fmt.Errorf("mpi: malformed hello payload")
	if len(buf) < 4 {
		return nil, "", malformed
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if n < 1 || n > 1<<16 || len(buf) < 4*n {
		return nil, "", malformed
	}
	ranks = make([]int, n)
	for i := range ranks {
		ranks[i] = int(int32(binary.LittleEndian.Uint32(buf[4*i:])))
	}
	var ok bool
	if addr, _, ok = readString(buf[4*n:]); !ok {
		return nil, "", malformed
	}
	return ranks, addr, nil
}

func encodePeersPayload(size, selfProc int, table []procInfo) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(size))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(selfProc))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(table)))
	for _, p := range table {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.proc))
		buf = appendString(buf, p.addr)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.ranks)))
		for _, r := range p.ranks {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
		}
	}
	return buf
}

func decodePeersPayload(buf []byte) (size, selfProc int, table []procInfo, err error) {
	malformed := fmt.Errorf("mpi: malformed peers payload")
	if len(buf) < 12 {
		return 0, 0, nil, malformed
	}
	size = int(binary.LittleEndian.Uint32(buf))
	selfProc = int(binary.LittleEndian.Uint32(buf[4:]))
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	buf = buf[12:]
	if n < 1 || n > 1<<16 {
		return 0, 0, nil, malformed
	}
	table = make([]procInfo, 0, min(n, len(buf)/12)) // an entry is >= 12 bytes
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return 0, 0, nil, malformed
		}
		p := procInfo{proc: int(int32(binary.LittleEndian.Uint32(buf)))}
		var ok bool
		if p.addr, buf, ok = readString(buf[4:]); !ok || len(buf) < 4 {
			return 0, 0, nil, malformed
		}
		nr := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if nr < 1 || nr > 1<<16 || len(buf) < 4*nr {
			return 0, 0, nil, malformed
		}
		p.ranks = make([]int, nr)
		for j := range p.ranks {
			p.ranks[j] = int(int32(binary.LittleEndian.Uint32(buf[4*j:])))
		}
		buf = buf[4*nr:]
		table = append(table, p)
	}
	return size, selfProc, table, nil
}

// writeDeadlineFrame writes one frame under the rendezvous deadline.
func writeDeadlineFrame(conn net.Conn, frame []byte, timeout time.Duration) error {
	conn.SetWriteDeadline(time.Now().Add(timeout))
	defer conn.SetWriteDeadline(time.Time{})
	_, err := conn.Write(frame)
	return err
}

// readDeadlineFrame reads one frame under the rendezvous deadline.
func readDeadlineFrame(conn net.Conn, br linkReader, expectWorld uint64, timeout time.Duration) (frameHeader, []byte, error) {
	conn.SetReadDeadline(time.Now().Add(timeout))
	defer conn.SetReadDeadline(time.Time{})
	return readFrame(br, expectWorld)
}

// TCPCoordinator is the rendezvous point of a process-spanning world:
// it owns the listen socket joiners dial. Create with ListenTCP, then
// Host to collect the world.
type TCPCoordinator struct {
	ln   net.Listener
	size int
}

// ListenTCP opens the rendezvous listener for a world of size ranks.
// addr is a host:port ("127.0.0.1:0" picks a free loopback port —
// publish Addr() to the joiners).
func ListenTCP(addr string, size int) (*TCPCoordinator, error) {
	if size < 2 {
		return nil, fmt.Errorf("mpi: a TCP world needs >= 2 ranks, got %d", size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: rendezvous listen %s: %w", addr, err)
	}
	return &TCPCoordinator{ln: ln, size: size}, nil
}

// Addr returns the listener's concrete address (joiners dial this).
func (co *TCPCoordinator) Addr() string { return co.ln.Addr().String() }

// Close releases the listener early (Host closes it on return).
func (co *TCPCoordinator) Close() error { return co.ln.Close() }

// joinerConn is one accepted rendezvous connection.
type joinerConn struct {
	conn  net.Conn
	br    linkReader
	ranks []int
	addr  string
}

// Host runs the coordinator side of the rendezvous: accept joiners
// until every rank of the world is covered, broadcast the peer table,
// wait for the mesh to wire, release the world, and return this
// process' World hosting localRanks (conventionally including rank 0).
// The listener is closed on return, success or failure.
func (co *TCPCoordinator) Host(localRanks []int, opts WorldOptions) (*World, error) {
	defer co.ln.Close()
	covered := make([]bool, co.size)
	claim := func(ranks []int, who string) error {
		for _, r := range ranks {
			if r < 0 || r >= co.size {
				return fmt.Errorf("mpi: rendezvous: %s claims rank %d outside world of %d", who, r, co.size)
			}
			if covered[r] {
				return fmt.Errorf("mpi: rendezvous: rank %d claimed twice (by %s)", r, who)
			}
			covered[r] = true
		}
		return nil
	}
	if len(localRanks) == 0 {
		return nil, fmt.Errorf("mpi: coordinator must host at least one rank")
	}
	if err := claim(localRanks, "coordinator"); err != nil {
		return nil, err
	}
	remaining := co.size - len(localRanks)

	var joiners []*joinerConn
	fail := func(err error) (*World, error) {
		for _, j := range joiners {
			j.conn.Close()
		}
		return nil, err
	}
	rv := opts.rendezvous()
	deadline := time.Now().Add(rv)
	for remaining > 0 {
		if dl, ok := co.ln.(*net.TCPListener); ok {
			dl.SetDeadline(deadline)
		}
		conn, err := co.ln.Accept()
		if err != nil {
			return fail(&RendezvousError{Phase: "accept",
				Err: fmt.Errorf("%d ranks never joined: %w", remaining, err)})
		}
		br := newLinkReader(conn)
		h, payload, err := readDeadlineFrame(conn, br, 0, rv)
		if err != nil || h.kind != frameHello {
			conn.Close() // stray dialer; keep waiting for real joiners
			continue
		}
		ranks, addr, err := decodeHelloPayload(payload)
		if err != nil {
			conn.Close()
			continue
		}
		if err := claim(ranks, fmt.Sprintf("joiner %s", conn.RemoteAddr())); err != nil {
			conn.Close()
			return fail(&RendezvousError{Phase: "accept", Err: err})
		}
		joiners = append(joiners, &joinerConn{conn: conn, br: br, ranks: ranks, addr: addr})
		remaining -= len(ranks)
	}

	// Deterministic proc indices: coordinator 0, joiners by lowest rank.
	sort.Slice(joiners, func(i, j int) bool { return joiners[i].ranks[0] < joiners[j].ranks[0] })
	var idBytes [8]byte
	if _, err := rand.Read(idBytes[:]); err != nil {
		return fail(&RendezvousError{Phase: "world-id", Err: err})
	}
	worldID := binary.LittleEndian.Uint64(idBytes[:]) | 1 // never the 0 wildcard

	table := make([]procInfo, 0, len(joiners)+1)
	table = append(table, procInfo{proc: 0, addr: "", ranks: localRanks})
	for i, j := range joiners {
		table = append(table, procInfo{proc: i + 1, addr: j.addr, ranks: j.ranks})
	}
	for i, j := range joiners {
		frame := encodeFrame(frameHeader{kind: framePeers, world: worldID},
			encodePeersPayload(co.size, i+1, table))
		if err := writeDeadlineFrame(j.conn, frame, rv); err != nil {
			return fail(&RendezvousError{Phase: "peers",
				Err: fmt.Errorf("peers to proc %d: %w", i+1, err)})
		}
	}
	for i, j := range joiners {
		h, _, err := readDeadlineFrame(j.conn, j.br, worldID, rv)
		if err != nil || h.kind != frameReady {
			// The classic mid-handshake death: a joiner that said hello and
			// then died (EOF) or wedged (deadline) before confirming its mesh.
			if err == nil {
				err = fmt.Errorf("frame kind %d instead of ready", h.kind)
			}
			return fail(&RendezvousError{Phase: "ready",
				Err: fmt.Errorf("proc %d never became ready: %w", i+1, err)})
		}
	}
	goFrame := encodeFrame(frameHeader{kind: frameGo, world: worldID}, nil)
	for i, j := range joiners {
		if err := writeDeadlineFrame(j.conn, goFrame, rv); err != nil {
			return fail(&RendezvousError{Phase: "go",
				Err: fmt.Errorf("go to proc %d: %w", i+1, err)})
		}
	}

	links := make([]*peerLink, len(table))
	for i, j := range joiners {
		links[i+1] = newPeerLink(i+1, j.ranks, j.conn, j.br)
	}
	return launchWorld(co.size, localRanks, opts, worldID, 0, table, links), nil
}

// JoinTCP dials a coordinator at addr (retrying until it listens, up to
// the rendezvous timeout), announces the ranks this process hosts,
// wires the peer mesh, and returns this process' World once the
// coordinator releases it.
func JoinTCP(addr string, localRanks []int, opts WorldOptions) (*World, error) {
	if len(localRanks) == 0 {
		return nil, fmt.Errorf("mpi: joiner must host at least one rank")
	}
	rv := opts.rendezvous()
	conn, err := dialRetry(addr, rv)
	if err != nil {
		return nil, &RendezvousError{Phase: "dial", Err: err}
	}
	br := newLinkReader(conn)
	fail := func(err error) (*World, error) {
		conn.Close()
		return nil, err
	}

	// Mesh listener on the same interface the coordinator link uses.
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		return fail(fmt.Errorf("mpi: rendezvous: local addr: %w", err))
	}
	meshLn, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fail(fmt.Errorf("mpi: rendezvous: mesh listen: %w", err))
	}
	defer meshLn.Close()

	hello := encodeFrame(frameHeader{kind: frameHello},
		encodeHelloPayload(localRanks, meshLn.Addr().String()))
	if err := writeDeadlineFrame(conn, hello, rv); err != nil {
		return fail(&RendezvousError{Phase: "peers", Err: fmt.Errorf("hello: %w", err)})
	}
	h, payload, err := readDeadlineFrame(conn, br, 0, rv)
	if err != nil {
		// Coordinator died or timed out between our hello and the peer
		// table — the joiner-side mirror of the coordinator's "ready" phase.
		return fail(&RendezvousError{Phase: "peers", Err: fmt.Errorf("awaiting peers: %w", err)})
	}
	if h.kind != framePeers {
		return fail(&RendezvousError{Phase: "peers",
			Err: fmt.Errorf("unexpected frame kind %d awaiting peers", h.kind)})
	}
	worldID := h.world
	size, selfProc, table, err := decodePeersPayload(payload)
	if err != nil {
		return fail(err)
	}

	// Wire the joiner mesh: accept from higher proc indices, dial lower.
	links := make([]*peerLink, len(table))
	higher := len(table) - 1 - selfProc
	acceptErr := make(chan error, 1)
	accepted := make(chan *peerLink, higher)
	go func() {
		for i := 0; i < higher; i++ {
			if dl, ok := meshLn.(*net.TCPListener); ok {
				dl.SetDeadline(time.Now().Add(rv))
			}
			mc, err := meshLn.Accept()
			if err != nil {
				acceptErr <- &RendezvousError{Phase: "mesh", Err: fmt.Errorf("mesh accept: %w", err)}
				return
			}
			mbr := newLinkReader(mc)
			mh, mpl, err := readDeadlineFrame(mc, mbr, worldID, rv)
			if err != nil || mh.kind != frameMeshHello || len(mpl) < 4 {
				mc.Close()
				acceptErr <- &RendezvousError{Phase: "mesh", Err: fmt.Errorf("bad mesh hello: %v", err)}
				return
			}
			p := int(binary.LittleEndian.Uint32(mpl))
			if p <= selfProc || p >= len(table) {
				mc.Close()
				acceptErr <- &RendezvousError{Phase: "mesh", Err: fmt.Errorf("mesh hello from unexpected proc %d", p)}
				return
			}
			accepted <- newPeerLink(p, table[p].ranks, mc, mbr)
		}
		acceptErr <- nil
	}()
	for p := 1; p < selfProc; p++ {
		mc, err := dialRetry(table[p].addr, rv)
		if err != nil {
			return fail(&RendezvousError{Phase: "mesh", Err: fmt.Errorf("mesh dial proc %d: %w", p, err)})
		}
		mhello := encodeFrame(frameHeader{kind: frameMeshHello, world: worldID},
			binary.LittleEndian.AppendUint32(nil, uint32(selfProc)))
		if err := writeDeadlineFrame(mc, mhello, rv); err != nil {
			mc.Close()
			return fail(&RendezvousError{Phase: "mesh", Err: fmt.Errorf("mesh hello to proc %d: %w", p, err)})
		}
		links[p] = newPeerLink(p, table[p].ranks, mc, newLinkReader(mc))
	}
	if err := <-acceptErr; err != nil {
		return fail(err)
	}
	close(accepted)
	for l := range accepted {
		links[l.proc] = l
	}

	ready := encodeFrame(frameHeader{kind: frameReady, world: worldID}, nil)
	if err := writeDeadlineFrame(conn, ready, rv); err != nil {
		return fail(&RendezvousError{Phase: "ready", Err: err})
	}
	h, _, err = readDeadlineFrame(conn, br, worldID, rv)
	if err != nil || h.kind != frameGo {
		if err == nil {
			err = fmt.Errorf("frame kind %d instead of go", h.kind)
		}
		return fail(&RendezvousError{Phase: "go", Err: fmt.Errorf("awaiting go: %w", err)})
	}
	links[0] = newPeerLink(0, table[0].ranks, conn, br)
	return launchWorld(size, localRanks, opts, worldID, selfProc, table, links), nil
}

// newPeerLink wraps one wired connection as an ordered link.
func newPeerLink(proc int, ranks []int, conn net.Conn, br linkReader) *peerLink {
	return &peerLink{proc: proc, ranks: ranks, conn: conn, br: br.Reader, sock: br.sock,
		hdr: make([]byte, frameHeaderLen)}
}

// launchWorld assembles the World + transport and starts the links'
// readers.
func launchWorld(size int, localRanks []int, opts WorldOptions, worldID uint64, selfProc int, table []procInfo, links []*peerLink) *World {
	t := newTCPTransport(size, localRanks, opts, worldID, selfProc, table, links)
	t.start()
	return t.w
}

// newTCPTransport assembles the World + transport, its links' readers
// not yet started.
func newTCPTransport(size int, localRanks []int, opts WorldOptions, worldID uint64, selfProc int, table []procInfo, links []*peerLink) *tcpTransport {
	w := newWorld(size, localRanks, opts)
	rankProc := make([]int, size)
	for _, p := range table {
		for _, r := range p.ranks {
			rankProc[r] = p.proc
		}
	}
	t := &tcpTransport{
		w: w, worldID: worldID, selfProc: selfProc,
		rankProc: rankProc, links: links,
		closed: make(chan struct{}),
	}
	w.tr = t
	w.pumps = make([]*peerLink, size)
	for r, p := range rankProc {
		if l := links[p]; l != nil && l.sock != nil {
			l.t = t
			w.pumps[r] = l
		}
	}
	return t
}

// dialRetry dials addr until it answers or the budget lapses (the
// coordinator may not be listening yet when a joiner launches).
// Backoff between attempts doubles from 10ms up to a 250ms cap with
// full jitter, so a herd of joiners restarted together (a supervised
// recovery re-running the rendezvous on every process at once) does
// not hammer the coordinator in lockstep the way the old fixed 50ms
// spin did. Trajectory bits never depend on rendezvous timing, so the
// mathrand draws here are free.
func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := 10 * time.Millisecond
	const backoffCap = 250 * time.Millisecond
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("dial %s: %w", addr, lastErr)
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		sleep := time.Duration(mathrand.Int63n(int64(backoff) + 1))
		if sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
		if backoff < backoffCap {
			backoff *= 2
		}
	}
}
