//go:build unix

package mpi

import (
	"io"
	"net"
	"os"
	"syscall"
)

// sock reads a link's socket descriptor directly, so that a rank waiting
// on the link can read it without waking the link's reader goroutine.
// The reader goroutine waits for readability in await, which holds Go's
// read lock on the descriptor for as long as it waits; every read and
// probe below therefore goes through RawConn.Control, which only keeps
// the descriptor open, and reads it non-blocking (Go set it so).
//
// Read and readable belong to whoever holds the link's read token;
// await belongs to the reader goroutine. Each keeps its own state, and
// the callbacks are built once, so reading allocates nothing.
type sock struct {
	rc syscall.RawConn

	p       []byte // Read's buffer while it runs
	n       int
	err     error
	readFn  func(fd uintptr) bool
	ctlRead func(fd uintptr)

	ready  bool
	probe  [1]byte
	peekFn func(fd uintptr)

	awaitProbe [1]byte
	awaitFn    func(fd uintptr) bool
}

// newSock returns conn's descriptor reader, or nil when conn has no
// socket descriptor (a net.Pipe).
func newSock(conn net.Conn) *sock {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	s := &sock{rc: rc}
	s.readFn = s.read
	s.ctlRead = func(fd uintptr) { s.read(fd) }
	s.peekFn = func(fd uintptr) { s.ready = peek(fd, s.probe[:]) }
	s.awaitFn = func(fd uintptr) bool { return peek(fd, s.awaitProbe[:]) }
	return s
}

// Read implements io.Reader for the link's buffered reader. It reads
// what has arrived; when nothing has, the caller is inside a frame, so
// it waits for the rest through Go's network poller.
func (s *sock) Read(p []byte) (int, error) {
	s.p = p
	if err := s.rc.Control(s.ctlRead); err != nil {
		return 0, err
	}
	if s.err == syscall.EAGAIN {
		if err := s.rc.Read(s.readFn); err != nil {
			return 0, err
		}
	}
	switch {
	case s.err != nil:
		return 0, os.NewSyscallError("read", s.err)
	case s.n == 0:
		return 0, io.EOF
	}
	return s.n, nil
}

// read makes one non-blocking read into s.p; false when nothing arrived.
func (s *sock) read(fd uintptr) bool {
	for {
		s.n, s.err = syscall.Read(int(fd), s.p)
		if s.err != syscall.EINTR {
			return s.err != syscall.EAGAIN
		}
	}
}

// readable reports, without blocking or consuming a byte, whether a read
// would find something: bytes, the end of the stream, or an error for
// the read to report.
func (s *sock) readable() bool {
	if err := s.rc.Control(s.peekFn); err != nil {
		return true // closed: the read reports it
	}
	return s.ready
}

// await blocks until readable would report true, consuming nothing.
func (s *sock) await() error { return s.rc.Read(s.awaitFn) }

// peek is the readability probe: a one-byte MSG_PEEK receive.
func peek(fd uintptr, b []byte) bool {
	for {
		_, _, err := syscall.Recvfrom(int(fd), b, syscall.MSG_PEEK)
		if err != syscall.EINTR {
			return err != syscall.EAGAIN
		}
	}
}
