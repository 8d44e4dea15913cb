//go:build !unix

package mpi

import "net"

// sock is the descriptor reader of sock_unix.go. Without the unix socket
// calls no link has one: every link is read through its connection,
// blocking, by its reader goroutine, and is never pumped.
type sock struct{}

func newSock(net.Conn) *sock           { return nil }
func (*sock) Read([]byte) (int, error) { panic("mpi: no socket reader on this platform") }
func (*sock) readable() bool           { return true }
func (*sock) await() error             { return nil }
