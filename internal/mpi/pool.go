// Buffer pools behind every send: the in-process transit copies, the
// outbound wire frames and the inbound frame payloads are taken from
// here and returned by the runtime itself — by the receiving rank, the
// sending rank once its frame is on the socket, the receiving rank
// again — so steady-state halo traffic allocates nothing. Nothing taken
// from a pool is ever handed to a caller: Comm copies or decodes into
// caller-owned memory first, which is why there is no release call to
// forget.
package mpi

import (
	"math/bits"
	"sync"
)

const (
	// maxPooledBytes is the largest buffer a pool retains. Anything
	// bigger (a maxFramePayload frame is 256 MiB) is a plain allocation on
	// get and dropped on put, so one huge message cannot pin its memory
	// for the life of the process.
	maxPooledBytes = 4 << 20
	// classKeepBytes and classKeepBufs bound what one size class retains:
	// many small buffers or a few large ones, ~32 MiB across all classes
	// at the very worst.
	classKeepBytes = 4 << 20
	classKeepBufs  = 64
	// minClass is the smallest size class, 2^minClass elements.
	minClass = 6
)

// slab is a free list of []T in power-of-two capacity classes. A plain
// mutex-guarded stack rather than a sync.Pool: storing a slice in a
// sync.Pool boxes its header (one allocation per Put, exactly what the
// pool exists to avoid), and sync.Pool drops entries at random under the
// race detector, which would make the zero-allocation tests flaky.
type slab[T any] struct {
	elem int // bytes per element
	mu   sync.Mutex
	free [32][][]T // index k: buffers with 2^k <= cap < 2^(k+1)
}

var (
	floatPool = slab[float64]{elem: 8}
	bytePool  = slab[byte]{elem: 1}
)

// get returns a buffer of length n with unspecified contents.
func (p *slab[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	k := max(minClass, bits.Len(uint(n-1)))
	if p.elem<<k > maxPooledBytes {
		return make([]T, n)
	}
	p.mu.Lock()
	if l := len(p.free[k]); l > 0 {
		b := p.free[k][l-1]
		p.free[k] = p.free[k][:l-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]T, n, 1<<k)
}

// put returns a buffer the runtime is done with. Buffers that did not
// come from get are welcome; too-small and too-large ones are dropped.
func (p *slab[T]) put(b []T) {
	c := cap(b)
	if c < 1<<minClass || c*p.elem > maxPooledBytes {
		return
	}
	k := bits.Len(uint(c)) - 1
	keep := min(classKeepBufs, max(1, classKeepBytes/(p.elem<<k)))
	p.mu.Lock()
	if len(p.free[k]) < keep {
		p.free[k] = append(p.free[k], b[:0])
	}
	p.mu.Unlock()
}
