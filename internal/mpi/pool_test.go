package mpi

// Internal tests of the typed lane's buffer plumbing: the pools' size
// cap and retention bounds, which frames a live link reads into pooled
// memory, and the receiver-side check that replaces decodePayload's for
// float64 frames that now travel still encoded.

import (
	"errors"
	"sync"
	"testing"
)

// sameArray reports whether two slices share a backing array.
func sameArray[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

func TestPoolReusesWithinAClass(t *testing.T) {
	var p = slab[byte]{elem: 1}
	a := p.get(1000) // class 2^10
	if len(a) != 1000 || cap(a) != 1024 {
		t.Fatalf("get(1000): len %d cap %d, want 1000/1024", len(a), cap(a))
	}
	p.put(a)
	if b := p.get(600); !sameArray(a, b) || len(b) != 600 {
		t.Fatalf("get(600) after put of a 1024-cap buffer: reused=%v len=%d", sameArray(a, b), len(b))
	}
	p.put(a)
	if b := p.get(1025); sameArray(a, b) {
		t.Fatal("get(1025) was handed a 1024-cap buffer")
	}
	// A foreign buffer (not from get: odd capacity) files under the class
	// it can fully serve.
	foreign := make([]byte, 3000) // 2048 <= cap < 4096
	p.put(foreign)
	if b := p.get(2048); !sameArray(foreign, b) {
		t.Fatal("a 3000-cap foreign buffer was not reused for get(2048)")
	}
	p.put(foreign)
	if b := p.get(3000); sameArray(foreign, b) {
		t.Fatal("get(3000) must come from the 4096 class, not a 3000-cap buffer")
	}
	if p.get(0) != nil {
		t.Fatal("get(0) should not spend a buffer")
	}
}

// TestPoolDropsOversizedBuffers: a buffer above maxPooledBytes is a
// plain allocation on the way out and is not retained on the way back —
// a maxFramePayload frame is 256 MiB.
func TestPoolDropsOversizedBuffers(t *testing.T) {
	var bp = slab[byte]{elem: 1}
	big := bp.get(maxPooledBytes + 1)
	if cap(big) != maxPooledBytes+1 {
		t.Fatalf("oversized get rounded up to cap %d", cap(big))
	}
	bp.put(big)
	for k := range bp.free {
		if len(bp.free[k]) != 0 {
			t.Fatalf("oversized buffer retained in class %d", k)
		}
	}
	edge := bp.get(maxPooledBytes)
	bp.put(edge)
	if again := bp.get(maxPooledBytes); !sameArray(edge, again) {
		t.Fatal("a buffer of exactly maxPooledBytes should be pooled")
	}
	// The cap is in bytes, whatever the element type.
	var fp = slab[float64]{elem: 8}
	fbig := fp.get(maxPooledBytes/8 + 1)
	fp.put(fbig)
	if again := fp.get(maxPooledBytes/8 + 1); sameArray(fbig, again) {
		t.Fatal("a float64 buffer above maxPooledBytes was retained")
	}
}

// TestPoolRetentionIsBounded: a burst leaves behind at most
// classKeepBufs small buffers, or classKeepBytes of large ones, per
// class.
func TestPoolRetentionIsBounded(t *testing.T) {
	var p = slab[byte]{elem: 1}
	for i := 0; i < 3*classKeepBufs; i++ {
		p.put(make([]byte, 64))
	}
	if got := len(p.free[6]); got != classKeepBufs {
		t.Fatalf("64-byte class retains %d buffers, want %d", got, classKeepBufs)
	}
	for i := 0; i < 8; i++ {
		p.put(make([]byte, 1<<21))
	}
	if got := len(p.free[21]) << 21; got != classKeepBytes {
		t.Fatalf("2 MiB class retains %d bytes, want %d", got, classKeepBytes)
	}
}

// TestPoolSteadyStateAllocs: get/put cycles allocate nothing once a
// class's stack has grown (a sync.Pool of slices would box a header per
// Put).
func TestPoolSteadyStateAllocs(t *testing.T) {
	var p = slab[float64]{elem: 8}
	held := make([][]float64, 8)
	cycle := func() {
		for i := range held {
			held[i] = p.get(2560)
		}
		for i := range held {
			p.put(held[i])
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("%v allocations per get/put cycle", a)
	}
}

func TestPoolConcurrentOwnership(t *testing.T) {
	var p = slab[float64]{elem: 8}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := p.get(100 + g)
				for j := range b {
					b[j] = float64(g)
				}
				for j := range b { // nobody else may hold b between get and put
					if b[j] != float64(g) {
						t.Errorf("goroutine %d: buffer shared while owned", g)
						return
					}
				}
				p.put(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestLinkPayloadPoolsOnlyFloat64Data: registry codecs and control-plane
// decoders may keep what they parse, so only float64 data payloads — the
// ones the runtime itself decodes and returns — are read into pooled
// memory.
func TestLinkPayloadPoolsOnlyFloat64Data(t *testing.T) {
	marker := bytePool.get(4096)
	bytePool.put(marker)
	got := linkPayload(frameHeader{kind: frameData, codec: codecFloat64, paylen: 4000})
	if !sameArray(marker, got) || len(got) != 4000 {
		t.Fatal("a float64 data payload should be read into the pooled buffer")
	}
	bytePool.put(got)
	for _, h := range []frameHeader{
		{kind: frameData, codec: CodecUserBase, paylen: 4000},
		{kind: frameAbort, codec: codecFloat64, paylen: 4000},
		{kind: frameSnapResp, paylen: 4000},
	} {
		if b := linkPayload(h); sameArray(marker, b) || len(b) != 4000 {
			t.Fatalf("kind %d codec %d was handed pooled memory", h.kind, h.codec)
		}
	}
	bytePool.get(4096) // take the marker back out: leave the shared pool as found
}

// TestEncodeFloat64FrameMatchesEncodeFrame: the one-pass pooled encoder
// writes the same bytes as encodePayload + encodeFrame (frame v1 is
// unchanged), also into a dirty recycled buffer.
func TestEncodeFloat64FrameMatchesEncodeFrame(t *testing.T) {
	h := frameHeader{kind: frameData, world: 0xabc, src: 3, dst: 1, tag: 305}
	for _, n := range []int{0, 1, 7, 2560} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i) * -1.25
		}
		id, payload, err := encodePayload(v)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeFrame(frameHeader{kind: h.kind, codec: id, world: h.world, src: h.src, dst: h.dst, tag: h.tag}, payload)
		for pass := 0; pass < 2; pass++ {
			got := encodeFloat64Frame(h, v)
			if string(got) != string(want) {
				t.Fatalf("%d floats, pass %d: pooled frame differs from encodeFrame", n, pass)
			}
			data := encodeDataFrame(frameHeader{kind: h.kind, codec: id, world: h.world, src: h.src, dst: h.dst, tag: h.tag}, payload)
			if string(data) != string(want) {
				t.Fatalf("%d floats, pass %d: encodeDataFrame differs from encodeFrame", n, pass)
			}
			for i := range got {
				got[i] = 0xa5 // hand the next pass a dirty buffer
			}
			bytePool.put(got)
			bytePool.put(data)
		}
	}
}

// TestTCPMisalignedFloat64FrameIsTyped: float64 data frames are no
// longer decoded by the reader, but a CRC-valid frame whose payload is
// not a whole number of floats must still fail the world with the typed
// bad-payload *FrameError decodePayload used to raise — not reach a rank
// that would decode len/8 floats and drop the rest.
func TestTCPMisalignedFloat64FrameIsTyped(t *testing.T) {
	co, err := ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	var w1 *World
	var jerr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w1, jerr = JoinTCP(co.Addr(), []int{1}, WorldOptions{})
	}()
	w0, herr := co.Host([]int{0}, WorldOptions{})
	wg.Wait()
	if herr != nil || jerr != nil {
		t.Fatalf("rendezvous: host=%v join=%v", herr, jerr)
	}
	defer w0.Close()
	defer w1.Close()

	t0 := w0.tr.(*tcpTransport)
	if _, err := t0.links[1].conn.Write(encodeFrame(frameHeader{
		kind: frameData, codec: codecFloat64, world: t0.worldID, src: 0, dst: 1, tag: 5,
	}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})); err != nil {
		t.Fatal(err)
	}
	err = w1.Parallel(func(c *Comm) {
		c.SendrecvFloat64(-1, nil, 0, 5, nil)
	})
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Reason != "bad-payload" {
		t.Fatalf("misaligned float64 frame: %v, want a bad-payload *FrameError", err)
	}
}
