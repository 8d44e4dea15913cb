// Wire framing for the TCP transport. Every transfer between processes
// — data messages, abort propagation, comm-state snapshots, and the
// rendezvous handshake — is one length-prefixed frame with a fixed
// 36-byte header and a CRC32 over the whole frame, so a truncated,
// corrupted, or misdirected stream surfaces a typed *FrameError on the
// RankError path instead of a hang or a silent wrong answer.
//
// Header layout (little-endian):
//
//	offset  size  field
//	     0     4  magic   "gomW"
//	     4     1  version (1)
//	     5     1  kind    (frameData, frameAbort, ...)
//	     6     2  codec   payload codec id (codec.go: codecFloat64 for data)
//	     8     8  world   world id (random, agreed at rendezvous)
//	    16     4  src     source rank (int32)
//	    20     4  dst     destination rank (int32)
//	    24     4  tag     message tag (int32)
//	    28     4  paylen  payload length in bytes (uint32)
//	    32     4  crc     CRC32-IEEE over header[0:32] + payload
//
// The world id is validated BEFORE the payload is read, and paylen is
// bounded by maxFramePayload, so a stray or hostile stream can neither
// cross-wire two jobs nor force an unbounded allocation.
package mpi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	frameMagic   = 0x576D6F67 // "gomW" little-endian
	frameVersion = 1
	// frameHeaderLen is the fixed header size; wire bytes for a data
	// message are frameHeaderLen + encoded payload length.
	frameHeaderLen = 36
	// maxFramePayload bounds a frame's payload so a corrupted or hostile
	// length prefix cannot drive an unbounded allocation (256 MiB is far
	// above any halo exchange or collective hop in the workloads).
	maxFramePayload = 1 << 28
)

// Frame kinds. Data moves messages; the rest are control plane.
const (
	frameData      = byte(iota + 1) // a point-to-point or collective-hop message
	frameAbort                      // world abort: payload = rank i32 + cause text + stack
	frameSnapReq                    // watchdog snapshot request: payload = seq u32
	frameSnapResp                   // snapshot response: payload = seq u32 + encoded CommStates
	frameHello                      // rendezvous: joiner -> coordinator (ranks + mesh addr)
	framePeers                      // rendezvous: coordinator -> joiner (world id + peer table)
	frameMeshHello                  // rendezvous: joiner -> joiner mesh identification
	frameReady                      // rendezvous: joiner -> coordinator after mesh wired
	frameGo                         // rendezvous: coordinator -> joiner, world complete
	frameBye                        // graceful finalize: sender is done and will close its socket
)

// frameHeader is the decoded fixed header.
type frameHeader struct {
	kind   byte
	codec  uint16
	world  uint64
	src    int32
	dst    int32
	tag    int32
	paylen uint32
}

// FrameError is the typed failure of wire frame decoding: corruption,
// truncation, version or world mismatch. It reaches callers through the
// standard RankError path (a rank that hits one panics; Parallel files
// it as the world's root cause).
type FrameError struct {
	// Reason is the machine-checkable category ("truncated-header",
	// "bad-magic", "bad-version", "oversized-payload",
	// "truncated-payload", "crc-mismatch", "world-mismatch",
	// "bad-kind", "unknown-codec", "bad-payload").
	Reason string
	Detail string
}

// Error implements error.
func (e *FrameError) Error() string {
	return fmt.Sprintf("mpi: wire frame rejected (%s): %s", e.Reason, e.Detail)
}

// encodeFrame renders one frame — header, a copy of payload, CRC — into
// a fresh buffer. Control frames are built here: one abort or bye frame
// is queued on every link, so it has several owners and must never come
// from (or go back to) the pool.
func encodeFrame(h frameHeader, payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	copy(buf[frameHeaderLen:], payload)
	return sealFrame(buf, h)
}

// encodeFloat64Frame renders a data frame straight from the floats in
// one pass — no intermediate payload slice — into a pooled buffer; the
// sending rank returns it once it is on the socket.
func encodeFloat64Frame(h frameHeader, v []float64) []byte {
	buf := bytePool.get(frameHeaderLen + 8*len(v))
	putFloat64s(buf[frameHeaderLen:], v)
	h.codec = codecFloat64
	return sealFrame(buf, h)
}

// sealFrame fills in the header of a frame whose payload is already in
// place at buf[frameHeaderLen:], CRC last.
func sealFrame(buf []byte, h frameHeader) []byte {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], frameMagic)
	buf[4] = frameVersion
	buf[5] = h.kind
	le.PutUint16(buf[6:], h.codec)
	le.PutUint64(buf[8:], h.world)
	le.PutUint32(buf[16:], uint32(h.src))
	le.PutUint32(buf[20:], uint32(h.dst))
	le.PutUint32(buf[24:], uint32(h.tag))
	le.PutUint32(buf[28:], uint32(len(buf)-frameHeaderLen))
	crc := crc32.ChecksumIEEE(buf[0:32])
	crc = crc32.Update(crc, crc32.IEEETable, buf[frameHeaderLen:])
	le.PutUint32(buf[32:], crc)
	return buf
}

// decodeHeader validates the fixed header bytes (length, magic, version,
// kind, payload bound) without touching the payload. expectWorld != 0
// additionally pins the world id — checked here, before any payload
// allocation, so a frame from the wrong job can never stage a large
// read.
func decodeHeader(hdr []byte, expectWorld uint64) (frameHeader, error) {
	if len(hdr) < frameHeaderLen {
		return frameHeader{}, &FrameError{"truncated-header",
			fmt.Sprintf("%d bytes, need %d", len(hdr), frameHeaderLen)}
	}
	le := binary.LittleEndian
	if m := le.Uint32(hdr[0:]); m != frameMagic {
		return frameHeader{}, &FrameError{"bad-magic",
			fmt.Sprintf("0x%08x, want 0x%08x", m, frameMagic)}
	}
	if v := hdr[4]; v != frameVersion {
		return frameHeader{}, &FrameError{"bad-version",
			fmt.Sprintf("version %d, this runtime speaks %d", v, frameVersion)}
	}
	h := frameHeader{
		kind:   hdr[5],
		codec:  le.Uint16(hdr[6:]),
		world:  le.Uint64(hdr[8:]),
		src:    int32(le.Uint32(hdr[16:])),
		dst:    int32(le.Uint32(hdr[20:])),
		tag:    int32(le.Uint32(hdr[24:])),
		paylen: le.Uint32(hdr[28:]),
	}
	if h.kind < frameData || h.kind > frameBye {
		return frameHeader{}, &FrameError{"bad-kind",
			fmt.Sprintf("unknown frame kind %d", h.kind)}
	}
	if h.paylen > maxFramePayload {
		return frameHeader{}, &FrameError{"oversized-payload",
			fmt.Sprintf("declared %d bytes, bound is %d", h.paylen, maxFramePayload)}
	}
	if expectWorld != 0 && h.world != expectWorld {
		return frameHeader{}, &FrameError{"world-mismatch",
			fmt.Sprintf("frame for world %#x on a world-%#x link", h.world, expectWorld)}
	}
	return h, nil
}

// verifyCRC checks the trailing CRC against header+payload.
func verifyCRC(hdr, payload []byte) error {
	want := binary.LittleEndian.Uint32(hdr[32:])
	crc := crc32.ChecksumIEEE(hdr[0:32])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != want {
		return &FrameError{"crc-mismatch",
			fmt.Sprintf("computed 0x%08x, frame carries 0x%08x", crc, want)}
	}
	return nil
}

// readFrame reads and validates one frame from a stream. expectWorld
// pins the world id (0 skips the check — rendezvous frames precede the
// id). Payload allocation happens only after the header — including the
// world id and the paylen bound — has been validated.
func readFrame(r io.Reader, expectWorld uint64) (frameHeader, []byte, error) {
	return readFrameInto(r, expectWorld, make([]byte, frameHeaderLen),
		func(h frameHeader) []byte { return make([]byte, h.paylen) })
}

// readFrameInto is readFrame with caller-chosen memory: hdr is scratch
// for the fixed header, and alloc picks the payload buffer from the
// validated header (a live link reads float64 data payloads into pooled
// buffers). A frame that fails leaves its payload buffer to the GC.
func readFrameInto(r io.Reader, expectWorld uint64, hdr []byte, alloc func(frameHeader) []byte) (frameHeader, []byte, error) {
	hdr = hdr[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return frameHeader{}, nil, &FrameError{"truncated-header",
				"stream ended inside a frame header"}
		}
		return frameHeader{}, nil, err // clean EOF / socket error: not a frame fault
	}
	h, err := decodeHeader(hdr, expectWorld)
	if err != nil {
		return frameHeader{}, nil, err
	}
	payload := alloc(h)
	if _, err := io.ReadFull(r, payload); err != nil {
		return frameHeader{}, nil, &FrameError{"truncated-payload",
			fmt.Sprintf("stream ended %s inside a %d-byte payload", err, h.paylen)}
	}
	if err := verifyCRC(hdr, payload); err != nil {
		return frameHeader{}, nil, err
	}
	return h, payload, nil
}

// decodeFrameBytes validates one complete frame held in memory (the
// fuzz-test entry point; the streaming path is readFrame). Returns the
// header and a sub-slice of buf holding the payload.
func decodeFrameBytes(buf []byte, expectWorld uint64) (frameHeader, []byte, error) {
	h, err := decodeHeader(buf, expectWorld)
	if err != nil {
		return frameHeader{}, nil, err
	}
	if len(buf) < frameHeaderLen+int(h.paylen) {
		return frameHeader{}, nil, &FrameError{"truncated-payload",
			fmt.Sprintf("buffer holds %d payload bytes, header declares %d",
				len(buf)-frameHeaderLen, h.paylen)}
	}
	payload := buf[frameHeaderLen : frameHeaderLen+int(h.paylen)]
	if err := verifyCRC(buf[:frameHeaderLen], payload); err != nil {
		return frameHeader{}, nil, err
	}
	return h, payload, nil
}
