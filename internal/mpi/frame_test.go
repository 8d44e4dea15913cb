// Frame round-trip and adversarial-input tests (internal package:
// the frame layer is deliberately unexported — transports are the only
// consumers). Every malformed stream must surface a typed *FrameError,
// never a hang or an unbounded allocation; FuzzFrameDecode extends the
// same contract to arbitrary bytes.
package mpi

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"
	"time"
)

// floatBytes renders v in codecFloat64's encoding.
func floatBytes(v []float64) []byte {
	buf := make([]byte, 8*len(v))
	putFloat64s(buf, v)
	return buf
}

func dataFrame(t *testing.T, payload []float64) []byte {
	t.Helper()
	return encodeFrame(frameHeader{
		kind: frameData, codec: codecFloat64, world: 0xfeed, src: 1, dst: 2, tag: 7,
	}, floatBytes(payload))
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []float64{1.5, -2.25, math.Pi, math.Inf(1), 0}
	frame := dataFrame(t, payload)
	if len(frame) != frameHeaderLen+8*len(payload) {
		t.Fatalf("frame length %d, want header %d + payload %d", len(frame), frameHeaderLen, 8*len(payload))
	}
	h, body, err := readFrame(bytes.NewReader(frame), 0xfeed)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if h.kind != frameData || h.src != 1 || h.dst != 2 || h.tag != 7 || h.world != 0xfeed {
		t.Fatalf("header mangled: %+v", h)
	}
	if err := checkDataPayload(h.codec, body); err != nil {
		t.Fatalf("checkDataPayload: %v", err)
	}
	vec := make([]float64, len(body)/8)
	getFloat64s(vec, body)
	for i, v := range payload {
		if math.Float64bits(vec[i]) != math.Float64bits(v) {
			t.Fatalf("payload[%d] = %v, want bit-exact %v", i, vec[i], v)
		}
	}
}

// TestFrameNilPayloadRoundTrip: a nil payload is an empty vector, a
// zero-length codecFloat64 frame.
func TestFrameNilPayloadRoundTrip(t *testing.T) {
	frame := encodeFloat64Frame(frameHeader{kind: frameData, world: 1}, nil)
	if len(frame) != frameHeaderLen {
		t.Fatalf("nil payload: %d-byte frame, want the %d-byte header alone", len(frame), frameHeaderLen)
	}
	h, body, err := readFrame(bytes.NewReader(frame), 1)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if h.codec != codecFloat64 || len(body) != 0 {
		t.Fatalf("nil payload: codec %d with %d payload bytes, want codec %d with none", h.codec, len(body), codecFloat64)
	}
	if err := checkDataPayload(h.codec, body); err != nil {
		t.Fatalf("nil round-trip: %v", err)
	}
}

// requireFrameError asserts a typed *FrameError with the given reason.
func requireFrameError(t *testing.T, err error, reason string) {
	t.Helper()
	fe, ok := err.(*FrameError)
	if !ok {
		t.Fatalf("error %T (%v), want *FrameError", err, err)
	}
	if fe.Reason != reason {
		t.Fatalf("FrameError reason %q, want %q (%v)", fe.Reason, reason, fe)
	}
}

func TestFrameTruncatedHeader(t *testing.T) {
	frame := dataFrame(t, []float64{1})
	for _, cut := range []int{0, 1, frameHeaderLen - 1} {
		if cut == 0 {
			// A clean EOF before any byte is a closed stream, not a
			// frame fault; io.EOF passes through untyped.
			_, _, err := readFrame(bytes.NewReader(nil), 0)
			if err != io.EOF {
				t.Fatalf("empty stream: err=%v, want io.EOF", err)
			}
			continue
		}
		_, _, err := readFrame(bytes.NewReader(frame[:cut]), 0)
		requireFrameError(t, err, "truncated-header")
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	frame := dataFrame(t, []float64{1, 2, 3})
	_, _, err := readFrame(bytes.NewReader(frame[:len(frame)-5]), 0)
	requireFrameError(t, err, "truncated-payload")
	_, _, err = decodeFrameBytes(frame[:len(frame)-5], 0)
	requireFrameError(t, err, "truncated-payload")
}

func TestFrameOversizedLength(t *testing.T) {
	frame := dataFrame(t, []float64{1})
	// Declare a payload over the allocation bound; the reader must
	// reject from the header alone without attempting the allocation.
	binary.LittleEndian.PutUint32(frame[28:], maxFramePayload+1)
	_, _, err := readFrame(bytes.NewReader(frame), 0)
	requireFrameError(t, err, "oversized-payload")
}

func TestFrameCRCCorruption(t *testing.T) {
	frame := dataFrame(t, []float64{1, 2})
	// Flip one payload byte: header still parses, CRC must catch it.
	frame[frameHeaderLen] ^= 0x40
	_, _, err := readFrame(bytes.NewReader(frame), 0)
	requireFrameError(t, err, "crc-mismatch")
}

func TestFrameBadMagicAndVersion(t *testing.T) {
	frame := dataFrame(t, nil)
	bad := append([]byte(nil), frame...)
	bad[0] ^= 0xff
	_, _, err := readFrame(bytes.NewReader(bad), 0)
	requireFrameError(t, err, "bad-magic")

	bad = append([]byte(nil), frame...)
	bad[4] = frameVersion + 1
	_, _, err = readFrame(bytes.NewReader(bad), 0)
	requireFrameError(t, err, "bad-version")
}

func TestFrameWorldMismatchBeforePayloadRead(t *testing.T) {
	frame := dataFrame(t, []float64{1})
	// Only the header reaches the reader; the payload is withheld. A
	// world check that ran after the payload read would block here —
	// the typed error proves the check precedes payload consumption.
	_, _, err := readFrame(bytes.NewReader(frame[:frameHeaderLen]), 0xbad)
	requireFrameError(t, err, "world-mismatch")
}

func TestFrameUnknownCodec(t *testing.T) {
	err := checkDataPayload(0x7fff, []byte{1, 2, 3})
	requireFrameError(t, err, "unknown-codec")
}

func TestFrameMisalignedFloatPayload(t *testing.T) {
	err := checkDataPayload(codecFloat64, []byte{1, 2, 3})
	requireFrameError(t, err, "bad-payload")
}

// FuzzFrameDecode: arbitrary bytes through the frame decoder must
// produce either a valid frame or a typed error — never a panic, a
// hang, or an allocation driven by unvalidated input. Valid frames
// must round-trip bit-exactly through a re-encode.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, frameHeaderLen))
	good := encodeFrame(frameHeader{kind: frameData, codec: codecFloat64, world: 42, src: 0, dst: 1, tag: 3},
		floatBytes([]float64{1.5, -2.25}))
	f.Add(good)
	trunc := append([]byte(nil), good[:len(good)-3]...)
	f.Add(trunc)
	corrupt := append([]byte(nil), good...)
	corrupt[frameHeaderLen] ^= 1
	f.Add(corrupt)
	abortF := encodeFrame(frameHeader{kind: frameAbort, world: 42, src: 2}, encodeAbortPayload("boom", "stack"))
	f.Add(abortF)
	states := []CommState{{Rank: 1, Inbox: 2, InboxCap: 128}, {Rank: 3, Parked: &Park{Op: "MPI_Wait", Peer: 1, Tag: 5, Since: time.Unix(0, 9)}}}
	f.Add(encodeFrame(frameHeader{kind: frameSnapResp, world: 42}, encodeSnapPayload(7, states)))
	f.Add(encodeFrame(frameHeader{kind: frameHello}, encodeHelloPayload([]int{1, 2}, "127.0.0.1:7311")))
	table := []procInfo{{proc: 0, ranks: []int{0}}, {proc: 1, addr: "127.0.0.1:7312", ranks: []int{1, 2}}}
	f.Add(encodeFrame(frameHeader{kind: framePeers, world: 42}, encodePeersPayload(3, 1, table)))
	// Counts nothing has validated: a snapshot claiming 65,536 states in
	// 8 bytes, a peer table claiming 65,536 procs in 12.
	f.Add(encodeFrame(frameHeader{kind: frameSnapResp, world: 42}, binary.LittleEndian.AppendUint32(make([]byte, 4), 1<<16)))
	f.Add(encodeFrame(frameHeader{kind: framePeers, world: 42}, binary.LittleEndian.AppendUint32(make([]byte, 8), 1<<16)))
	// The control-plane payload decoders, each reporting whether it
	// produced a value.
	control := map[byte]func([]byte) (bool, error){
		frameAbort: func(b []byte) (bool, error) { decodeAbortPayload(b); return true, nil },
		frameSnapResp: func(b []byte) (bool, error) {
			v, err := decodeSnapPayload(b)
			return v != nil, err
		},
		frameHello: func(b []byte) (bool, error) {
			v, _, err := decodeHelloPayload(b)
			return v != nil, err
		},
		framePeers: func(b []byte) (bool, error) {
			_, _, v, err := decodePeersPayload(b)
			return v != nil, err
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := decodeFrameBytes(data, 0)
		if err != nil {
			if _, ok := err.(*FrameError); !ok {
				t.Fatalf("decode error %T (%v), want *FrameError", err, err)
			}
			return
		}
		// Accepted frames re-encode to the same bytes (payload CRC and
		// header fields fully determined by the decoded values).
		re := encodeFrame(h, payload)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("accepted frame does not round-trip:\n in  %x\n out %x", data[:len(re)], re)
		}
		// Data frames additionally run the float check the link reader
		// does, which must fail typed, not panic.
		if h.kind == frameData {
			if derr := checkDataPayload(h.codec, payload); derr != nil {
				if _, ok := derr.(*FrameError); !ok {
					t.Fatalf("payload error %T (%v), want *FrameError", derr, derr)
				}
			}
		} else if decode := control[h.kind]; decode != nil {
			// Control payloads meet FuzzCheckpointDecode's oracle: a value
			// or an error, and at most 1 MiB + 32 B per input byte allocated.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ok, derr := decode(payload)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+32*len(data)); got > limit {
				t.Errorf("kind %d: decoding a %d-byte frame allocated %d (limit %d)", h.kind, len(data), got, limit)
			}
			if ok == (derr != nil) {
				t.Errorf("kind %d: value %v with error %v; want exactly one", h.kind, ok, derr)
			}
		}
	})
}
