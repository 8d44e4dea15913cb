// Payload codecs for the TCP transport. In-process delivery moves
// payloads by reference, so the channel transport never serializes; a
// process-spanning world must turn each payload into bytes. The codec
// registry maps payload types to wire encodings: the runtime registers
// nil and []float64 (the collective and thermo payloads), and the
// domain package registers its ghost/migrant struct codecs in an init —
// keeping mpi free of domain imports. A payload type with no codec
// fails the send with a typed error on the panic-as-RankError path,
// mirroring mustPayloadBytes' discipline that unknown types are an
// error, never silently dropped traffic.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Codec id space. Builtins are low ids; external packages register at
// CodecUserBase and above.
const (
	codecNil     uint16 = 0
	codecFloat64 uint16 = 1
	// CodecUserBase is the first id available to RegisterCodec callers.
	CodecUserBase uint16 = 16
)

// Codec serializes one payload type for wire transport. Encode and
// Decode must round-trip bit-exactly: the TCP transport's bit-identity
// guarantee (a trajectory byte-identical to the channel transport's)
// rests on every payload surviving the wire unchanged.
type Codec struct {
	// ID is the codec's wire identifier, unique per registry.
	ID uint16
	// Match reports whether this codec handles payload v.
	Match func(v any) bool
	// Encode renders v to wire bytes.
	Encode func(v any) ([]byte, error)
	// Decode reconstructs the payload from wire bytes. A malformed
	// payload is a bad-payload *FrameError, which reaches the receiving
	// world's RankError as it is; any other error is wrapped in one.
	Decode func(b []byte) (any, error)
}

var codecMu sync.RWMutex
var codecs = map[uint16]*Codec{}
var codecOrder []*Codec

// RegisterCodec installs a payload codec (typically from an init).
// Panics on a duplicate id or a reserved builtin id — codec ids are
// wire protocol, and a collision would decode peers' traffic as the
// wrong type.
func RegisterCodec(c Codec) {
	if c.ID < CodecUserBase {
		panic(fmt.Sprintf("mpi: codec id %d is reserved for builtins (use >= %d)", c.ID, CodecUserBase))
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecs[c.ID]; dup {
		panic(fmt.Sprintf("mpi: codec id %d registered twice", c.ID))
	}
	cp := c
	codecs[c.ID] = &cp
	codecOrder = append(codecOrder, &cp)
}

// putFloat64s writes v into dst (len(dst) >= 8*len(v)) in codecFloat64's
// encoding: raw little-endian IEEE-754 bits, so every float — NaN
// payloads, signed zeros — survives the wire bit for bit.
func putFloat64s(dst []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// getFloat64s decodes len(dst) floats from src (len(src) >= 8*len(dst)).
func getFloat64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// checkFloat64Payload rejects a codecFloat64 payload that is not a whole
// number of floats.
func checkFloat64Payload(buf []byte) error {
	if len(buf)%8 != 0 {
		return &FrameError{"bad-payload",
			fmt.Sprintf("float64 payload of %d bytes is not a multiple of 8", len(buf))}
	}
	return nil
}

// encodePayload serializes a message payload, returning the codec id
// and wire bytes. Unknown payload types are a typed error (the TCP
// analogue of mustPayloadBytes' panic).
func encodePayload(data any) (uint16, []byte, error) {
	switch d := data.(type) {
	case nil:
		return codecNil, nil, nil
	case []float64:
		buf := make([]byte, 8*len(d))
		putFloat64s(buf, d)
		return codecFloat64, buf, nil
	}
	codecMu.RLock()
	defer codecMu.RUnlock()
	for _, c := range codecOrder {
		if c.Match(data) {
			buf, err := c.Encode(data)
			if err != nil {
				return 0, nil, fmt.Errorf("mpi: codec %d failed to encode %T: %w", c.ID, data, err)
			}
			return c.ID, buf, nil
		}
	}
	return 0, nil, fmt.Errorf("mpi: payload type %T has no registered wire codec; implement and RegisterCodec one to send it across processes", data)
}

// decodePayload reconstructs a payload from its codec id and wire
// bytes. Unknown ids and malformed payloads are typed *FrameError
// failures (the frame passed CRC, so these indicate a protocol bug or
// a registry mismatch between peers, not line noise).
func decodePayload(id uint16, buf []byte) (any, error) {
	switch id {
	case codecNil:
		if len(buf) != 0 {
			return nil, &FrameError{"bad-payload",
				fmt.Sprintf("nil-codec frame carries %d payload bytes", len(buf))}
		}
		return nil, nil
	case codecFloat64:
		if err := checkFloat64Payload(buf); err != nil {
			return nil, err
		}
		out := make([]float64, len(buf)/8)
		getFloat64s(out, buf)
		return out, nil
	}
	codecMu.RLock()
	c := codecs[id]
	codecMu.RUnlock()
	if c == nil {
		return nil, &FrameError{"unknown-codec",
			fmt.Sprintf("codec id %d is not registered in this process (peer registry mismatch?)", id)}
	}
	v, err := c.Decode(buf)
	if fe, ok := err.(*FrameError); ok {
		return nil, fe
	}
	if err != nil {
		return nil, &FrameError{"bad-payload",
			fmt.Sprintf("codec %d rejected a %d-byte payload: %v", id, len(buf), err)}
	}
	return v, nil
}
