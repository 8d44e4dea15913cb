// Payload encoding for the TCP transport. Every message payload is a
// float64 vector — halo borders, migrating atoms and checkpoint votes
// are packed into one by their senders, integers stored as their bits,
// as LAMMPS packs every exchange into a double buffer — so a data frame
// carries one codec: raw little-endian IEEE-754 bits. In-process
// delivery copies the vector into pooled memory and never encodes.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// codecFloat64 is the codec id of every data frame. The header keeps the
// field so a peer speaking another encoding is rejected as unknown-codec
// rather than misread.
const codecFloat64 uint16 = 1

// putFloat64s writes v into dst (len(dst) >= 8*len(v)) in codecFloat64's
// encoding: raw little-endian IEEE-754 bits, so every float — NaN
// payloads, signed zeros, integers stored as bits — survives the wire
// bit for bit.
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

// checkDataPayload rejects a data frame this runtime cannot deliver: a
// codec id other than codecFloat64, or a payload that is not a whole
// number of floats. The frame passed its CRC, so either is a protocol
// mismatch between peers, not line noise.
func checkDataPayload(codec uint16, buf []byte) error {
	if codec != codecFloat64 {
		return &FrameError{"unknown-codec",
			fmt.Sprintf("codec id %d; data frames carry float64 vectors (codec %d)", codec, codecFloat64)}
	}
	if len(buf)%8 != 0 {
		return &FrameError{"bad-payload",
			fmt.Sprintf("float64 payload of %d bytes is not a multiple of 8", len(buf))}
	}
	return nil
}
