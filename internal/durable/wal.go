package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk format. Each segment file starts with the 6-byte magic
// "ASWAL1" (name + format version — bumping the format bumps the magic)
// followed by frames:
//
//	[4-byte LE payload length][4-byte LE IEEE CRC32 of payload][payload]
//
// The payload is one JSON-encoded engine.Event. The snapshot file is a
// single frame in the same format whose payload is a JSON snapshot
// envelope (see snapshot.go).
var walMagic = []byte("ASWAL1")

// frameHeader is the per-frame overhead: length + checksum.
const frameHeader = 8

// maxFrame bounds a single frame's payload; a length prefix beyond it is
// corruption, not a huge event.
const maxFrame = 16 << 20

// ErrCorrupt marks log damage recovery must not paper over: a checksum
// mismatch or truncation anywhere except the final frame of the final
// segment. (That one spot is the torn tail an append-time crash
// legitimately leaves behind, and is silently dropped instead.)
var ErrCorrupt = errors.New("durable: corrupt log")

// appendFrame appends one framed payload to buf and returns the result.
func appendFrame(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = append(buf, payload...)
	sealFrame(buf[start:])
	return buf
}

// sealFrame fills in the header of a frame built in place: frameHeader
// reserved bytes followed by the payload.
func sealFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// errTorn is the internal marker for a frame that ends mid-write: a
// short header, a length running past EOF, or a checksum mismatch on the
// file's final frame. parseSegment converts it to either a silent drop
// (final segment) or ErrCorrupt (anywhere else).
var errTorn = errors.New("torn frame")

// parseFrames walks the framed region of one segment (after the magic)
// and returns the payloads. A torn tail is reported as (payloads so far,
// errTorn); damage that cannot be a torn tail — a checksum mismatch with
// more data after it — is ErrCorrupt.
func parseFrames(data []byte) ([][]byte, error) {
	var out [][]byte
	for len(data) > 0 {
		if len(data) < frameHeader {
			return out, errTorn
		}
		n := binary.LittleEndian.Uint32(data[0:4])
		sum := binary.LittleEndian.Uint32(data[4:8])
		if n > maxFrame {
			return out, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
		}
		if int(n) > len(data)-frameHeader {
			return out, errTorn
		}
		payload := data[frameHeader : frameHeader+int(n)]
		rest := data[frameHeader+int(n):]
		if crc32.ChecksumIEEE(payload) != sum {
			if len(rest) == 0 {
				// Bad checksum on the very last frame: a torn append.
				return out, errTorn
			}
			return out, fmt.Errorf("%w: checksum mismatch with %d bytes following", ErrCorrupt, len(rest))
		}
		out = append(out, payload)
		data = rest
	}
	return out, nil
}

// parseSegment validates a whole segment file. last marks the final
// segment of the log, the only place a torn tail is legitimate: there it
// is dropped (the append it belonged to never happened, durably
// speaking); anywhere else every byte must check out.
func parseSegment(name string, data []byte, last bool) ([][]byte, error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		return nil, fmt.Errorf("%w: segment %s: bad magic (version skew or not a WAL segment)", ErrCorrupt, name)
	}
	frames, err := parseFrames(data[len(walMagic):])
	if err != nil {
		if errors.Is(err, errTorn) {
			if last {
				return frames, nil
			}
			return nil, fmt.Errorf("%w: segment %s: torn frame in non-final segment", ErrCorrupt, name)
		}
		return nil, fmt.Errorf("segment %s: %w", name, err)
	}
	return frames, nil
}
