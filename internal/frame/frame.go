// Package frame is the repository's one binary frame format, shared by
// the durable store's write-ahead log and the execution data plane.
//
// A frame is a 4-byte little-endian payload length, a 4-byte
// little-endian CRC-32 (IEEE) of the payload, then the payload itself.
// Each user passes its own maximum payload length: a declared length
// beyond it is corruption by definition, never a short read, so a wild
// length field cannot make a reader wait for (or allocate) bytes that
// will never come.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
)

// Header is the size of the length + checksum prefix.
const Header = 8

// ErrShort reports an incomplete frame: the buffer ends before the
// declared frame does.
var ErrShort = errors.New("frame: incomplete frame")

// CorruptError reports a frame that can never be valid, however many
// bytes follow it.
type CorruptError struct {
	// Reason says what failed: "length" or "checksum".
	Reason string
}

func (e *CorruptError) Error() string { return "frame: corrupt frame (" + e.Reason + ")" }

// Begin appends an empty header slot to dst and returns the extended
// buffer with the offset the frame starts at. Append the payload
// straight after it, then Seal.
func Begin(dst []byte) ([]byte, int) {
	var hdr [Header]byte
	return append(dst, hdr[:]...), len(dst)
}

// Seal fills in the header of the frame that starts at start and runs to
// the end of buf.
func Seal(buf []byte, start int) {
	payload := buf[start+Header:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
}

// Append appends one frame carrying payload to dst.
func Append(dst, payload []byte) []byte {
	dst, start := Begin(dst)
	dst = append(dst, payload...)
	Seal(dst, start)
	return dst
}

// Decode decodes the first frame of buf, returning the payload (aliasing
// buf, not a copy) and the total bytes the frame consumed. ErrShort means
// buf ends before the frame does; a *CorruptError means the declared
// length exceeds max or the checksum does not match.
func Decode(buf []byte, max int) (payload []byte, n int, err error) {
	if len(buf) < Header {
		return nil, 0, ErrShort
	}
	length := binary.LittleEndian.Uint32(buf[0:4])
	if uint64(length) > uint64(max) {
		return nil, 0, &CorruptError{Reason: "length"}
	}
	end := Header + int(length)
	if len(buf) < end {
		return nil, 0, ErrShort
	}
	payload = buf[Header:end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, 0, &CorruptError{Reason: "checksum"}
	}
	return payload, end, nil
}

// readChunk is the first step by which Reader grows its buffer towards a
// declared length; each later step at most doubles it, so memory tracks
// the bytes that actually arrived rather than what a header claims.
const readChunk = 64 << 10

// retainCap is the largest buffer a Reader keeps between frames; a
// larger one is released once its frame has been consumed.
const retainCap = 1 << 20

// Reader reads consecutive frames from a stream, reusing one buffer.
type Reader struct {
	r   io.Reader
	max int
	buf []byte
}

// NewReader returns a Reader of frames whose payload is at most max
// bytes.
func NewReader(r io.Reader, max int) *Reader {
	return &Reader{r: r, max: max}
}

// Next reads the next frame and returns its verified payload, which is
// valid until the following call. It returns io.EOF at a clean end of
// stream, io.ErrUnexpectedEOF inside a frame, and a *CorruptError for a
// length beyond the maximum or a checksum mismatch.
func (fr *Reader) Next() ([]byte, error) {
	var hdr [Header]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if uint64(length) > uint64(fr.max) {
		return nil, &CorruptError{Reason: "length"}
	}
	n := int(length)
	buf := fr.buf[:0]
	if cap(buf) > retainCap {
		buf = nil
	}
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), readChunk))
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(fr.r, buf[len(buf):len(buf)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		buf = buf[:len(buf)+step]
	}
	fr.buf = buf
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, &CorruptError{Reason: "checksum"}
	}
	return buf, nil
}
