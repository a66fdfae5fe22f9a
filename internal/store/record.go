// Package store is the durable control plane behind vdce.Config.StoreDir:
// an append-only, length-prefixed + CRC'd record log with group-committed
// fsync, periodic compacted snapshots, and startup replay. It persists the
// three state families a server restart would otherwise forget — the job
// lifecycle (submits, transitions, terminal states), per-owner fair-share
// weights and quota caps, and the task-performance measurement history —
// plus the event broker's high-water cursor, so SSE resume cursors from a
// previous incarnation are detected instead of silently replayed.
//
// Layout of a store directory:
//
//	wal-00000003.log    append-only record segments (frames below)
//	snap-00000003.json  compacted snapshot of everything before segment 3
//
// Recovery loads the highest parseable snapshot, then replays every
// segment numbered at or above it in order. A torn final record (the
// crash window of an in-flight group commit) is truncated silently;
// corruption anywhere before the tail surfaces as a *CorruptError.
package store

import (
	"errors"
	"fmt"

	"vdce/internal/frame"
)

// Records are framed with the shared frame format (internal/frame): a
// 4-byte little-endian payload length, a 4-byte little-endian CRC-32
// (IEEE) of the payload, then the payload itself.

// MaxRecordSize bounds one record's payload. No legitimate record comes
// within orders of magnitude of it; a declared length beyond it is
// corruption by definition, never a torn tail — which is what lets the
// reader treat "frame extends past end of file" as a truncatable torn
// write without a wild length field swallowing valid later records.
const MaxRecordSize = 16 << 20

// ErrShortFrame reports an incomplete frame: the buffer ends before the
// declared frame does. At the end of the final segment this is a torn
// write and the tail is truncated; anywhere else it is corruption.
var ErrShortFrame = frame.ErrShort

// CorruptError is the typed mid-log corruption report: a record whose
// declared length is impossible or whose checksum does not match, with
// more valid bytes after it ruled out. Recovery refuses to guess past
// it — the operator decides whether to restore or discard.
type CorruptError struct {
	// Path is the segment file, empty when decoding a raw buffer.
	Path string
	// Offset is the byte offset of the corrupt frame within it.
	Offset int64
	// Reason says what failed: "length" or "checksum".
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("store: corrupt record at offset %d (%s)", e.Offset, e.Reason)
	}
	return fmt.Sprintf("store: corrupt record in %s at offset %d (%s)", e.Path, e.Offset, e.Reason)
}

// DecodeWALRecord decodes the first frame of buf, returning the payload
// (aliasing buf, not a copy) and the total bytes the frame consumed.
// ErrShortFrame means buf ends before the frame does (read more, or
// treat as a torn tail at end of file); a *CorruptError means the frame
// can never be valid no matter how many bytes follow.
func DecodeWALRecord(buf []byte) (payload []byte, n int, err error) {
	payload, n, err = frame.Decode(buf, MaxRecordSize)
	var ce *frame.CorruptError
	if errors.As(err, &ce) {
		return nil, 0, &CorruptError{Reason: ce.Reason}
	}
	return payload, n, err
}
