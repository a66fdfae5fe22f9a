package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vdce/internal/frame"
)

func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{
		[]byte(""),
		[]byte("x"),
		[]byte(`{"k":"submit","job":{"id":"job-1"}}`),
		bytes.Repeat([]byte("a"), 4096),
	}
	var buf []byte
	for _, p := range payloads {
		buf = frame.Append(buf, p)
	}
	for i, want := range payloads {
		got, n, err := DecodeWALRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: payload mismatch (%d bytes vs %d)", i, len(got), len(want))
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDecodeShortAndCorrupt(t *testing.T) {
	fr := frame.Append(nil, []byte("hello, durability"))

	for cut := 0; cut < len(fr); cut++ {
		_, _, err := DecodeWALRecord(fr[:cut])
		if err != ErrShortFrame {
			t.Fatalf("cut at %d: err = %v, want ErrShortFrame", cut, err)
		}
	}

	bad := bytes.Clone(fr)
	bad[frame.Header] ^= 1
	if _, _, err := DecodeWALRecord(bad); err == nil {
		t.Fatal("flipped payload byte decoded cleanly")
	}

	var wild [frame.Header + 4]byte
	binary.LittleEndian.PutUint32(wild[0:4], MaxRecordSize+1)
	_, _, err := DecodeWALRecord(wild[:])
	ce, ok := err.(*CorruptError)
	if !ok || ce.Reason != "length" {
		t.Fatalf("wild length: err = %v, want *CorruptError{length}", err)
	}
}

// FuzzDecodeWALRecord asserts the codec never panics and never returns
// success for a frame whose checksum would not verify — arbitrary torn,
// truncated, or bit-flipped input must land in ErrShortFrame or
// *CorruptError.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame.Append(nil, []byte("seed")))
	f.Add(frame.Append(nil, nil))
	torn := frame.Append(nil, []byte("torn tail record"))
	f.Add(torn[:len(torn)-3])
	flipped := frame.Append(nil, []byte("flip"))
	flipped[frame.Header] ^= 0x80
	f.Add(flipped)
	var wild [frame.Header]byte
	binary.LittleEndian.PutUint32(wild[0:4], ^uint32(0))
	f.Add(wild[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := DecodeWALRecord(data)
		if err != nil {
			if err != ErrShortFrame {
				if _, ok := err.(*CorruptError); !ok {
					t.Fatalf("unexpected error type %T: %v", err, err)
				}
			}
			return
		}
		if n < frame.Header || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if len(payload) != n-frame.Header {
			t.Fatalf("payload %d bytes but frame consumed %d", len(payload), n)
		}
		// A successful decode must survive a re-encode byte-for-byte.
		if !bytes.Equal(frame.Append(nil, payload), data[:n]) {
			t.Fatal("decode/encode mismatch")
		}
	})
}
