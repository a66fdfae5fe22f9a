package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestAppendDecodeRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	var buf []byte
	for _, p := range payloads {
		buf = Append(buf, p)
	}
	for i, want := range payloads {
		got, n, err := Decode(buf, 1<<20)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(got), err)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestBeginSealMatchesAppend(t *testing.T) {
	buf, start := Begin([]byte("prefix"))
	buf = append(buf, "payload"...)
	Seal(buf, start)
	if want := Append([]byte("prefix"), []byte("payload")); !bytes.Equal(buf, want) {
		t.Fatalf("Begin+Seal = %x, Append = %x", buf, want)
	}
}

func TestDecodeRejects(t *testing.T) {
	fr := Append(nil, []byte("hello"))
	for cut := 0; cut < len(fr); cut++ {
		if _, _, err := Decode(fr[:cut], 64); err != ErrShort {
			t.Fatalf("cut %d: %v, want ErrShort", cut, err)
		}
	}
	var ce *CorruptError
	if _, _, err := Decode(fr, 4); !errors.As(err, &ce) || ce.Reason != "length" {
		t.Fatalf("over max: %v", err)
	}
	bad := bytes.Clone(fr)
	bad[Header] ^= 1
	if _, _, err := Decode(bad, 64); !errors.As(err, &ce) || ce.Reason != "checksum" {
		t.Fatalf("flipped byte: %v", err)
	}
}

func TestReaderStream(t *testing.T) {
	big := bytes.Repeat([]byte{7}, 3*readChunk+5)
	var stream []byte
	for _, p := range [][]byte{[]byte("one"), big, nil, []byte("four")} {
		stream = Append(stream, p)
	}
	r := NewReader(bytes.NewReader(stream), 1<<20)
	for i, want := range [][]byte{[]byte("one"), big, nil, []byte("four")} {
		got, err := r.Next()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(got), err)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestReaderRejects(t *testing.T) {
	fr := Append(nil, []byte("hello, data plane"))
	for cut := 1; cut < len(fr); cut++ {
		_, err := NewReader(bytes.NewReader(fr[:cut]), 64).Next()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	var ce *CorruptError
	if _, err := NewReader(bytes.NewReader(fr), 4).Next(); !errors.As(err, &ce) || ce.Reason != "length" {
		t.Fatalf("over max: %v", err)
	}
	bad := bytes.Clone(fr)
	bad[len(bad)-1] ^= 0x80
	if _, err := NewReader(bytes.NewReader(bad), 64).Next(); !errors.As(err, &ce) || ce.Reason != "checksum" {
		t.Fatalf("flipped byte: %v", err)
	}
}

// A header may declare up to the maximum; the reader's memory must track
// the bytes that actually arrive, not the claim.
func TestReaderGrowsWithArrivingBytes(t *testing.T) {
	var hdr [Header]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	stream := append(hdr[:], make([]byte, 100)...)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := NewReader(bytes.NewReader(stream), 1<<30).Next()
	runtime.ReadMemStats(&m1)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 4*readChunk {
		t.Fatalf("a 1 GiB claim backed by 100 bytes allocated %d bytes", grew)
	}
}

func TestReaderReleasesLargeBuffer(t *testing.T) {
	var stream []byte
	stream = Append(stream, make([]byte, 2*retainCap))
	stream = Append(stream, []byte("small"))
	r := NewReader(bytes.NewReader(stream), 4*retainCap)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if got, err := r.Next(); err != nil || string(got) != "small" {
		t.Fatalf("second frame %q, %v", got, err)
	}
	if cap(r.buf) > retainCap {
		t.Fatalf("reader kept a %d-byte buffer after a small frame", cap(r.buf))
	}
}
