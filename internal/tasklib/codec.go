package tasklib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"vdce/internal/dsp"
	"vdce/internal/linalg"
)

// Wire format of a Value: one tag byte naming the kind, then its body.
// Integers are zigzag varints, floats their IEEE-754 bits (so NaN
// payloads and -0 survive), strings a uvarint length and the bytes. A
// slice's length is sent plus one, so 0 marks a nil slice and nil and
// empty slices survive a round trip distinctly; a pointer body opens
// with a presence byte for the same reason. Tag 0 is the nil Value.
const (
	tagNil byte = iota
	tagFloat64
	tagString
	tagBytes
	tagFloats
	tagComplexes
	tagMatrix
	tagLU
	tagTracks
	tagThreats
	tagPeaks
)

// Smallest encodings of one slice element, used to refuse element
// counts the remaining input cannot hold before allocating for them.
const (
	minTrack  = 1 + 4*8 + 1 + 8 // ID, X, Y, VX, VY, Class, Strength
	minThreat = 1 + 8 + 1       // TrackID, Score, Reason
	minPeak   = 1 + 8           // Bin, Power
)

// EncodedLen returns the exact length of v's encoding, or an error for a
// type outside the closed set of Value kinds.
func EncodedLen(v Value) (int, error) {
	switch x := v.(type) {
	case nil:
		return 1, nil
	case float64:
		return 1 + 8, nil
	case string:
		return 1 + strLen(x), nil
	case []byte:
		return 1 + countLen(len(x), x == nil) + len(x), nil
	case []float64:
		return 1 + floatsLen(x), nil
	case []complex128:
		return 1 + countLen(len(x), x == nil) + 16*len(x), nil
	case *linalg.Matrix:
		return 1 + matrixLen(x), nil
	case *LUResult:
		if x == nil {
			return 2, nil
		}
		n := 2 + matrixLen(x.L) + matrixLen(x.U) + countLen(len(x.Perm), x.Perm == nil) + varintLen(int64(x.Swaps))
		for _, p := range x.Perm {
			n += varintLen(int64(p))
		}
		return n, nil
	case []Track:
		n := 1 + countLen(len(x), x == nil)
		for i := range x {
			n += varintLen(int64(x[i].ID)) + 5*8 + strLen(x[i].Class)
		}
		return n, nil
	case []Threat:
		n := 1 + countLen(len(x), x == nil)
		for i := range x {
			n += varintLen(int64(x[i].TrackID)) + 8 + strLen(x[i].Reason)
		}
		return n, nil
	case []dsp.Peak:
		n := 1 + countLen(len(x), x == nil)
		for i := range x {
			n += varintLen(int64(x[i].Bin)) + 8
		}
		return n, nil
	}
	return 0, fmt.Errorf("tasklib: encode: unsupported value type %T", v)
}

// EncodeValue encodes a Value for transport into a buffer of exactly
// its encoded length.
func EncodeValue(v Value) ([]byte, error) {
	n, err := EncodedLen(v)
	if err != nil {
		return nil, err
	}
	return AppendValue(make([]byte, 0, n), v)
}

// AppendValue appends v's encoding to dst. Size dst with EncodedLen to
// encode without growing it.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case float64:
		return appendFloat(append(dst, tagFloat64), x), nil
	case string:
		return appendString(append(dst, tagString), x), nil
	case []byte:
		dst = appendCount(append(dst, tagBytes), len(x), x == nil)
		return append(dst, x...), nil
	case []float64:
		return appendFloats(append(dst, tagFloats), x), nil
	case []complex128:
		dst = appendCount(append(dst, tagComplexes), len(x), x == nil)
		for _, c := range x {
			dst = appendFloat(appendFloat(dst, real(c)), imag(c))
		}
		return dst, nil
	case *linalg.Matrix:
		return appendMatrix(append(dst, tagMatrix), x), nil
	case *LUResult:
		dst = append(dst, tagLU)
		if x == nil {
			return append(dst, 0), nil
		}
		dst = appendMatrix(appendMatrix(append(dst, 1), x.L), x.U)
		dst = appendCount(dst, len(x.Perm), x.Perm == nil)
		for _, p := range x.Perm {
			dst = binary.AppendVarint(dst, int64(p))
		}
		return binary.AppendVarint(dst, int64(x.Swaps)), nil
	case []Track:
		dst = appendCount(append(dst, tagTracks), len(x), x == nil)
		for i := range x {
			t := &x[i]
			dst = binary.AppendVarint(dst, int64(t.ID))
			dst = appendFloat(appendFloat(appendFloat(appendFloat(dst, t.X), t.Y), t.VX), t.VY)
			dst = appendFloat(appendString(dst, t.Class), t.Strength)
		}
		return dst, nil
	case []Threat:
		dst = appendCount(append(dst, tagThreats), len(x), x == nil)
		for i := range x {
			dst = binary.AppendVarint(dst, int64(x[i].TrackID))
			dst = appendString(appendFloat(dst, x[i].Score), x[i].Reason)
		}
		return dst, nil
	case []dsp.Peak:
		dst = appendCount(append(dst, tagPeaks), len(x), x == nil)
		for i := range x {
			dst = appendFloat(binary.AppendVarint(dst, int64(x[i].Bin)), x[i].Power)
		}
		return dst, nil
	}
	return dst, fmt.Errorf("tasklib: encode: unsupported value type %T", v)
}

// DecodeValue reverses EncodeValue. It never panics on malformed input,
// and it refuses a declared length or element count before allocating
// for it when the remaining bytes cannot hold it. It also refuses
// values the matrix tasks could index out of range with: a matrix
// whose Data is not Rows*Cols long, and an LUResult whose factors or
// Perm disagree in shape (see checkLU).
func DecodeValue(data []byte) (Value, error) {
	d := decoder{b: data}
	v := d.value()
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("tasklib: decode: %w", d.err)
	}
	return v, nil
}

func varintLen(x int64) int {
	var buf [binary.MaxVarintLen64]byte
	return len(binary.AppendVarint(buf[:0], x))
}

func uvarintLen(x uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return len(binary.AppendUvarint(buf[:0], x))
}

func countLen(n int, isNil bool) int {
	if isNil {
		return 1
	}
	return uvarintLen(uint64(n) + 1)
}

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func floatsLen(x []float64) int { return countLen(len(x), x == nil) + 8*len(x) }

func matrixLen(m *linalg.Matrix) int {
	if m == nil {
		return 1
	}
	return 1 + varintLen(int64(m.Rows)) + varintLen(int64(m.Cols)) + floatsLen(m.Data)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendCount(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

func appendFloats(dst []byte, x []float64) []byte {
	dst = appendCount(dst, len(x), x == nil)
	for _, f := range x {
		dst = appendFloat(dst, f)
	}
	return dst
}

func appendMatrix(dst []byte, m *linalg.Matrix) []byte {
	if m == nil {
		return append(dst, 0)
	}
	dst = binary.AppendVarint(append(dst, 1), int64(m.Rows))
	dst = binary.AppendVarint(dst, int64(m.Cols))
	return appendFloats(dst, m.Data)
}

// decoder consumes an encoding front to back. The first failure sticks:
// later reads return zero values, so callers check err once at the end.
type decoder struct {
	b   []byte
	err error
}

var errShort = errors.New("input ends early")

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) < 1 {
		d.fail(errShort)
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errors.New("bad uvarint"))
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) int() int {
	x, n := binary.Varint(d.b)
	if n <= 0 || int64(int(x)) != x {
		d.fail(errors.New("bad varint"))
		return 0
	}
	d.b = d.b[n:]
	return int(x)
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail(errShort)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return f
}

// count reads a slice length (sent plus one; 0 is nil) and checks that
// the remaining input can hold that many elements of at least elemMin
// bytes each.
func (d *decoder) count(elemMin int) (n int, isNil bool) {
	c := d.uvarint()
	if d.err != nil {
		return 0, false
	}
	if c == 0 {
		return 0, true
	}
	if c-1 > uint64(len(d.b)/elemMin) {
		d.fail(fmt.Errorf("count %d exceeds the remaining %d bytes", c-1, len(d.b)))
		return 0, false
	}
	return int(c - 1), false
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail(fmt.Errorf("string length %d exceeds the remaining %d bytes", n, len(d.b)))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) floats() []float64 {
	n, isNil := d.count(8)
	if d.err != nil || isNil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return out
}

// matrix reads a matrix and refuses one whose Data does not hold exactly
// Rows*Cols elements, so no kernel indexes past it.
func (d *decoder) matrix() *linalg.Matrix {
	if !d.present() {
		return nil
	}
	m := &linalg.Matrix{Rows: d.int(), Cols: d.int()}
	if d.err == nil && (m.Rows < 0 || m.Cols < 0) {
		d.fail(fmt.Errorf("negative matrix dimensions %dx%d", m.Rows, m.Cols))
	}
	m.Data = d.floats()
	if d.err == nil && !holdsShape(len(m.Data), m.Rows, m.Cols) {
		d.fail(fmt.Errorf("matrix %dx%d holds %d elements", m.Rows, m.Cols, len(m.Data)))
	}
	return m
}

// holdsShape reports whether n == rows*cols for non-negative rows and
// cols, without forming a product that could overflow.
func holdsShape(n, rows, cols int) bool {
	if rows == 0 || cols == 0 {
		return n == 0
	}
	return n%cols == 0 && n/cols == rows
}

// checkLU refuses an LUResult a solver task could index out of range
// with: a present L or U that is not square, L and U of different
// orders, or a Perm that is not a permutation of 0..n-1 when both Perm
// and a factor of order n are present. The solver tasks refuse missing
// factors themselves, and the Perm-consuming ones check its length.
func (d *decoder) checkLU(lu *LUResult) {
	n := -1
	for _, m := range []*linalg.Matrix{lu.L, lu.U} {
		if m == nil {
			continue
		}
		if m.Rows != m.Cols || (n >= 0 && m.Rows != n) {
			d.fail(fmt.Errorf("LU factors are not square of one order (%dx%d)", m.Rows, m.Cols))
			return
		}
		n = m.Rows
	}
	if n >= 0 && lu.Perm != nil && (len(lu.Perm) != n || !linalg.IsPermutation(lu.Perm)) {
		d.fail(fmt.Errorf("LU Perm is not a permutation of 0..%d", n-1))
	}
}

// present reads a pointer's presence byte.
func (d *decoder) present() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail(errors.New("bad presence byte"))
	return false
}

func (d *decoder) value() Value {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagFloat64:
		return d.float()
	case tagString:
		return d.string()
	case tagBytes:
		n, isNil := d.count(1)
		if d.err != nil || isNil {
			return []byte(nil)
		}
		out := append([]byte{}, d.b[:n]...)
		d.b = d.b[n:]
		return out
	case tagFloats:
		return d.floats()
	case tagComplexes:
		n, isNil := d.count(16)
		if d.err != nil || isNil {
			return []complex128(nil)
		}
		out := make([]complex128, n)
		for i := range out {
			out[i] = complex(d.float(), d.float())
		}
		return out
	case tagMatrix:
		return d.matrix()
	case tagLU:
		if !d.present() {
			return (*LUResult)(nil)
		}
		lu := &LUResult{L: d.matrix(), U: d.matrix()}
		if n, isNil := d.count(1); d.err == nil && !isNil {
			lu.Perm = make([]int, n)
			for i := range lu.Perm {
				lu.Perm[i] = d.int()
			}
		}
		lu.Swaps = d.int()
		if d.err == nil {
			d.checkLU(lu)
		}
		return lu
	case tagTracks:
		n, isNil := d.count(minTrack)
		if d.err != nil || isNil {
			return []Track(nil)
		}
		out := make([]Track, n)
		for i := range out {
			t := &out[i]
			t.ID = d.int()
			t.X, t.Y, t.VX, t.VY = d.float(), d.float(), d.float(), d.float()
			t.Class, t.Strength = d.string(), d.float()
		}
		return out
	case tagThreats:
		n, isNil := d.count(minThreat)
		if d.err != nil || isNil {
			return []Threat(nil)
		}
		out := make([]Threat, n)
		for i := range out {
			out[i].TrackID = d.int()
			out[i].Score, out[i].Reason = d.float(), d.string()
		}
		return out
	case tagPeaks:
		n, isNil := d.count(minPeak)
		if d.err != nil || isNil {
			return []dsp.Peak(nil)
		}
		out := make([]dsp.Peak, n)
		for i := range out {
			out[i].Bin, out[i].Power = d.int(), d.float()
		}
		return out
	default:
		d.fail(fmt.Errorf("unknown value tag %d", tag))
		return nil
	}
}
