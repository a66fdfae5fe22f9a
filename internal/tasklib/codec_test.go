package tasklib

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"testing"

	"vdce/internal/dsp"
	"vdce/internal/linalg"
)

// floatBits collects the IEEE-754 bits of every float64 (and both parts
// of every complex128) reachable from v, in traversal order, so NaN
// payloads and signed zeros compare exactly where reflect.DeepEqual
// cannot (NaN != NaN, -0 == +0).
func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, math.Float64bits(v.Float()))
	case reflect.Complex128:
		c := v.Complex()
		return append(out, math.Float64bits(real(c)), math.Float64bits(imag(c)))
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return floatBits(v.Elem(), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = floatBits(v.Index(i), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = floatBits(v.Field(i), out)
		}
	}
	return out
}

func TestCodecRoundTripBitExact(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8_dead_beef_0001)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		v    Value
		nan  bool // holds a NaN: DeepEqual cannot hold, bits must
	}{
		{"nil value", nil, false},
		{"float", 3.14, false},
		{"float NaN payload", nanPayload, true},
		{"float +Inf", math.Inf(1), false},
		{"float -Inf", math.Inf(-1), false},
		{"float -0", negZero, false},
		{"float max", math.MaxFloat64, false},
		{"float smallest denormal", math.SmallestNonzeroFloat64, false},
		{"string", "hello, VDCE ✓", false},
		{"empty string", "", false},
		{"bytes", []byte{0, 1, 0xff}, false},
		{"nil bytes", []byte(nil), false},
		{"empty bytes", []byte{}, false},
		{"floats", []float64{1, negZero, math.Inf(1), math.Inf(-1)}, false},
		{"floats NaN", []float64{nanPayload, math.NaN()}, true},
		{"nil floats", []float64(nil), false},
		{"empty floats", []float64{}, false},
		{"complexes", []complex128{complex(1, -2), complex(negZero, math.Inf(1))}, false},
		{"complexes NaN", []complex128{complex(nanPayload, 0)}, true},
		{"nil complexes", []complex128(nil), false},
		{"empty complexes", []complex128{}, false},
		{"matrix", linalg.Identity(3), false},
		{"matrix NaN", &linalg.Matrix{Rows: 1, Cols: 2, Data: []float64{nanPayload, negZero}}, true},
		{"matrix nil data", &linalg.Matrix{Rows: 0, Cols: 0}, false},
		{"matrix empty data", &linalg.Matrix{Data: []float64{}}, false},
		{"nil matrix", (*linalg.Matrix)(nil), false},
		{"LU", &LUResult{L: linalg.Identity(2), U: linalg.Identity(2), Perm: []int{1, 0}, Swaps: 1}, false},
		{"LU nil perm", &LUResult{L: linalg.Identity(2), U: linalg.Identity(2)}, false},
		{"LU empty perm", &LUResult{Perm: []int{}, Swaps: -3}, false},
		{"LU extreme perm", &LUResult{Perm: []int{math.MaxInt64, math.MinInt64, -1}}, false},
		{"nil LU", (*LUResult)(nil), false},
		{"tracks", []Track{{ID: 1, X: 2, Y: -3, VX: 0.5, VY: negZero, Class: "hostile", Strength: 0.9},
			{ID: -7, Class: ""}}, false},
		{"tracks NaN", []Track{{ID: 2, X: nanPayload}}, true},
		{"nil tracks", []Track(nil), false},
		{"empty tracks", []Track{}, false},
		{"threats", []Threat{{TrackID: 1, Score: 9.5, Reason: "closing fast"}, {Reason: ""}}, false},
		{"nil threats", []Threat(nil), false},
		{"empty threats", []Threat{}, false},
		{"peaks", []dsp.Peak{{Bin: 96, Power: 12.5}, {Bin: 0, Power: math.Inf(1)}}, false},
		{"nil peaks", []dsp.Peak(nil), false},
		{"empty peaks", []dsp.Peak{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := EncodeValue(tc.v)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if n, _ := EncodedLen(tc.v); n != len(data) || cap(data) != len(data) {
				t.Fatalf("EncodedLen = %d, encoding is %d bytes in a %d-byte buffer", n, len(data), cap(data))
			}
			back, err := DecodeValue(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if reflect.TypeOf(back) != reflect.TypeOf(tc.v) {
				t.Fatalf("decoded %T, want %T", back, tc.v)
			}
			if !tc.nan && !reflect.DeepEqual(back, tc.v) {
				t.Fatalf("round trip = %#v, want %#v", back, tc.v)
			}
			got := floatBits(reflect.ValueOf(&back).Elem(), nil)
			want := floatBits(reflect.ValueOf(&tc.v).Elem(), nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("float bits = %x, want %x", got, want)
			}
			again, err := EncodeValue(back)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("re-encoding differs (%v)", err)
			}
		})
	}
}

func TestCodecRejectsUnsupportedAndMalformed(t *testing.T) {
	for _, v := range []Value{42, []int{1}, struct{}{}, map[string]int{}, Track{}} {
		if _, err := EncodeValue(v); err == nil {
			t.Errorf("encoded unsupported %T", v)
		}
		if _, err := AppendValue(nil, v); err == nil {
			t.Errorf("appended unsupported %T", v)
		}
	}
	good, err := EncodeValue([]Track{{ID: 1, Class: "hostile"}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeValue(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	overflow := append([]byte{tagString}, bytes.Repeat([]byte{0xff}, 11)...)
	huge := binary.AppendUvarint([]byte{tagFloats}, 1<<40)
	for name, data := range map[string][]byte{
		"trailing bytes":   append(append([]byte(nil), good...), 0),
		"unknown tag":      {0xee},
		"varint overflow":  overflow,
		"count too large":  huge,
		"string too long":  binary.AppendUvarint([]byte{tagString}, 5),
		"bad presence":     {tagMatrix, 7},
		"tracks too large": binary.AppendUvarint([]byte{tagTracks}, 3),
	} {
		if _, err := DecodeValue(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestDecodeRefusesInputsThatCrashMatrixTasks pins two values the
// decoder once accepted and a matrix task then indexed out of range
// with, on a task goroutine where the panic ended the process.
func TestDecodeRefusesInputsThatCrashMatrixTasks(t *testing.T) {
	for _, tc := range []struct {
		name, task string
		in         []Value
	}{
		{"4x1 matrix holding 1 element", "Matrix_Multiplication",
			[]Value{&linalg.Matrix{Rows: 4, Cols: 1, Data: []float64{1}}, []float64{1}}},
		{"LU Perm naming row 5 of 2", "Matrix_Inversion",
			[]Value{&LUResult{L: linalg.Identity(2), U: linalg.Identity(2), Perm: []int{5, 0}}}},
	} {
		in := make([]Value, len(tc.in))
		var refused error
		for i, v := range tc.in {
			data, err := EncodeValue(v)
			if err != nil {
				t.Fatal(err)
			}
			if in[i], err = DecodeValue(data); err != nil {
				refused = err
			}
		}
		if refused != nil {
			continue
		}
		spec, err := Default().Get(tc.task)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: decoded, and %s panicked: %v", tc.name, tc.task, r)
				}
			}()
			_, err := spec.Fn(&Context{In: in, Nodes: 2})
			t.Errorf("%s: decoded, and %s returned %v", tc.name, tc.task, err)
		}()
	}
}

func TestDecodeRefusesInconsistentShapes(t *testing.T) {
	matrix := func(rows, cols, n int) []byte {
		b := binary.AppendVarint([]byte{tagMatrix, 1}, int64(rows))
		b = binary.AppendVarint(b, int64(cols))
		return appendFloats(b, make([]float64, n))
	}
	lu := func(l, u *linalg.Matrix, perm []int) []byte {
		data, err := EncodeValue(&LUResult{L: l, U: u, Perm: perm})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for name, data := range map[string][]byte{
		"negative rows":          matrix(-2, -3, 6),
		"negative cols":          matrix(0, -1, 0),
		"too few elements":       matrix(3, 3, 8),
		"too many elements":      matrix(2, 2, 5),
		"zero rows with data":    matrix(0, 4, 4),
		"product overflows":      matrix(1<<32, 1<<32, 0),
		"non-square L":           lu(linalg.New(2, 3), nil, nil),
		"non-square U":           lu(nil, linalg.New(3, 2), nil),
		"factors of two orders":  lu(linalg.Identity(2), linalg.Identity(3), nil),
		"short Perm":             lu(linalg.Identity(3), linalg.Identity(3), []int{0, 1}),
		"repeated Perm entry":    lu(linalg.Identity(3), nil, []int{0, 2, 2}),
		"negative Perm entry":    lu(nil, linalg.Identity(2), []int{-1, 0}),
		"Perm of an empty order": lu(&linalg.Matrix{}, nil, []int{0}),
	} {
		if v, err := DecodeValue(data); err == nil {
			t.Errorf("%s: decoded %#v", name, v)
		}
	}
	// Shapes that hold stay decodable: an empty matrix, and an LUResult
	// with no factor to give Perm an order.
	for name, data := range map[string][]byte{
		"0x3 empty":        matrix(0, 3, 0),
		"2x3":              matrix(2, 3, 6),
		"Perm without L/U": lu(nil, nil, []int{7, 7}),
		"valid LU":         lu(linalg.Identity(3), linalg.Identity(3), []int{2, 0, 1}),
	} {
		if _, err := DecodeValue(data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// checkDecodedShapes asserts the shape invariants DecodeValue promises
// the matrix tasks.
func checkDecodedShapes(t *testing.T, v Value) {
	t.Helper()
	matrixOK := func(m *linalg.Matrix) bool {
		if m == nil {
			return true
		}
		hi, lo := bits.Mul64(uint64(m.Rows), uint64(m.Cols))
		return m.Rows >= 0 && m.Cols >= 0 && hi == 0 && lo == uint64(len(m.Data))
	}
	switch x := v.(type) {
	case *linalg.Matrix:
		if !matrixOK(x) {
			t.Fatalf("decoded a %dx%d matrix holding %d elements", x.Rows, x.Cols, len(x.Data))
		}
	case *LUResult:
		if x == nil {
			return
		}
		if !matrixOK(x.L) || !matrixOK(x.U) {
			t.Fatal("decoded an LU factor whose Data does not fit its shape")
		}
		n := -1
		for _, m := range []*linalg.Matrix{x.L, x.U} {
			if m != nil {
				if m.Rows != m.Cols || (n >= 0 && n != m.Rows) {
					t.Fatal("decoded LU factors that are not square of one order")
				}
				n = m.Rows
			}
		}
		if n >= 0 && x.Perm != nil && (len(x.Perm) != n || !linalg.IsPermutation(x.Perm)) {
			t.Fatalf("decoded Perm %v for factors of order %d", x.Perm, n)
		}
	}
}

// decodeAllocBytes reports the bytes one DecodeValue(data) allocates:
// the least of a few runs, so allocations by the fuzzing machinery's own
// goroutines do not count.
func decodeAllocBytes(data []byte) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, _ = DecodeValue(data)
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// FuzzDecodeValue asserts that no input panics the decoder, that the
// decoder allocates no more than a small multiple of the input (element
// counts are checked against the remaining bytes before any slice is
// made), that every decoded matrix holds exactly Rows*Cols elements and
// every decoded LUResult's factors and Perm agree in shape, and that
// whatever decodes re-encodes to a fixed point (varints may arrive
// padded, so the first re-encoding can be shorter).
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{
		nil, 2.5, "s", []byte{1}, []float64{1, 2}, []complex128{1i}, linalg.Identity(2),
		&LUResult{L: linalg.Identity(1), Perm: []int{0}}, []Track{{ID: 1, Class: "c"}},
		[]Threat{{TrackID: 1, Reason: "r"}}, []dsp.Peak{{Bin: 1, Power: 2}}, []float64(nil),
	} {
		data, err := EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(append([]byte{tagString}, bytes.Repeat([]byte{0xff}, 11)...))
	f.Add(binary.AppendUvarint([]byte{tagComplexes}, math.MaxUint64))
	f.Add(binary.AppendUvarint([]byte{tagPeaks}, 1<<30))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeValue(data)
		// The widest legal expansion is a permutation: one byte per
		// element on the wire, an 8-byte int in memory.
		if grew := decodeAllocBytes(data); grew > 16*uint64(len(data))+1024 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		checkDecodedShapes(t, v)
		again, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		back, err := DecodeValue(again)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if third, err := EncodeValue(back); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not a fixed point: %x vs %x (%v)", third, again, err)
		}
	})
}
