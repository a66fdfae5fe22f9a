package jobsapi

import (
	"encoding/base64"
	"testing"
)

// FuzzDecodeCursor feeds arbitrary ?cursor= tokens — untrusted client
// input — to DecodeCursor, and cursors built from arbitrary fields to
// Encode. The decoder must never panic, every cursor must survive an
// Encode/DecodeCursor round trip, and any token the decoder accepts
// must re-encode to a token that decodes to the same cursor.
func FuzzDecodeCursor(f *testing.F) {
	f.Add("", int64(0), "")
	f.Add(Cursor{Submitted: 1760000000000000000, ID: "job-7"}.Encode(), int64(-1), "job:with:colons")
	f.Add("not base64!", int64(1)<<62, "\xff")
	f.Add(base64.RawURLEncoding.EncodeToString([]byte(":job-1")), int64(7), "")
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("+12:x")), int64(-9), "x")
	f.Fuzz(func(t *testing.T, token string, submitted int64, id string) {
		c := Cursor{Submitted: submitted, ID: id}
		if got, err := DecodeCursor(c.Encode()); err != nil || got != c {
			t.Fatalf("round trip of %+v: got %+v, %v", c, got, err)
		}
		dec, err := DecodeCursor(token)
		if err != nil {
			return
		}
		if again, err := DecodeCursor(dec.Encode()); err != nil || again != dec {
			t.Fatalf("token %q decoded to %+v, its re-encoding to %+v, %v", token, dec, again, err)
		}
	})
}
