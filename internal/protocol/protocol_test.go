package protocol

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"vdce/internal/core"
	"vdce/internal/frame"
	"vdce/internal/repository"
)

// roundTrip gob-encodes and decodes v into out (a pointer).
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestHostSelectionResponseGob(t *testing.T) {
	in := HostSelectionResponse{
		Site: "s1",
		Choices: map[int]core.HostChoice{
			0: {Site: "s1", Hosts: []string{"h1", "h2"}, Predicted: 3 * time.Second},
			1: {Site: "s1", Err: "no eligible host"},
		},
	}
	var out HostSelectionResponse
	roundTrip(t, in, &out)
	if out.Site != "s1" || len(out.Choices) != 2 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	if c := out.Choices[0]; len(c.Hosts) != 2 || c.Predicted != 3*time.Second {
		t.Fatalf("choice 0 = %+v", c)
	}
	if out.Choices[1].Err == "" {
		t.Fatal("error choice lost")
	}
}

func TestWorkloadBatchGob(t *testing.T) {
	in := WorkloadBatch{
		Site: "s", Group: "g",
		Samples: []HostSample{{
			Host:   "h",
			Sample: repository.WorkloadSample{CPULoad: 0.5, AvailMemBytes: 99, Time: time.Unix(7, 0).UTC()},
		}},
	}
	var out WorkloadBatch
	roundTrip(t, in, &out)
	if len(out.Samples) != 1 || out.Samples[0].Sample.CPULoad != 0.5 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	if !out.Samples[0].Sample.Time.Equal(time.Unix(7, 0)) {
		t.Fatal("timestamp lost")
	}
}

// sealDataFrame appends env, payload included, as one sealed frame.
func sealDataFrame(dst []byte, env *DataEnvelope) []byte {
	buf, start := BeginDataFrame(dst, env, len(env.Payload))
	buf = append(buf, env.Payload...)
	frame.Seal(buf, start)
	return buf
}

func TestDataEnvelopeFrame(t *testing.T) {
	in := DataEnvelope{AppID: "a", FromTask: 1, ToTask: 2, ToPort: 3, Payload: []byte{1, 2, 3}}
	fr := sealDataFrame([]byte("prefix"), &in)
	p, n, err := frame.Decode(fr[len("prefix"):], MaxDataFrame)
	if err != nil || n != len(fr)-len("prefix") {
		t.Fatalf("frame.Decode: %d bytes, %v", n, err)
	}
	out, err := ParseDataEnvelope(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip lost data: %+v", out)
	}

	// A fan-out edge readdresses the sealed frame in place.
	fr = sealDataFrame(nil, &in)
	if err := ReaddressDataFrame(fr, 9, 0); err != nil {
		t.Fatal(err)
	}
	p, _, err = frame.Decode(fr, MaxDataFrame)
	if err != nil {
		t.Fatalf("readdressed frame: %v", err)
	}
	if out, err = ParseDataEnvelope(p); err != nil || out.ToTask != 9 || out.ToPort != 0 ||
		out.AppID != "a" || out.FromTask != 1 || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("readdressed envelope = %+v, %v", out, err)
	}

	// Payloads too short for the routing fields are refused.
	full := sealDataFrame(nil, &DataEnvelope{AppID: "app"})[frame.Header:]
	for cut := 0; cut < len(full); cut++ {
		if _, err := ParseDataEnvelope(full[:cut]); err != errBadEnvelope {
			t.Fatalf("cut %d: %v, want errBadEnvelope", cut, err)
		}
	}
	if _, err := ParseDataEnvelope(bytes.Repeat([]byte{0xff}, 24)); err != errBadEnvelope {
		t.Fatalf("varint overflow: %v", err)
	}
}

func TestNoticesGob(t *testing.T) {
	var f FailureNotice
	roundTrip(t, FailureNotice{Host: "h", Group: "g", Detected: time.Unix(1, 0).UTC()}, &f)
	if f.Host != "h" {
		t.Fatal("failure notice lost")
	}
	var r RecoveryNotice
	roundTrip(t, RecoveryNotice{Host: "h2"}, &r)
	if r.Host != "h2" {
		t.Fatal("recovery notice lost")
	}
	var e ExecutionRecord
	roundTrip(t, ExecutionRecord{Task: "t", Host: "h", Elapsed: time.Second}, &e)
	if e.Elapsed != time.Second {
		t.Fatal("execution record lost")
	}
}
