package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vdce/internal/frame"
)

var t0 = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

func jobN(n int, owner, state string) JobRecord {
	return JobRecord{
		ID: "job-" + itoa(n), Owner: owner,
		Graph:    json.RawMessage(`{"name":"g"}`),
		Priority: n, ShareWeight: 1 + n%3,
		SubmittedAt: t0.Add(time.Duration(n) * time.Second),
		State:       state,
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func openT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		if err := s.JobSubmitted(jobN(i, "alice", "queued")); err != nil {
			t.Fatalf("JobSubmitted: %v", err)
		}
	}
	if err := s.JobState("job-2", "running", "", t0.Add(time.Minute), time.Time{}); err != nil {
		t.Fatalf("JobState: %v", err)
	}
	if err := s.JobState("job-3", "failed", "boom", time.Time{}, t0.Add(2*time.Minute)); err != nil {
		t.Fatalf("JobState: %v", err)
	}
	if err := s.OwnerUpdated(OwnerRecord{Owner: "alice", Weight: 7, HasCaps: true, MaxQueued: 9}); err != nil {
		t.Fatalf("OwnerUpdated: %v", err)
	}
	if err := s.PerfMeasured(PerfRecord{Task: "lu", Host: "h1", Elapsed: time.Second, At: t0}); err != nil {
		t.Fatalf("PerfMeasured: %v", err)
	}
	if err := s.NoteEventCursor(5); err != nil {
		t.Fatalf("NoteEventCursor: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openT(t, dir, Options{})
	defer r.Abandon()
	st := r.Recovered()
	if len(st.Jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(st.Jobs))
	}
	if st.MaxJobSeq != 3 {
		t.Fatalf("MaxJobSeq = %d, want 3", st.MaxJobSeq)
	}
	if got := st.Jobs["job-2"]; got.State != "running" || !got.StartedAt.Equal(t0.Add(time.Minute)) {
		t.Fatalf("job-2 = %+v, want running started at t0+1m", got)
	}
	if got := st.Jobs["job-3"]; got.State != "failed" || got.Error != "boom" {
		t.Fatalf("job-3 = %+v, want failed/boom", got)
	}
	if got := st.Jobs["job-1"]; got.State != "queued" || got.Owner != "alice" || got.Priority != 1 {
		t.Fatalf("job-1 = %+v, want queued alice prio 1", got)
	}
	if o := st.Owners["alice"]; o.Weight != 7 || !o.HasCaps || o.MaxQueued != 9 {
		t.Fatalf("owner alice = %+v", o)
	}
	if len(st.Perf) != 1 || st.Perf[0].Task != "lu" {
		t.Fatalf("perf = %+v", st.Perf)
	}
	if st.EventCursor != 5+EventCursorSlack {
		t.Fatalf("EventCursor = %d, want %d", st.EventCursor, 5+EventCursorSlack)
	}
}

func TestSyncSurvivesAbandon(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{FlushInterval: time.Hour}) // no timer flush: Sync must force it
	if err := s.JobSubmitted(jobN(1, "bob", "queued")); err != nil {
		t.Fatalf("JobSubmitted: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	r := openT(t, dir, Options{})
	defer r.Abandon()
	if len(r.Recovered().Jobs) != 1 {
		t.Fatalf("recovered %d jobs after crash, want 1", len(r.Recovered().Jobs))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 1; i <= 2; i++ {
		if err := s.JobSubmitted(jobN(i, "o", "queued")); err != nil {
			t.Fatalf("JobSubmitted: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	// Simulate a torn group commit: a partial frame at the tail.
	seg := filepath.Join(dir, segmentName(0))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := frame.Append(nil, []byte(`{"k":"submit","job":{"id":"job-99"}}`))
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openT(t, dir, Options{})
	defer r.Abandon()
	st := r.Recovered()
	if len(st.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2 (torn record dropped)", len(st.Jobs))
	}
	if _, ok := st.Jobs["job-99"]; ok {
		t.Fatal("torn record must not replay")
	}
	// The tail must have been truncated back to whole records.
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(seg)
	off := 0
	for off < len(data) {
		_, n, err := DecodeWALRecord(data[off:])
		if err != nil {
			t.Fatalf("after truncation segment still has bad frame at %d (size %d): %v", off, fi.Size(), err)
		}
		off += n
	}
}

func TestCorruptMidLogTyped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		if err := s.JobSubmitted(jobN(i, "o", "queued")); err != nil {
			t.Fatalf("JobSubmitted: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	// Flip one payload byte of the first record: a checksum failure with
	// valid frames after it — corruption, not a torn tail.
	seg := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[frame.Header+2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want *CorruptError", err)
	}
	if ce.Reason != "checksum" || ce.Offset != 0 {
		t.Fatalf("CorruptError = %+v, want checksum at offset 0", ce)
	}
}

func TestCompactionCollapsesLog(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactEvery: 1 << 30}) // manual compaction only
	for i := 1; i <= 10; i++ {
		if err := s.JobSubmitted(jobN(i, "o", "queued")); err != nil {
			t.Fatalf("JobSubmitted: %v", err)
		}
	}
	if err := s.JobDeleted("job-1"); err != nil {
		t.Fatalf("JobDeleted: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// A second batch lands in the rotated segment.
	if err := s.JobSubmitted(jobN(11, "o", "queued")); err != nil {
		t.Fatalf("JobSubmitted: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snaps, segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshot after compaction")
	}
	for _, n := range segs {
		if n < snaps[len(snaps)-1] {
			t.Fatalf("stale segment %d survived compaction (snap %d)", n, snaps[len(snaps)-1])
		}
	}

	r := openT(t, dir, Options{})
	defer r.Abandon()
	st := r.Recovered()
	if len(st.Jobs) != 10 {
		t.Fatalf("recovered %d jobs, want 10 (11 submitted, 1 deleted)", len(st.Jobs))
	}
	if _, ok := st.Jobs["job-1"]; ok {
		t.Fatal("deleted job survived compaction")
	}
	if st.MaxJobSeq != 11 {
		t.Fatalf("MaxJobSeq = %d, want 11", st.MaxJobSeq)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactEvery: 8})
	for i := 1; i <= 64; i++ {
		if err := s.JobSubmitted(jobN(i, "o", "queued")); err != nil {
			t.Fatalf("JobSubmitted: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := openT(t, dir, Options{})
	defer r.Abandon()
	if got := len(r.Recovered().Jobs); got != 64 {
		t.Fatalf("recovered %d jobs through auto-compactions, want 64", got)
	}
}

func TestEventCursorOneWriteNeeded(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	defer s.Abandon()
	if err := s.NoteEventCursor(1); err != nil {
		t.Fatal(err)
	}
	hwm := s.EventCursor()
	if hwm != 1+EventCursorSlack {
		t.Fatalf("hwm = %d, want %d", hwm, 1+EventCursorSlack)
	}
	// Cursors inside the slack window must not append new marks.
	for c := uint64(2); c < 100; c++ {
		if err := s.NoteEventCursor(c); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.EventCursor(); got != hwm {
		t.Fatalf("hwm moved to %d inside the slack window", got)
	}
	if err := s.NoteEventCursor(hwm + 1); err != nil {
		t.Fatal(err)
	}
	if got := s.EventCursor(); got != hwm+1+EventCursorSlack {
		t.Fatalf("hwm = %d after crossing, want %d", got, hwm+1+EventCursorSlack)
	}
}

func TestPerfHistoryBounded(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < maxPerfPerTask+50; i++ {
		if err := s.PerfMeasured(PerfRecord{Task: "lu", Host: "h", Elapsed: time.Duration(i), At: t0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PerfMeasured(PerfRecord{Task: "qr", Host: "h", Elapsed: 1, At: t0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{})
	defer r.Abandon()
	counts := map[string]int{}
	for _, p := range r.Recovered().Perf {
		counts[p.Task]++
	}
	if counts["lu"] != maxPerfPerTask {
		t.Fatalf("lu history = %d, want pruned to %d", counts["lu"], maxPerfPerTask)
	}
	if counts["qr"] != 1 {
		t.Fatalf("qr history = %d, want 1", counts["qr"])
	}
	// Pruning keeps the newest measurements in order.
	perf := r.Recovered().Perf
	last := time.Duration(-1)
	for _, p := range perf {
		if p.Task == "lu" {
			if p.Elapsed <= last {
				t.Fatalf("pruned history out of order: %v after %v", p.Elapsed, last)
			}
			last = p.Elapsed
		}
	}
	if last != time.Duration(maxPerfPerTask+49) {
		t.Fatalf("newest lu measurement = %v, want %d", last, maxPerfPerTask+49)
	}
}

func TestOpenRejectsWildLength(t *testing.T) {
	dir := t.TempDir()
	// A frame declaring an absurd length followed by real bytes: never a
	// torn tail, always corruption.
	var hdr [frame.Header]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecordSize+1)
	data := append(hdr[:], make([]byte, 64)...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want *CorruptError for wild length", err)
	}
}
