package services

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestJobBoardLifecycle(t *testing.T) {
	b := NewJobBoard()
	now := time.Now()
	b.Update(JobStatus{ID: "job-1", App: "les", State: JobStateQueued, SubmittedAt: now})
	b.Update(JobStatus{ID: "job-2", App: "c3i", State: JobStateQueued, SubmittedAt: now})
	if got := b.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	b.Update(JobStatus{ID: "job-1", App: "les", State: JobStateRunning, SubmittedAt: now, StartedAt: now})
	b.Update(JobStatus{ID: "job-1", App: "les", State: JobStateDone, SubmittedAt: now, StartedAt: now, FinishedAt: now})
	b.Update(JobStatus{ID: "job-2", App: "c3i", State: JobStateFailed, SubmittedAt: now, Error: "no eligible host"})

	if got := b.InFlight(); got != 0 {
		t.Fatalf("InFlight after completion = %d, want 0", got)
	}
	counts := b.Counts()
	if counts[JobStateDone] != 1 || counts[JobStateFailed] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
	if got := b.States(); len(got) != 2 || got[0] != JobStateDone || got[1] != JobStateFailed {
		t.Fatalf("States = %v", got)
	}

	s, ok := b.Get("job-2")
	if !ok || s.Error != "no eligible host" || !s.Terminal() {
		t.Fatalf("Get(job-2) = %+v, %v", s, ok)
	}
	if _, ok := b.Get("job-404"); ok {
		t.Fatal("Get of unknown job succeeded")
	}

	list := b.List()
	if len(list) != 2 || list[0].ID != "job-1" || list[1].ID != "job-2" {
		t.Fatalf("List out of submission order: %+v", list)
	}
}

// TestJobBoardStableOrderAndFilters is the pagination-determinism
// regression test: List orders by (submit time, then ID) regardless of
// insertion order, and ListFiltered narrows by owner and state without
// disturbing that order.
func TestJobBoardStableOrderAndFilters(t *testing.T) {
	b := NewJobBoard()
	t0 := time.Unix(100, 0)
	// Inserted deliberately out of submission order, with an ID tie on t0.
	b.Update(JobStatus{ID: "job-3", Owner: "ana", State: JobStateRunning, SubmittedAt: t0.Add(2 * time.Second)})
	b.Update(JobStatus{ID: "job-2", Owner: "bo", State: JobStateQueued, SubmittedAt: t0})
	b.Update(JobStatus{ID: "job-1", Owner: "ana", State: JobStateDone, SubmittedAt: t0})
	b.Update(JobStatus{ID: "job-4", Owner: "ana", State: JobStateCanceled, SubmittedAt: t0.Add(time.Second)})

	wantOrder := []string{"job-1", "job-2", "job-4", "job-3"}
	list := b.List()
	if len(list) != len(wantOrder) {
		t.Fatalf("List = %d entries, want %d", len(list), len(wantOrder))
	}
	for i, id := range wantOrder {
		if list[i].ID != id {
			t.Fatalf("List[%d] = %s, want %s (full: %+v)", i, list[i].ID, id, list)
		}
	}
	// Repeated calls are identical — the determinism pagination needs.
	again := b.List()
	for i := range list {
		if again[i].ID != list[i].ID {
			t.Fatalf("List not stable across calls: %v vs %v", again[i].ID, list[i].ID)
		}
	}

	owned := b.ListFiltered("ana", "")
	if len(owned) != 3 || owned[0].ID != "job-1" || owned[1].ID != "job-4" || owned[2].ID != "job-3" {
		t.Fatalf("ListFiltered(ana) = %+v", owned)
	}
	canceled := b.ListFiltered("", JobStateCanceled)
	if len(canceled) != 1 || canceled[0].ID != "job-4" {
		t.Fatalf("ListFiltered(canceled) = %+v", canceled)
	}
	if !canceled[0].Terminal() {
		t.Fatal("canceled status not terminal")
	}
	both := b.ListFiltered("ana", JobStateDone)
	if len(both) != 1 || both[0].ID != "job-1" {
		t.Fatalf("ListFiltered(ana, done) = %+v", both)
	}
	if got := b.ListFiltered("ghost", ""); len(got) != 0 {
		t.Fatalf("ListFiltered(ghost) = %+v, want empty", got)
	}
}

func TestJobBoardConcurrentUpdates(t *testing.T) {
	b := NewJobBoard()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("job-%d-%d", w, i)
				b.Update(JobStatus{ID: id, State: JobStateQueued})
				b.Update(JobStatus{ID: id, State: JobStateDone})
				b.Get(id)
				b.InFlight()
			}
		}(w)
	}
	wg.Wait()
	if got := len(b.List()); got != 8*50 {
		t.Fatalf("List = %d entries, want %d", got, 8*50)
	}
	if got := b.Counts()[JobStateDone]; got != 8*50 {
		t.Fatalf("done count = %d, want %d", got, 8*50)
	}
}

// TestJobBoardTerminalRowNotResurrected pins the two-step publish race:
// a queued snapshot written after a racing Cancel's canceled row must
// not bring the job back, or retention could never evict it and the
// owner counters would report it queued forever.
func TestJobBoardTerminalRowNotResurrected(t *testing.T) {
	b := NewJobBoard()
	now := time.Unix(500, 0)
	b.Update(JobStatus{ID: "job-1", Owner: "ana", State: JobStateCanceled, SubmittedAt: now})
	b.Update(JobStatus{ID: "job-1", Owner: "ana", State: JobStateQueued, SubmittedAt: now})
	if s, _ := b.Get("job-1"); s.State != JobStateCanceled {
		t.Fatalf("row state = %q, want canceled", s.State)
	}
	wantCounts, wantUsage := recountBoard(b)
	if got := b.Counts(); len(got) != len(wantCounts) || got[JobStateCanceled] != 1 {
		t.Fatalf("Counts = %v, recount %v", got, wantCounts)
	}
	if got := b.OwnerUsages(); got["ana"] != wantUsage["ana"] || got["ana"].Queued != 0 {
		t.Fatalf("OwnerUsages = %+v, recount %+v", got, wantUsage)
	}
	if ids := b.Evict(0); len(ids) != 1 || ids[0] != "job-1" {
		t.Fatalf("Evict(0) = %v, want [job-1]", ids)
	}
}

// TestJobBoardEvictOldestTerminal pins Evict: oldest terminal rows go
// first, non-terminal rows are never evicted, stale keys left by Delete
// or a moved submission time are skipped, and the survivors keep their
// canonical order.
func TestJobBoardEvictOldestTerminal(t *testing.T) {
	b := NewJobBoard()
	t0 := time.Unix(600, 0)
	states := []string{JobStateRunning, JobStateDone, JobStateQueued, JobStateFailed, JobStateDone, JobStateCanceled}
	for i, st := range states {
		b.Update(JobStatus{ID: fmt.Sprintf("e%d", i), State: st, SubmittedAt: t0.Add(time.Duration(i) * time.Second)})
	}
	b.Delete("e1")
	// e3 moves behind e5: its old key goes stale.
	b.Update(JobStatus{ID: "e3", State: JobStateFailed, SubmittedAt: t0.Add(time.Minute)})
	if got := b.Evict(10); got != nil {
		t.Fatalf("Evict under the cap = %v, want nil", got)
	}
	got := b.Evict(3)
	if len(got) != 2 || got[0] != "e4" || got[1] != "e5" {
		t.Fatalf("Evict(3) = %v, want [e4 e5]", got)
	}
	var ids []string
	for _, s := range b.List() {
		ids = append(ids, s.ID)
	}
	if fmt.Sprint(ids) != "[e0 e2 e3]" {
		t.Fatalf("List after Evict = %v, want [e0 e2 e3]", ids)
	}
	if got := b.Evict(0); len(got) != 1 || got[0] != "e3" {
		t.Fatalf("Evict(0) = %v, want only the terminal e3", got)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want the 2 non-terminal rows", b.Len())
	}
}

// TestJobBoardPageTilesList walks the board in cursor pages under every
// filter and checks the tiling equals ListFiltered, with stale keys
// (deleted rows, moved submission times) in the index.
func TestJobBoardPageTilesList(t *testing.T) {
	b := NewJobBoard()
	t0 := time.Unix(700, 0)
	owners := []string{"ana", "bo"}
	for i := 0; i < 700; i++ {
		b.Update(JobStatus{
			ID: fmt.Sprintf("p%03d", i), Owner: owners[i%2],
			State:       []string{JobStateQueued, JobStateRunning, JobStateDone}[i%3],
			SubmittedAt: t0.Add(time.Duration(i/4) * time.Millisecond),
		})
	}
	for i := 0; i < 700; i += 7 {
		b.Delete(fmt.Sprintf("p%03d", i))
	}
	for i := 3; i < 700; i += 11 {
		s, ok := b.Get(fmt.Sprintf("p%03d", i))
		if ok {
			s.SubmittedAt = s.SubmittedAt.Add(-time.Second)
			b.Update(s)
		}
	}
	for _, owner := range []string{"", "ana"} {
		for _, state := range []string{"", JobStateDone} {
			want := b.ListFiltered(owner, state)
			var got []JobStatus
			after := JobKey{}
			for {
				page, more := b.Page(after, 9, func(s JobStatus) (JobStatus, bool) {
					return s, s.Matches(owner, state)
				})
				got = append(got, page...)
				if !more {
					break
				}
				after = keyOf(page[len(page)-1])
			}
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("(%q,%q): pages hold %d rows, list %d", owner, state, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("(%q,%q): page row %d = %s, list %s", owner, state, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}
