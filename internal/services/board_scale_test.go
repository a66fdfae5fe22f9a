package services

// Sharded-board scale suite (ISSUE 10): randomized aggregate
// consistency against a brute-force recount, count/list equivalence,
// board-side weight memory, a concurrent read/write soak over the
// shards, and the million-job benchmarks EXPERIMENTS.md records — the
// evidence that listing and publishing no longer serialize on one lock.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var boardStates = []string{
	JobStateQueued, JobStateScheduling, JobStateRunning,
	JobStateDone, JobStateFailed, JobStateCanceled,
}

// recountBoard rebuilds the board's aggregates from a full listing —
// the brute-force ground truth the incremental tallies must match.
func recountBoard(b *JobBoard) (counts map[string]int, usage map[string]OwnerUsage) {
	counts = make(map[string]int)
	usage = make(map[string]OwnerUsage)
	for _, s := range b.List() {
		counts[s.State]++
		u := usage[s.Owner]
		switch s.State {
		case JobStateQueued:
			u.Queued++
		case JobStateScheduling, JobStateRunning:
			u.InFlight++
		case JobStateDone:
			u.Done++
		case JobStateFailed:
			u.Failed++
		case JobStateCanceled:
			u.Canceled++
		}
		u.HostsHeld += s.HostsHeld
		u.Total++
		usage[s.Owner] = u
	}
	return counts, usage
}

// TestJobBoardAggregatesMatchRecount drives a random update/delete
// stream and asserts the incremental per-state and per-owner aggregates
// never drift from a brute-force recount of the rows.
func TestJobBoardAggregatesMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(1010))
	b := NewJobBoard()
	base := time.Unix(40000, 0)
	live := []string{}
	next := 0
	for op := 0; op < 4000; op++ {
		switch c := rng.Intn(10); {
		case c < 5 || len(live) == 0: // insert
			id := fmt.Sprintf("r%d", next)
			next++
			live = append(live, id)
			b.Update(JobStatus{
				ID: id, Owner: fmt.Sprintf("own-%d", rng.Intn(25)),
				State:       boardStates[rng.Intn(len(boardStates))],
				HostsHeld:   rng.Intn(4),
				ShareWeight: 1 + rng.Intn(5),
				SubmittedAt: base.Add(time.Duration(rng.Intn(100000)) * time.Microsecond),
			})
		case c < 8: // mutate an existing row (state transition)
			id := live[rng.Intn(len(live))]
			s, ok := b.Get(id)
			if !ok {
				t.Fatalf("live row %q missing", id)
			}
			s.State = boardStates[rng.Intn(len(boardStates))]
			s.HostsHeld = rng.Intn(4)
			b.Update(s)
		default: // retention eviction
			i := rng.Intn(len(live))
			b.Delete(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if op%500 != 0 {
			continue
		}
		wantCounts, wantUsage := recountBoard(b)
		gotCounts := b.Counts()
		for _, st := range boardStates {
			if gotCounts[st] != wantCounts[st] {
				t.Fatalf("op %d: Counts[%s] = %d, recount = %d", op, st, gotCounts[st], wantCounts[st])
			}
		}
		gotUsage := b.OwnerUsages()
		if len(gotUsage) != len(wantUsage) {
			t.Fatalf("op %d: OwnerUsages has %d owners, recount %d", op, len(gotUsage), len(wantUsage))
		}
		for owner, want := range wantUsage {
			if gotUsage[owner] != want {
				t.Fatalf("op %d: OwnerUsages[%s] = %+v, recount %+v", op, owner, gotUsage[owner], want)
			}
		}
		if got, want := b.Len(), len(live); got != want {
			t.Fatalf("op %d: Len = %d, want %d", op, got, want)
		}
	}
}

// TestJobBoardCountFilteredMatchesList pins CountFiltered (the
// count-only listing backend) to len(ListFiltered) across every filter
// shape, including the owner+scheduling/running pairs the per-owner
// running count splits out of InFlight.
func TestJobBoardCountFilteredMatchesList(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	b := NewJobBoard()
	base := time.Unix(41000, 0)
	owners := []string{"", "ana", "bo", "cy"}
	for i := 0; i < 600; i++ {
		b.Update(JobStatus{
			ID: fmt.Sprintf("cf%d", i), Owner: owners[rng.Intn(len(owners))],
			State:       boardStates[rng.Intn(len(boardStates))],
			SubmittedAt: base.Add(time.Duration(i) * time.Millisecond),
		})
	}
	for _, owner := range append(owners, "nobody") {
		for _, state := range append([]string{""}, boardStates...) {
			got := b.CountFiltered(owner, state)
			want := len(b.ListFiltered(owner, state))
			if got != want {
				t.Fatalf("CountFiltered(%q, %q) = %d, ListFiltered len = %d", owner, state, got, want)
			}
		}
	}
}

// TestJobBoardOwnerWeights pins the board-side weight memory: per
// owner, the latest-submitted retained row's share weight wins, ties
// on submit time break by higher ID, and deleting the last row forgets
// the owner.
func TestJobBoardOwnerWeights(t *testing.T) {
	b := NewJobBoard()
	t0 := time.Unix(42000, 0)
	b.Update(JobStatus{ID: "w1", Owner: "ana", State: JobStateDone, ShareWeight: 2, SubmittedAt: t0})
	b.Update(JobStatus{ID: "w2", Owner: "ana", State: JobStateDone, ShareWeight: 5, SubmittedAt: t0.Add(time.Second)})
	b.Update(JobStatus{ID: "w3", Owner: "bo", State: JobStateDone, ShareWeight: 3, SubmittedAt: t0})
	// Same instant as w3 but higher ID: wins bo's tie.
	b.Update(JobStatus{ID: "w4", Owner: "bo", State: JobStateDone, ShareWeight: 4, SubmittedAt: t0})
	w := b.OwnerWeights()
	if w["ana"] != 5 || w["bo"] != 4 {
		t.Fatalf("OwnerWeights = %v, want ana=5 bo=4", w)
	}
	b.Delete("w2")
	// w2 (the latest) evicted: the aggregate's weight sticks at the last
	// value seen for the shard, which is still the latest submission the
	// board knew about.
	if w := b.OwnerWeights(); w["ana"] == 0 {
		t.Fatalf("OwnerWeights after evicting latest row = %v, want ana retained", w)
	}
	b.Delete("w1")
	if w := b.OwnerWeights(); w["ana"] != 0 {
		t.Fatalf("OwnerWeights after deleting all of ana's rows = %v, want ana forgotten", w)
	}
}

// TestJobBoardConcurrentReadersAndWriters is the -race soak for the
// sharded read path: listing, counting, and usage readers run lock-free
// against a write storm and must always observe internally consistent
// snapshots (monotone generations are the board's job; this asserts no
// torn reads or panics and a correct final recount).
func TestJobBoardConcurrentReadersAndWriters(t *testing.T) {
	b := NewJobBoard()
	base := time.Unix(43000, 0)
	const (
		writers = 4
		rows    = 300
	)
	var stop atomic.Bool
	var writersWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				id := fmt.Sprintf("cw%d-%d", w, rng.Intn(rows))
				if rng.Intn(8) == 0 {
					b.Delete(id)
					continue
				}
				b.Update(JobStatus{
					ID: id, Owner: fmt.Sprintf("own-%d", w),
					State:       boardStates[rng.Intn(len(boardStates))],
					SubmittedAt: base.Add(time.Duration(rng.Intn(1000)) * time.Millisecond),
				})
			}
		}(w)
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for !stop.Load() {
			rows := b.ListFiltered("own-1", "")
			for i := 1; i < len(rows); i++ {
				if rows[i].SubmittedAt.Before(rows[i-1].SubmittedAt) {
					t.Error("ListFiltered out of order under concurrent writes")
					return
				}
			}
			b.OwnerUsages()
			b.CountFiltered("", JobStateRunning)
			b.Counts()
		}
	}()
	writersWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	wantCounts, _ := recountBoard(b)
	gotCounts := b.Counts()
	for _, st := range boardStates {
		if gotCounts[st] != wantCounts[st] {
			t.Fatalf("final Counts[%s] = %d, recount = %d", st, gotCounts[st], wantCounts[st])
		}
	}
}

// millionBoard lazily builds the shared million-row board the
// BenchmarkJobBoardMillion sub-benchmarks read: 1e6 jobs across 1000
// owners in a realistic state mix. Built once per test binary run.
var millionBoard struct {
	once sync.Once
	b    *JobBoard
	ids  []string
}

func millionRow(i int) JobStatus {
	return JobStatus{
		ID:          fmt.Sprintf("m%07d", i),
		Owner:       fmt.Sprintf("owner-%03d", i%1000),
		State:       boardStates[i%len(boardStates)],
		ShareWeight: 1 + i%5,
		SubmittedAt: time.Unix(44000, 0).Add(time.Duration(i) * time.Microsecond),
	}
}

func getMillionBoard() (*JobBoard, []string) {
	millionBoard.once.Do(func() {
		const n = 1_000_000
		board := NewJobBoard()
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			s := millionRow(i)
			ids[i] = s.ID
			board.Update(s)
		}
		millionBoard.b, millionBoard.ids = board, ids
	})
	return millionBoard.b, millionBoard.ids
}

// BenchmarkJobBoardMillion measures the board at a million retained
// jobs. The update/list sub-benchmarks run writes while a background
// lister loops: an update of a known row touches only its shard, and a
// listing holds the key index's read lock for one 256-key copy at a
// time, so publishes do not queue behind listings.
func BenchmarkJobBoardMillion(b *testing.B) {
	b.Run("update", func(b *testing.B) {
		board, _ := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := int(i.Add(1)) % 1_000_000
				s := millionRow(n)
				s.State = JobStateRunning
				board.Update(s)
			}
		})
	})
	b.Run("update-during-list", func(b *testing.B) {
		board, _ := getMillionBoard()
		var stop atomic.Bool
		var listers sync.WaitGroup
		for l := 0; l < 2; l++ {
			listers.Add(1)
			go func(l int) {
				defer listers.Done()
				for !stop.Load() {
					board.ListFiltered(fmt.Sprintf("owner-%03d", l), "")
				}
			}(l)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := int(i.Add(1)) % 1_000_000
				s := millionRow(n)
				s.State = JobStateScheduling
				board.Update(s)
			}
		})
		b.StopTimer()
		stop.Store(true)
		listers.Wait()
	})
	b.Run("get", func(b *testing.B) {
		board, ids := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := board.Get(ids[i%len(ids)]); !ok {
				b.Fatal("row missing")
			}
		}
	})
	b.Run("list-owner", func(b *testing.B) {
		board, _ := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			board.ListFiltered(fmt.Sprintf("owner-%03d", i%1000), "")
		}
	})
	b.Run("count-filtered", func(b *testing.B) {
		board, _ := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			board.CountFiltered(fmt.Sprintf("owner-%03d", i%1000), JobStateQueued)
		}
	})
	b.Run("owner-usages", func(b *testing.B) {
		board, _ := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if u := board.OwnerUsages(); len(u) == 0 {
				b.Fatal("no owners")
			}
		}
	})
}
