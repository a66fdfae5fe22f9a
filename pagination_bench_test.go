package vdce

// BenchmarkListCursorDeepBoard measures keyset (cursor) pagination on a
// 100k-job board: a page costs a binary search of the board's key index
// to the resume point plus one page of rows at any depth, while a full
// ListJobs walks the whole board. The acceptance bar is the cursor last
// page landing within 2x of the cursor first page; CI also caps the
// cursor pages' allocations, so a per-row status copy cannot creep back.
//
//	go test -bench BenchmarkListCursorDeepBoard -run '^$' .

import (
	"fmt"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/jobsapi"
	"vdce/internal/testbed"
)

// seedDeepBoard registers n synthetic terminal jobs directly as board
// rows and retained handles. Driving 100k jobs through the real Submit
// path would be dominated by queue backpressure and execution, not the
// listing cost under measurement.
func seedDeepBoard(b *testing.B, env *Environment, n int) {
	b.Helper()
	g := afg.NewGraph("bench")
	base := time.Unix(1_000_000, 0)
	p := env.pipe
	for i := 1; i <= n; i++ {
		j := &Job{
			ID:        fmt.Sprintf("job-%d", i),
			Owner:     "bench",
			Graph:     g,
			state:     JobDone,
			submitted: base.Add(time.Duration(i) * time.Millisecond),
			enqueued:  base.Add(time.Duration(i) * time.Millisecond),
			pipe:      p,
			done:      make(chan struct{}),
		}
		close(j.done)
		p.mu.Lock()
		p.byID[j.ID] = j
		p.mu.Unlock()
		env.Board.Update(j.statusSnapshot())
	}
}

func BenchmarkListCursorDeepBoard(b *testing.B) {
	const boardN, page = 100_000, 100
	env, err := New(Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 1},
		Pipeline: PipelineConfig{MaxRetainedJobs: boardN + 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	seedDeepBoard(b, env, boardN)

	// The cursor that resumes just before the final page.
	base := time.Unix(1_000_000, 0)
	lastPageAfter := jobsapi.Cursor{
		Submitted: base.Add(time.Duration(boardN-page) * time.Millisecond).UnixNano(),
		ID:        fmt.Sprintf("job-%d", boardN-page),
	}

	b.Run("cursor-first-page", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jobs, more := env.ListJobsAfter("", "", jobsapi.Cursor{}, page)
			if len(jobs) != page || !more {
				b.Fatalf("first page = %d rows more=%v", len(jobs), more)
			}
		}
	})
	b.Run("cursor-last-page", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jobs, more := env.ListJobsAfter("", "", lastPageAfter, page)
			if len(jobs) != page || more {
				b.Fatalf("last page = %d rows more=%v", len(jobs), more)
			}
		}
	})
	b.Run("list-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if jobs := env.ListJobs("", ""); len(jobs) != boardN {
				b.Fatalf("ListJobs = %d rows", len(jobs))
			}
		}
	})
}
