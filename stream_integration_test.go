package vdce

// End-to-end coverage of the PR 6 streaming and pagination surface
// through the editor's HTTP mount: SSE watch-to-done without a single
// list poll, cursor pagination over a live seeded board matching the
// canonical listing, and the generation-cached admission position
// replay.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/testbed"
)

// sseFrames reads SSE frames off an open response body, invoking fn per
// event until the stream ends or fn returns false.
func sseFrames(t *testing.T, body *bufio.Reader, fn func(jobsapi.StreamEvent) bool) {
	t.Helper()
	var data string
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "data: "):
			data = line[6:]
		case line == "" && data != "":
			var ev jobsapi.StreamEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			data = ""
			if !fn(ev) {
				return
			}
		}
	}
}

// TestStreamWatchJobToDone is the submit-watch-done acceptance path: a
// client submits through the editor, subscribes to the job's event
// stream, and observes queued -> ... -> done purely from pushed events —
// it never lists or polls job status.
func TestStreamWatchJobToDone(t *testing.T) {
	env := saturatedEnv(t, 95, 0)
	ts := httptest.NewServer(env.EditorServer(true, 0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")
	// Backlog one job so ours observably waits in the queue.
	c.submitV1(t, c.importApp(t, 1), nil)
	id := c.submitV1(t, c.importApp(t, 2), nil)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("stream open = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	var states []string
	var sawSnapshot bool
	got := make(chan struct{})
	go func() {
		defer close(got)
		first := true
		sseFrames(t, bufio.NewReader(resp.Body), func(ev jobsapi.StreamEvent) bool {
			if first {
				first = false
				sawSnapshot = ev.Type == jobsapi.EventSnapshot
				// The subscription precedes the release below, so the first
				// frame must be the pre-release snapshot: still waiting.
				if ev.Job.Terminal() {
					t.Errorf("first frame already terminal: %+v", ev.Job)
				}
			}
			if len(states) == 0 || states[len(states)-1] != ev.Job.State {
				states = append(states, ev.Job.State)
			}
			return !ev.Job.Terminal()
		})
	}()

	// Only after the subscription is live does the backlog move.
	env.Console.Resume()
	select {
	case <-got:
	case <-ctx.Done():
		t.Fatal("stream never reached a terminal event")
	}
	if !sawSnapshot {
		t.Error("stream did not open with a snapshot event")
	}
	if len(states) == 0 || states[len(states)-1] != services.JobStateDone {
		t.Fatalf("streamed states = %v, want a sequence ending in done", states)
	}

	drainCtx, cancelDrain := contextWithTimeout(2 * time.Minute)
	defer cancelDrain()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
}

// TestCursorPaginationMatchesListJobs tiles one live seeded board in
// cursor pages and requires the row sequence env.ListJobs serves.
func TestCursorPaginationMatchesListJobs(t *testing.T) {
	env := saturatedEnv(t, 96, 0)
	ts := httptest.NewServer(env.EditorServer(true, 0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")
	const jobsN = 11
	for i := 0; i < jobsN; i++ {
		c.submitV1(t, c.importApp(t, i), nil)
	}

	var viaCursor []string
	cursor := ""
	for {
		path := "/v1/jobs?limit=3"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		out := c.do("GET", path, nil, http.StatusOK)
		for _, item := range out["jobs"].([]any) {
			viaCursor = append(viaCursor, item.(map[string]any)["id"].(string))
		}
		cursor, _ = out["next_cursor"].(string)
		if cursor == "" {
			break
		}
	}

	canonical := env.ListJobs("", "")
	if len(canonical) != len(viaCursor) {
		t.Fatalf("pages covered %d rows, canonical listing has %d", len(viaCursor), len(canonical))
	}
	for i, s := range canonical {
		if viaCursor[i] != s.ID {
			t.Fatalf("row %d = %s via cursor, canonical %s", i, viaCursor[i], s.ID)
		}
	}

	env.Console.Resume()
	drainCtx, cancel := contextWithTimeout(2 * time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
}

// TestQueuePositionCacheMatchesReplay pins the generation-validated
// position cache (satellite of PR 6) against the ground-truth replay:
// cached and freshly replayed positions are identical, repeated reads
// reuse the cached map, and any queue mutation invalidates it.
func TestQueuePositionCacheMatchesReplay(t *testing.T) {
	env := saturatedEnv(t, 97, 0)
	ctx := context.Background()
	for i := 0; i < 9; i++ {
		if _, err := env.Submit(ctx, soakGraph(t, i), WithPriority(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	q := env.pipe.admit
	// The scheduler worker keeps popping while the test runs, so every
	// cached-versus-fresh comparison reads both sides under one queue
	// generation: inside one q.mu hold, or retried when q.gen moved.
	q.mu.Lock()
	p1 := q.positionsLocked()
	p2 := q.positionsLocked()
	fresh := q.replayPositions("")
	q.mu.Unlock()
	if reflect.ValueOf(p1).Pointer() != reflect.ValueOf(p2).Pointer() {
		t.Fatal("unchanged queue recomputed the position replay (cache miss)")
	}
	if !maps.Equal(p1, fresh) {
		t.Fatalf("cached positions %v != fresh replay %v", p1, fresh)
	}
	// The single-job surface serves from the same cache.
	for try := 0; ; try++ {
		q.mu.Lock()
		gen, fresh := q.gen, q.replayPositions("")
		q.mu.Unlock()
		bad := ""
		for id, pos := range fresh {
			if got := q.position(id); got != pos {
				bad = fmt.Sprintf("position(%s) = %d, want %d", id, got, pos)
				break
			}
		}
		q.mu.Lock()
		moved := q.gen != gen
		q.mu.Unlock()
		if !moved {
			if bad != "" {
				t.Fatal(bad)
			}
			break
		}
		if try == 100 {
			t.Fatal("queue generation never held still across a position sweep")
		}
	}

	// Mutation invalidates: cancel the queued job at the back.
	var victim string
	for id, pos := range fresh {
		if pos == len(fresh) {
			victim = id
		}
	}
	if victim == "" {
		t.Fatalf("no job at position %d in %v", len(fresh), fresh)
	}
	if err := env.CancelJob(victim); err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	p3 := q.positionsLocked()
	fresh3 := q.replayPositions("")
	q.mu.Unlock()
	if reflect.ValueOf(p3).Pointer() == reflect.ValueOf(p1).Pointer() {
		t.Fatal("queue mutation did not invalidate the position cache")
	}
	if _, ok := p3[victim]; ok {
		t.Fatalf("canceled job %s still has a queue position", victim)
	}
	if !maps.Equal(p3, fresh3) {
		t.Fatal("post-mutation cache disagrees with a fresh replay")
	}

	env.Console.Resume()
	drainCtx, cancel := contextWithTimeout(2 * time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
}

// stallWriter is an SSE response writer whose body writes block until
// release closes: a client that stopped reading. The first blocked
// write is signaled on stalled.
type stallWriter struct {
	hdr     http.Header
	stalled chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}
func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	return len(p), nil
}

// TestEventBufferBoundsStreamSubscribers pins PipelineConfig.EventBuffer
// on the HTTP stream: a stalled /v1/events subscriber is evicted once
// it falls EventBuffer events behind, not after the broker default.
func TestEventBufferBoundsStreamSubscribers(t *testing.T) {
	const buffer = 8
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 7},
		Pipeline: PipelineConfig{EventBuffer: buffer},
	})
	h := env.JobsHandler(jobsapi.Config{
		Authenticate: func(*http.Request) (string, bool) { return "ana", true },
	})
	w := &stallWriter{hdr: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("GET", "/v1/events", nil).WithContext(ctx)
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(w, req)
	}()
	defer func() {
		close(w.release)
		cancel()
		<-served
	}()
	broker := env.pipe.events
	for broker.Subscribers() != 1 {
		time.Sleep(time.Millisecond)
	}
	publish := func() {
		broker.Publish(jobsapi.EventState, services.JobStatus{ID: "job-x", Owner: "ana", State: services.JobStateQueued})
	}
	// The first event is taken off the subscriber's buffer and its write
	// stalls; the next buffer events fill the buffer.
	publish()
	<-w.stalled
	for i := 0; i < buffer; i++ {
		publish()
	}
	if n := broker.Subscribers(); n != 1 {
		t.Fatalf("subscriber evicted with %d events buffered, want it kept until it falls %d behind", buffer, buffer)
	}
	publish()
	if n := broker.Subscribers(); n != 0 {
		t.Fatalf("stalled subscriber still attached %d events behind (buffer %d)", buffer+1, buffer)
	}
}
