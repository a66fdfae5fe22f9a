package vdce

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/store"
	"vdce/internal/testbed"
)

// walRecord is the part of one durable-log record the lifecycle checks
// read: a submit record carries the job, a state record its ID and the
// new state.
type walRecord struct {
	Kind string `json:"k"`
	Job  *struct {
		ID    string `json:"id"`
		State string `json:"state"`
	} `json:"job"`
	JobID string `json:"id"`
	State string `json:"state"`
}

// jobID and state name the job and state a submit or state record
// carries.
func (r walRecord) jobID() string {
	if r.Job != nil {
		return r.Job.ID
	}
	return r.JobID
}

func (r walRecord) state() string {
	if r.Job != nil {
		return r.Job.State
	}
	return r.State
}

// readWAL decodes every whole record of the store's log segments in
// dir, oldest segment first, stopping at a torn tail exactly as replay
// does. Callers Sync the store first so the group-commit window is on
// disk.
func readWAL(t *testing.T, dir string) []walRecord {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var out []walRecord
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			payload, n, err := store.DecodeWALRecord(data[off:])
			if err != nil {
				break
			}
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatalf("%s at %d: %v", seg, off, err)
			}
			if rec.Kind == "submit" || rec.Kind == "state" {
				out = append(out, rec)
			}
			off += n
		}
	}
	return out
}

// stateByName maps a services-layer state name back to its JobState.
func stateByName(t *testing.T, name string) JobState {
	t.Helper()
	for s := JobQueued; s <= JobCanceled; s++ {
		if s.String() == name {
			return s
		}
	}
	t.Fatalf("unknown state name %q", name)
	return 0
}

// documentedEdges is the job lifecycle as API.md and the Job contract
// state it, written out apart from the table under test: every pair it
// leaves out must be refused.
var documentedEdges = map[[2]JobState]edge{
	{JobQueued, JobScheduling}:    forward,
	{JobQueued, JobFailed}:        forward,
	{JobQueued, JobCanceled}:      forward,
	{JobScheduling, JobRunning}:   forward,
	{JobScheduling, JobFailed}:    forward,
	{JobScheduling, JobCanceled}:  forward,
	{JobRunning, JobDone}:         forward,
	{JobRunning, JobFailed}:       forward,
	{JobRunning, JobCanceled}:     forward,
	{replayLive, JobQueued}:       readopt,
	{replayLive, JobFailed}:       expire,
	{replayTerminal, JobDone}:     restore,
	{replayTerminal, JobFailed}:   restore,
	{replayTerminal, JobCanceled}: restore,
}

// TestLifecycleTable drives advance over every (state, target) pair,
// with and without a pending Cancel, and checks each surface a move
// can touch. An allowed edge produces exactly its side effects, in the
// fixed order: the row it publishes already carries the state, error,
// trace stamp and cleared hosts, and a subscriber filter, which the
// broker runs inside Publish, sees the counters, replay backlog, quota
// release and board row already updated and Done and the gauge not
// yet. A refused pair changes nothing: no board row, stream event, WAL
// record, metric, gauge sample, quota release or Done close.
func TestLifecycleTable(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Store.CompactEvery = 1 << 20
	env := newEnv(t, cfg)
	p := env.pipe
	m := env.obsM
	counters := func() [5]float64 {
		return [5]float64{m.completed[0].Value(), m.completed[1].Value(), m.completed[2].Value(),
			float64(m.phaseRun.Count()), float64(m.phaseTotal.Count())}
	}
	// sight is the world as the current move's stream publication saw
	// it: the broker runs a subscriber's filter inside Publish, on the
	// goroutine that advances, so it sees which steps ran before step 7.
	type sight struct {
		seen     bool
		counters [5]float64
		pending  int64
		charged  bool
		row      string
		done     bool
		gauge    int
	}
	var cur *Job
	var at sight
	sub, _, _ := p.events.Subscribe(0, 4096, func(ev jobsapi.StreamEvent) bool {
		if cur == nil || ev.Job.ID != cur.ID {
			return true
		}
		row, _ := env.Board.Get(cur.ID)
		at = sight{seen: true, counters: counters(), pending: p.recoveryPending.Load(), row: row.State,
			gauge: len(env.Metrics.Series("jobs:in-flight"))}
		p.admit.mu.Lock()
		at.charged = cur.usageCharged
		p.admit.mu.Unlock()
		select {
		case <-cur.done:
			at.done = true
		default:
		}
		return true
	})
	defer sub.Close()
	causes := map[JobState]error{JobFailed: errors.New("boom"), JobCanceled: ErrJobCanceled}
	g := spinJobGraph("table", 1)
	wantWAL := map[string]string{}

	for from := JobState(0); from < numStates; from++ {
		for to := JobState(0); to < numStates; to++ {
			for _, cancelReq := range []bool{false, true} {
				id := fmt.Sprintf("table-%d-%d-%t", from, to, cancelReq)
				j := p.newJob(submitSpec{owner: "table", graph: g, shareWeight: 1}, from)
				j.ID = id
				start := time.Now()
				j.submitted = start
				j.stampLocked(services.PhaseSubmitted, "", start)
				if from == JobRunning {
					j.started = start
				}
				replayedAt := start.Add(time.Millisecond)
				j.finished = replayedAt // a replayed record's finish time
				j.hostsHeld = 2
				j.replayPending = true
				p.recoveryPending.Add(1)
				j.expiry = time.AfterFunc(time.Hour, func() {})
				if cancelReq {
					j.cancelRequested = true
					close(j.cancelCh)
				}
				p.admit.mu.Lock()
				p.admit.owner("table").inFlight++
				j.usageCharged = true
				p.admit.mu.Unlock()

				kind := documentedEdges[[2]JobState{from, to}]
				if kind == forward && !to.terminal() && cancelReq {
					kind = refused
				}
				moved, terminal := kind != refused, to.terminal()
				liveTerminal := kind == forward && terminal
				before, gauge, pending := counters(), len(env.Metrics.Series("jobs:in-flight")), p.recoveryPending.Load()
				traceLen := len(j.trace)
				cause := causes[to]
				cur, at = j, sight{}

				got := j.advance(to, cause, nil)

				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%v -> %v (cancel requested %t, edge %d): %s; trace %+v",
						from, to, cancelReq, kind, fmt.Sprintf(format, args...), j.Trace().Events)
				}
				if got != moved {
					fail("advance returned %t", got)
				}
				wantState := from
				if moved {
					wantState = to
				}
				if j.state != wantState {
					fail("state %v, want %v", j.state, wantState)
				}
				var events []jobsapi.StreamEvent
				for drained := false; !drained; {
					select {
					case ev := <-sub.C:
						events = append(events, ev)
					default:
						drained = true
					}
				}
				wantEvents := 0
				if kind == forward || kind == expire {
					wantEvents = 1
					wantWAL[id] = to.String()
				}
				if len(events) != wantEvents {
					fail("%d stream events, want %d", len(events), wantEvents)
				}
				row, ok := env.Board.Get(id)
				if wantRow := kind == forward || kind == expire || kind == restore; ok != wantRow {
					fail("board row present %t, want %t", ok, wantRow)
				}
				if ok && row.State != to.String() {
					fail("board row state %q, want %q", row.State, to)
				}
				// Steps 1-3 precede publication: the published row already
				// carries the new state, the error, the finish time and the
				// cleared hosts; steps 4-6 and the board row precede the
				// stream event, steps 9-10 follow it.
				if wantEvents > 0 {
					wantCharged := j.usageCharged
					if !at.seen || at.counters != counters() || at.pending != p.recoveryPending.Load() ||
						at.charged != wantCharged || at.row != to.String() || at.done || at.gauge != gauge {
						fail("out of order at publication: %+v (gauge before %d)", at, gauge)
					}
				}
				for _, ev := range events {
					s := ev.Job
					if s.ID != id || s.State != to.String() || (cause != nil && s.Error != cause.Error()) {
						fail("published %+v", s)
					}
					if terminal && (s.HostsHeld != 0 || !s.FinishedAt.Equal(j.finished)) {
						fail("published terminal row before its stamps: %+v", s)
					}
				}
				select {
				case <-j.done:
					if !moved || !terminal {
						fail("done closed")
					}
				default:
					if moved && terminal {
						fail("done still open")
					}
				}
				after := counters()
				want := before
				if liveTerminal {
					want[to-JobDone]++
					want[4]++
					if from == JobRunning {
						want[3]++
					}
				}
				if after != want {
					fail("counters %v, want %v (before %v)", after, want, before)
				}
				wantGauge, wantPending := gauge, pending
				if kind == forward {
					wantGauge, wantPending = gauge+1, pending-1
				}
				if n := len(env.Metrics.Series("jobs:in-flight")); n != wantGauge {
					fail("%d gauge samples, want %d", n, wantGauge)
				}
				if n := p.recoveryPending.Load(); n != wantPending {
					fail("replay backlog %d, want %d", n, wantPending)
				}
				if j.usageCharged == liveTerminal {
					fail("quota still charged %t", j.usageCharged)
				}
				if held := j.hostsHeld; (held == 0) != (moved && terminal) {
					fail("hosts held %d", held)
				}
				if stillArmed := j.expiry.Stop(); stillArmed == (moved && terminal) {
					fail("expiry timer armed %t", stillArmed)
				}
				switch {
				case moved && terminal:
					last := j.trace[len(j.trace)-1]
					if last.Event != to.String() || !j.finished.Equal(last.At) {
						fail("last trace event %+v, finished %v", last, j.finished)
					}
					if kind != forward && !last.At.Equal(replayedAt) {
						fail("replayed stamp at %v, want the record's %v", last.At, replayedAt)
					}
				case moved && to == JobRunning:
					if last := j.trace[len(j.trace)-1]; last.Event != services.PhaseRunning || len(j.trace) != traceLen+1 {
						fail("running stamp missing")
					}
				default:
					if len(j.trace) != traceLen {
						fail("trace grew")
					}
				}
			}
		}
	}

	if err := env.Store.Sync(); err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, rec := range readWAL(t, dir) {
		if strings.HasPrefix(rec.jobID(), "table-") {
			got[rec.jobID()] = append(got[rec.jobID()], rec.state())
		}
	}
	for id, states := range got {
		if want, ok := wantWAL[id]; !ok || len(states) != 1 || states[0] != want {
			t.Errorf("%s: WAL records %v, want [%s]", id, states, want)
		}
	}
	for id, want := range wantWAL {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: no WAL record, want [%s]", id, want)
		}
	}
}

// jobHistory is what one job left on each surface: per incarnation,
// the state of every stream event and every WAL record in order.
type jobHistory struct {
	stream [][]string
	wal    [][]string
}

// checkPath reports why a sequence of observed states, one slice per
// incarnation, is not a path in the lifecycle table, or "" when it is.
// Consecutive repeats are one state (a publish that moved nothing), and
// each change within an incarnation must be a live edge. durable
// carries the state across restarts, as the WAL does: a non-terminal
// job is re-adopted as queued and a terminal one never moves again.
// Otherwise, as for the per-incarnation event stream, where a graceful
// shutdown publishes failures it does not persist, each incarnation
// opens afresh: at queued, or after a restart at failed when the
// deadline passed during the downtime.
func checkPath(t *testing.T, incarnations [][]string, durable bool) string {
	cur := JobState(-1)
	for inc, states := range incarnations {
		switch {
		case !durable:
			cur = -1
		case inc > 0 && cur >= 0 && !cur.terminal():
			cur = JobQueued // re-adoption
		}
		for _, name := range states {
			s := stateByName(t, name)
			switch {
			case s == cur:
			case cur < 0 && (s == JobQueued || !durable && inc > 0 && s == JobFailed):
				cur = s
			case cur < 0:
				return fmt.Sprintf("opens at %v (incarnation %d)", s, inc+1)
			case documentedEdges[[2]JobState{cur, s}] != forward:
				return fmt.Sprintf("%v -> %v is not a live edge (incarnation %d)", cur, s, inc+1)
			default:
				cur = s
			}
		}
	}
	return ""
}

// TestLifecycleInterleaving runs a seeded mix of submissions (some
// with deadlines short enough to expire while queued), cancels, worker
// pops and claims and host-quota parks (one held host per owner, two
// workers) across three incarnations of a durable control plane: the
// first crashes, the second closes gracefully, the third drains. Each
// job's stream events and WAL records must form a path in the
// lifecycle table, its final board row must match its handle, its
// trace must end in its terminal state, and it may end failed only by
// its deadline: the failures a graceful shutdown causes are never
// persisted. Every goroutine and descriptor comes back once the last
// incarnation closes.
func TestLifecycleInterleaving(t *testing.T) {
	base := takeLeakBaseline()
	const seed = 16
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := Config{
		Testbed: testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 11, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{SchedulerWorkers: 2, MaxConcurrentRuns: 1, EventBuffer: 1 << 13,
			Quota: QuotaConfig{MaxHostsPerOwner: 1}},
		StoreDir: dir,
		Store:    store.Options{CompactEvery: 1 << 20},
	}
	ctx := context.Background()
	hist := map[string]*jobHistory{}
	var ids []string
	owners := []string{"ann", "bo", "cy"}
	// mix counts the paths the run took: host parks and re-adoptions
	// from each incarnation's traces before it ends, terminal states
	// and deadline failures from the final ones.
	mix := map[string]int{}
	tally := func(env *Environment) {
		for _, id := range ids {
			if j, ok := env.pipe.job(id); ok {
				for _, ev := range j.Trace().Events {
					if ev.Event == "host-park" || ev.Event == "recovered" {
						mix[ev.Event]++
					}
				}
			}
		}
	}

	// run plays steps seeded actions against env.
	run := func(env *Environment, steps int) {
		for i := 0; i < steps; i++ {
			switch r := rng.Intn(10); {
			case r < 6:
				opts := []SubmitOption{WithOwner(owners[rng.Intn(len(owners))])}
				if rng.Intn(3) == 0 {
					opts = append(opts, WithDeadline(time.Now().Add(time.Duration(2+rng.Intn(30))*time.Millisecond)))
				}
				j, err := env.Submit(ctx, spinJobGraph("mix", 1+rng.Intn(4)), opts...)
				if errors.Is(err, ErrJobDeadlineExceeded) {
					continue // the deadline passed before Submit ran
				}
				if err != nil {
					t.Fatalf("seed %d: submit: %v", seed, err)
				}
				ids = append(ids, j.ID)
				hist[j.ID] = &jobHistory{}
			case r < 8 && len(ids) > 0:
				if err := env.CancelJob(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatalf("seed %d: cancel: %v", seed, err)
				}
			default:
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		}
	}
	// open boots an incarnation and subscribes to its stream from the
	// first cursor, so the boot replay's events are in the replay too;
	// collect files them per job once the incarnation ended.
	inc := 0
	collect := func(replay []jobsapi.StreamEvent, sub *jobsapi.Subscriber) {
		defer sub.Close()
		for _, h := range hist {
			for len(h.stream) <= inc {
				h.stream = append(h.stream, nil)
			}
		}
		add := func(ev jobsapi.StreamEvent) {
			if h := hist[ev.Job.ID]; h != nil {
				h.stream[inc] = append(h.stream[inc], ev.Job.State)
			}
		}
		for _, ev := range replay {
			add(ev)
		}
		for drained := false; !drained; {
			select {
			case ev := <-sub.C:
				add(ev)
			default:
				drained = true
			}
		}
		if sub.Evicted() || len(replay) >= cfg.Pipeline.EventBuffer {
			t.Fatalf("seed %d: incarnation %d overflowed the event ring", seed, inc+1)
		}
		inc++
	}
	open := func() (*Environment, *jobsapi.Subscriber, []jobsapi.StreamEvent) {
		env, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: boot %d: %v", seed, inc+1, err)
		}
		sub, replay, _ := env.pipe.events.Subscribe(1, cfg.Pipeline.EventBuffer, nil)
		return env, sub, replay
	}

	env, sub, replay := open()
	run(env, 48)
	tally(env)
	env.Crash()
	collect(replay, sub)
	walCrash := len(readWAL(t, dir))
	time.Sleep(35 * time.Millisecond) // let queued deadlines pass while down

	env, sub, replay = open()
	run(env, 32)
	if err := env.Store.Sync(); err != nil {
		t.Fatal(err)
	}
	walBeforeClose := readWAL(t, dir)
	tally(env)
	env.Close()
	collect(replay, sub)

	env, sub, replay = open()
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err := env.Drain(dctx)
	cancel()
	if err != nil {
		t.Fatalf("seed %d: drain: %v", seed, err)
	}
	if err := env.Store.Sync(); err != nil {
		t.Fatal(err)
	}
	walLast := readWAL(t, dir)
	tally(env)
	final := map[string]services.JobTrace{}
	rows := map[string]services.JobStatus{}
	for _, id := range ids {
		if j, ok := env.pipe.job(id); ok {
			final[id] = j.Trace()
		}
		if row, ok := env.Board.Get(id); ok {
			rows[id] = row
		}
	}
	env.Close()
	collect(replay, sub)
	base.wait(t)

	for i, rec := range walBeforeClose {
		if h := hist[rec.jobID()]; h != nil {
			n := 0
			if i >= walCrash {
				n = 1
			}
			for len(h.wal) <= n {
				h.wal = append(h.wal, nil)
			}
			h.wal[n] = append(h.wal[n], rec.state())
		}
	}
	for _, rec := range walLast {
		if h := hist[rec.jobID()]; h != nil {
			for len(h.wal) < 3 {
				h.wal = append(h.wal, nil)
			}
			h.wal[2] = append(h.wal[2], rec.state())
		}
	}
	for _, tr := range final {
		mix[tr.State]++
		if strings.HasPrefix(tr.Events[len(tr.Events)-1].Detail, ErrJobDeadlineExceeded.Error()) {
			mix["deadline"]++
		}
	}
	t.Logf("seed %d: %d jobs, mix %v", seed, len(ids), mix)
	for _, k := range []string{services.JobStateCanceled, "deadline", "host-park", "recovered"} {
		if mix[k] == 0 {
			t.Errorf("seed %d: the mix exercised no %s path: %v", seed, k, mix)
		}
	}
	for _, id := range ids {
		h := hist[id]
		tr, ok := final[id]
		report := func(why string) {
			t.Errorf("seed %d: job %s: %s\n  stream by incarnation: %q\n  WAL by incarnation: %q\n  trace: %+v",
				seed, id, why, h.stream, h.wal, tr.Events)
		}
		if !ok {
			report("lost across restarts")
			continue
		}
		if why := checkPath(t, h.stream, false); why != "" {
			report("stream events: " + why)
		}
		if why := checkPath(t, h.wal, true); why != "" {
			report("WAL records: " + why)
		}
		if last := tr.Events[len(tr.Events)-1].Event; last != tr.State || !stateByName(t, tr.State).terminal() {
			report(fmt.Sprintf("trace ends with %q in state %q", last, tr.State))
		}
		if last := tr.Events[len(tr.Events)-1]; tr.State == services.JobStateFailed &&
			!strings.HasPrefix(last.Detail, ErrJobDeadlineExceeded.Error()) {
			// Spin jobs fail only by deadline; a graceful shutdown's
			// failures must not be persisted.
			report(fmt.Sprintf("failed durably with %q", last.Detail))
		}
		if row := rows[id]; row.State != tr.State {
			report(fmt.Sprintf("board row %q, handle %q", row.State, tr.State))
		}
		if s := h.stream[2]; len(s) > 0 && s[len(s)-1] != tr.State {
			report(fmt.Sprintf("last stream event %q, handle %q", s[len(s)-1], tr.State))
		}
	}
}

// TestSubmitCancelRaceEndsTerminal races Cancel by ID against Submit: a
// goroutine spins on the next job ID and cancels each job the moment it
// is registered. Wherever the Cancel lands, Submit returns the job or
// ErrJobCanceled, the job's trace ends at its terminal state, its
// deadline timer is stopped, only returned jobs count as accepted, and
// no canceled job keeps a queue slot.
func TestSubmitCancelRaceEndsTerminal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 5, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{SchedulerWorkers: 1, MaxConcurrentRuns: 1},
	})
	const n = 20000
	var submitted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			id := fmt.Sprintf("job-%d", i)
			for {
				if j, ok := env.pipe.job(id); ok {
					j.Cancel()
					break
				}
				if submitted.Load() >= int64(i) {
					break // ended and evicted before the lookup
				}
			}
		}
	}()
	ctx := context.Background()
	g := spinJobGraph("race", 1)
	deadline := time.Now().Add(time.Hour)
	returned := 0
	var batch []*Job
	check := func() {
		for _, j := range batch {
			wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			err := j.Wait(wctx)
			cancel()
			if err != nil && !errors.Is(err, ErrJobCanceled) {
				t.Fatalf("job %s: %v", j.ID, err)
			}
			checkTracePin(t, j.Trace(), false)
			j.mu.Lock()
			armed := j.expiry.Stop()
			j.mu.Unlock()
			if armed {
				t.Fatalf("job %s: deadline timer still armed after %s", j.ID, j.State())
			}
		}
		batch = batch[:0]
	}
	for i := 0; i < n; i++ {
		j, err := env.Submit(ctx, g, WithDeadline(deadline))
		submitted.Add(1)
		switch {
		case errors.Is(err, ErrJobCanceled):
		case err != nil:
			t.Fatal(err)
		default:
			returned++
			batch = append(batch, j)
		}
		if len(batch) == 1024 {
			check()
		}
	}
	wg.Wait()
	check()
	m := env.obsM
	if got := int(m.accepted.Value()); got != returned {
		t.Fatalf("%d submissions counted accepted, %d returned a job", got, returned)
	}
	if got := int(m.submitWait.Count()); got != returned {
		t.Fatalf("%d submit waits observed, %d returned a job", got, returned)
	}
	if q, slots := env.pipe.admit.queuedLen(), len(env.pipe.slots); q != 0 || slots != 0 {
		t.Fatalf("after every job ended: %d queued, %d queue slots held", q, slots)
	}
}
