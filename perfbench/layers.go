package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/exec"
	"vdce/internal/services"
	"vdce/internal/store"
	"vdce/internal/tasklib"
)

// span is one interval of an app, built from outside the program: the
// Submit call, the phases of the job's Trace(), and one span per
// TaskRun of its Result(). Spans of one app share the job ID; the
// layer a span belongs to is the prefix of its name.
type span struct {
	Job     string    `json:"job"`
	ID      int       `json:"id"`
	Parent  int       `json:"parent,omitempty"` // 0: the app's root span
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Task    string    `json:"task,omitempty"`
	Host    string    `json:"host,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
}

func (s span) layer() string { l, _, _ := strings.Cut(s.Name, "."); return l }

// tracedApp is what the traced window keeps of one app.
type tracedApp struct {
	id      string
	client  int
	graph   int
	call    time.Duration
	timings services.JobTimings
	runs    []exec.TaskRun
	spans   []span // spans[0] is the root
}

type tracer struct {
	apps    []tracedApp
	nextID  int
	results map[int]*exec.Result // first result of each distinct graph
	tables  map[int]*core.AllocationTable
}

func newTracer() *tracer {
	return &tracer{results: map[int]*exec.Result{}, tables: map[int]*core.AllocationTable{}}
}

// keep records one completed app of the traced window.
func (t *tracer) keep(c app) {
	tr := c.job.Trace()
	res := c.job.Result()
	if tr.Timings == nil || res == nil {
		return
	}
	tm := *tr.Timings
	a := tracedApp{id: c.job.ID, client: c.client, graph: c.graph, call: c.call, timings: tm, runs: res.Runs}
	add := func(parent int, name string, start, end time.Time) int {
		t.nextID++
		a.spans = append(a.spans, span{Job: a.id, ID: t.nextID, Parent: parent, Name: name, Start: start, End: end})
		return t.nextID
	}
	root := add(0, "vdce.app", c.start, tm.FinishedAt)
	add(root, "admission.submit_call", c.start, c.start.Add(c.call))
	add(root, "admission.submit_wait", tm.SubmittedAt, tm.AdmittedAt)
	add(root, "admission.queue_wait", tm.AdmittedAt, tm.ScheduledAt)
	add(root, "dispatch.wait", tm.ScheduledAt, tm.DispatchedAt)
	run := add(root, "exec.run", tm.RunningAt, tm.FinishedAt)
	for _, r := range res.Runs {
		add(run, "tasklib.task", r.Start, r.End)
		s := &a.spans[len(a.spans)-1]
		s.Task, s.Host, s.Attempt = r.TaskName, r.Host, r.Attempt
	}
	t.apps = append(t.apps, a)
	if _, ok := t.results[c.graph]; !ok {
		t.results[c.graph] = res
		t.tables[c.graph] = c.job.Table()
	}
}

// selfMsPerApp derives each layer's self time from the spans: a span's
// duration minus the part of it its children cover, summed per layer
// and averaged over apps.
func (t *tracer) selfMsPerApp() map[string]float64 {
	self := map[string]float64{}
	for _, a := range t.apps {
		children := map[int][]span{}
		for _, s := range a.spans {
			children[s.Parent] = append(children[s.Parent], s)
		}
		for _, s := range a.spans {
			self[s.layer()] += ms(s.End.Sub(s.Start) - covered(s, children[s.ID]))
		}
	}
	for l := range self {
		self[l] /= float64(max(len(t.apps), 1))
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start.Before(children[j].Start) })
	var total time.Duration
	var cur time.Time
	for _, c := range children {
		start, end := c.Start, c.End
		if start.Before(parent.Start) {
			start = parent.Start
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if start.Before(cur) {
			start = cur
		}
		if end.After(start) {
			total += end.Sub(start)
			cur = end
		}
	}
	return total
}

// write stores every span as one JSON line under workDir.
func (t *tracer) write(cfg config) (string, error) {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, a := range t.apps {
		for _, s := range a.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// perLayer fills the per-layer metrics: from the untraced window (what
// needs no tracing), from the traced window's spans, and from replays
// of recorded work through each layer's public functions.
func perLayer(out map[string]metric, cfg config, b *bench, t *tracer, untraced, traced measurement) {
	g := b.gen
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	var call, submitWait, queueWait, dispatchWait, run, crit, overhead, compute []float64
	runs, tasks := 0, 0
	for _, a := range t.apps {
		tm := a.timings
		call = append(call, us(a.call))
		submitWait = append(submitWait, tm.SubmitWaitSeconds*1e3)
		queueWait = append(queueWait, tm.QueueWaitSeconds*1e3)
		dispatchWait = append(dispatchWait, tm.DispatchWaitSeconds*1e3)
		run = append(run, tm.RunSeconds*1e3)
		c, sum := criticalCompute(g.graphs[a.graph], a.runs)
		crit = append(crit, c)
		overhead = append(overhead, tm.RunSeconds*1e3-c)
		compute = append(compute, sum)
		runs += len(a.runs)
		tasks += len(g.graphs[a.graph].Tasks)
	}
	put("latency_p99_ms", quantile(untraced.latencyMs, 0.99), "ms")
	put("admission.submit_call_us_p50", median(call), "us")
	put("admission.submit_wait_ms_p50", median(submitWait), "ms")
	put("admission.queue_wait_ms_p50", median(queueWait), "ms")
	put("admission.queue_wait_ms_p90", quantile(queueWait, 0.9), "ms")
	put("admission.share_err", shareErr(cfg.w.clients, untraced.perClient), "ratio")
	put("admission.rejects", float64(g.rejects), "count")
	put("dispatch.wait_ms_p50", median(dispatchWait), "ms")
	put("exec.run_ms_p50", median(run), "ms")
	put("exec.run_ms_p90", quantile(run, 0.9), "ms")
	put("exec.critical_compute_ms_p50", median(crit), "ms")
	put("exec.overhead_ms_p50", median(overhead), "ms")
	put("exec.attempts_per_task", float64(runs)/float64(max(tasks, 1)), "ratio")
	put("tasklib.compute_ms_per_app", mean(compute), "ms")
	put("core.rankcache_hit_ratio", hitRatio(untraced.delta.cache), "ratio")
	put("runtime.gc_cpu_frac", untraced.delta.gcCPU/untraced.delta.cpu.Seconds(), "ratio")
	put("trace.overhead_frac", 1-traced.appsPerSec()/untraced.appsPerSec(), "ratio")
	self := t.selfMsPerApp()
	for _, l := range []string{"vdce", "admission", "dispatch", "exec", "tasklib"} {
		put(l+".self_ms_per_app", self[l], "ms")
	}

	replaySchedule(put, b)
	replayCodec(put, b, t)
	replayExecute(put, b, t)
	replayStore(put, b, t)
	counts := make([]float64, 0, 50)
	rows := 0
	for i := 0; i < 50; i++ {
		n, d := g.count()
		counts = append(counts, us(d))
		rows = n
	}
	put("jobsapi.count_us_p50", median(counts), "us")
	put("services.board_rows", float64(rows), "count")
	put("vdce.serial_apps_per_s", serialAppsPerSec(b, cfg), "apps/s")
}

// criticalCompute returns the critical path of the graph over the
// measured compute time of each task's last attempt, and the sum of
// every attempt's compute time, both in ms.
func criticalCompute(g *afg.Graph, runs []exec.TaskRun) (crit, sum float64) {
	elapsed := make([]float64, len(g.Tasks))
	for _, r := range runs {
		sum += ms(r.Elapsed)
		if !r.Terminated {
			elapsed[r.Task] = ms(r.Elapsed)
		}
	}
	_, crit, err := g.CriticalPath(func(id afg.TaskID) float64 { return elapsed[id] })
	if err != nil {
		return 0, sum
	}
	return crit, sum
}

// shareErr is the largest relative deviation of an owner's share of
// completions from its weight's share of the total weight.
func shareErr(clients []client, done []int) float64 {
	total, weights := 0, 0
	for i, c := range clients {
		total += done[i]
		weights += max(c.weight, 1)
	}
	worst := 0.0
	for i, c := range clients {
		want := float64(max(c.weight, 1)) / float64(weights)
		got := float64(done[i]) / float64(max(total, 1))
		worst = max(worst, math.Abs(got-want)/want)
	}
	return worst
}

func hitRatio(s core.RankCacheStats) float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// replaySchedule runs each distinct graph through a site scheduler's
// Schedule with the environment's cost function.
func replaySchedule(put func(string, float64, string), b *bench) {
	const reps = 20
	var times []float64
	var allocs uint64
	for i, g := range b.gen.graphs {
		cost, err := b.env.CostFunc(g)
		if err != nil {
			b.gen.fail("cost function", err)
			continue
		}
		sched, err := b.env.SchedulerAt(i%len(b.env.Sites), maxHosts)
		if err != nil {
			b.gen.fail("scheduler", err)
			continue
		}
		m0, _ := memCounters()
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, err := sched.Schedule(g, cost); err != nil {
				b.gen.fail("schedule replay", err)
			}
			times = append(times, us(time.Since(start)))
		}
		m1, _ := memCounters()
		allocs += m1 - m0
	}
	put("core.schedule_us_p50", median(times), "us")
	put("core.schedule_allocs", float64(allocs)/float64(max(len(times), 1)), "count")
}

// replayCodec replays every edge's recorded out-port value through
// tasklib.EncodeValue and DecodeValue.
func replayCodec(put func(string, float64, string), b *bench, t *tracer) {
	const reps = 10
	var enc, dec time.Duration
	var bytes, n int
	var allocs uint64
	for gi, g := range b.gen.graphs {
		res, ok := t.results[gi]
		if !ok {
			continue
		}
		for _, e := range g.Edges {
			v := res.Outputs[e.From][e.FromPort]
			m0, _ := memCounters()
			for r := 0; r < reps; r++ {
				start := time.Now()
				data, err := tasklib.EncodeValue(v)
				mid := time.Now()
				back, derr := tasklib.DecodeValue(data)
				enc += mid.Sub(start)
				dec += time.Since(mid)
				if err == nil {
					err = derr
				}
				if err == nil && !reflect.DeepEqual(back, v) {
					err = fmt.Errorf("edge %d->%d does not survive a round trip", e.From, e.To)
				}
				if err != nil {
					b.gen.fail("codec replay", err)
				}
				bytes += len(data)
				n++
			}
			m1, _ := memCounters()
			allocs += m1 - m0
		}
	}
	per := float64(max(n, 1))
	put("tasklib.encode_us_per_edge", us(enc)/per, "us")
	put("tasklib.decode_us_per_edge", us(dec)/per, "us")
	put("tasklib.codec_allocs_per_edge", float64(allocs)/per, "count")
	put("tasklib.bytes_per_edge", float64(bytes)/per, "bytes")
}

// replayExecute replays each distinct graph's recorded allocation table
// through Engine.Execute, one app at a time, and checks the outputs.
func replayExecute(put func(string, float64, string), b *bench, t *tracer) {
	var times []float64
	for pass := 0; pass < 2; pass++ {
		for gi, g := range b.gen.graphs {
			table, ok := t.tables[gi]
			if !ok {
				continue
			}
			start := time.Now()
			res, err := b.env.Engine.Execute(context.Background(), g, table)
			times = append(times, ms(time.Since(start)))
			if err == nil {
				err = b.gen.refs[gi].check(res)
			}
			if err != nil {
				b.gen.fail("execute replay", err)
			}
		}
	}
	put("exec.execute_solo_ms_p50", median(times), "ms")
}

// replayStore appends the traced window's job records (submit, running,
// done) to a scratch store and reports the append latency and the WAL
// bytes per app.
func replayStore(put func(string, float64, string), b *bench, t *tracer) {
	const maxApps = 2000
	put("store.append_us_p50", math.NaN(), "us")
	put("store.wal_bytes_per_app", math.NaN(), "bytes")
	dir, err := tempDir("store-replay")
	if err != nil {
		b.gen.fail("scratch store", err)
		return
	}
	defer os.RemoveAll(dir)
	// No compaction, so every appended byte stays in the WAL segments.
	st, err := store.Open(dir, store.Options{CompactEvery: 1 << 30})
	if err != nil {
		b.gen.fail("scratch store", err)
		return
	}
	graphJSON := map[int]json.RawMessage{}
	var times []float64
	apps := t.apps[:min(len(t.apps), maxApps)]
	for _, a := range apps {
		gj, ok := graphJSON[a.graph]
		if !ok {
			if gj, err = b.gen.graphs[a.graph].EncodeJSON(); err != nil {
				b.gen.fail("graph json", err)
			}
			graphJSON[a.graph] = gj
		}
		c := b.gen.w.clients[a.client]
		tm := a.timings
		appends := []func() error{
			func() error {
				return st.JobSubmitted(store.JobRecord{
					ID: a.id, Owner: c.owner, Graph: gj, K: maxHosts, ShareWeight: max(c.weight, 1),
					SubmittedAt: tm.SubmittedAt, State: services.JobStateQueued,
				})
			},
			func() error { return st.JobState(a.id, services.JobStateRunning, "", tm.RunningAt, time.Time{}) },
			func() error { return st.JobState(a.id, services.JobStateDone, "", time.Time{}, tm.FinishedAt) },
		}
		for _, f := range appends {
			start := time.Now()
			err := f()
			times = append(times, us(time.Since(start)))
			if err != nil {
				b.gen.fail("store append", err)
			}
		}
	}
	if err := st.Sync(); err != nil {
		b.gen.fail("store sync", err)
	}
	var walBytes int64
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			walBytes += fi.Size()
		}
	}
	if err := st.Close(); err != nil {
		b.gen.fail("store close", err)
	}
	put("store.append_us_p50", median(times), "us")
	put("store.wal_bytes_per_app", float64(walBytes)/float64(max(len(apps), 1)), "bytes")
}

// serialAppsPerSec runs the workload's graphs through env.Run one at a
// time: the single-threaded baseline the pipeline is compared with.
func serialAppsPerSec(b *bench, cfg config) float64 {
	budget := cfg.window / 8
	start := time.Now()
	n := 0
	for ; (cfg.apps > 0 && n < cfg.apps) || (cfg.apps <= 0 && time.Since(start) < budget); n++ {
		gi := n % len(b.gen.graphs)
		_, res, err := b.env.Run(context.Background(), b.gen.graphs[gi], maxHosts)
		if err == nil {
			err = b.gen.refs[gi].check(res)
		}
		if err != nil {
			b.gen.fail("serial run", err)
		}
	}
	return float64(n) / time.Since(start).Seconds()
}
