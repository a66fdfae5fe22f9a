package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"time"

	"vdce"
	"vdce/internal/afg"
	"vdce/internal/jobsapi"
	"vdce/internal/services"
)

// app is one submission in flight.
type app struct {
	job    *vdce.Job
	client int
	graph  int
	start  time.Time     // when the generator called Submit
	call   time.Duration // how long the Submit call took
}

// gen is the closed-loop generator. One goroutine drives it: it keeps
// every client's depth of apps in flight and submits a client's next
// app as soon as one of its apps is terminal.
type gen struct {
	env    *vdce.Environment
	w      workload
	graphs []*afg.Graph
	refs   []reference
	opts   [][]vdce.SubmitOption // per client
	jobs   http.Handler

	next  int
	apps  []app
	cases []reflect.SelectCase // cases[0] is the window timer; cases[i+1] waits on apps[i]

	attempted, failed, rejects int
	errs                       int // failed probes and replays; any makes the run incorrect
	reports                    int
	cursor                     string // the next GET /v1/jobs page; "" restarts at the first
}

func newGen(env *vdce.Environment, w workload, graphs []*afg.Graph, refs []reference) *gen {
	g := &gen{
		env: env, w: w, graphs: graphs, refs: refs,
		cases: []reflect.SelectCase{{Dir: reflect.SelectRecv}},
		jobs: env.JobsHandler(jobsapi.Config{
			Authenticate: func(*http.Request) (string, bool) { return "perfbench", true },
		}),
	}
	for _, c := range w.clients {
		o := []vdce.SubmitOption{vdce.WithMaxHosts(maxHosts)}
		if c.owner != "" {
			o = append(o, vdce.WithOwner(c.owner), vdce.WithShareWeight(c.weight))
		}
		g.opts = append(g.opts, o)
	}
	return g
}

// fill submits every client's outstanding depth.
func (g *gen) fill() {
	for ci, c := range g.w.clients {
		for i := 0; i < c.depth; i++ {
			g.submit(ci)
		}
	}
}

func (g *gen) submit(ci int) {
	gi := g.next % len(g.graphs)
	g.next++
	g.attempted++
	start := time.Now()
	job, err := g.env.Submit(context.Background(), g.graphs[gi], g.opts[ci]...)
	call := time.Since(start)
	if err != nil {
		g.failed++
		g.rejects++
		g.report("submit refused: %v", err)
		return
	}
	g.apps = append(g.apps, app{job: job, client: ci, graph: gi, start: start, call: call})
	g.cases = append(g.cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(job.Done())})
}

// wait blocks until an app is terminal or timer fires (nil: never).
// ok is false when the timer fired or nothing is in flight.
func (g *gen) wait(timer <-chan time.Time) (a app, ok bool) {
	if len(g.apps) == 0 && timer == nil {
		return app{}, false
	}
	g.cases[0].Chan = reflect.Value{}
	if timer != nil {
		g.cases[0].Chan = reflect.ValueOf(timer)
	}
	chosen, _, _ := reflect.Select(g.cases)
	if chosen == 0 {
		return app{}, false
	}
	a = g.apps[chosen-1]
	last := len(g.apps) - 1
	g.apps[chosen-1] = g.apps[last]
	g.apps = g.apps[:last]
	g.cases[chosen] = g.cases[last+1]
	g.cases = g.cases[:last+1]
	return a, true
}

// finish checks a terminal app against its reference and returns its
// status; ok is false for a failed, canceled or wrong-output app.
func (g *gen) finish(a app) (services.JobStatus, bool) {
	st := a.job.Status()
	err := a.job.Err()
	if err == nil {
		err = g.refs[a.graph].check(a.job.Result())
	}
	if err != nil {
		g.failed++
		g.report("%s (%s): %v", a.job.ID, g.graphs[a.graph].Name, err)
		return st, false
	}
	return st, true
}

// warm completes n apps without measuring them.
func (g *gen) warm(n int) {
	for i := 0; i < n; i++ {
		a, ok := g.wait(nil)
		if !ok {
			return
		}
		g.finish(a)
		g.submit(a.client)
	}
}

// drain stops submitting and waits for every app still in flight.
func (g *gen) drain() {
	for {
		a, ok := g.wait(nil)
		if !ok {
			return
		}
		g.finish(a)
	}
}

// window runs the closed loop for d (or, when maxApps > 0, until
// maxApps apps are terminal) and returns what it measured. keep, when
// non-nil, receives every app that completes correctly in the window.
func (g *gen) window(d time.Duration, maxApps int, keep func(app)) measurement {
	before := readCounters(g.env)
	var timer <-chan time.Time
	if maxApps <= 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timer = t.C
	}
	every := g.w.listEvery
	if maxApps > 0 {
		every = min(every, maxApps) // a short window still reads a page
	}
	perClient := make([]int, len(g.w.clients))
	var lat, list []float64
	for seen := 0; maxApps <= 0 || seen < maxApps; seen++ {
		a, ok := g.wait(timer)
		if !ok {
			break
		}
		st, good := g.finish(a)
		g.submit(a.client)
		if !good {
			continue
		}
		lat = append(lat, ms(st.FinishedAt.Sub(a.start)))
		perClient[a.client]++
		if keep != nil {
			keep(a)
		}
		if len(lat)%every == 0 {
			list = append(list, g.listPage())
			g.count()
		}
	}
	m := measure(before, readCounters(g.env))
	m.latencyMs, m.perClient, m.listMs = lat, perClient, list
	return m
}

// listPage reads the next GET /v1/jobs?limit=100 cursor page, walking
// on from the previous page and wrapping at the end. It returns the
// handler's time in ms.
func (g *gen) listPage() float64 {
	var page struct {
		NextCursor string `json:"next_cursor"`
	}
	path := "/v1/jobs?limit=100"
	if g.cursor != "" {
		path += "&cursor=" + url.QueryEscape(g.cursor)
	}
	d := g.get(path, &page)
	g.cursor = page.NextCursor
	return ms(d)
}

// count reads GET /v1/jobs?limit=0 and returns the retained job count
// and the handler's time.
func (g *gen) count() (int, time.Duration) {
	var c struct {
		Total int `json:"total"`
	}
	d := g.get("/v1/jobs?limit=0", &c)
	return c.Total, d
}

// get serves one request through the jobs API handler in-process and
// returns how long the handler took. A failed request counts as a
// failure of the run.
func (g *gen) get(path string, v any) time.Duration {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	start := time.Now()
	g.jobs.ServeHTTP(rec, req)
	d := time.Since(start)
	err := json.Unmarshal(rec.Body.Bytes(), v)
	if rec.Code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	if err != nil {
		g.fail("GET "+path, err)
	}
	return d
}

// fail counts a failed probe or replay; any makes the run incorrect.
func (g *gen) fail(what string, err error) {
	g.errs++
	g.report("%s: %v", what, err)
}

// report prints the first few failures to stderr; a failing loop would
// otherwise print one line per app.
func (g *gen) report(format string, args ...any) {
	const maxReports = 20
	if g.reports++; g.reports <= maxReports {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}
