// Package exec implements the VDCE Runtime System's execution path: the
// Application Controller, which sets up the execution environment on
// each assigned machine, monitors the run, and requests rescheduling
// when a machine's load crosses the threshold; and the Data Manager, the
// socket-based point-to-point communication system for inter-task data.
//
// The lifecycle follows §4: every task with dataflow inputs gets an
// inbox on its engine's data listener (registering the run's routes is
// the acknowledgment collection), the execution startup signal is
// broadcast, tasks run and stream their outputs to their children over
// TCP, and each completed execution is reported so the Site Manager can
// update the task-performance database.
//
// The data plane is one loopback listener per Engine, opened on the
// first Execute and shut by Close. Producers write length + CRC-32
// framed envelopes (internal/frame, protocol.DataEnvelope) on a small
// pool of persistent connections; one reader per accepted connection
// decodes each frame and routes it by (app ID, task) into the
// destination run's inbox. A receiver waits on its inbox and the run
// context together, so a silent or stalled peer cannot hold a task.
package exec

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vdce/internal/afg"
	"vdce/internal/breaker"
	"vdce/internal/core"
	"vdce/internal/protocol"
	"vdce/internal/services"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// Engine executes scheduled applications on the simulated testbed with
// real task code and real TCP data channels.
type Engine struct {
	// Reg resolves task names to implementations.
	Reg *tasklib.Registry
	// TB supplies the host models (dilation, load, failure, memory).
	TB *testbed.Testbed
	// Record receives one ExecutionRecord per successful task run;
	// typically wired to SiteManager.RecordExecution. Optional.
	Record func(protocol.ExecutionRecord)
	// LoadThreshold is the Application Controller's termination trigger:
	// if the primary host's load exceeds it mid-run, the task is killed
	// and rescheduled. <= 0 disables the check.
	LoadThreshold float64
	// LoadCheckPeriod is the watchdog cadence (default 5ms).
	LoadCheckPeriod time.Duration
	// DilationScale stretches task runtimes by the host model's dilation
	// factor to emulate heterogeneous hardware: extra sleep =
	// elapsed * (dilation-1) * DilationScale. 0 disables dilation.
	DilationScale float64
	// Reschedule supplies a replacement placement when a task must move
	// (load threshold or host failure), excluding the listed hosts. Nil
	// makes such events fatal.
	Reschedule func(g *afg.Graph, id afg.TaskID, exclude []string) (*core.Placement, error)
	// MaxAttempts bounds per-task executions (default 3).
	MaxAttempts int
	// Retry shapes rescheduling retries: per-attempt jittered backoff
	// plus the engine-wide token-bucket retry budget. The zero value
	// preserves the legacy immediate-retry behavior.
	Retry RetryConfig
	// Breakers, when non-nil, is the per-host circuit-breaker set: the
	// engine feeds it watchdog outcomes (failures open a flapping host's
	// breaker, successes close it again) and merges its open hosts into
	// every rescheduling exclusion list.
	Breakers *breaker.Set
	// Console gates task dispatch (suspend/resume). Optional.
	Console *services.Console
	// Metrics receives the task timeline for visualization. Optional.
	Metrics *services.Metrics
	// Log receives structured recovery events (host failures, task
	// reschedules) correlated by app ID. Optional; nil discards.
	Log *slog.Logger

	// retryOnce/retry materialize Retry into the shared gate.
	retryOnce sync.Once
	retry     *retryGate

	// lockMu guards hostLocks, the engine-wide table serializing task
	// execution per machine. It is shared by every concurrent Execute so
	// independent applications contend for the same simulated hardware.
	lockMu    sync.Mutex
	hostLocks map[string]*sync.Mutex

	// liveMu guards dead, the failure detector's confirmed-dead set. The
	// per-task watchdogs consult it every check period, so a confirmed
	// death interrupts every task running on the host even when the host
	// model itself looks alive (a network partition: the machine computes
	// on, but its results are unreachable).
	liveMu sync.RWMutex
	dead   map[string]bool

	// appSeq disambiguates app IDs of same-named graphs submitted within
	// the same nanosecond.
	appSeq atomic.Int64
	// inFlight/peakInFlight gauge how many applications execute
	// simultaneously.
	inFlight     atomic.Int32
	peakInFlight atomic.Int32

	// dataMu guards data, the data plane opened by the first Execute,
	// and closed, set by Close.
	dataMu sync.Mutex
	data   *dataPlane
	closed bool
}

// dataPlane returns the engine's data plane, opening it on first use.
func (e *Engine) dataPlane() (*dataPlane, error) {
	e.dataMu.Lock()
	defer e.dataMu.Unlock()
	if e.closed {
		return nil, errEngineClosed
	}
	if e.data == nil {
		dp, err := openDataPlane()
		if err != nil {
			return nil, err
		}
		e.data = dp
	}
	return e.data, nil
}

// Close shuts the engine's data plane down: the listener, the pooled
// connections and their readers. Runs still waiting for inputs fail, and
// later Execute calls return an error. Close is idempotent.
func (e *Engine) Close() {
	e.dataMu.Lock()
	dp := e.data
	e.data, e.closed = nil, true
	e.dataMu.Unlock()
	if dp != nil {
		dp.close()
	}
}

// lockHosts serializes execution on the given machines: a host runs one
// task at a time — across every application the engine is executing —
// exactly as the schedule simulator assumes. Locks are acquired in
// sorted order so multi-host (parallel) tasks cannot deadlock against
// each other. The returned function releases them.
func (e *Engine) lockHosts(hosts []string) func() {
	sorted := append([]string(nil), hosts...)
	sort.Strings(sorted)
	locks := make([]*sync.Mutex, 0, len(sorted))
	e.lockMu.Lock()
	if e.hostLocks == nil {
		e.hostLocks = make(map[string]*sync.Mutex)
	}
	for _, h := range sorted {
		l, ok := e.hostLocks[h]
		if !ok {
			l = &sync.Mutex{}
			e.hostLocks[h] = l
		}
		locks = append(locks, l)
	}
	e.lockMu.Unlock()
	for _, l := range locks {
		l.Lock()
	}
	return func() {
		for i := len(locks) - 1; i >= 0; i-- {
			locks[i].Unlock()
		}
	}
}

// PeakConcurrency reports the maximum number of applications the engine
// has had executing at the same time since it was created.
func (e *Engine) PeakConcurrency() int {
	return int(e.peakInFlight.Load())
}

// InFlight reports how many applications are executing right now.
func (e *Engine) InFlight() int {
	return int(e.inFlight.Load())
}

// discardLog backs logger() so recovery-path call sites never branch.
var discardLog = slog.New(slog.DiscardHandler)

// logger returns the engine's structured logger, or a discarding one.
func (e *Engine) logger() *slog.Logger {
	if e.Log != nil {
		return e.Log
	}
	return discardLog
}

// MarkHostDead records a failure-detector confirmation: every running
// task placed on the host is interrupted at its next watchdog check and
// flows through the rescheduler with the host excluded.
func (e *Engine) MarkHostDead(host string) {
	e.liveMu.Lock()
	if e.dead == nil {
		e.dead = make(map[string]bool)
	}
	e.dead[host] = true
	e.liveMu.Unlock()
}

// MarkHostAlive clears a detector confirmation after recovery.
func (e *Engine) MarkHostAlive(host string) {
	e.liveMu.Lock()
	delete(e.dead, host)
	e.liveMu.Unlock()
}

// hostDead reports whether the detector has confirmed the host dead.
func (e *Engine) hostDead(host string) bool {
	e.liveMu.RLock()
	defer e.liveMu.RUnlock()
	return e.dead[host]
}

// deadHostsExcept returns the confirmed-dead hosts not already in the
// given set — the extra exclusions a rescheduling request carries so a
// task is never re-placed onto a host the detector knows is gone.
func (e *Engine) deadHostsExcept(already map[string]bool) []string {
	e.liveMu.RLock()
	defer e.liveMu.RUnlock()
	var out []string
	for h := range e.dead {
		if !already[h] {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// breakerExcluded returns the open-breaker hosts not already excluded:
// the quarantine list a rescheduling request merges in so a flapping
// host — never quiet long enough for the detector to confirm dead —
// still stops winning placements.
func (e *Engine) breakerExcluded(already map[string]bool) []string {
	if e.Breakers == nil {
		return nil
	}
	var out []string
	for _, h := range e.Breakers.Excluded() {
		if !already[h] {
			out = append(out, h)
		}
	}
	return out
}

// EventType tags an execution progress event.
type EventType int

const (
	// EventHostFailure: a watchdog killed an attempt because its host
	// failed or was confirmed dead by the failure detector.
	EventHostFailure EventType = iota
	// EventOverload: a watchdog killed an attempt because the host's
	// load crossed the threshold.
	EventOverload
	// EventRescheduled: the task received a replacement placement and
	// will re-run there.
	EventRescheduled
)

// Event is one execution progress notification, streamed to the sink
// installed with WithEventSink as recovery happens mid-run.
type Event struct {
	Type     EventType
	Task     afg.TaskID
	TaskName string
	// Host is the offending host for failures/overloads and the new
	// primary host for reschedules.
	Host string
	// Hosts is the full replacement placement for reschedules (the
	// primary plus any parallel nodes); nil for other event types.
	Hosts []string
	// Reason is the watchdog's termination reason (failures/overloads).
	Reason string
}

// ExecOption configures one Execute call.
type ExecOption func(*execOpts)

type execOpts struct {
	sink func(Event)
}

// WithEventSink streams per-task recovery events (host losses,
// overload kills, reschedules) to fn as they happen, so callers can
// observe recovery while the run is still in flight. fn must be safe
// for concurrent use; it is called from the task controllers.
func WithEventSink(fn func(Event)) ExecOption {
	return func(o *execOpts) { o.sink = fn }
}

// TaskRun describes one attempt at executing a task.
type TaskRun struct {
	Task       afg.TaskID
	TaskName   string
	Host       string
	Attempt    int
	Start, End time.Time
	Elapsed    time.Duration
	Terminated bool // killed by the load threshold or a host failure
}

// Result is the outcome of Execute.
type Result struct {
	AppID    string
	Outputs  map[afg.TaskID][]tasklib.Value
	Runs     []TaskRun
	Makespan time.Duration
	// Rescheduled counts reschedule requests the Application Controllers
	// issued.
	Rescheduled int
	// FailedHosts lists the distinct hosts whose failure (crash or
	// detector confirmation — not overload) forced a task off them, in
	// first-observed order.
	FailedHosts []string
	// Table is the allocation table as actually executed: the input
	// table with every mid-run rescheduling patch applied. It is a fresh
	// copy — the caller's input table is never mutated.
	Table *core.AllocationTable
}

// errTerminated marks a watchdog kill internally.
var errTerminated = errors.New("exec: task terminated by application controller")

// terminationError is a watchdog kill carrying the offending host, so
// the rescheduling loop excludes the machine that actually misbehaved
// (which, for a parallel task, need not be the primary).
type terminationError struct {
	host   string
	reason string
}

func (t *terminationError) Error() string {
	return fmt.Sprintf("%v: %s on %s", errTerminated, t.reason, t.host)
}

func (t *terminationError) Unwrap() error { return errTerminated }

// Execute runs g as placed by table. It returns when every task has
// completed or any task fails permanently.
func (e *Engine) Execute(ctx context.Context, g *afg.Graph, table *core.AllocationTable, opts ...ExecOption) (*Result, error) {
	if e.Reg == nil || e.TB == nil {
		return nil, errors.New("exec: engine needs Reg and TB")
	}
	if err := table.Validate(g); err != nil {
		return nil, err
	}
	maxAttempts := e.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	checkPeriod := e.LoadCheckPeriod
	if checkPeriod <= 0 {
		checkPeriod = 5 * time.Millisecond
	}

	cur := e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	for {
		peak := e.peakInFlight.Load()
		if cur <= peak || e.peakInFlight.CompareAndSwap(peak, cur) {
			break
		}
	}

	var eo execOpts
	for _, opt := range opts {
		opt(&eo)
	}
	appID := fmt.Sprintf("%s-%d-%d", g.Name, time.Now().UnixNano(), e.appSeq.Add(1))
	dp, err := e.dataPlane()
	if err != nil {
		return nil, err
	}
	run := &appRun{
		engine:      e,
		g:           g,
		appID:       appID,
		data:        dp,
		maxAttempts: maxAttempts,
		checkPeriod: checkPeriod,
		sink:        eo.sink,
		placements:  make(map[afg.TaskID]*core.Placement, len(table.Entries)),
		outputs:     make(map[afg.TaskID][]tasklib.Value, len(g.Tasks)),
		failedSeen:  make(map[string]bool),
	}
	for i := range table.Entries {
		p := table.Entries[i]
		run.placements[p.Task] = &p
	}

	// Phase 1 (Data Manager setup): every task with dataflow inputs gets
	// its inbox on the engine's data listener before any task starts, so
	// no producer can send ahead of its consumer's route. Registering the
	// routes is the paper's acknowledgment collection.
	inboxes, err := dp.register(appID, g)
	if err != nil {
		return nil, err
	}
	defer dp.unregister(appID)
	controllers := make([]*appController, 0, len(g.Tasks))
	for _, task := range g.Tasks {
		ac, err := newAppController(run, task, inboxes[task.ID])
		if err != nil {
			return nil, err
		}
		controllers = append(controllers, ac)
	}

	// Phase 2: the execution startup signal.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, len(controllers))
	for _, ac := range controllers {
		wg.Add(1)
		go func(ac *appController) {
			defer wg.Done()
			if err := ac.run(runCtx); err != nil {
				errCh <- fmt.Errorf("task %d (%s): %w", ac.task.ID, ac.task.Name, err)
				cancel() // one permanent failure aborts the application
			}
		}(ac)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{
		AppID:       appID,
		Outputs:     run.outputs,
		Runs:        run.runs,
		Makespan:    time.Since(start),
		Rescheduled: int(run.rescheduled),
		FailedHosts: run.failedHosts,
		Table:       run.patchedTable(table),
	}
	return res, nil
}

// appRun is the shared state of one application execution.
type appRun struct {
	engine      *Engine
	g           *afg.Graph
	appID       string
	data        *dataPlane
	maxAttempts int
	checkPeriod time.Duration
	sink        func(Event) // optional recovery-event stream

	mu          sync.Mutex
	placements  map[afg.TaskID]*core.Placement
	outputs     map[afg.TaskID][]tasklib.Value
	runs        []TaskRun
	rescheduled int64
	failedHosts []string
	failedSeen  map[string]bool
}

// emit streams one recovery event to the run's sink, if any.
func (r *appRun) emit(ev Event) {
	if r.sink != nil {
		r.sink(ev)
	}
}

// recordFailedHost remembers a host lost to failure (not overload),
// first observation wins the ordering.
func (r *appRun) recordFailedHost(host string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.failedSeen[host] {
		r.failedSeen[host] = true
		r.failedHosts = append(r.failedHosts, host)
	}
}

// patchedTable returns a copy of the input allocation table with the
// run's final placements — every mid-run reschedule applied — so the
// caller's record of "where did this actually run" is coherent.
func (r *appRun) patchedTable(in *core.AllocationTable) *core.AllocationTable {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &core.AllocationTable{App: in.App, Entries: append([]core.Placement(nil), in.Entries...)}
	for i := range out.Entries {
		e := &out.Entries[i]
		if p := r.placements[e.Task]; p != nil {
			// Keep the original TransferIn/Level: reschedules replace the
			// placement, not the scheduling round's bookkeeping.
			e.Site, e.Predicted = p.Site, p.Predicted
			e.Hosts = append([]string(nil), p.Hosts...)
		}
	}
	return out
}

func (r *appRun) placement(id afg.TaskID) *core.Placement {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.placements[id]
}

func (r *appRun) setPlacement(id afg.TaskID, p *core.Placement) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.placements[id] = p
}

func (r *appRun) recordRun(tr TaskRun) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs = append(r.runs, tr)
}

func (r *appRun) storeOutputs(id afg.TaskID, vals []tasklib.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outputs[id] = vals
}
