package vdce

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/store"
)

// PipelineConfig sizes the concurrent submission pipeline. Zero fields
// take the listed defaults.
type PipelineConfig struct {
	// QueueDepth bounds the admission queue; Submit blocks (up to its
	// context) while the queue is full. Default 64.
	QueueDepth int
	// SchedulerWorkers is how many scheduler workers run core.Scheduler
	// rounds concurrently. Each job carries a home site — round-robin
	// across sites for anonymous submissions, the submitting site for
	// owned ones — so concurrent rounds spread across sites regardless of
	// worker count. Default 4.
	SchedulerWorkers int
	// MaxConcurrentRuns bounds how many applications the execution engine
	// runs simultaneously. Default 2 * SchedulerWorkers.
	MaxConcurrentRuns int
	// MaxRetainedJobs bounds how many jobs the pipeline and the job
	// board remember; the oldest *terminal* jobs are evicted first, so a
	// long-running server does not grow without bound. Default 1024.
	MaxRetainedJobs int
	// AgingStep is the starvation-protection rate of the priority
	// admission queue: a queued job's effective priority rises by one
	// level per AgingStep of waiting, so a low-priority job eventually
	// overtakes a stream of higher-priority arrivals. Default 30s.
	AgingStep time.Duration
	// Quota bounds each owner's simultaneous use of the pipeline:
	// queued jobs (admission rejects with a QuotaError), in-flight jobs
	// (excess parks in the queue while other owners dispatch past it),
	// and concurrently held hosts (a scheduled job parks before
	// execution). Zero fields are unlimited.
	Quota QuotaConfig
	// EventBuffer bounds the job event broker: the replay ring serving
	// Last-Event-ID reconnects and each stream subscriber's delivery
	// buffer (a subscriber that falls further behind is evicted, never
	// allowed to block the board). Default jobsapi.DefaultEventBuffer.
	EventBuffer int
	// APIRate is the per-owner token-bucket request rate limit that
	// jobsapi mounts over this environment enforce at the mux (requests
	// over budget answer 429 with Retry-After). The zero value disables
	// rate limiting.
	APIRate jobsapi.RateLimitConfig
	// Shed enables adaptive load shedding at admission: bounded queue
	// waits, deadline-infeasibility estimates, and breaker-saturation
	// rejection, all surfaced as typed *ShedError (HTTP 503 +
	// Retry-After). The zero value keeps the legacy block-until-slot
	// behavior.
	Shed ShedConfig
	// DispatchBatch is how many fairly-arbitrated jobs one scheduler
	// worker drains from the admission queue per wakeup, amortizing the
	// queue lock and the wake token across the batch — at scale, one
	// terminal job no longer costs one lock round-trip and one wakeup
	// per dispatched job. A worker that drains a full batch re-arms
	// another idle worker before processing, so deep backlogs still
	// spread across all workers; with fewer eligible jobs than the
	// batch, one worker processes them in pop order (latency bounded by
	// batch size, so keep it small). Default 8; 1 restores per-job
	// handoff.
	DispatchBatch int
}

func (c *PipelineConfig) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SchedulerWorkers <= 0 {
		c.SchedulerWorkers = 4
	}
	if c.MaxConcurrentRuns <= 0 {
		c.MaxConcurrentRuns = 2 * c.SchedulerWorkers
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 1024
	}
	if c.AgingStep <= 0 {
		c.AgingStep = 30 * time.Second
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = jobsapi.DefaultEventBuffer
	}
	if c.DispatchBatch <= 0 {
		c.DispatchBatch = 8
	}
	c.Shed.fillDefaults()
}

// JobState is a job's position in the submission lifecycle.
type JobState int32

const (
	// JobQueued: admitted, waiting for a scheduler worker.
	JobQueued JobState = iota
	// JobScheduling: a scheduler worker is running the site-scheduler
	// round (Fig. 2) for the job.
	JobScheduling
	// JobRunning: the execution engine is running the task graph.
	JobRunning
	// JobDone: every task completed; Result is available.
	JobDone
	// JobFailed: scheduling or execution failed permanently; Err is set.
	JobFailed
	// JobCanceled: the job was canceled — dropped from the admission
	// queue if it had not started, aborted through the execution engine's
	// cancellation path if it had. Err is ErrJobCanceled.
	JobCanceled
)

// String returns the services-layer state name.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return services.JobStateQueued
	case JobScheduling:
		return services.JobStateScheduling
	case JobRunning:
		return services.JobStateRunning
	case JobDone:
		return services.JobStateDone
	case JobFailed:
		return services.JobStateFailed
	case JobCanceled:
		return services.JobStateCanceled
	default:
		return fmt.Sprintf("JobState(%d)", int32(s))
	}
}

// Pipeline errors.
var (
	// ErrPipelineClosed is returned by Submit after the environment shut
	// down.
	ErrPipelineClosed = errors.New("vdce: submission pipeline closed")
	// ErrJobCanceled is the terminal error of a job ended by Cancel.
	ErrJobCanceled = errors.New("vdce: job canceled")
	// ErrJobDeadlineExceeded is the terminal error of a job whose
	// WithDeadline expired before it could finish. Deadline-expired
	// queued jobs are dropped before they reach a scheduler worker.
	ErrJobDeadlineExceeded = errors.New("vdce: job deadline exceeded")
)

// SubmitOption configures one submission. Options compose left to right;
// later options win on conflict.
type SubmitOption func(*submitOptions)

type submitOptions struct {
	owner       string
	priority    *int
	shareWeight *int
	deadline    time.Time
	home        int // -1 = round-robin (or site 0 for owned jobs)
	maxHosts    int
	labels      map[string]string
}

// WithOwner submits on behalf of a named user: the job schedules from
// the accounts site (site 0) unless WithHomeSite overrides it, the
// owner's access domain clamps the neighbor-site count exactly as in the
// one-shot path, and — unless WithPriority overrides it — the job's
// priority defaults to the owner's user-account priority.
func WithOwner(owner string) SubmitOption {
	return func(o *submitOptions) { o.owner = owner }
}

// WithPriority sets the job's base admission priority explicitly. Higher
// values are admitted first; equal effective priorities dequeue FIFO.
// Without it, owned jobs inherit the owner's user-account priority and
// anonymous jobs default to 0.
func WithPriority(p int) SubmitOption {
	return func(o *submitOptions) { o.priority = &p }
}

// MaxShareWeight caps an owner's fair-share weight. The weight field
// is client-settable on the HTTP surface, so — like the saturating
// admission-priority clamp — it must not let one caller assign itself
// an effectively infinite dispatch share: weights are clamped into
// [1, MaxShareWeight], bounding any owner's advantage at
// MaxShareWeight:1 while every other owner keeps a nonzero share.
const MaxShareWeight = 100

// WithShareWeight sets the owner's weighted-fair-queuing weight,
// clamped into [1, MaxShareWeight]. Across owners the admission queue
// drains in proportion to weight — an owner with weight 2 dispatches
// twice the jobs of a weight-1 owner over any backlogged interval —
// regardless of job priorities, which only order jobs within one
// owner. Without it, owned jobs default their weight from the owner's
// user-account priority and anonymous jobs weigh 1. The owner's
// latest submission's weight wins.
func WithShareWeight(w int) SubmitOption {
	return func(o *submitOptions) { o.shareWeight = &w }
}

// clampShareWeight saturates a weight into [1, MaxShareWeight].
func clampShareWeight(w int) int {
	if w < 1 {
		return 1
	}
	if w > MaxShareWeight {
		return MaxShareWeight
	}
	return w
}

// WithDeadline bounds the job's whole lifetime: a job still queued at the
// deadline is dropped before it reaches a scheduler worker, and a running
// job is aborted through the execution engine's cancellation path. The
// terminal error is ErrJobDeadlineExceeded.
func WithDeadline(t time.Time) SubmitOption {
	return func(o *submitOptions) { o.deadline = t }
}

// WithHomeSite pins the scheduling round to site index i instead of the
// default (round-robin for anonymous jobs, site 0 for owned jobs).
func WithHomeSite(i int) SubmitOption {
	return func(o *submitOptions) { o.home = i }
}

// WithMaxHosts sets k, the scheduler's nearest-neighbor site count
// (Fig. 2 step 2): how far beyond the home site the job's tasks may be
// placed. Owned jobs still have k clamped by the owner's access domain.
// Default 0 (home site only).
func WithMaxHosts(k int) SubmitOption {
	return func(o *submitOptions) { o.maxHosts = k }
}

// WithLabels attaches caller metadata to the job; labels are carried on
// the Job handle and surfaced verbatim by the job-control API.
func WithLabels(labels map[string]string) SubmitOption {
	return func(o *submitOptions) {
		if o.labels == nil {
			o.labels = make(map[string]string, len(labels))
		}
		for k, v := range labels {
			o.labels[k] = v
		}
	}
}

// Job is one application moving through the submission pipeline.
//
// Lifecycle contract: Done returns a channel that is closed exactly once,
// when the job reaches a terminal state (done, failed, or canceled); no
// state transitions happen after it closes. Wait blocks on that channel
// and returns the job's own terminal error — nil for success,
// ErrJobCanceled after Cancel, ErrJobDeadlineExceeded after a deadline
// expiry, the scheduling/execution error otherwise. When Wait's ctx ends
// first, Wait returns the ctx error, but a job that is already terminal
// always reports its own error even if ctx is also done.
type Job struct {
	// ID is the pipeline-assigned identifier ("job-<n>").
	ID string
	// Owner is the submitting user (may be empty for direct submissions).
	Owner string
	// Graph is the application flow graph being scheduled and executed.
	Graph *afg.Graph
	// K is the neighbor-site count used for the job's scheduling round
	// (WithMaxHosts after any access-domain clamp).
	K int
	// Labels is the caller metadata attached with WithLabels (may be nil).
	Labels map[string]string

	// home is the site index the scheduling round runs from.
	home int
	// priority is the base admission priority; the effective priority
	// ages upward while the job waits (see admitQueue).
	priority int
	// shareWeight is the owner's resolved fair-share weight carried by
	// this submission (>= 1; the owner's latest submission wins).
	shareWeight int
	// usageCharged, hostsCharged, and chargedHosts are the admission
	// queue's quota ledger for this job (in-flight charge from pop, host
	// charges from dispatch plus any mid-run replacement hosts); all are
	// guarded by the admission queue's lock, not j.mu.
	usageCharged bool
	hostsCharged int
	chargedHosts map[string]bool
	// hostParked marks a job parked on the held-hosts cap (guarded by
	// the admission queue's lock); while set, the owner is skipped by
	// pop so parked dispatches stay bounded at one per owner.
	hostParked bool
	// deadline bounds the job's lifetime; zero means none.
	deadline time.Time
	// enqueued is when the job entered the admission queue. For jobs
	// re-adopted from the durable store this is the original submission
	// time, so the aging rank — and with it the within-owner dequeue
	// order — carries across the restart unchanged.
	enqueued time.Time
	// recovered marks a job that was in flight when a previous
	// incarnation of the control plane died and was re-adopted from the
	// durable store on boot (immutable after registration).
	recovered bool
	board     *services.JobBoard
	pipe      *pipeline
	done      chan struct{}
	// cancelCh closes on the first Cancel call, unblocking dispatch waits.
	cancelCh chan struct{}
	// expiry fires while the job is still queued at its deadline, so an
	// expired job releases its queue slot and its waiters immediately
	// instead of lingering until a worker pops it.
	expiry *time.Timer

	mu              sync.Mutex
	state           JobState
	cancelRequested bool
	runCancel       context.CancelFunc
	table           *core.AllocationTable
	result          *exec.Result
	err             error
	submitted       time.Time
	started         time.Time
	finished        time.Time
	// admitted/scheduled/dispatched complete the phase-boundary set
	// (submitted/started/finished above): admission-queue entry, schedule
	// completion, and run-slot dispatch. Zero until crossed.
	admitted   time.Time
	scheduled  time.Time
	dispatched time.Time
	// trace is the append-ordered lifecycle trace behind
	// GET /v1/jobs/{id}/trace: every phase boundary plus park, reschedule,
	// and failure point events, timestamps clamped non-decreasing.
	trace []services.TraceEvent
	// recovery observability, fed live by the engine's event stream:
	// how many times a task of this job was rescheduled mid-run, and the
	// distinct hosts lost to failure (first-observed order).
	reschedules int
	failedHosts []string
	failedSeen  map[string]bool
	// hostsHeld mirrors hostsCharged under j.mu for Status snapshots:
	// the distinct testbed hosts this job's placement holds while it is
	// dispatched, zeroed when it terminalizes.
	hostsHeld int
	// replayPending marks a job re-admitted by the boot replay that has
	// not yet reached a scheduler worker or a terminal state; it backs
	// the pipeline's recovery-backlog gauge behind /readyz.
	replayPending bool
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Priority returns the job's base admission priority.
func (j *Job) Priority() int { return j.priority }

// ShareWeight returns the owner fair-share weight this submission
// carried (>= 1).
func (j *Job) ShareWeight() int { return j.shareWeight }

// Deadline returns the job's deadline and whether one was set.
func (j *Job) Deadline() (time.Time, bool) { return j.deadline, !j.deadline.IsZero() }

// Table returns the resource allocation table once scheduling finished,
// else nil.
func (j *Job) Table() *core.AllocationTable {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.table
}

// Result returns the execution result once the job is done, else nil.
func (j *Job) Result() *exec.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the terminal error of a failed or canceled job, else nil.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed when the job reaches a terminal state
// (done, failed, or canceled). After it closes, State, Err, Table, and
// Result are final.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job reaches a terminal state or ctx ends. It
// returns the job's own terminal error (nil when the job succeeded,
// ErrJobCanceled / ErrJobDeadlineExceeded for canceled and expired jobs);
// a job that is already terminal reports its own error even when ctx is
// also done. Only when ctx ends while the job is still in flight does
// Wait return the ctx error.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	default:
	}
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		// The job may have finished in the same instant; prefer its own
		// terminal error over the ctx error.
		select {
		case <-j.done:
			return j.Err()
		default:
		}
		return ctx.Err()
	}
}

// Cancel requests cancellation. A queued job is dropped from the
// admission queue immediately; a scheduling or running job is aborted
// through the execution engine's cancellation path and terminalizes
// shortly after. Canceling a terminal job is a no-op. The terminal state
// is JobCanceled with Err() == ErrJobCanceled.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled {
		j.mu.Unlock()
		return
	}
	already := j.cancelRequested
	j.cancelRequested = true
	if !already {
		close(j.cancelCh)
	}
	queued := j.state == JobQueued
	cancel := j.runCancel
	j.mu.Unlock()
	if queued {
		// Drop it from the admission queue eagerly, freeing its slot. If
		// a worker popped it first, the worker's claim check observes the
		// cancel request instead and exactly one of us terminalizes.
		if j.pipe != nil && j.pipe.admit.remove(j.ID) {
			j.pipe.releaseSlot()
		}
		j.terminalize(JobCanceled, ErrJobCanceled, nil)
		return
	}
	if cancel != nil {
		cancel()
	}
}

// Reschedules reports how many times the engine moved one of the job's
// tasks mid-run; it grows live while the job executes.
func (j *Job) Reschedules() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reschedules
}

// FailedHosts returns the distinct hosts whose failure forced one of
// the job's tasks to move, in first-observed order.
func (j *Job) FailedHosts() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.failedHosts...)
}

// metrics returns the pipeline's resolved metric handles, or nil for
// jobs detached from a live pipeline (some tests).
func (j *Job) metrics() *envMetrics {
	if j.pipe == nil || j.pipe.env == nil {
		return nil
	}
	return j.pipe.env.obsM
}

// logger returns the pipeline's structured logger, or a discarding one.
func (j *Job) logger() *slog.Logger {
	if j.pipe == nil || j.pipe.env == nil || j.pipe.env.log == nil {
		return discardLog
	}
	return j.pipe.env.log
}

// stampLocked appends one trace event under j.mu, clamping the
// timestamp so the trace is non-decreasing even across wall-clock
// steps (recovered jobs mix persisted wall times with fresh monotonic
// readings). Returns the timestamp actually recorded.
func (j *Job) stampLocked(event, detail string, at time.Time) time.Time {
	if n := len(j.trace); n > 0 && at.Before(j.trace[n-1].At) {
		at = j.trace[n-1].At
	}
	j.trace = append(j.trace, services.TraceEvent{At: at, Event: event, Detail: detail})
	return at
}

// stampEvent appends a point event (park, unpark, reschedule, failure)
// to the trace.
func (j *Job) stampEvent(event, detail string) {
	j.mu.Lock()
	j.stampLocked(event, detail, time.Now())
	j.mu.Unlock()
}

// stampAdmitted records admission-queue entry at the given instant and
// returns the submit-wait duration (zero when unknowable).
func (j *Job) stampAdmitted(at time.Time) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.admitted = at
	j.stampLocked(services.PhaseAdmitted, "", at)
	if j.submitted.IsZero() {
		return 0
	}
	if d := at.Sub(j.submitted); d > 0 {
		return d
	}
	return 0
}

// stampScheduled records schedule completion and observes the
// queue-wait phase (admitted → scheduled).
func (j *Job) stampScheduled() {
	now := time.Now()
	j.mu.Lock()
	j.scheduled = now
	j.stampLocked(services.PhaseScheduled, "", now)
	wait := time.Duration(0)
	if !j.admitted.IsZero() {
		wait = now.Sub(j.admitted)
	}
	j.mu.Unlock()
	if m := j.metrics(); m != nil && wait > 0 {
		m.phaseQueueWait.Observe(wait.Seconds())
	}
}

// stampDispatched records run-slot dispatch and observes the
// dispatch-wait phase (scheduled → dispatched, including host-quota
// parks and run-slot waits).
func (j *Job) stampDispatched() {
	now := time.Now()
	j.mu.Lock()
	j.dispatched = now
	j.stampLocked(services.PhaseDispatched, "", now)
	wait := time.Duration(0)
	if !j.scheduled.IsZero() {
		wait = now.Sub(j.scheduled)
	}
	j.mu.Unlock()
	if m := j.metrics(); m != nil && wait > 0 {
		m.phaseDispatchWait.Observe(wait.Seconds())
	}
}

// timingsLocked derives the phase-boundary block from the stamps;
// caller holds j.mu.
func (j *Job) timingsLocked() *services.JobTimings {
	secs := func(from, to time.Time) float64 {
		if from.IsZero() || to.IsZero() {
			return 0
		}
		if d := to.Sub(from); d > 0 {
			return d.Seconds()
		}
		return 0
	}
	return &services.JobTimings{
		SubmittedAt:         j.submitted,
		AdmittedAt:          j.admitted,
		ScheduledAt:         j.scheduled,
		DispatchedAt:        j.dispatched,
		RunningAt:           j.started,
		FinishedAt:          j.finished,
		SubmitWaitSeconds:   secs(j.submitted, j.admitted),
		QueueWaitSeconds:    secs(j.admitted, j.scheduled),
		DispatchWaitSeconds: secs(j.scheduled, j.dispatched),
		RunSeconds:          secs(j.started, j.finished),
		TotalSeconds:        secs(j.submitted, j.finished),
	}
}

// Trace returns the job's ordered lifecycle trace: every phase
// boundary crossed so far plus recovery point events, with the derived
// timings block.
func (j *Job) Trace() services.JobTrace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return services.JobTrace{
		ID:      j.ID,
		Owner:   j.Owner,
		State:   j.state.String(),
		Events:  append([]services.TraceEvent(nil), j.trace...),
		Timings: j.timingsLocked(),
	}
}

// execEvent consumes the engine's recovery event stream for this job,
// keeping the status' reschedule/failed-host view live while the run is
// still in flight. A reschedule's replacement host is charged against
// the owner's held-hosts ledger so quota accounting tracks where the
// job actually runs, not just where it was dispatched.
func (j *Job) execEvent(ev exec.Event) {
	var typ string
	j.mu.Lock()
	switch ev.Type {
	case exec.EventRescheduled:
		j.reschedules++
		j.stampLocked("rescheduled", ev.Host, time.Now())
		typ = jobsapi.EventRescheduled
	case exec.EventHostFailure:
		if j.failedSeen == nil {
			j.failedSeen = make(map[string]bool)
		}
		if !j.failedSeen[ev.Host] {
			j.failedSeen[ev.Host] = true
			j.failedHosts = append(j.failedHosts, ev.Host)
		}
		j.stampLocked("host-failure", ev.Host, time.Now())
		typ = jobsapi.EventHostFailure
	default:
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	if m := j.metrics(); m != nil {
		switch ev.Type {
		case exec.EventRescheduled:
			m.reschedules.Inc()
		case exec.EventHostFailure:
			m.hostFailures.Inc()
		}
	}
	if ev.Type == exec.EventRescheduled && j.pipe != nil {
		hosts := ev.Hosts
		if len(hosts) == 0 {
			hosts = []string{ev.Host}
		}
		for _, h := range hosts {
			if n, changed := j.pipe.admit.chargeReplacementHost(j, h); changed {
				j.noteHostsHeld(n)
			}
		}
	}
	// Recovery flows to the stream typed, so subscribers see "a task
	// moved" distinctly from ordinary lifecycle churn.
	j.publishEvent(typ)
}

// Status snapshots the job for the monitoring board and the job-control
// API. Queued jobs carry their live admission-queue position.
func (j *Job) Status() services.JobStatus {
	s := j.statusSnapshot()
	if s.State == services.JobStateQueued && j.pipe != nil {
		s.QueuePosition = j.pipe.admit.position(j.ID)
	}
	return s
}

// statusSnapshot is Status without the admission-queue position lookup;
// listing paths batch-compute positions in one arbitration replay
// instead of one per job.
func (j *Job) statusSnapshot() services.JobStatus {
	j.mu.Lock()
	s := services.JobStatus{
		ID:          j.ID,
		App:         j.Graph.Name,
		Owner:       j.Owner,
		State:       j.state.String(),
		Priority:    j.priority,
		ShareWeight: j.shareWeight,
		HostsHeld:   j.hostsHeld,
		Labels:      j.Labels,
		Reschedules: j.reschedules,
		FailedHosts: append([]string(nil), j.failedHosts...),
		Recovered:   j.recovered,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Timings:     j.timingsLocked(),
	}
	if !j.deadline.IsZero() {
		s.Deadline = j.deadline
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	j.mu.Unlock()
	return s
}

// expireQueued is the deadline timer's callback: a job still queued at
// its deadline is dropped — removed from the admission queue, its slot
// released — exactly like an eager Cancel, but terminalizing as failed
// with ErrJobDeadlineExceeded. Jobs already claimed by a worker are
// covered by the run context's deadline instead.
func (j *Job) expireQueued() {
	j.mu.Lock()
	if j.state != JobQueued || j.cancelRequested {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	if j.pipe != nil && j.pipe.admit.remove(j.ID) {
		j.pipe.releaseSlot()
	}
	j.terminalize(JobFailed, ErrJobDeadlineExceeded, nil)
}

// claimForScheduling atomically moves a popped job from queued to
// scheduling. It returns false — terminalizing the job as appropriate —
// when the job was canceled while queued or its deadline already
// expired, so such jobs never reach a scheduling round.
func (j *Job) claimForScheduling() bool {
	j.mu.Lock()
	if j.state != JobQueued {
		// Cancel terminalized it between pop and claim.
		j.mu.Unlock()
		return false
	}
	if j.cancelRequested {
		j.mu.Unlock()
		j.terminalize(JobCanceled, ErrJobCanceled, nil)
		return false
	}
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		j.mu.Unlock()
		j.terminalize(JobFailed, ErrJobDeadlineExceeded, nil)
		return false
	}
	j.state = JobScheduling
	j.mu.Unlock()
	j.noteReplayDone()
	j.publish()
	if j.pipe != nil {
		j.pipe.persistState(j)
	}
	return true
}

// noteReplayDone clears the job's recovery-replay pending mark and
// decrements the pipeline's replay-backlog gauge; idempotent, a no-op
// for jobs the boot replay never touched.
func (j *Job) noteReplayDone() {
	j.mu.Lock()
	pending := j.replayPending
	j.replayPending = false
	j.mu.Unlock()
	if pending && j.pipe != nil {
		j.pipe.recoveryPending.Add(-1)
	}
}

// setRunCancel installs the running phase's cancel function. It returns
// false when cancellation was already requested, in which case the
// caller must not start the execution.
func (j *Job) setRunCancel(c context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelRequested {
		return false
	}
	j.runCancel = c
	return true
}

// transition moves the job to a non-terminal state and publishes it.
func (j *Job) transition(s JobState) {
	j.mu.Lock()
	j.state = s
	if s == JobRunning && j.started.IsZero() {
		j.started = j.stampLocked(services.PhaseRunning, "", time.Now())
	}
	j.mu.Unlock()
	j.publish()
	if j.pipe != nil {
		j.pipe.persistState(j)
	}
}

// setTable records the scheduling artifact.
func (j *Job) setTable(t *core.AllocationTable) {
	j.mu.Lock()
	j.table = t
	j.mu.Unlock()
}

// terminalize moves the job to a terminal state exactly once; later
// calls (a Cancel racing a worker, shutdown racing a deadline) are
// no-ops. It reports whether this call won.
func (j *Job) terminalize(state JobState, err error, res *exec.Result) bool {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = err
	j.result = res
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	j.finished = j.stampLocked(state.String(), detail, time.Now())
	j.hostsHeld = 0
	expiry := j.expiry
	runDur := time.Duration(0)
	if !j.started.IsZero() {
		runDur = j.finished.Sub(j.started)
	}
	totalDur := time.Duration(0)
	if !j.submitted.IsZero() {
		totalDur = j.finished.Sub(j.submitted)
	}
	j.mu.Unlock()
	if expiry != nil {
		expiry.Stop()
	}
	if m := j.metrics(); m != nil {
		if runDur > 0 {
			m.phaseRun.Observe(runDur.Seconds())
		}
		if totalDur > 0 {
			m.phaseTotal.Observe(totalDur.Seconds())
		}
		switch state {
		case JobDone:
			m.completedDone.Inc()
		case JobFailed:
			m.completedFailed.Inc()
		case JobCanceled:
			m.completedCanceled.Inc()
		}
	}
	if err != nil {
		j.logger().Warn("job finished", "job_id", j.ID, "owner", j.Owner,
			"state", state.String(), "error", err.Error(), "total_seconds", totalDur.Seconds())
	} else {
		j.logger().Info("job finished", "job_id", j.ID, "owner", j.Owner,
			"state", state.String(), "total_seconds", totalDur.Seconds())
	}
	j.noteReplayDone()
	// Return the job's in-flight and held-host quota charges before the
	// final status publishes, so owner counters never show a terminal
	// job as still consuming capacity.
	if j.pipe != nil {
		j.pipe.jobReleased(j)
	}
	j.publish()
	if j.pipe != nil {
		j.pipe.persistState(j)
	}
	close(j.done)
	return true
}

// complete marks the job done with its execution result.
func (j *Job) complete(res *exec.Result) { j.terminalize(JobDone, nil, res) }

// fail marks the job failed.
func (j *Job) fail(err error) { j.terminalize(JobFailed, err, nil) }

func (j *Job) publish() { j.publishEvent(jobsapi.EventState) }

// publishEvent snapshots the job once and pushes the status to both
// monitoring surfaces: the job board (pull: /v1/jobs) and the event
// broker (push: /v1/events and /v1/jobs/{id}/events), typed so stream
// consumers can tell lifecycle transitions from mid-run recovery.
func (j *Job) publishEvent(typ string) {
	s := j.Status()
	if j.board != nil {
		j.board.Update(s)
	}
	if j.pipe != nil && j.pipe.events != nil {
		j.pipe.events.Publish(typ, s)
	}
}

// pipeline is the multi-tenant submission machinery behind
// Environment.Submit: a bounded priority admission queue with aging, a
// pool of scheduler workers sharded across home sites, and a bounded
// concurrent dispatch path into the shared execution engine.
type pipeline struct {
	env    *Environment
	cfg    PipelineConfig
	ctx    context.Context
	admit  *admitQueue
	slots  chan struct{} // queue-capacity semaphore (cap QueueDepth)
	notify chan struct{} // wakes idle workers after pushes (cap QueueDepth)
	runSem chan struct{}
	start  time.Time
	// events is the job event broker behind the streaming API: every
	// lifecycle publication and engine recovery event fans out here with
	// a monotonic cursor.
	events *jobsapi.Broker
	// store is the durable control-plane log (nil = in-memory only, the
	// pre-StoreDir behavior byte for byte).
	store *store.Store
	// stopping suppresses persistence of shutdown-induced terminal
	// transitions: jobs failed with ErrPipelineClosed by a graceful stop
	// stay queued/running in the log, exactly what the next boot should
	// re-adopt.
	stopping atomic.Bool
	// recovery reports what the boot replay did (immutable after
	// startPipeline returns).
	recovery RecoveryReport
	// shed/meter implement adaptive load shedding: shed is the
	// normalized config, meter the sliding-window accept/shed counter
	// behind the /readyz shed-rate gate.
	shed  ShedConfig
	meter *shedMeter
	// recoveryPending counts re-admitted jobs that have not yet reached
	// a scheduler worker (or gone terminal); /readyz reports not-ready
	// while the replay backlog drains.
	recoveryPending atomic.Int64

	workerWG sync.WaitGroup // scheduler workers

	// svc caches each home site's scheduling services (local + remotes,
	// dialed over RPC when Site Managers run). Dial failures are not
	// cached, so a transient failure only affects jobs scheduled while
	// it persists.
	svcMu sync.Mutex
	svc   map[int]*siteSvc

	mu       sync.Mutex
	nextID   int
	nextHome int
	// byID holds the handles of the jobs the board retains: live jobs,
	// and terminal jobs until retention evicts their rows (their traces
	// stay served until then). The board's key index is the only
	// canonical order.
	byID   map[string]*Job
	closed bool
}

// siteSvc is one home site's resolved scheduling services.
type siteSvc struct {
	local   core.SiteService
	remotes []core.SiteService
}

// RecoveryReport summarizes what the boot replay of a durable store
// did: how many queued jobs were re-admitted, how many in-flight jobs
// were re-dispatched through the scheduling path, and how many terminal
// jobs were retained for the listing surfaces.
type RecoveryReport struct {
	// QueuedRecovered is how many jobs that were queued at the crash
	// were re-admitted with owner, priority, deadline, and share weight
	// intact.
	QueuedRecovered int
	// InFlightRedispatched is how many scheduling/running jobs were
	// re-adopted: re-queued at their original aging rank and
	// re-dispatched through a fresh scheduling round (their previous
	// partial progress died with the old incarnation's engine).
	InFlightRedispatched int
	// TerminalRetained is how many done/failed/canceled jobs were
	// restored to the board and listing surfaces.
	TerminalRetained int
	// DeadlineExpiredAtReplay is how many in-flight-or-queued jobs whose
	// deadline passed during the downtime were terminalized as
	// deadline-exceeded at replay instead of being re-dispatched.
	DeadlineExpiredAtReplay int
}

// startPipeline launches the worker pool. ctx is the environment's
// lifetime context; cancellation stops the workers and fails queued and
// running jobs. A non-nil st makes the pipeline durable: every
// lifecycle transition appends to it, and the state it recovered at
// Open is replayed — queued jobs back into the admission heaps,
// in-flight jobs re-dispatched, terminal jobs onto the board — before
// any worker runs.
func startPipeline(ctx context.Context, env *Environment, cfg PipelineConfig, st *store.Store) *pipeline {
	cfg.fillDefaults()
	p := &pipeline{
		env:    env,
		cfg:    cfg,
		ctx:    ctx,
		admit:  newAdmitQueue(cfg.AgingStep, cfg.Quota),
		runSem: make(chan struct{}, cfg.MaxConcurrentRuns),
		start:  time.Now(),
		store:  st,
		svc:    make(map[int]*siteSvc),
		byID:   make(map[string]*Job),
		shed:   cfg.Shed,
	}
	p.meter = newShedMeter(cfg.Shed.MeterWindow, cfg.Shed.Now)
	var adopt []*Job
	if st != nil {
		// The broker resumes above the persisted high-water cursor, so
		// every cursor issued before the crash is strictly below every new
		// one and a stale Last-Event-ID resume is detected as a gap (the
		// stream handlers re-synchronize the client) instead of silently
		// replaying the wrong events.
		p.events = jobsapi.NewBrokerAt(cfg.EventBuffer, st.EventCursor(), func(cur uint64) {
			st.NoteEventCursor(cur)
		})
		if env.Obs != nil {
			p.events.Instrument(env.Obs)
		}
		adopt = p.loadRecovered(st.Recovered())
	} else {
		p.events = jobsapi.NewBroker(cfg.EventBuffer)
		if env.Obs != nil {
			p.events.Instrument(env.Obs)
		}
	}
	// Queue capacity: the configured depth plus one slot per re-adopted
	// job, so recovery never deadlocks on its own backpressure when the
	// crash left more jobs queued than QueueDepth.
	p.slots = make(chan struct{}, cfg.QueueDepth+len(adopt))
	// One wakeup token per possible queued job: a lost wakeup could
	// otherwise leave a job queued while a worker sleeps. Stale tokens
	// only cost an idle worker one empty pop.
	p.notify = make(chan struct{}, cfg.QueueDepth+len(adopt))
	// Seed the admission heaps before any worker starts: adopt in
	// canonical submission order so seq tie-breaks reproduce the
	// pre-crash within-owner order exactly.
	p.recoveryPending.Store(int64(len(adopt)))
	for _, job := range adopt {
		job.mu.Lock()
		job.replayPending = true
		job.mu.Unlock()
		p.slots <- struct{}{}
		job.stampAdmitted(time.Now())
		p.admit.adoptQueued(job)
		if !job.deadline.IsZero() {
			job.mu.Lock()
			job.expiry = time.AfterFunc(time.Until(job.deadline), job.expireQueued)
			job.mu.Unlock()
		}
		if job.recovered {
			// In-flight at the crash: announce the re-adoption on the
			// stream so subscribers see the job return to the queue.
			job.publishEvent(jobsapi.EventRecovered)
		} else {
			job.publish()
		}
	}
	for w := 0; w < cfg.SchedulerWorkers; w++ {
		p.workerWG.Add(1)
		go p.worker()
	}
	return p
}

// loadRecovered folds the store's recovered state into the pipeline:
// owner-admin records into the admission queue, terminal jobs onto the
// board, and queued/in-flight jobs into handles ready for adoption —
// returned in canonical submission order. Runs before any worker
// starts, so no locks race it.
func (p *pipeline) loadRecovered(rs *store.State) []*Job {
	for _, rec := range rs.Owners {
		var caps *QuotaConfig
		if rec.HasCaps {
			caps = &QuotaConfig{
				MaxQueuedPerOwner:   rec.MaxQueued,
				MaxInFlightPerOwner: rec.MaxInFlight,
				MaxHostsPerOwner:    rec.MaxHosts,
			}
		}
		p.admit.setOwnerAdmin(rec.Owner, rec.Weight, caps)
	}
	var adopt []*Job
	for _, rec := range rs.SortedJobs() {
		job := &Job{
			ID:          rec.ID,
			Owner:       rec.Owner,
			K:           rec.K,
			Labels:      rec.Labels,
			home:        rec.Home,
			priority:    rec.Priority,
			shareWeight: clampShareWeight(rec.ShareWeight),
			deadline:    rec.Deadline,
			board:       p.env.Board,
			pipe:        p,
			done:        make(chan struct{}),
			cancelCh:    make(chan struct{}),
			submitted:   rec.SubmittedAt,
			enqueued:    rec.SubmittedAt,
			started:     rec.StartedAt,
			finished:    rec.FinishedAt,
		}
		if job.home < 0 || job.home >= len(p.env.Sites) {
			// The testbed may be configured differently than the one the
			// job was submitted to; fall back to the accounts site.
			job.home = 0
		}
		g, gerr := afg.DecodeJSON(rec.Graph)
		if g != nil {
			job.Graph = g
		} else {
			// A handle must always carry a graph (statusSnapshot reads its
			// name); an undecodable one terminalizes below.
			job.Graph = afg.NewGraph(rec.ID)
		}
		terminal := true
		expired := false
		switch {
		case gerr != nil:
			job.state = JobFailed
			job.err = fmt.Errorf("vdce: recovered job graph: %w", gerr)
		case rec.State == services.JobStateDone:
			// The result payload is not persisted — Result() is nil after
			// a restart — but the terminal status survives.
			job.state = JobDone
		case rec.State == services.JobStateCanceled:
			job.state = JobCanceled
			job.err = ErrJobCanceled
		case rec.State == services.JobStateFailed:
			job.state = JobFailed
			if rec.Error != "" {
				job.err = errors.New(rec.Error)
			} else {
				job.err = errors.New("vdce: job failed before restart")
			}
		case !rec.Deadline.IsZero() && !time.Now().Before(rec.Deadline):
			// The job's deadline expired while the control plane was down:
			// re-admitting and dispatching it would burn scheduler and host
			// capacity on work that is already lost. Terminalize it at
			// replay instead — with a stream event, because unlike the
			// terminal restores below this IS a lifecycle transition.
			job.state = JobFailed
			job.err = ErrJobDeadlineExceeded
			job.finished = rec.Deadline
			expired = true
		default:
			// Queued, scheduling, or running at the crash: re-adopt as
			// queued. In-flight jobs lost their partial progress with the
			// old engine; they re-schedule and re-execute from scratch.
			terminal = false
			job.state = JobQueued
			job.recovered = rec.State != services.JobStateQueued
			job.started = time.Time{}
		}
		// Seed the lifecycle trace: every recovered job's chain starts at
		// its original submission; terminal restores get their terminal
		// stamp synthesized so recovered traces satisfy the same
		// complete-chain contract as live ones.
		job.stampLocked(services.PhaseSubmitted, "", rec.SubmittedAt)
		m := p.env.obsM
		if terminal {
			if job.finished.IsZero() {
				job.finished = rec.SubmittedAt
			}
			detail := ""
			if job.err != nil {
				detail = job.err.Error()
			}
			job.finished = job.stampLocked(job.state.String(), detail, job.finished)
			close(job.done)
			if expired {
				p.recovery.DeadlineExpiredAtReplay++
				if m != nil {
					m.recoveryExpired.Inc()
				}
				job.publish()
				p.persistState(job)
			} else {
				p.recovery.TerminalRetained++
				if m != nil {
					m.recoveryTerminal.Inc()
				}
				// Restore the board row without publishing a stream event: a
				// reboot is not a lifecycle transition.
				p.env.Board.Update(job.statusSnapshot())
			}
		} else {
			job.stampLocked("recovered", rec.State, time.Now())
			if job.recovered {
				p.recovery.InFlightRedispatched++
				if m != nil {
					m.recoveryRedispatched.Inc()
				}
			} else {
				p.recovery.QueuedRecovered++
				if m != nil {
					m.recoveryRequeued.Inc()
				}
			}
			adopt = append(adopt, job)
		}
		p.byID[job.ID] = job
	}
	sort.Slice(adopt, func(i, j int) bool { return canonicalBefore(adopt[i], adopt[j]) })
	p.nextID = rs.MaxJobSeq
	return adopt
}

// persistSubmitted appends a new job's full record to the durable log.
// Store appends are best effort on this path: an I/O error is sticky in
// the log and surfaces on Sync/Close, while the in-memory pipeline
// keeps serving.
func (p *pipeline) persistSubmitted(j *Job) {
	if p.store == nil {
		return
	}
	graph, err := json.Marshal(j.Graph)
	if err != nil {
		return
	}
	_ = p.store.JobSubmitted(store.JobRecord{
		ID:          j.ID,
		Owner:       j.Owner,
		Graph:       graph,
		K:           j.K,
		Home:        j.home,
		Priority:    j.priority,
		ShareWeight: j.shareWeight,
		Labels:      j.Labels,
		Deadline:    j.deadline,
		SubmittedAt: j.submitted,
		State:       services.JobStateQueued,
	})
}

// persistState appends a job's lifecycle transition to the durable log.
// Suppressed while the pipeline is stopping: a graceful shutdown fails
// in-flight jobs with ErrPipelineClosed, but durably they remain
// queued/running — exactly the state the next boot re-adopts them from.
func (p *pipeline) persistState(j *Job) {
	if p.store == nil || p.stopping.Load() {
		return
	}
	j.mu.Lock()
	state := j.state.String()
	errMsg := ""
	if j.err != nil {
		errMsg = j.err.Error()
	}
	started, finished := j.started, j.finished
	j.mu.Unlock()
	_ = p.store.JobState(j.ID, state, errMsg, started, finished)
}

// submitSpec is a fully resolved submission (options applied).
type submitSpec struct {
	owner       string
	graph       *afg.Graph
	k           int
	home        int // < 0 picks sites round-robin
	priority    int
	shareWeight int
	deadline    time.Time
	labels      map[string]string
}

// submit admits a job into the fair-share priority queue, blocking
// while it is full. An owner over its queued-jobs quota is rejected
// with a typed QuotaError before consuming any shared queue capacity.
// With shedding enabled the blocking is bounded: estimate-based checks
// (breaker saturation, deadline infeasibility) reject before touching
// the queue, and a full queue sheds with a typed *ShedError after
// Shed.MaxSubmitWait instead of parking the submitter indefinitely.
func (p *pipeline) submit(ctx context.Context, spec submitSpec) (*Job, error) {
	if err := spec.graph.Validate(); err != nil {
		return nil, err
	}
	if spec.home >= len(p.env.Sites) {
		return nil, fmt.Errorf("vdce: no site %d", spec.home)
	}
	if !spec.deadline.IsZero() && !time.Now().Before(spec.deadline) {
		return nil, ErrJobDeadlineExceeded
	}
	if serr := p.preAdmitShed(spec); serr != nil {
		p.meter.record(true)
		p.countShed(serr.Reason, spec.owner)
		return nil, serr
	}
	// Claim the owner's queued-jobs quota first: the reservation covers
	// the whole queued phase (including the wait for a queue slot below)
	// and is returned when the job pops, is removed, or dies before
	// reaching the queue.
	if err := p.admit.reserveQueued(spec.owner); err != nil {
		if m := p.env.obsM; m != nil {
			m.rejectQuota.Inc()
		}
		p.log().Info("submission rejected", "owner", spec.owner, "reason", "quota")
		return nil, err
	}
	// With shedding on, the queue slot is claimed before the job handle
	// is registered: a shed submission leaves no residue on the board,
	// exactly like a quota rejection. The bounded wait is the shed
	// threshold — a submitter is never blocked beyond it.
	preSlot := false
	if p.shed.enabled() {
		timer := time.NewTimer(p.shed.MaxSubmitWait)
		defer timer.Stop()
		select {
		case p.slots <- struct{}{}:
			preSlot = true
		case <-timer.C:
			p.admit.unreserveQueued(spec.owner)
			p.meter.record(true)
			p.countShed(ShedQueueFull, spec.owner)
			return nil, p.shed.shedError(ShedQueueFull,
				fmt.Sprintf("queue of %d full for %v", p.cfg.QueueDepth, p.shed.MaxSubmitWait))
		case <-ctx.Done():
			p.admit.unreserveQueued(spec.owner)
			return nil, ctx.Err()
		case <-p.ctx.Done():
			p.admit.unreserveQueued(spec.owner)
			return nil, ErrPipelineClosed
		}
	}
	job := &Job{
		Owner:       spec.owner,
		Graph:       spec.graph,
		K:           spec.k,
		Labels:      spec.labels,
		priority:    spec.priority,
		shareWeight: spec.shareWeight,
		deadline:    spec.deadline,
		board:       p.env.Board,
		pipe:        p,
		done:        make(chan struct{}),
		cancelCh:    make(chan struct{}),
		state:       JobQueued,
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		if preSlot {
			p.releaseSlot()
		}
		p.admit.unreserveQueued(spec.owner)
		return nil, ErrPipelineClosed
	}
	if spec.home < 0 {
		spec.home = p.nextHome
		p.nextHome = (p.nextHome + 1) % len(p.env.Sites)
	}
	job.home = spec.home
	p.nextID++
	job.ID = fmt.Sprintf("job-%d", p.nextID)
	// Stamp the submission time under p.mu, in ID order, so the board's
	// key index almost always receives a new job's key at its tail.
	now := time.Now()
	job.submitted, job.enqueued = now, now
	job.mu.Lock()
	job.stampLocked(services.PhaseSubmitted, "", now)
	job.mu.Unlock()
	p.byID[job.ID] = job
	p.mu.Unlock()
	p.persistSubmitted(job)
	job.publish()
	p.pruneRetained()
	p.gauge()
	if !preSlot {
		// Reserve a queue slot (backpressure), then enqueue. The job is
		// visible on the board while its submitter waits, exactly like a
		// sender blocked on a full channel.
		select {
		case p.slots <- struct{}{}:
		case <-ctx.Done():
			job.terminalize(JobFailed, ctx.Err(), nil)
			p.admit.unreserveQueued(spec.owner)
			return nil, ctx.Err()
		case <-p.ctx.Done():
			job.terminalize(JobFailed, ErrPipelineClosed, nil)
			p.admit.unreserveQueued(spec.owner)
			return nil, ErrPipelineClosed
		case <-job.cancelCh:
			// Cancel won while we waited for capacity; the job is terminal.
			p.admit.unreserveQueued(spec.owner)
			return nil, ErrJobCanceled
		}
	}
	// A cancel may have landed in the same instant the slot freed
	// (select picks ready cases at random) or while a pre-claimed slot's
	// job registered: never enqueue a job that is already terminal.
	if job.canceled() {
		p.releaseSlot()
		p.admit.unreserveQueued(spec.owner)
		return nil, ErrJobCanceled
	}
	wait := job.stampAdmitted(time.Now())
	p.admit.push(job)
	p.meter.record(false)
	if m := p.env.obsM; m != nil {
		m.submitWait.Observe(wait.Seconds())
		m.accepted.Inc()
	}
	p.log().Debug("job admitted", "job_id", job.ID, "owner", job.Owner)
	if !job.deadline.IsZero() {
		// Drop the job at its deadline if it is still queued then, so it
		// does not pin a queue slot or block Wait callers until a worker
		// happens to pop it.
		job.mu.Lock()
		job.expiry = time.AfterFunc(time.Until(job.deadline), job.expireQueued)
		job.mu.Unlock()
	}
	p.wake()
	return job, nil
}

// releaseSlot returns one unit of queue capacity after a job leaves the
// admission queue (popped by a worker or removed by Cancel).
func (p *pipeline) releaseSlot() { <-p.slots }

// log returns the environment's structured logger, or a discarding one.
func (p *pipeline) log() *slog.Logger {
	if p.env == nil || p.env.log == nil {
		return discardLog
	}
	return p.env.log
}

// countShed feeds one admission rejection into the per-reason counter
// and the structured log.
func (p *pipeline) countShed(reason, owner string) {
	if m := p.env.obsM; m != nil {
		switch reason {
		case ShedQueueFull:
			m.rejectQueueFull.Inc()
		case ShedDeadlineInfeasible:
			m.rejectDeadline.Inc()
		case ShedBreakerSaturated:
			m.rejectBreaker.Inc()
		}
	}
	p.log().Info("submission shed", "owner", owner, "reason", reason)
}

// services resolves the scheduling services for home site i, caching
// successes. Concurrent rounds from different home sites share nothing
// but the internally locked repositories, so rounds on disjoint sites
// proceed in parallel.
func (p *pipeline) services(home int) (*siteSvc, error) {
	p.svcMu.Lock()
	if s, ok := p.svc[home]; ok {
		p.svcMu.Unlock()
		return s, nil
	}
	p.svcMu.Unlock()
	// Dial outside the lock so one slow site's dial never stalls rounds
	// for sites whose services are already cached. Two workers may race
	// to dial the same site; the loser's clients stay registered with
	// the environment and are released on Close.
	local, remotes, err := p.env.siteServices(home)
	if err != nil {
		return nil, err
	}
	s := &siteSvc{local: local, remotes: remotes}
	p.svcMu.Lock()
	if cached, ok := p.svc[home]; ok {
		s = cached
	} else {
		p.svc[home] = s
	}
	p.svcMu.Unlock()
	return s, nil
}

// worker drains batches of fairly-arbitrated jobs from the admission
// queue and runs their scheduling rounds from each job's home site. One
// wakeup token buys up to DispatchBatch pops under a single queue lock
// acquisition (the batched handoff); a full batch means more work
// likely remains, so the worker re-arms another idle worker before it
// starts processing, keeping deep backlogs spread across the pool.
// Each job's queue-capacity slot frees when its round starts, exactly
// as per-job handoff did — jobs still waiting in a worker's batch keep
// counting against QueueDepth, so batching never weakens Submit
// backpressure or the shed threshold.
func (p *pipeline) worker() {
	defer p.workerWG.Done()
	batch := make([]*Job, 0, p.cfg.DispatchBatch)
	for {
		select {
		case <-p.ctx.Done():
			return
		default:
		}
		// Bound the batch by free run capacity: popping a job commits
		// its place in the dispatch order, so draining more jobs than
		// the engine can start binds WFQ arbitration early — jobs
		// submitted while the excess waits in this worker's buffer
		// would be unfairly ordered behind it. With the engine choked
		// this degrades to per-job handoff (late binding, exact
		// fairness); with slots free the full batch amortizes the
		// queue lock. The read is advisory — a slot freed or taken
		// concurrently only shifts where the next batch cuts off.
		max := p.cfg.DispatchBatch
		if avail := cap(p.runSem) - len(p.runSem); avail < max {
			max = avail
			if max < 1 {
				max = 1
			}
		}
		batch = p.admit.popBatch(batch[:0], max)
		if len(batch) == 0 {
			select {
			case <-p.ctx.Done():
				return
			case <-p.notify:
			}
			continue
		}
		if m := p.env.obsM; m != nil {
			m.batchPops.Observe(float64(len(batch)))
		}
		if len(batch) == max {
			p.wake()
		}
		for i, job := range batch {
			batch[i] = nil // release the reference before the round runs
			p.releaseSlot()
			p.process(job)
		}
	}
}

// process runs one job's scheduling round and dispatches its execution.
// The scheduling phase completes on the worker; execution is handed to
// a goroutine gated by the run semaphore so the worker can keep
// scheduling while earlier jobs still execute.
func (p *pipeline) process(job *Job) {
	// Canceled and deadline-expired queued jobs are dropped here, before
	// any scheduling work happens.
	if !job.claimForScheduling() {
		// The job may have been terminal before the pop even charged it
		// (a cancel that landed between submit's check and push): its
		// terminalize ran too early to see the charge, so return it
		// explicitly — jobReleased is idempotent.
		p.jobReleased(job)
		p.gauge()
		return
	}
	p.gauge()
	svc, err := p.services(job.home)
	if err != nil {
		job.fail(fmt.Errorf("vdce: scheduling services for site %d: %w", job.home, err))
		p.gauge()
		return
	}
	sched := core.NewScheduler(svc.local, svc.remotes, p.env.Net, job.K)
	cost, err := p.env.CostFunc(job.Graph)
	if err != nil {
		job.fail(err)
		p.gauge()
		return
	}
	roundStart := time.Now()
	table, err := sched.Schedule(job.Graph, cost)
	if m := p.env.obsM; m != nil {
		m.roundLatency.Observe(time.Since(roundStart).Seconds())
	}
	if err != nil {
		job.fail(err)
		p.gauge()
		return
	}
	job.setTable(table)
	job.stampScheduled()

	// Held-hosts quota: charge the placement's distinct hosts against
	// the owner. An owner at its cap does not hold the worker hostage —
	// the job parks in its own goroutine (other owners keep dispatching
	// through this worker) until enough of the owner's hosts free.
	needed := distinctHosts(table)
	if !p.admit.tryChargeHosts(job, needed) {
		// Gate the owner before parking: pop skips owners with a parked
		// job, so park goroutines per owner are bounded by the worker
		// count (concurrent workers may each park one job they popped
		// before the gate landed) and the rest of the owner's backlog
		// waits in the queue — scheduled against fresh resource state
		// when its turn comes.
		p.admit.setParked(job, true)
		job.stampEvent("host-park", "")
		if m := p.env.obsM; m != nil {
			m.hostParks.Inc()
		}
		p.log().Debug("job parked on held-hosts quota", "job_id", job.ID, "owner", job.Owner)
		go p.parkForHosts(job, table, needed)
		return
	}
	job.noteHostsHeld(len(needed))
	p.dispatch(job, table)
}

// dispatch hands a scheduled job to its execution goroutine once a run
// slot frees. Called on a scheduler worker in the common case — that
// is deliberate backpressure: with the engine saturated, workers park
// here, the admission queue fills, and Submit blocks — so the total
// number of admitted-but-unfinished jobs stays bounded by QueueDepth +
// SchedulerWorkers·DispatchBatch + MaxConcurrentRuns, plus hosts-parked
// jobs (the pop-side parked gate bounds those per owner by the worker
// count times the dispatch batch).
// A job waiting for a slot
// remains in the scheduling state (it is still in a worker's hands).
// Jobs resuming from a hosts-quota park call this off-worker instead.
func (p *pipeline) dispatch(job *Job, table *core.AllocationTable) {
	select {
	case p.runSem <- struct{}{}:
	case <-job.cancelCh:
		job.terminalize(JobCanceled, ErrJobCanceled, nil)
		p.gauge()
		return
	case <-p.ctx.Done():
		job.fail(ErrPipelineClosed)
		p.gauge()
		return
	}
	go p.execute(job, table)
}

// parkForHosts waits until the job's owner frees enough held hosts for
// this placement, then dispatches it. The park lives off-worker so a
// capped owner's excess never blocks other owners' dispatch (and is
// bounded per owner by the pop-side parked gate); it ends early
// on cancellation, deadline expiry (WithDeadline bounds the whole
// lifetime, parked time included), or pipeline shutdown. Terminal
// exits leave the parked gate to release(); the success path clears it
// and wakes a worker, since the owner just became poppable again.
func (p *pipeline) parkForHosts(job *Job, table *core.AllocationTable, needed []string) {
	var deadlineCh <-chan time.Time
	if dl, ok := job.Deadline(); ok {
		timer := time.NewTimer(time.Until(dl))
		defer timer.Stop()
		deadlineCh = timer.C
	}
	for {
		// Fetch the owner's broadcast channel before re-checking, so a
		// release landing between the check and the wait still wakes us.
		// The channel is per owner: other owners' terminal jobs cannot
		// wake this park.
		changed := p.admit.usageChanged(job.Owner)
		if p.admit.tryChargeHosts(job, needed) {
			p.admit.setParked(job, false)
			p.wake()
			job.stampEvent("host-unpark", "")
			job.noteHostsHeld(len(needed))
			p.dispatch(job, table)
			return
		}
		select {
		case <-changed:
		case <-deadlineCh:
			job.terminalize(JobFailed, ErrJobDeadlineExceeded, nil)
			p.gauge()
			return
		case <-job.cancelCh:
			job.terminalize(JobCanceled, ErrJobCanceled, nil)
			p.gauge()
			return
		case <-p.ctx.Done():
			job.fail(ErrPipelineClosed)
			p.gauge()
			return
		}
	}
}

// distinctHosts lists the distinct hosts a placement table uses — the
// unit the held-hosts quota charges.
func distinctHosts(table *core.AllocationTable) []string {
	seen := make(map[string]struct{})
	var hosts []string
	for _, e := range table.Entries {
		for _, h := range e.Hosts {
			if _, ok := seen[h]; !ok {
				seen[h] = struct{}{}
				hosts = append(hosts, h)
			}
		}
	}
	return hosts
}

// noteHostsHeld mirrors a successful host charge into the job's status
// view and publishes it, so /v1/jobs and owner counters show the held
// hosts live. The mirror only rises — concurrent reschedule events may
// report their ledger counts out of order, and the count never shrinks
// until terminalize zeroes it.
func (j *Job) noteHostsHeld(n int) {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled {
		// Lost a race with terminalize: the charge was already released.
		j.mu.Unlock()
		return
	}
	if n <= j.hostsHeld {
		j.mu.Unlock()
		return
	}
	j.hostsHeld = n
	j.mu.Unlock()
	j.publish()
}

// wake hands one wakeup token to an idle scheduler worker.
func (p *pipeline) wake() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// jobReleased returns a terminal job's quota charges and, when
// anything freed, wakes an idle worker — a parked owner may have just
// dropped below its in-flight cap.
func (p *pipeline) jobReleased(j *Job) {
	if p.admit.release(j) {
		p.wake()
	}
}

// execute runs the job's task graph under its own cancelable (and
// deadline-bounded, when WithDeadline was given) context, then
// terminalizes it.
func (p *pipeline) execute(job *Job, table *core.AllocationTable) {
	defer func() { <-p.runSem }()
	job.stampDispatched()
	runCtx := p.ctx
	var cancels []context.CancelFunc
	if !job.deadline.IsZero() {
		ctx, cancel := context.WithDeadline(runCtx, job.deadline)
		runCtx, cancels = ctx, append(cancels, cancel)
	}
	runCtx, cancel := context.WithCancel(runCtx)
	cancels = append(cancels, cancel)
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	if !job.setRunCancel(cancel) {
		job.terminalize(JobCanceled, ErrJobCanceled, nil)
		p.gauge()
		return
	}
	job.transition(JobRunning)
	p.gauge()
	res, err := p.env.Engine.Execute(runCtx, job.Graph, table, exec.WithEventSink(job.execEvent))
	switch {
	case err == nil:
		// The run may have rescheduled tasks mid-flight: adopt the
		// patched table so Table() reports where tasks actually ran.
		if res.Table != nil {
			job.setTable(res.Table)
		}
		job.complete(res)
	case job.canceled():
		job.terminalize(JobCanceled, ErrJobCanceled, nil)
	case errors.Is(runCtx.Err(), context.DeadlineExceeded):
		job.terminalize(JobFailed, fmt.Errorf("%w: %v", ErrJobDeadlineExceeded, err), nil)
	default:
		job.fail(err)
	}
	p.gauge()
}

// canceled reports whether Cancel has been requested.
func (j *Job) canceled() bool {
	select {
	case <-j.cancelCh:
		return true
	default:
		return false
	}
}

// gauge mirrors the in-flight job count into the visualization service,
// the same channel the workload series use.
func (p *pipeline) gauge() {
	if p.env.Metrics != nil && p.env.Board != nil {
		p.env.Metrics.Add("jobs:in-flight", time.Since(p.start), float64(p.env.Board.InFlight()))
	}
}

// stop fails every queued job and waits for in-flight work to settle.
// The environment context must already be canceled.
func (p *pipeline) stop() {
	// Durability first: from here on, shutdown-induced terminal states
	// (ErrPipelineClosed) are not persisted — queued and running jobs
	// remain recoverable in the log, which is what the next boot
	// re-adopts.
	p.stopping.Store(true)
	// Refuse new admissions first: any job registered before this point
	// is visible to allSettled below, so the drain loop will fail it.
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.workerWG.Wait()
	// Workers are gone; anything left in the queue will never be
	// scheduled. A submitter racing with shutdown may still enqueue after
	// a drain pass, so keep draining until every admitted job has reached
	// a terminal state.
	for {
		for job := p.admit.pop(); job != nil; job = p.admit.pop() {
			p.releaseSlot()
			job.terminalize(JobFailed, ErrPipelineClosed, nil)
			// Already-terminal jobs (canceled pre-push) missed the pop
			// charge in their own terminalize; idempotent re-release.
			p.jobReleased(job)
		}
		if p.allSettled() {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// pruneRetained evicts the oldest terminal jobs beyond the retention
// cap, from both the job board and the handle registry, so a
// long-running server does not accumulate finished jobs forever.
// In-flight jobs are never evicted.
func (p *pipeline) pruneRetained() {
	evicted := p.env.Board.Evict(p.cfg.MaxRetainedJobs)
	if len(evicted) == 0 {
		return
	}
	p.mu.Lock()
	for _, id := range evicted {
		delete(p.byID, id)
	}
	p.mu.Unlock()
	for _, id := range evicted {
		if p.store != nil {
			// Deletion records keep the durable log's mirror bounded by the
			// same retention policy as the in-memory board.
			_ = p.store.JobDeleted(id)
		}
	}
}

// allSettled reports whether every admitted job is terminal.
func (p *pipeline) allSettled() bool {
	for _, j := range p.handles() {
		select {
		case <-j.done:
		default:
			return false
		}
	}
	return true
}

// job returns a retained job handle by ID.
func (p *pipeline) job(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.byID[id]
	return j, ok
}

// handles returns every retained job handle, in no particular order.
func (p *pipeline) handles() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Job, 0, len(p.byID))
	for _, j := range p.byID {
		out = append(out, j)
	}
	return out
}

// canonicalBefore orders job handles like the board's key index:
// (submission time, then ID string).
func canonicalBefore(a, b *Job) bool {
	if !a.submitted.Equal(b.submitted) {
		return a.submitted.Before(b.submitted)
	}
	return a.ID < b.ID
}

// liveRows returns the board filter behind ListJobs and ListJobsAfter.
// A non-terminal row is re-read from its handle, because the board lags
// the handle by one publish; terminal rows are final. Queued rows carry
// their admission-queue position, replayed at most once per call.
func (p *pipeline) liveRows(owner, state string) func(services.JobStatus) (services.JobStatus, bool) {
	var positions map[string]int
	return func(s services.JobStatus) (services.JobStatus, bool) {
		if owner != "" && s.Owner != owner {
			return s, false
		}
		if !s.Terminal() {
			if j, ok := p.job(s.ID); ok {
				s = j.statusSnapshot()
			}
		}
		if !s.Matches(owner, state) {
			return s, false
		}
		if s.State == services.JobStateQueued {
			if positions == nil {
				positions = p.admit.positions()
			}
			s.QueuePosition = positions[s.ID]
		}
		return s, true
	}
}

// Submit admits an application into the environment's concurrent
// submission pipeline and returns its Job handle immediately. Functional
// options carry the submission's owner, priority, deadline, home site,
// neighbor-site count, and labels; the zero configuration is an
// anonymous, priority-0, home-site-only submission with round-robin home
// sites. Jobs dequeue by effective priority — the base priority aged
// upward while the job waits, so no submission starves — and are
// executed on the shared testbed; use Job.Wait or Job.Done to observe
// completion and Job.Cancel to abort. Submit blocks only while the
// bounded admission queue is full (backpressure), honoring ctx.
func (env *Environment) Submit(ctx context.Context, g *afg.Graph, opts ...SubmitOption) (*Job, error) {
	o := submitOptions{home: -1}
	for _, opt := range opts {
		opt(&o)
	}
	spec := submitSpec{
		owner:       o.owner,
		graph:       g,
		k:           o.maxHosts,
		home:        o.home,
		shareWeight: 1,
		deadline:    o.deadline,
		labels:      o.labels,
	}
	if o.owner != "" {
		if spec.home < 0 {
			spec.home = 0 // the accounts site, as in the one-shot owned path
		}
		spec.k = env.ClampK(o.owner, spec.k)
	}
	var acctPriority *int
	if o.owner != "" {
		if acct, err := env.Sites[0].Repo.Users.Lookup(o.owner); err == nil {
			acctPriority = &acct.Priority
		}
	}
	switch {
	case o.priority != nil:
		spec.priority = *o.priority
	case acctPriority != nil:
		spec.priority = *acctPriority
	}
	// Fair-share weight: WithShareWeight wins, else the owner's
	// user-account priority (the paper's per-user resource entitlement),
	// else 1; always saturated into [1, MaxShareWeight] so every owner
	// progresses and no caller can buy an unbounded share.
	switch {
	case o.shareWeight != nil:
		spec.shareWeight = *o.shareWeight
	case acctPriority != nil:
		spec.shareWeight = *acctPriority
	}
	spec.shareWeight = clampShareWeight(spec.shareWeight)
	return env.pipe.submit(ctx, spec)
}

// Jobs returns the status of every submitted job in stable order
// (submission time, then ID).
func (env *Environment) Jobs() []services.JobStatus {
	return env.Board.List()
}

// ListJobs returns live job statuses filtered by owner and state (empty
// strings match everything), in stable (submission time, then ID) order.
// Unlike the board's rows, queued jobs carry their current
// admission-queue position — computed for the whole backlog in one
// fair-queuing replay, not one per job.
func (env *Environment) ListJobs(owner, state string) []services.JobStatus {
	return env.Board.Select(env.Board.CountFiltered(owner, state), env.pipe.liveRows(owner, state))
}

// CountJobs returns how many retained jobs match the owner/state
// filters — the backend of the count-only listing (limit=0). It reads
// the job board's incremental per-state and per-owner tallies, so a
// count over a million-job board costs O(shards), never a status
// materialization per row. The board lags a publish by at most the
// instant between the pipeline mutation and the matching board write,
// which a count-only monitoring probe tolerates.
func (env *Environment) CountJobs(owner, state string) int {
	return env.Board.CountFiltered(owner, state)
}

// ListJobsAfter returns up to limit live job statuses matching the
// owner/state filters that sort strictly after the cursor in canonical
// (submission time, then ID) order, plus whether more matches may
// follow. It is the keyset-pagination backend of GET /v1/jobs: the
// board binary-searches its key index to the cursor, so the last page
// of a 100k-job board costs the same as the first. Rows evicted by
// retention are skipped, never double-served: cursors name a position,
// not an index.
func (env *Environment) ListJobsAfter(owner, state string, after jobsapi.Cursor, limit int) ([]services.JobStatus, bool) {
	return env.Board.Page(services.JobKey{At: after.Submitted, ID: after.ID}, limit, env.pipe.liveRows(owner, state))
}

// Owners reports every known owner's fair-share weight, configured
// quota limits, and live usage counters. Usage is derived from the job
// board — the same ground truth /v1/jobs serves — so the two surfaces
// cannot disagree; weights come from the admission queue's fair-share
// state and limits from the pipeline configuration. Owners are sorted
// by name.
func (env *Environment) Owners() []services.OwnerStatus {
	usages := env.Board.OwnerUsages()
	weights := env.pipe.admit.ownerWeights()
	boardWeights := env.Board.OwnerWeights()
	names := make([]string, 0, len(usages)+len(weights))
	for o := range usages {
		names = append(names, o)
	}
	for o := range weights {
		if _, ok := usages[o]; !ok {
			names = append(names, o)
		}
	}
	sort.Strings(names)
	out := make([]services.OwnerStatus, 0, len(names))
	for _, o := range names {
		out = append(out, env.ownerStatus(o, usages[o], boardWeights[o]))
	}
	return out
}

// ownerStatus builds one owner's /v1/owners row from the admission
// queue's effective admin state (per-owner overrides included). The
// queue prunes fully drained owners, so for an owner it no longer
// tracks the weight falls back to lastWeight — the latest-submitted
// weight the job board remembers from the owner's retained rows.
func (env *Environment) ownerStatus(owner string, usage services.OwnerUsage, lastWeight int) services.OwnerStatus {
	weight, pinned, caps, _, known := env.pipe.admit.ownerAdmin(owner)
	if !known && lastWeight >= 1 {
		weight = lastWeight
	}
	return services.OwnerStatus{
		Owner:        owner,
		Weight:       clampShareWeight(weight),
		WeightPinned: pinned,
		MaxQueued:    caps.MaxQueuedPerOwner,
		MaxInFlight:  caps.MaxInFlightPerOwner,
		MaxHosts:     caps.MaxHostsPerOwner,
		Usage:        usage,
	}
}

// UpdateOwner applies a runtime owner-admin change: a provided weight
// pins the owner's fair-share weight (submissions no longer move it),
// and any provided quota field installs a per-owner cap override
// merged over the owner's current effective caps (0 = that cap
// unlimited). The change takes effect on the live admission queue
// immediately — parked dispatches re-check against the new caps — and
// is persisted to the durable store when one is configured, so it
// survives restarts. Returns the owner's refreshed status.
func (env *Environment) UpdateOwner(owner string, upd services.OwnerUpdate) (services.OwnerStatus, error) {
	if upd.Empty() {
		return services.OwnerStatus{}, errors.New("vdce: empty owner update")
	}
	_, _, cur, hadOverride, _ := env.pipe.admit.ownerAdmin(owner)
	weight := 0
	if upd.Weight != nil {
		weight = clampShareWeight(*upd.Weight)
	}
	var caps *QuotaConfig
	if hadOverride || upd.MaxQueued != nil || upd.MaxInFlight != nil || upd.MaxHosts != nil {
		merged := cur
		if upd.MaxQueued != nil {
			merged.MaxQueuedPerOwner = *upd.MaxQueued
		}
		if upd.MaxInFlight != nil {
			merged.MaxInFlightPerOwner = *upd.MaxInFlight
		}
		if upd.MaxHosts != nil {
			merged.MaxHostsPerOwner = *upd.MaxHosts
		}
		caps = &merged
	}
	env.pipe.admit.setOwnerAdmin(owner, weight, caps)
	// A raised cap may make a parked owner poppable again.
	env.pipe.wake()
	if env.pipe.store != nil {
		w, pinned, eff, override, _ := env.pipe.admit.ownerAdmin(owner)
		rec := store.OwnerRecord{Owner: owner, HasCaps: override}
		if pinned {
			rec.Weight = w
		}
		if override {
			rec.MaxQueued = eff.MaxQueuedPerOwner
			rec.MaxInFlight = eff.MaxInFlightPerOwner
			rec.MaxHosts = eff.MaxHostsPerOwner
		}
		_ = env.pipe.store.OwnerUpdated(rec)
	}
	return env.ownerStatus(owner, env.Board.OwnerUsages()[owner], 0), nil
}

// Job returns the live status of one retained job.
func (env *Environment) Job(id string) (services.JobStatus, bool) {
	j, ok := env.pipe.job(id)
	if !ok {
		return services.JobStatus{}, false
	}
	return j.Status(), true
}

// ErrUnknownJob is returned by CancelJob for IDs the pipeline does not
// retain.
var ErrUnknownJob = errors.New("vdce: unknown job")

// CancelJob cancels the identified job: queued jobs are dropped from the
// admission queue, running jobs are aborted through the execution
// engine's cancellation path. Canceling a terminal job is a no-op.
func (env *Environment) CancelJob(id string) error {
	j, ok := env.pipe.job(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.Cancel()
	return nil
}

// Drain blocks until every job admitted so far has reached a terminal
// state, or ctx ends. Jobs submitted after Drain starts are not waited
// for.
func (env *Environment) Drain(ctx context.Context) error {
	for _, j := range env.pipe.handles() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-j.done:
		}
	}
	return nil
}
