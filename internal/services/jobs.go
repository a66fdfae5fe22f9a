package services

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// Job lifecycle states, in submission order. The pipeline moves every
// application through queued -> scheduling -> running ->
// done|failed|canceled.
const (
	JobStateQueued     = "queued"
	JobStateScheduling = "scheduling"
	JobStateRunning    = "running"
	JobStateDone       = "done"
	JobStateFailed     = "failed"
	JobStateCanceled   = "canceled"
)

// JobStatus is a snapshot of one submitted application's lifecycle,
// published by the submission pipeline for monitoring tools and the
// versioned job-control API.
type JobStatus struct {
	ID    string `json:"id"`
	App   string `json:"app"`
	Owner string `json:"owner,omitempty"`
	State string `json:"state"`
	// Priority is the job's base admission priority (owner account
	// priority unless overridden at submit time).
	Priority int `json:"priority"`
	// ShareWeight is the owner fair-share weight this submission
	// carried: across owners, the admission queue drains in proportion
	// to weight.
	ShareWeight int `json:"share_weight,omitempty"`
	// HostsHeld is how many distinct testbed hosts the job's placement
	// holds while it is dispatched (0 while queued and after it
	// terminalizes) — the unit the per-owner held-hosts quota charges.
	HostsHeld int `json:"hosts_held,omitempty"`
	// QueuePosition is the job's 1-based dequeue position while queued
	// (1 = next to be scheduled); 0 once it left the admission queue.
	QueuePosition int               `json:"queue_position,omitempty"`
	Labels        map[string]string `json:"labels,omitempty"`
	// Reschedules counts mid-run task reschedules the execution engine
	// performed for this job (watchdog- or failure-detector-driven). It
	// updates live while the job runs.
	Reschedules int `json:"reschedules,omitempty"`
	// FailedHosts lists the distinct hosts whose failure (crash or
	// confirmed death — not overload) forced one of the job's tasks to
	// move, in first-observed order. It updates live while the job runs.
	FailedHosts []string `json:"failed_hosts,omitempty"`
	// Recovered marks a job re-adopted from the durable store after a
	// control-plane restart: it was queued or in flight when the previous
	// incarnation died and was re-admitted (and, if in flight,
	// re-dispatched) on boot.
	Recovered   bool      `json:"recovered,omitempty"`
	Deadline    time.Time `json:"deadline,omitzero"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	Error       string    `json:"error,omitempty"`
	// Timings is the job's lifecycle phase-boundary block: one timestamp
	// per pipeline phase the job has crossed so far, plus derived
	// durations. Nil only for statuses predating the tracing layer
	// (store records persisted by older incarnations).
	Timings *JobTimings `json:"timings,omitempty"`
}

// Lifecycle phase names, in pipeline order. These are both the trace
// event names and the `phase` label values of the
// vdce_job_phase_seconds histogram.
const (
	PhaseSubmitted  = "submitted"
	PhaseAdmitted   = "admitted"
	PhaseScheduled  = "scheduled"
	PhaseDispatched = "dispatched"
	PhaseRunning    = "running"
)

// JobTimings is the phase-boundary view of one job: when each pipeline
// phase was entered (zero until crossed) and the durations between
// consecutive crossed boundaries, in seconds.
type JobTimings struct {
	SubmittedAt  time.Time `json:"submitted_at,omitzero"`
	AdmittedAt   time.Time `json:"admitted_at,omitzero"`
	ScheduledAt  time.Time `json:"scheduled_at,omitzero"`
	DispatchedAt time.Time `json:"dispatched_at,omitzero"`
	RunningAt    time.Time `json:"running_at,omitzero"`
	FinishedAt   time.Time `json:"finished_at,omitzero"`
	// SubmitWaitSeconds: Submit call to admission-queue entry.
	SubmitWaitSeconds float64 `json:"submit_wait_seconds,omitempty"`
	// QueueWaitSeconds: admission-queue entry to schedule completion.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	// DispatchWaitSeconds: schedule completion to run-slot dispatch
	// (includes host-quota parks and run-slot waits).
	DispatchWaitSeconds float64 `json:"dispatch_wait_seconds,omitempty"`
	// RunSeconds: running to terminal.
	RunSeconds float64 `json:"run_seconds,omitempty"`
	// TotalSeconds: submission to terminal.
	TotalSeconds float64 `json:"total_seconds,omitempty"`
}

// TraceEvent is one entry in a job's lifecycle trace: a phase boundary
// (submitted, admitted, scheduled, dispatched, running, or a terminal
// state) or a recovery point event (host-park, host-unpark,
// rescheduled, host-failure, recovered).
type TraceEvent struct {
	At    time.Time `json:"at"`
	Event string    `json:"event"`
	// Detail carries the event's subject when it has one: the host for
	// rescheduled/host-failure, the error for failed.
	Detail string `json:"detail,omitempty"`
}

// JobTrace is the full ordered lifecycle trace of one job, served by
// GET /v1/jobs/{id}/trace. Events are append-ordered and their
// timestamps are non-decreasing.
type JobTrace struct {
	ID     string       `json:"id"`
	Owner  string       `json:"owner,omitempty"`
	State  string       `json:"state"`
	Events []TraceEvent `json:"events"`
	// Timings is the same phase-boundary block JobStatus carries.
	Timings *JobTimings `json:"timings,omitempty"`
}

// Terminal reports whether the status will never change again.
func (s JobStatus) Terminal() bool {
	return s.State == JobStateDone || s.State == JobStateFailed || s.State == JobStateCanceled
}

// Matches is the job-control API's filter predicate: empty filter
// fields match everything. Every listing surface (board, live pipeline)
// shares it so the /v1 data paths cannot diverge.
func (s JobStatus) Matches(owner, state string) bool {
	if owner != "" && s.Owner != owner {
		return false
	}
	if state != "" && s.State != state {
		return false
	}
	return true
}

// OwnerUsage is one owner's live aggregate over the job board: how
// many jobs sit in each phase of the pipeline and how many testbed
// hosts the owner's running placements hold. It is the ground truth
// the /v1/owners counters report.
type OwnerUsage struct {
	// Queued counts jobs still in the admission queue.
	Queued int `json:"queued"`
	// InFlight counts scheduling + running jobs.
	InFlight int `json:"in_flight"`
	// HostsHeld sums each dispatched job's distinct placement hosts —
	// host slots, so two jobs sharing a host count it twice; the same
	// conservative accounting the per-owner hosts quota enforces.
	HostsHeld int `json:"hosts_held"`
	// Terminal tallies.
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Total is every job the board retains for the owner.
	Total int `json:"total"`
}

// OwnerStatus is one owner's row in the /v1/owners listing: fair-share
// weight, configured per-owner quota limits (0 = unlimited), and live
// usage.
type OwnerStatus struct {
	Owner  string `json:"owner"`
	Weight int    `json:"weight"`
	// WeightPinned marks a weight set through the owner-admin endpoint:
	// it no longer follows the owner's submissions and survives restarts.
	WeightPinned bool `json:"weight_pinned,omitempty"`
	// Quota limits; zero means unlimited and is omitted from JSON.
	MaxQueued   int        `json:"max_queued,omitempty"`
	MaxInFlight int        `json:"max_in_flight,omitempty"`
	MaxHosts    int        `json:"max_hosts,omitempty"`
	Usage       OwnerUsage `json:"usage"`
	// API request rate limit enforced at the serving mount (token
	// bucket; zero means the mount enforces none) and how many requests
	// of this owner it has answered 429. Filled by the job-control API,
	// not the pipeline.
	RateRPS       float64 `json:"rate_rps,omitempty"`
	RateBurst     int     `json:"rate_burst,omitempty"`
	RateThrottled uint64  `json:"rate_throttled,omitempty"`
}

// OwnerUpdate is a partial owner-admin change (PATCH /v1/owners/{owner}):
// nil fields are left untouched. Weight pins the owner's fair-share
// weight; the Max* fields install a per-owner quota override (0 = that
// cap unlimited).
type OwnerUpdate struct {
	Weight      *int `json:"weight,omitempty"`
	MaxQueued   *int `json:"max_queued,omitempty"`
	MaxInFlight *int `json:"max_in_flight,omitempty"`
	MaxHosts    *int `json:"max_hosts,omitempty"`
}

// Empty reports whether the update changes nothing (a request error on
// the admin surface).
func (u OwnerUpdate) Empty() bool {
	return u.Weight == nil && u.MaxQueued == nil && u.MaxInFlight == nil && u.MaxHosts == nil
}

// boardShards is the JobBoard's fixed shard count. Shards are selected
// by job-ID hash (Delete and Get receive only an ID, so the ID is the
// only key every write path shares); 32 keeps per-shard row counts in
// cache-friendly territory at a million jobs while the array of
// padded-ish shard structs stays trivial.
const boardShards = 32

// boardChunk is how many index keys a listing copies per read-lock
// hold: long enough to amortize the binary search, short enough that a
// submit inserting its key never waits behind a whole-board walk.
const boardChunk = 256

// JobKey is a row's position in the canonical (submission time, then
// ID) listing order: At is SubmittedAt in Unix nanoseconds.
type JobKey struct {
	At int64
	ID string
}

// Less orders keys canonically.
func (k JobKey) Less(o JobKey) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	return k.ID < o.ID
}

// keyOf returns the index key of a row.
func keyOf(s JobStatus) JobKey { return JobKey{At: s.SubmittedAt.UnixNano(), ID: s.ID} }

// JobBoard is the monitoring view of the submission pipeline: the
// current status of every job plus per-state counters. It is safe for
// concurrent use by the pipeline workers and monitoring readers.
//
// Rows and their incrementally maintained per-state and per-owner
// aggregates live in 32 job-ID hash shards, so publishes and count
// readers do not serialize on one lock. The canonical listing order
// lives in exactly one place: keys, one sorted slice under one RWMutex.
// Only a row's first Update (or a change of its submission time) writes
// the index; new keys land at the tail. A key is stale when its row is
// gone or the row's SubmittedAt moved: listings skip stale keys and
// Evict drops the ones it passes.
type JobBoard struct {
	shards [boardShards]boardShard
	mu     sync.RWMutex
	keys   []JobKey
}

// boardShard is one hash shard: rows plus aggregates under a private
// mutex.
type boardShard struct {
	mu   sync.Mutex
	jobs map[string]JobStatus
	// counts tallies rows by state, maintained on every write, so
	// Counts/InFlight/CountFiltered never scan rows.
	counts map[string]int
	// usage is the per-owner aggregate (the /v1/owners ground truth),
	// maintained on every write; owners whose last retained row leaves
	// the shard are deleted, so transient owners do not accrete.
	usage map[string]ownerAgg
}

// ownerAgg is one owner's aggregate within one shard: the public usage
// counters, the running subset of InFlight (so CountFiltered is exact
// for every owner+state pair), and the latest-submitted retained row's
// share weight. The weight is what lets /v1/owners keep reporting an
// owner's last-submitted weight after the admission queue pruned the
// drained owner — the board rows are the surviving record, and they are
// bounded by retention. lastAt/lastID order "latest" by the canonical
// (SubmittedAt, ID) job order; if the latest row itself is evicted the
// weight sticks at the last value seen, which is still the latest
// submission the board knew about.
type ownerAgg struct {
	usage   OwnerUsage
	running int
	lastAt  time.Time
	lastID  string
	weight  int
}

// NewJobBoard returns an empty board.
func NewJobBoard() *JobBoard {
	b := &JobBoard{}
	for i := range b.shards {
		sh := &b.shards[i]
		sh.jobs = make(map[string]JobStatus)
		sh.counts = make(map[string]int)
		sh.usage = make(map[string]ownerAgg)
	}
	return b
}

// shard maps a job ID to its home shard (FNV-1a).
func (b *JobBoard) shard(id string) *boardShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return &b.shards[h%boardShards]
}

// apply folds one row into (sign=+1) or out of (sign=-1) the shard's
// incremental aggregates. Caller holds sh.mu.
func (sh *boardShard) apply(s JobStatus, sign int) {
	sh.counts[s.State] += sign
	if sh.counts[s.State] == 0 {
		delete(sh.counts, s.State)
	}
	agg := sh.usage[s.Owner]
	u := &agg.usage
	switch s.State {
	case JobStateQueued:
		u.Queued += sign
	case JobStateScheduling:
		u.InFlight += sign
	case JobStateRunning:
		u.InFlight += sign
		agg.running += sign
	case JobStateDone:
		u.Done += sign
	case JobStateFailed:
		u.Failed += sign
	case JobStateCanceled:
		u.Canceled += sign
	}
	u.HostsHeld += sign * s.HostsHeld
	u.Total += sign
	if u.Total == 0 {
		delete(sh.usage, s.Owner)
		return
	}
	if sign > 0 && (agg.weight == 0 || s.SubmittedAt.After(agg.lastAt) ||
		(s.SubmittedAt.Equal(agg.lastAt) && s.ID >= agg.lastID)) {
		agg.lastAt, agg.lastID, agg.weight = s.SubmittedAt, s.ID, s.ShareWeight
	}
	sh.usage[s.Owner] = agg
}

// Update records the latest status of a job, inserting it on first
// sight. A terminal row is never replaced by a non-terminal one: the
// pipeline snapshots a status and writes it in two steps, so a late
// queued snapshot must not resurrect a job a racing Cancel already
// terminalized.
func (b *JobBoard) Update(s JobStatus) {
	sh := b.shard(s.ID)
	sh.mu.Lock()
	old, ok := sh.jobs[s.ID]
	if ok && old.Terminal() && !s.Terminal() {
		sh.mu.Unlock()
		return
	}
	if ok {
		sh.apply(old, -1)
	}
	sh.jobs[s.ID] = s
	sh.apply(s, +1)
	sh.mu.Unlock()
	// The row is stored before its key is indexed, and Evict checks rows
	// under the index lock, so a key is never dropped for a row that is
	// already back.
	if k := keyOf(s); !ok || keyOf(old) != k {
		b.index(k)
	}
}

// index inserts a key into the canonical order unless it is present.
func (b *JobBoard) index(k JobKey) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.keys)
	if n == 0 || b.keys[n-1].Less(k) {
		b.keys = append(b.keys, k)
		return
	}
	i := b.search(k)
	if b.keys[i] == k {
		return
	}
	b.keys = slices.Insert(b.keys, i, k)
}

// search returns the index of the first key not below k. Caller holds
// b.mu.
func (b *JobBoard) search(k JobKey) int {
	return sort.Search(len(b.keys), func(i int) bool { return !b.keys[i].Less(k) })
}

// Delete removes a job from the board. Unknown IDs are a no-op. The
// row's index key stays behind as a stale key until Evict passes it.
func (b *JobBoard) Delete(id string) {
	sh := b.shard(id)
	sh.mu.Lock()
	if old, ok := sh.jobs[id]; ok {
		delete(sh.jobs, id)
		sh.apply(old, -1)
	}
	sh.mu.Unlock()
}

// Get returns the last recorded status of one job.
func (b *JobBoard) Get(id string) (JobStatus, bool) {
	sh := b.shard(id)
	sh.mu.Lock()
	s, ok := sh.jobs[id]
	sh.mu.Unlock()
	return s, ok
}

// walk calls visit on every live row strictly after `after` in
// canonical order until visit returns false. It copies boardChunk keys
// per read-lock hold and reads the rows outside it, so visit may take
// any lock and a first publish waits for at most one key copy.
func (b *JobBoard) walk(after JobKey, visit func(JobStatus) bool) {
	var buf [boardChunk]JobKey
	for {
		b.mu.RLock()
		i := b.search(after)
		if i < len(b.keys) && b.keys[i] == after {
			i++
		}
		n := copy(buf[:], b.keys[i:])
		done := i+n == len(b.keys)
		b.mu.RUnlock()
		for _, k := range buf[:n] {
			if s, ok := b.Get(k.ID); ok && keyOf(s) == k && !visit(s) {
				return
			}
		}
		if done {
			return
		}
		after = buf[n-1]
	}
}

// boardStart sorts before every key.
var boardStart = JobKey{At: math.MinInt64}

// Page returns up to limit rows strictly after `after` in canonical
// order, plus whether more follow. keep filters each row and may
// replace it (the pipeline swaps in a fresher status). Cost is
// O(log n) to find the resume point plus the rows the page scans —
// independent of how deep into the board the page sits.
func (b *JobBoard) Page(after JobKey, limit int, keep func(JobStatus) (JobStatus, bool)) (out []JobStatus, more bool) {
	if limit <= 0 {
		return nil, false
	}
	out = make([]JobStatus, 0, limit)
	b.walk(after, func(s JobStatus) bool {
		s, ok := keep(s)
		if !ok {
			return true
		}
		if len(out) == limit {
			// A row beyond the page proves there is more; it is re-served
			// as the first row of the next page.
			more = true
			return false
		}
		out = append(out, s)
		return true
	})
	return out, more
}

// Select returns every row keep accepts (keep may replace it), in
// canonical order. size presizes the result; pass the matching
// CountFiltered.
func (b *JobBoard) Select(size int, keep func(JobStatus) (JobStatus, bool)) []JobStatus {
	out := make([]JobStatus, 0, size)
	b.walk(boardStart, func(s JobStatus) bool {
		if s, ok := keep(s); ok {
			out = append(out, s)
		}
		return true
	})
	return out
}

// List returns every job status in stable (submission time, then ID)
// order.
func (b *JobBoard) List() []JobStatus {
	return b.ListFiltered("", "")
}

// ListFiltered returns the job statuses matching the owner and state
// filters (empty strings match everything), in stable (submission time,
// then ID) order — the deterministic base the job-control API paginates
// over.
func (b *JobBoard) ListFiltered(owner, state string) []JobStatus {
	return b.Select(b.CountFiltered(owner, state), func(s JobStatus) (JobStatus, bool) {
		return s, s.Matches(owner, state)
	})
}

// Evict deletes the oldest terminal rows until at most max remain,
// dropping the stale keys it passes, and returns the evicted IDs.
// Non-terminal rows are never evicted. It scans from the head of the
// index and compacts only the prefix it scanned: O(evicted + live rows
// ahead of them), never O(retained).
func (b *JobBoard) Evict(max int) []string {
	if b.Len() <= max {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Re-count under the index lock so concurrent Evicts do not both
	// evict for the same excess.
	over := b.Len() - max
	var evicted []string
	kept, i := 0, 0
	for ; i < len(b.keys) && len(evicted) < over; i++ {
		k := b.keys[i]
		sh := b.shard(k.ID)
		sh.mu.Lock()
		switch s, ok := sh.jobs[k.ID]; {
		case !ok || keyOf(s) != k:
			// Stale: dropped.
		case s.Terminal():
			delete(sh.jobs, k.ID)
			sh.apply(s, -1)
			evicted = append(evicted, k.ID)
		default:
			b.keys[kept] = k
			kept++
		}
		sh.mu.Unlock()
	}
	// Slide the kept keys to the end of the scanned prefix and drop its
	// head; the rest of the index does not move.
	copy(b.keys[i-kept:i], b.keys[:kept])
	clear(b.keys[:i-kept])
	b.keys = b.keys[i-kept:]
	return evicted
}

// OwnerUsages aggregates the board by owner: per-phase job counts and
// held hosts, keyed by owner name (the anonymous owner is ""). This is
// the ground-truth source behind the /v1/owners counters. Served from
// the shards' incremental aggregates — O(owners), not O(jobs), so a
// million-job board answers in microseconds.
func (b *JobBoard) OwnerUsages() map[string]OwnerUsage {
	out := make(map[string]OwnerUsage)
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		for owner, agg := range sh.usage {
			u := out[owner]
			u.Queued += agg.usage.Queued
			u.InFlight += agg.usage.InFlight
			u.HostsHeld += agg.usage.HostsHeld
			u.Done += agg.usage.Done
			u.Failed += agg.usage.Failed
			u.Canceled += agg.usage.Canceled
			u.Total += agg.usage.Total
			out[owner] = u
		}
		sh.mu.Unlock()
	}
	return out
}

// OwnerWeights reports, per owner with retained rows, the share weight
// of the owner's latest-submitted row — the board-side weight memory
// /v1/owners falls back to once the admission queue prunes a fully
// drained owner. Owners whose rows carried no weight report 0.
func (b *JobBoard) OwnerWeights() map[string]int {
	type latest struct {
		at time.Time
		id string
	}
	seen := make(map[string]latest)
	out := make(map[string]int)
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		for owner, agg := range sh.usage {
			l, ok := seen[owner]
			if !ok || agg.lastAt.After(l.at) || (agg.lastAt.Equal(l.at) && agg.lastID > l.id) {
				seen[owner] = latest{at: agg.lastAt, id: agg.lastID}
				out[owner] = agg.weight
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Counts returns how many jobs sit in each state, keyed by state name.
// Served from the shards' incremental tallies — no row scan.
func (b *JobBoard) Counts() map[string]int {
	out := make(map[string]int)
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		for state, n := range sh.counts {
			out[state] += n
		}
		sh.mu.Unlock()
	}
	return out
}

// CountFiltered returns how many retained rows match the owner and
// state filters — the count-only listing (limit=0) without
// materializing a single row. Every filter pair is answered exactly
// from the incremental aggregates in O(shards).
func (b *JobBoard) CountFiltered(owner, state string) int {
	n := 0
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		switch {
		case owner == "" && state == "":
			for _, c := range sh.counts {
				n += c
			}
		case owner == "":
			n += sh.counts[state]
		default:
			n += sh.usage[owner].count(state)
		}
		sh.mu.Unlock()
	}
	return n
}

// count returns how many of the owner's rows in one shard are in state
// ("" = all).
func (a ownerAgg) count(state string) int {
	switch state {
	case "":
		return a.usage.Total
	case JobStateQueued:
		return a.usage.Queued
	case JobStateScheduling:
		return a.usage.InFlight - a.running
	case JobStateRunning:
		return a.running
	case JobStateDone:
		return a.usage.Done
	case JobStateFailed:
		return a.usage.Failed
	case JobStateCanceled:
		return a.usage.Canceled
	}
	return 0
}

// InFlight returns how many jobs have been admitted but not finished.
func (b *JobBoard) InFlight() int {
	n := 0
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		n += sh.counts[JobStateQueued] + sh.counts[JobStateScheduling] + sh.counts[JobStateRunning]
		sh.mu.Unlock()
	}
	return n
}

// Len returns how many rows the board retains.
func (b *JobBoard) Len() int {
	return b.CountFiltered("", "")
}

// States lists the state names present on the board, sorted — a
// convenience for monitoring output.
func (b *JobBoard) States() []string {
	counts := b.Counts()
	out := make([]string, 0, len(counts))
	for s := range counts {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
