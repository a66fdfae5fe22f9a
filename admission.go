package vdce

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// QuotaConfig bounds each owner's simultaneous use of the submission
// pipeline. Zero fields are unlimited. Quotas are per owner name; the
// anonymous owner "" is one owner like any other.
type QuotaConfig struct {
	// MaxQueuedPerOwner caps how many of one owner's jobs may sit in the
	// admission queue (including submitters still blocked on queue
	// backpressure). Admission over the cap fails immediately with a
	// QuotaError — the caller is told to back off rather than silently
	// deepening the backlog.
	MaxQueuedPerOwner int
	// MaxInFlightPerOwner caps how many of one owner's jobs may be
	// scheduling or running at once. Jobs over the cap are not rejected:
	// they park in the admission queue — other owners' jobs dispatch
	// past them — until the owner drops below the cap. Pair it with
	// MaxQueuedPerOwner: parked jobs still occupy shared QueueDepth
	// slots, so without a queued cap one throttled owner's backlog can
	// fill the queue and stall every owner's Submit on backpressure.
	MaxInFlightPerOwner int
	// MaxHostsPerOwner caps an owner's concurrently held host slots:
	// each dispatched job charges one slot per distinct host of its own
	// placement (plus replacement hosts it reschedules onto mid-run),
	// so two jobs sharing a host charge it twice — the accounting an
	// owner's per-job hosts_held counters sum to, deliberately
	// conservative on the small overlapping testbeds this models. A
	// scheduled job that would exceed the cap parks (off-worker, so it
	// never blocks other owners' dispatch) until enough of the owner's
	// slots free up. A single job needing more slots than the cap is
	// admitted alone, once the owner holds nothing — an over-sized job
	// parks, it does not deadlock.
	MaxHostsPerOwner int
}

// ErrQuotaExceeded is the sentinel matched (via errors.Is) by every
// per-owner quota rejection.
var ErrQuotaExceeded = errors.New("vdce: owner quota exceeded")

// QuotaError is the typed admission rejection: which owner hit which
// per-owner cap, and where usage stood. It matches ErrQuotaExceeded
// with errors.Is.
type QuotaError struct {
	// Owner is the job's owner ("" for anonymous submissions).
	Owner string
	// Resource names the exhausted cap: "queued-jobs", "in-flight-jobs",
	// or "hosts".
	Resource string
	// Limit is the configured cap; Used is the owner's usage at the
	// rejection.
	Limit int
	Used  int
}

func (e *QuotaError) Error() string {
	owner := e.Owner
	if owner == "" {
		owner = "(anonymous)"
	}
	return fmt.Sprintf("vdce: owner %s over %s quota (%d of %d in use)",
		owner, e.Resource, e.Used, e.Limit)
}

// Is makes errors.Is(err, ErrQuotaExceeded) match every QuotaError.
func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// admitQueue is the pipeline's admission queue: weighted fair queuing
// across owners over per-owner priority sub-queues.
//
// Within one owner, jobs order exactly as the PR 2 aging heap did: a
// max-heap over (effective priority, enqueue time) where a queued job's
// effective priority rises by one level per AgingStep of waiting.
// Because every queued job ages at the same rate, the pairwise order of
// two jobs never changes over time, so the heap key is computed once at
// enqueue:
//
//	rank = base * step - enqueuedNanos
//
// Higher rank pops first; saturated ranks fall back to FIFO seq order.
//
// Across owners, pops are arbitrated by smoothed virtual-time fair
// queuing: each owner carries a weight w and a virtual finish time. A
// pop charges the chosen owner 1/w of virtual time, and the next pop
// goes to the eligible owner with the smallest charge point
// max(ownerVFinish, queueVTime) — so over a backlogged interval each
// owner's dispatch share converges to w/Σw, and one owner's flood can
// no longer starve the rest regardless of its jobs' priorities. The
// max() against the queue-wide virtual clock is the smoothing: an owner
// returning from idle resumes at "now" instead of burning banked
// credit, and a saturated owner cannot run up debt that would silence
// it later.
//
// Arbitration is O(log owners) per pop via the eligible-owner index:
// the smoothing max() splits eligible owners into exactly two groups —
// owners at or behind the queue clock (vfinish <= vtime), whose charge
// points all equal vtime and therefore tie, resolved by name; and
// owners ahead of the clock (vfinish > vtime), whose charge points are
// their own finish times. The index keeps the first group in a min-heap
// by name (q.lagged) and the second in a min-heap by (vfinish, name)
// (q.ahead); the lagged top always beats every ahead owner, so the
// winner is one peek. vtime only ever advances, so ahead owners it
// overtakes migrate to lagged at most once per pop they earned —
// amortized O(log owners). The pre-index linear scan survives in the
// tests as the reference the property suite and the 10k-owner bench
// compare against.
//
// The queue also carries the per-owner quota ledger (queued
// reservations, in-flight jobs, held hosts): eligibility for a pop
// requires the owner to be under its in-flight cap, which is how
// capped owners' jobs park in place while other owners dispatch past
// them.
//
// The sub-queue heaps are hand-rolled over slices (no container/heap)
// so the Submit hot path does not pay an interface boxing allocation
// per push and pop.
type admitQueue struct {
	mu    sync.Mutex
	step  time.Duration
	quota QuotaConfig
	seq   uint64
	vtime float64 // queue-wide virtual clock: charge point of the last pop
	// owners holds every owner with live queue state: backlog, quota
	// reservations, in-flight charges, or admin pins. Shares that drain
	// to nothing are pruned (see maybePruneLocked), so churning one-shot
	// owners do not grow the map, the position replay, or /v1/owners
	// without bound.
	owners map[string]*ownerShare
	// loc maps every queued job ID to its owner and sub-heap slot,
	// maintained through every heap swap — remove (cancel) and the
	// position membership probe are O(1) lookups instead of scans over
	// every owner's backlog.
	loc map[string]jobLoc
	// lagged/ahead: the eligible-owner index (see the type comment).
	lagged ownerHeap
	ahead  ownerHeap
	// queued is the total backlog across owners, so depth gauges do not
	// iterate the owner map.
	queued int
	// prunes counts owner shares retired by maybePruneLocked (metrics).
	prunes uint64
	// gen counts the mutations that can change the arbitration replay's
	// output — push (new job, possible weight change), pop (backlog and
	// virtual clocks move), remove (backlog shrinks). posCache memoizes
	// the last full position replay and is valid while posGen == gen, so
	// a burst of Status()/ListJobs calls over an unchanged queue pays
	// for one replay, not one per call (the PR 3 generation-validated
	// cache pattern).
	gen      uint64
	posGen   uint64
	posCache map[string]int
}

// jobLoc is one queued job's location: its owner's share and its index
// in the owner's sub-heap slice.
type jobLoc struct {
	os  *ownerShare
	idx int
}

// ownerShare is one owner's sub-queue plus its fair-share and quota
// state. All fields are guarded by admitQueue.mu.
type ownerShare struct {
	name string
	q    *admitQueue  // back-pointer for the job-location index
	jobs []admitEntry // aging-rank max-heap
	// weight is the owner's fair-share weight (>= 1); the latest
	// submitted job's resolved weight wins.
	weight int
	// vfinish is the owner's virtual finish time: the charge point of
	// its last pop plus 1/weight.
	vfinish float64
	// where/hidx: membership in the eligible-owner index — which heap
	// (heapNone when ineligible) and at which slot.
	where int8
	hidx  int
	// reserved counts the owner's queued jobs, from admission-quota
	// reservation (before the submitter even waits for a queue slot)
	// until pop or removal.
	reserved int
	// inFlight counts the owner's scheduling+running jobs (charged at
	// pop, released when the job terminalizes).
	inFlight int
	// hostsHeld counts the testbed hosts the owner's running jobs hold.
	hostsHeld int
	// parked counts the owner's jobs parked on the held-hosts cap.
	// While any is parked the owner is ineligible for pops, so parked
	// dispatch goroutines are bounded per owner by the scheduler's
	// worker count times its dispatch batch (workers that popped before
	// the first park landed can add up to a batch each) — a capped
	// owner's backlog waits in the queue, not in a growing pile of
	// goroutines holding stale placements.
	parked int
	// changed is this owner's usage broadcast: closed (and lazily
	// remade) when the owner's in-flight or held-host usage frees or
	// its caps change, waking only this owner's parked dispatches —
	// terminal jobs elsewhere no longer thunder through every parked
	// goroutine in the system.
	changed chan struct{}
	// pinned marks a weight set by the owner-admin endpoint: submissions
	// no longer override it (normally the latest job's resolved share
	// weight wins).
	pinned bool
	// caps, when non-nil, replaces the queue-wide QuotaConfig for this
	// owner — the admin endpoint's per-owner quota override.
	caps *QuotaConfig
}

// Eligible-owner index heap identifiers.
const (
	heapNone int8 = iota
	heapLagged
	heapAhead
)

// ownerHeap is one half of the eligible-owner index: a hand-rolled
// min-heap of owner shares ordered by name (lagged group — every member
// charges at the queue clock, so only the tie-break matters) or by
// (vfinish, name) (ahead group). Members carry their slot in hidx so
// arbitrary removal is O(log n).
type ownerHeap struct {
	id    int8
	items []*ownerShare
}

func (h *ownerHeap) less(a, b *ownerShare) bool {
	if h.id == heapAhead && a.vfinish != b.vfinish {
		return a.vfinish < b.vfinish
	}
	return a.name < b.name
}

func (h *ownerHeap) push(os *ownerShare) {
	os.where = h.id
	os.hidx = len(h.items)
	h.items = append(h.items, os)
	h.up(os.hidx)
}

func (h *ownerHeap) removeAt(i int) *ownerShare {
	os := h.items[i]
	last := len(h.items) - 1
	h.items[i] = h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	if i < last {
		h.items[i].hidx = i
		h.down(i)
		h.up(i)
	}
	os.where = heapNone
	os.hidx = -1
	return os
}

func (h *ownerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		h.items[i].hidx = i
		i = parent
	}
	h.items[i].hidx = i
}

func (h *ownerHeap) down(i int) {
	n := len(h.items)
	for {
		best := i
		if l := 2*i + 1; l < n && h.less(h.items[l], h.items[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && h.less(h.items[r], h.items[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		h.items[i].hidx = i
		i = best
	}
	h.items[i].hidx = i
}

func newAdmitQueue(step time.Duration, quota QuotaConfig) *admitQueue {
	return &admitQueue{
		step:   step,
		quota:  quota,
		owners: make(map[string]*ownerShare),
		loc:    make(map[string]jobLoc),
		lagged: ownerHeap{id: heapLagged},
		ahead:  ownerHeap{id: heapAhead},
	}
}

// owner returns (creating if needed) the owner's share record. Caller
// holds q.mu.
func (q *admitQueue) owner(name string) *ownerShare {
	os, ok := q.owners[name]
	if !ok {
		os = &ownerShare{name: name, q: q, weight: 1, hidx: -1}
		q.owners[name] = os
	}
	return os
}

// reindexLocked places an owner in, moves it within, or drops it from
// the eligible-owner index to match its current eligibility and charge
// point. Call after any mutation that can change either: backlog size,
// in-flight count, parked count, caps, or vfinish. Caller holds q.mu.
func (q *admitQueue) reindexLocked(os *ownerShare) {
	q.detachLocked(os)
	if !q.eligible(os) {
		return
	}
	if os.vfinish <= q.vtime {
		q.lagged.push(os)
	} else {
		q.ahead.push(os)
	}
}

// detachLocked removes an owner from whichever index heap holds it.
// Caller holds q.mu.
func (q *admitQueue) detachLocked(os *ownerShare) {
	switch os.where {
	case heapLagged:
		q.lagged.removeAt(os.hidx)
	case heapAhead:
		q.ahead.removeAt(os.hidx)
	}
}

// migrateLocked moves ahead-group owners the advancing queue clock has
// overtaken into the lagged group, restoring the index invariant that
// every eligible owner with vfinish <= vtime sits in q.lagged. Each
// migration is paid for by the pop that advanced the clock past the
// owner, so the amortized cost stays O(log owners). Caller holds q.mu.
func (q *admitQueue) migrateLocked() {
	for len(q.ahead.items) > 0 && q.ahead.items[0].vfinish <= q.vtime {
		q.lagged.push(q.ahead.removeAt(0))
	}
}

// maybePruneLocked retires an owner share that holds no state at all —
// no backlog, reservations, in-flight or host charges, parks, and no
// admin pin or quota override — so churning one-shot owners leave the
// queue at steady-state size. A pruned owner that returns resumes at
// the queue clock, which the smoothing max() already guarantees for
// any idle owner; the only forgotten state is at most one pop's 1/w of
// un-elapsed virtual debt, which an owner can only shed by fully
// draining first. Caller holds q.mu.
func (q *admitQueue) maybePruneLocked(os *ownerShare) {
	if len(os.jobs) != 0 || os.reserved != 0 || os.inFlight != 0 || os.hostsHeld != 0 ||
		os.parked != 0 || os.pinned || os.caps != nil {
		return
	}
	q.detachLocked(os)
	delete(q.owners, os.name)
	q.prunes++
}

// rank computes the static within-owner heap key for a job admitted at
// enqueued. The priority boost saturates at ±2^61 so an absurd
// caller-supplied priority (the HTTP field is an arbitrary int) cannot
// overflow the product and invert the queue order; saturated jobs rank
// equal and fall back to FIFO via the seq tie-break.
func (q *admitQueue) rank(priority int, enqueued time.Time) int64 {
	const maxBoost = int64(1) << 61 // |boost| + |UnixNano| stays well inside int64
	limit := maxBoost / int64(q.step)
	p := int64(priority)
	if p > limit {
		p = limit
	} else if p < -limit {
		p = -limit
	}
	return p*int64(q.step) - enqueued.UnixNano()
}

// reserveQueued claims one unit of the owner's queued-jobs quota before
// the job enters the admission path, so a flooding owner is rejected
// with a typed error instead of invisibly consuming shared queue
// capacity. The reservation is consumed by push and released by pop,
// remove, or unreserveQueued (for submissions that die before push).
func (q *admitQueue) reserveQueued(owner string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	os := q.owner(owner)
	if cap := q.capsFor(os).MaxQueuedPerOwner; cap > 0 && os.reserved >= cap {
		q.maybePruneLocked(os) // a rejected first contact must not leave a share behind
		return &QuotaError{Owner: owner, Resource: "queued-jobs", Limit: cap, Used: os.reserved}
	}
	os.reserved++
	return nil
}

// adoptQueued re-enqueues a job recovered from the durable store:
// reservation and push in one step, bypassing the queued-jobs cap — the
// job was already admitted in the previous incarnation, and rejecting
// it now would silently drop accepted work.
func (q *admitQueue) adoptQueued(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	os := q.owner(j.Owner)
	os.reserved++
	q.pushLocked(os, j)
}

// unreserveQueued returns a reservation for a submission that never
// reached push (canceled or failed while waiting for a queue slot).
func (q *admitQueue) unreserveQueued(owner string) {
	q.mu.Lock()
	os := q.owner(owner)
	os.reserved--
	q.maybePruneLocked(os)
	q.mu.Unlock()
}

// push enqueues a job under its owner's sub-queue, consuming the
// reservation made by reserveQueued. The job's resolved share weight
// becomes the owner's weight (latest submission wins), saturated at
// MaxShareWeight — the weight is client-settable over HTTP, so like
// the rank() priority clamp this bounds what a hostile value can buy.
func (q *admitQueue) push(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pushLocked(q.owner(j.Owner), j)
}

// pushLocked is the shared body of push and adoptQueued. Caller holds
// q.mu.
func (q *admitQueue) pushLocked(os *ownerShare, j *Job) {
	q.seq++
	q.gen++
	if j.shareWeight >= 1 && !os.pinned {
		os.weight = clampShareWeight(j.shareWeight)
	}
	os.jobs = append(os.jobs, admitEntry{job: j, rank: q.rank(j.priority, j.enqueued), seq: q.seq})
	os.up(len(os.jobs) - 1)
	q.queued++
	q.reindexLocked(os)
}

// capsFor returns the quota caps that govern an owner: its admin
// override when one is set, the queue-wide config otherwise. Caller
// holds q.mu.
func (q *admitQueue) capsFor(os *ownerShare) QuotaConfig {
	if os.caps != nil {
		return *os.caps
	}
	return q.quota
}

// eligible reports whether the owner may dispatch another job: it has
// queued work, is under its in-flight cap, and has no job already
// parked on the held-hosts cap (popping another would only grow the
// parked pile with a placement that goes stale while it waits).
// Caller holds q.mu.
func (q *admitQueue) eligible(os *ownerShare) bool {
	if len(os.jobs) == 0 {
		return false
	}
	if cap := q.capsFor(os).MaxInFlightPerOwner; cap > 0 && os.inFlight >= cap {
		return false
	}
	if os.parked > 0 {
		return false
	}
	return true
}

// setParked marks or clears a job's held-hosts park, gating the
// owner's eligibility for further pops. Idempotent per job.
func (q *admitQueue) setParked(j *Job, parked bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.hostParked == parked {
		return
	}
	j.hostParked = parked
	os := q.owner(j.Owner)
	if parked {
		os.parked++
	} else {
		os.parked--
	}
	q.reindexLocked(os)
}

// The WFQ arbitration primitives, shared by pop (pickOwnerLocked), the
// linear reference arbiter in the tests, and the position replay so
// the three can never drift apart (pinned against each other by
// TestAdmitPositionPredictsPopOrder and the indexed-vs-linear
// equivalence suite).

// chargePoint is the virtual time at which an owner's next pop is
// charged: its own finish time, smoothed forward to the queue clock
// when it returns from idle.
func chargePoint(vfinish, vtime float64) float64 {
	if vtime > vfinish {
		return vtime
	}
	return vfinish
}

// wfqWins reports whether a candidate (charge, name) beats the
// incumbent: smaller charge point first, owner name as the
// deterministic tie-break.
func wfqWins(charge float64, name string, incCharge float64, incName string) bool {
	return charge < incCharge || (charge == incCharge && name < incName)
}

// wfqCost is the virtual-time cost one pop charges an owner.
func wfqCost(weight int) float64 { return 1 / float64(weight) }

// pickOwnerLocked returns the eligible owner with the smallest virtual
// charge point in O(log owners), advancing the virtual clocks. The
// winner is detached from the index; the caller mutates its backlog and
// ledger and then reindexes it. Caller holds q.mu.
//
// Correctness of the two-group peek: every lagged owner charges at
// exactly vtime; every ahead owner charges at its vfinish > vtime. So
// when the lagged heap is non-empty its name-minimal top is the global
// WFQ winner (all lagged owners tie, name breaks the tie, and no ahead
// owner can charge that low); otherwise the ahead heap's
// (vfinish, name)-minimal top is.
func (q *admitQueue) pickOwnerLocked() *ownerShare {
	var best *ownerShare
	if len(q.lagged.items) > 0 {
		best = q.lagged.items[0]
	} else if len(q.ahead.items) > 0 {
		best = q.ahead.items[0]
	} else {
		return nil
	}
	charge := chargePoint(best.vfinish, q.vtime)
	q.detachLocked(best)
	q.vtime = charge
	best.vfinish = charge + wfqCost(best.weight)
	q.migrateLocked()
	return best
}

// popOneLocked drains one job from the owner the arbiter selects.
// Caller holds q.mu.
func (q *admitQueue) popOneLocked() *Job {
	os := q.pickOwnerLocked()
	if os == nil {
		return nil
	}
	return q.takeHeadLocked(os)
}

// takeHeadLocked removes the picked owner's head job, charging the
// owner's in-flight ledger. Caller holds q.mu.
func (q *admitQueue) takeHeadLocked(os *ownerShare) *Job {
	q.gen++
	j := os.removeAt(0).job
	os.reserved--
	os.inFlight++
	q.queued--
	j.usageCharged = true
	q.reindexLocked(os)
	return j
}

// pop removes and returns the next job under weighted fair queuing, or
// nil when no owner is eligible (queue empty, or every backlogged
// owner is at its in-flight cap — its jobs stay parked in place). The
// popped job is charged against its owner's in-flight count; the
// charge is released when the job terminalizes.
func (q *admitQueue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popOneLocked()
}

// popBatch appends up to max fairly-arbitrated jobs to buf under one
// lock acquisition — the batched scheduler handoff: one worker wakeup
// drains a batch instead of paying a lock round-trip and a wake token
// per job. Semantically identical to max sequential pops.
func (q *admitQueue) popBatch(buf []*Job, max int) []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(buf) < max {
		j := q.popOneLocked()
		if j == nil {
			break
		}
		buf = append(buf, j)
	}
	return buf
}

// remove deletes one job by ID, reporting whether it was found. Used by
// Cancel to free the job's queue slot eagerly. O(log backlog) via the
// job-location index — a cancel storm no longer scans every owner's
// entire backlog per call.
func (q *admitQueue) remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.loc[id]
	if !ok {
		return false
	}
	q.gen++
	l.os.removeAt(l.idx)
	l.os.reserved--
	q.queued--
	q.reindexLocked(l.os)
	q.maybePruneLocked(l.os)
	return true
}

// release returns a terminal job's in-flight and held-host charges to
// its owner and wakes the owner's parked dispatches. It reports whether
// anything was freed (callers use that to wake idle workers exactly
// once). Idempotent: only the first call after a pop frees anything.
func (q *admitQueue) release(j *Job) bool {
	q.mu.Lock()
	if !j.usageCharged {
		q.mu.Unlock()
		return false
	}
	j.usageCharged = false
	os := q.owner(j.Owner)
	os.inFlight--
	os.hostsHeld -= j.hostsCharged
	j.hostsCharged = 0
	j.chargedHosts = nil
	if j.hostParked {
		// A parked job that terminalized (cancel, shutdown) un-gates its
		// owner here, whatever its park goroutine is still doing.
		j.hostParked = false
		os.parked--
	}
	if os.changed != nil {
		// Wake only this owner's parked dispatches: freed usage is
		// per-owner state, so terminalizing owner A's job must not
		// thunder through every other owner's parked goroutines.
		close(os.changed)
		os.changed = nil
	}
	q.reindexLocked(os)
	q.maybePruneLocked(os)
	q.mu.Unlock()
	return true
}

// tryChargeHosts attempts to charge the placement's distinct hosts
// against the job's owner, recording the usage (always, so /v1/owners
// counters stay live) and enforcing MaxHostsPerOwner when set. An
// owner holding nothing may always dispatch one job — a single job
// larger than the cap runs alone instead of parking forever. Returns
// false when the job must park until hosts free.
func (q *admitQueue) tryChargeHosts(j *Job, hosts []string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !j.usageCharged {
		// The job already terminalized and returned its charges; report
		// success without charging — the dispatch path observes the
		// cancellation and goes no further, and hosts charged here would
		// never be released.
		return true
	}
	os := q.owner(j.Owner)
	n := len(hosts)
	if cap := q.capsFor(os).MaxHostsPerOwner; cap > 0 && os.hostsHeld > 0 && os.hostsHeld+n > cap {
		return false
	}
	os.hostsHeld += n
	j.hostsCharged = n
	j.chargedHosts = make(map[string]bool, n)
	for _, h := range hosts {
		j.chargedHosts[h] = true
	}
	return true
}

// chargeReplacementHost adds a host the engine rescheduled one of the
// job's tasks onto mid-run, keeping the owner's held-hosts ledger
// truthful as the placement drifts from the dispatched table. The
// charge bypasses the cap — a running job cannot park — but inflates
// the owner's usage so subsequent dispatches see it; hosts lost to
// failure stay charged until the job ends (other tasks of the job may
// still run there), which errs on the side of under-admission. It
// returns the job's updated host count and whether anything changed.
func (q *admitQueue) chargeReplacementHost(j *Job, host string) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !j.usageCharged || host == "" || j.chargedHosts[host] {
		return j.hostsCharged, false
	}
	j.chargedHosts[host] = true
	j.hostsCharged++
	q.owner(j.Owner).hostsHeld++
	return j.hostsCharged, true
}

// usageChanged returns the owner's current usage broadcast channel: it
// closes the next time that owner's in-flight or held-host usage frees
// (or its caps change). Parked dispatches fetch it before re-checking
// quota so a release between check and wait still wakes them. The
// channel is created lazily — owners with nothing parked never allocate
// one.
func (q *admitQueue) usageChanged(owner string) <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	os := q.owner(owner)
	if os.changed == nil {
		os.changed = make(chan struct{})
	}
	return os.changed
}

// position returns the 1-based dequeue position of a queued job (1 =
// next to pop), or 0 when the job is not queued — served from the same
// cached arbitration replay positions() serves, so the single-job and
// listing surfaces can never disagree. The membership probe is an O(1)
// location-index lookup: Status() asks for jobs that have already
// popped (or are not yet pushed) all the time, and those must not pay
// for a replay — or, at scale, even a backlog scan.
func (q *admitQueue) position(id string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.loc[id]; !ok {
		return 0
	}
	return q.positionsLocked()[id]
}

// positions returns the 1-based dequeue position of every queued job
// in one arbitration replay, O(backlog·owners + backlog·log backlog)
// when the queue changed since the last call and O(1) otherwise. The
// returned map is shared with the cache: callers read, never mutate.
func (q *admitQueue) positions() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.positionsLocked()
}

// positionsLocked returns the full position replay, recomputing only
// when a push/pop/remove invalidated the cached one. Caller holds q.mu.
func (q *admitQueue) positionsLocked() map[string]int {
	if q.posCache == nil || q.posGen != q.gen {
		q.posCache = q.replayPositions("")
		q.posGen = q.gen
	}
	return q.posCache
}

// replayPositions replays the weighted-fair arbitration over the
// current backlog with the live virtual clocks shadowed, assigning
// each queued job the position pop would drain it at; a non-empty
// target stops the replay as soon as that job is placed. In-flight
// caps are ignored — a parked job reports the position it will
// dispatch from once its owner frees up. The replay uses the same
// chargePoint / wfqWins / wfqCost primitives as pickOwnerLocked, and
// TestAdmitPositionPredictsPopOrder pins the agreement. Caller holds
// q.mu.
func (q *admitQueue) replayPositions(target string) map[string]int {
	type shadow struct {
		os      *ownerShare
		order   []admitEntry // within-owner dequeue order
		next    int
		vfinish float64
	}
	total := 0
	shadows := make([]shadow, 0, len(q.owners))
	for _, os := range q.owners {
		if len(os.jobs) == 0 {
			continue
		}
		order := append([]admitEntry(nil), os.jobs...)
		sort.Slice(order, func(i, j int) bool { return order[i].before(order[j]) })
		shadows = append(shadows, shadow{os: os, order: order, vfinish: os.vfinish})
		total += len(order)
	}
	out := make(map[string]int, total)
	vtime := q.vtime
	for pos := 1; pos <= total; pos++ {
		var best *shadow
		var bestCharge float64
		for i := range shadows {
			s := &shadows[i]
			if s.next == len(s.order) {
				continue
			}
			charge := chargePoint(s.vfinish, vtime)
			if best == nil || wfqWins(charge, s.os.name, bestCharge, best.os.name) {
				best, bestCharge = s, charge
			}
		}
		vtime = bestCharge
		best.vfinish = bestCharge + wfqCost(best.os.weight)
		id := best.order[best.next].job.ID
		out[id] = pos
		best.next++
		if id == target {
			break
		}
	}
	return out
}

// queuedLen returns the total backlog size across owners (tests and
// monitoring) — an O(1) counter read, so depth gauges cost nothing at
// 10k owners.
func (q *admitQueue) queuedLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// ownerCount returns how many owner shares the queue currently holds
// (monitoring; with pruning this tracks live owners, not every owner
// ever seen).
func (q *admitQueue) ownerCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.owners)
}

// pruneCount returns how many idle owner shares have been retired.
func (q *admitQueue) pruneCount() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.prunes
}

// setOwnerAdmin applies a runtime owner-admin update: a weight >= 1
// pins the owner's fair-share weight against future submissions, and a
// non-nil caps installs a per-owner quota override (replacing any
// previous override wholesale). It wakes the owner's parked dispatches
// — a raised cap may free them — and invalidates the position cache,
// since a weight change reorders the arbitration replay.
func (q *admitQueue) setOwnerAdmin(name string, weight int, caps *QuotaConfig) {
	q.mu.Lock()
	defer q.mu.Unlock()
	os := q.owner(name)
	if weight >= 1 {
		os.weight = clampShareWeight(weight)
		os.pinned = true
	}
	if caps != nil {
		c := *caps
		os.caps = &c
	}
	q.gen++
	if os.changed != nil {
		close(os.changed)
		os.changed = nil
	}
	q.reindexLocked(os)
	q.maybePruneLocked(os)
}

// ownerAdmin reports an owner's effective admin state: weight, whether
// it is pinned, the caps that govern it, whether those caps are a
// per-owner override (as opposed to the queue-wide config), and whether
// the queue currently holds a share for the owner at all. A read — it
// does not materialize a share for unknown owners, which would leak
// one per monitoring probe.
func (q *admitQueue) ownerAdmin(name string) (weight int, pinned bool, caps QuotaConfig, override, known bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if os, ok := q.owners[name]; ok {
		return os.weight, os.pinned, q.capsFor(os), os.caps != nil, true
	}
	return 1, false, q.quota, false, false
}

// ownerWeights snapshots each live owner's fair-share weight.
func (q *admitQueue) ownerWeights() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.owners))
	for name, os := range q.owners {
		out[name] = os.weight
	}
	return out
}

// --- within-owner aging-rank heap ---

// setLoc records the job at heap slot i in the queue's location index.
// Caller holds the queue's mu.
func (os *ownerShare) setLoc(i int) {
	os.q.loc[os.jobs[i].job.ID] = jobLoc{os: os, idx: i}
}

// removeAt deletes index i, restoring the heap and the location index.
// Caller holds the queue's mu.
func (os *ownerShare) removeAt(i int) admitEntry {
	e := os.jobs[i]
	delete(os.q.loc, e.job.ID)
	last := len(os.jobs) - 1
	os.jobs[i] = os.jobs[last]
	os.jobs[last] = admitEntry{} // release the *Job reference
	os.jobs = os.jobs[:last]
	if i < last {
		os.setLoc(i)
		os.down(i)
		os.up(i)
	}
	return e
}

// up sifts index i toward the root, keeping the location index current
// through every swap.
func (os *ownerShare) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !os.jobs[i].before(os.jobs[parent]) {
			break
		}
		os.jobs[i], os.jobs[parent] = os.jobs[parent], os.jobs[i]
		os.setLoc(i)
		i = parent
	}
	os.setLoc(i)
}

// down sifts index i toward the leaves, keeping the location index
// current through every swap.
func (os *ownerShare) down(i int) {
	n := len(os.jobs)
	for {
		best := i
		if l := 2*i + 1; l < n && os.jobs[l].before(os.jobs[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && os.jobs[r].before(os.jobs[best]) {
			best = r
		}
		if best == i {
			break
		}
		os.jobs[i], os.jobs[best] = os.jobs[best], os.jobs[i]
		os.setLoc(i)
		i = best
	}
	os.setLoc(i)
}

// admitEntry is one queued job with its precomputed admission rank.
type admitEntry struct {
	job  *Job
	rank int64
	seq  uint64 // FIFO tie-break for identical ranks
}

// before reports whether e dequeues ahead of o within one owner.
func (e admitEntry) before(o admitEntry) bool {
	if e.rank != o.rank {
		return e.rank > o.rank
	}
	return e.seq < o.seq
}
