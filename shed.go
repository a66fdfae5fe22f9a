package vdce

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vdce/internal/afg"
)

// Adaptive load shedding. Submit on a full queue waits for a slot until
// its context ends, so under sustained overload every submitter becomes
// a parked goroutine and every HTTP client a hung request. Shedding
// bounds that: ShedConfig.MaxSubmitWait caps the slot wait, and
// ShedConfig.CheckDeadline refuses a deadline the graph cannot meet
// before any wait. Either way a typed *ShedError names why the
// submission was refused and how long the client should wait before
// retrying; the editor maps it to 503 + Retry-After, next to the
// 429 + Retry-After quota vocabulary.

// Shed reasons carried by ShedError.
const (
	// ShedQueueFull: the admission queue stayed full for the whole
	// bounded wait.
	ShedQueueFull = "queue-full"
	// ShedDeadlineInfeasible: the job's deadline cannot be met even by
	// the task-performance database's lower-bound estimate (the graph's
	// critical path at catalog/learned base times), so admitting it
	// would only burn capacity on work that is already lost.
	ShedDeadlineInfeasible = "deadline-infeasible"
)

// ErrShed matches every shed rejection via errors.Is.
var ErrShed = errors.New("vdce: submission shed")

// ShedError is the typed rejection of an overloaded admission path.
type ShedError struct {
	// Reason is one of the Shed* constants.
	Reason string
	// RetryAfter is the suggested client backoff; HTTP surfaces emit it
	// as a Retry-After header.
	RetryAfter time.Duration
	// Detail elaborates (queue depth, estimate vs deadline).
	Detail string
}

func (e *ShedError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%v (%s): %s", ErrShed, e.Reason, e.Detail)
	}
	return fmt.Sprintf("%v (%s)", ErrShed, e.Reason)
}

// Is lets errors.Is(err, ErrShed) match the typed rejection.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// ShedConfig tunes adaptive load shedding at admission. The zero value
// sheds nothing: Submit waits for a queue slot until its context ends.
type ShedConfig struct {
	// MaxSubmitWait bounds how long Submit may wait for a queue slot
	// before shedding with reason queue-full. 0 waits until the
	// caller's context ends.
	MaxSubmitWait time.Duration
	// RetryAfter is the backoff hint carried by ShedError (default 1s).
	RetryAfter time.Duration
	// CheckDeadline enables the deadline-infeasibility estimate: a
	// submission whose deadline is closer than the graph's critical-path
	// lower bound (task-performance base times) sheds immediately.
	CheckDeadline bool
	// MeterWindow is the sliding window of the shed-rate meter
	// (default 5s).
	MeterWindow time.Duration
	// Now supplies the meter clock (default time.Now); tests inject a
	// synthetic one.
	Now func() time.Time
}

func (c *ShedConfig) fillDefaults() {
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MeterWindow <= 0 {
		c.MeterWindow = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// unreadyShedRate is the /readyz threshold: the environment reports
// not-ready while more than this fraction of the submissions in the
// meter window was shed.
const unreadyShedRate = 0.5

// shedMeter measures the recent shed rate over a two-bucket sliding
// window: cheap, lock-scoped, and exact enough for a readiness gate.
type shedMeter struct {
	now  func() time.Time
	half time.Duration

	mu       sync.Mutex
	curStart time.Time
	cur      meterBucket
	prev     meterBucket
	// totals are lifetime counters for reports and tests.
	totalAccepted int64
	totalShed     int64
}

type meterBucket struct {
	accepted int
	shed     int
}

func newShedMeter(window time.Duration, now func() time.Time) *shedMeter {
	return &shedMeter{now: now, half: window / 2, curStart: now()}
}

// roll ages the buckets; callers hold m.mu.
func (m *shedMeter) roll(now time.Time) {
	for !now.Before(m.curStart.Add(m.half)) {
		m.prev, m.cur = m.cur, meterBucket{}
		m.curStart = m.curStart.Add(m.half)
		if now.Sub(m.curStart) > 2*m.half {
			// Idle gap longer than the window: skip straight to now.
			m.prev = meterBucket{}
			m.curStart = now
		}
	}
}

func (m *shedMeter) record(shed bool) {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.roll(now)
	if shed {
		m.cur.shed++
		m.totalShed++
	} else {
		m.cur.accepted++
		m.totalAccepted++
	}
}

// rate returns the windowed shed fraction and sample count.
func (m *shedMeter) rate() (float64, int) {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.roll(now)
	shed := m.cur.shed + m.prev.shed
	total := shed + m.cur.accepted + m.prev.accepted
	if total == 0 {
		return 0, 0
	}
	return float64(shed) / float64(total), total
}

// totals returns the lifetime accepted/shed counters.
func (m *shedMeter) totals() (accepted, shed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalAccepted, m.totalShed
}

// shedError builds one rejection with the configured backoff hint.
func (c *ShedConfig) shedError(reason, detail string) *ShedError {
	return &ShedError{Reason: reason, RetryAfter: c.RetryAfter, Detail: detail}
}

// deadlineShed runs the deadline-infeasibility check, which needs no
// queue slot. It returns nil when the submission may proceed to
// admission.
func (p *pipeline) deadlineShed(spec submitSpec) *ShedError {
	if !p.shed.CheckDeadline || spec.deadline.IsZero() {
		return nil
	}
	est, ok := p.minCompletionEstimate(spec.graph)
	if !ok {
		return nil
	}
	if remaining := time.Until(spec.deadline); remaining < est {
		return p.shed.shedError(ShedDeadlineInfeasible,
			fmt.Sprintf("critical-path estimate %v exceeds remaining %v", est, remaining.Round(time.Millisecond)))
	}
	return nil
}

// minCompletionEstimate lower-bounds the graph's completion time from
// the task-performance database: the critical path at per-task base
// times, ignoring queueing, placement, and communication — anything the
// estimate omits only makes the true completion later, so a deadline
// the estimate already misses is genuinely infeasible.
func (p *pipeline) minCompletionEstimate(g *afg.Graph) (time.Duration, bool) {
	cost, err := p.env.CostFunc(g)
	if err != nil {
		// Unknown tasks fail later with a better error; never shed on a
		// missing estimate.
		return 0, false
	}
	_, seconds, err := g.CriticalPath(cost)
	if err != nil || seconds <= 0 {
		return 0, false
	}
	return time.Duration(seconds * float64(time.Second)), true
}

// ShedStats reports the pipeline's lifetime admission counters:
// accepted submissions and shed rejections.
func (env *Environment) ShedStats() (accepted, shed int64) {
	return env.pipe.meter.totals()
}

// Ready reports whether the environment should receive traffic, with a
// human-readable reason when it should not: the /readyz verdict. The
// environment is not ready while the recovery replay of a durable store
// still has re-admitted jobs waiting to reach a scheduler (the backlog
// belongs to the previous incarnation, not new clients) and while the
// admission path is shedding more than half of recent submissions.
func (env *Environment) Ready() (bool, string) {
	p := env.pipe
	if n := p.recoveryPending.Load(); n > 0 {
		return false, fmt.Sprintf("recovery replay: %d re-admitted jobs pending", n)
	}
	if rate, total := p.meter.rate(); total >= 4 && rate > unreadyShedRate {
		return false, fmt.Sprintf("shedding %.0f%% of recent submissions", rate*100)
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return false, "pipeline closed"
	}
	return true, "ok"
}
