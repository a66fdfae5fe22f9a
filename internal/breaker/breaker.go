// Package breaker implements per-host circuit breakers for the VDCE
// placement path. The heartbeat failure detector (internal/detect)
// confirms *silent* hosts dead, but a flapping host — one that fails,
// recovers before the suspicion timeout, and fails again — never stays
// quiet long enough to be confirmed, so it keeps winning placements and
// keeps killing the tasks placed on it. The breaker closes that gap
// with the classic three-state machine:
//
//	closed ──(failure rate ≥ threshold over the window)──▶ open
//	open ──(OpenTimeout elapsed)──▶ half-open
//	half-open ──(ProbeSuccesses consecutive successes)──▶ closed
//	half-open ──(any failure)──▶ open
//
// Failure samples come from the execution engine's watchdog
// terminations (EventHostFailure) and from the detector's suspect
// transitions; successes come from completed task runs. The
// rescheduler consults Allow() so open hosts stop receiving work, while
// half-open hosts admit probe traffic that re-closes the breaker after
// genuine recovery.
//
// All time flows through Config.Now, so tests (and the simulator) drive
// the state machine on a synthetic clock.
package breaker

import (
	"sort"
	"sync"
	"time"
)

// State is one circuit-breaker state.
type State int

const (
	// Closed: the host takes placements normally; outcomes are sampled.
	Closed State = iota
	// Open: the host is quarantined — excluded from placements until
	// OpenTimeout elapses.
	Open
	// HalfOpen: the quarantine expired; the host may take probe
	// placements whose outcomes decide between re-closing and re-opening.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Config tunes the per-host state machines. The zero value gets
// sensible defaults from New.
type Config struct {
	// Window is the sliding interval over which the failure rate is
	// measured (default 30s).
	Window time.Duration
	// Buckets is the window's ring granularity (default 6). More buckets
	// age samples out more smoothly at slightly more bookkeeping.
	Buckets int
	// FailureThreshold opens the breaker when failures/total over the
	// window reaches it, provided MinSamples were observed (default 0.5).
	FailureThreshold float64
	// MinSamples is the minimum number of outcomes in the window before
	// the rate is trusted (default 4) — one unlucky failure on an idle
	// host must not quarantine it.
	MinSamples int
	// OpenTimeout is how long an open breaker quarantines the host
	// before moving to half-open (default 30s).
	OpenTimeout time.Duration
	// ProbeSuccesses is how many consecutive half-open successes close
	// the breaker (default 2). Any half-open failure re-opens it.
	ProbeSuccesses int
	// Now supplies the clock (default time.Now). Injected by tests and
	// the simulator.
	Now func() time.Time
	// OnTransition, when non-nil, observes every state change. Called
	// with the set's lock held: keep it fast and do not call back into
	// the Set.
	OnTransition func(host string, from, to State)
}

func (c *Config) fillDefaults() {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 6
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 30 * time.Second
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// bucket holds one ring slot of outcome counts.
type bucket struct {
	failures  int
	successes int
}

// hostBreaker is one host's state machine. All fields are guarded by
// the owning Set's mutex.
type hostBreaker struct {
	state    State
	openedAt time.Time
	// probeOK counts consecutive half-open successes.
	probeOK int
	// opens counts closed/half-open → open transitions, for reports.
	opens int

	ring     []bucket
	cur      int
	curStart time.Time
}

// Set is a registry of per-host breakers sharing one Config.
type Set struct {
	cfg       Config
	bucketDur time.Duration

	mu    sync.Mutex
	hosts map[string]*hostBreaker
}

// New returns an empty Set; hosts materialize on first report or query.
func New(cfg Config) *Set {
	cfg.fillDefaults()
	return &Set{
		cfg:       cfg,
		bucketDur: cfg.Window / time.Duration(cfg.Buckets),
		hosts:     make(map[string]*hostBreaker),
	}
}

// host returns the named breaker, creating it closed. Callers hold s.mu.
func (s *Set) host(name string, now time.Time) *hostBreaker {
	hb, ok := s.hosts[name]
	if !ok {
		hb = &hostBreaker{ring: make([]bucket, s.cfg.Buckets), curStart: now}
		s.hosts[name] = hb
	}
	return hb
}

// advance ages the ring to now, zeroing buckets that fell out of the
// window, and lazily trips the open → half-open timeout. Callers hold
// s.mu.
func (s *Set) advance(name string, hb *hostBreaker, now time.Time) {
	steps := 0
	for !now.Before(hb.curStart.Add(s.bucketDur)) && steps < s.cfg.Buckets {
		hb.cur = (hb.cur + 1) % s.cfg.Buckets
		hb.ring[hb.cur] = bucket{}
		hb.curStart = hb.curStart.Add(s.bucketDur)
		steps++
	}
	if steps == s.cfg.Buckets {
		// The whole window elapsed since the last sample: clear everything
		// and re-anchor rather than spinning bucket-by-bucket.
		for i := range hb.ring {
			hb.ring[i] = bucket{}
		}
		hb.curStart = now
	}
	if hb.state == Open && !now.Before(hb.openedAt.Add(s.cfg.OpenTimeout)) {
		s.transition(name, hb, HalfOpen)
		hb.probeOK = 0
	}
}

// transition moves hb to next and notifies the observer. Callers hold
// s.mu.
func (s *Set) transition(name string, hb *hostBreaker, next State) {
	if hb.state == next {
		return
	}
	from := hb.state
	hb.state = next
	if next == Open {
		hb.opens++
	}
	if s.cfg.OnTransition != nil {
		s.cfg.OnTransition(name, from, next)
	}
}

// rate returns the windowed failure rate and sample count. Callers hold
// s.mu and have advanced the ring.
func (hb *hostBreaker) rate() (float64, int) {
	var fail, total int
	for _, b := range hb.ring {
		fail += b.failures
		total += b.failures + b.successes
	}
	if total == 0 {
		return 0, 0
	}
	return float64(fail) / float64(total), total
}

// ReportFailure records one failure outcome for the host: a watchdog
// termination, a detector suspect/dead transition, or any other signal
// that placements on the host went wrong.
func (s *Set) ReportFailure(host string) {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	hb := s.host(host, now)
	s.advance(host, hb, now)
	hb.ring[hb.cur].failures++
	switch hb.state {
	case Closed:
		if r, n := hb.rate(); n >= s.cfg.MinSamples && r >= s.cfg.FailureThreshold {
			s.transition(host, hb, Open)
			hb.openedAt = now
		}
	case HalfOpen:
		// A failed probe restarts the quarantine in full.
		s.transition(host, hb, Open)
		hb.openedAt = now
		hb.probeOK = 0
	}
}

// ReportSuccess records one successful task run on the host.
func (s *Set) ReportSuccess(host string) {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	hb := s.host(host, now)
	s.advance(host, hb, now)
	hb.ring[hb.cur].successes++
	if hb.state == HalfOpen {
		hb.probeOK++
		if hb.probeOK >= s.cfg.ProbeSuccesses {
			s.transition(host, hb, Closed)
			// A freshly closed breaker starts from a clean slate: the
			// quarantine already paid for the recorded failures.
			for i := range hb.ring {
				hb.ring[i] = bucket{}
			}
			hb.ring[hb.cur].successes = hb.probeOK
			hb.curStart = now
			hb.probeOK = 0
		}
	}
}

// Allow reports whether the host may take a placement right now:
// closed and half-open (probe traffic) admit, open rejects.
func (s *Set) Allow(host string) bool {
	return s.State(host) != Open
}

// State returns the host's current state, applying the open → half-open
// timeout lazily. Unknown hosts are closed.
func (s *Set) State(host string) State {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	hb, ok := s.hosts[host]
	if !ok {
		return Closed
	}
	s.advance(host, hb, now)
	return hb.state
}

// Excluded returns the hosts whose breakers are currently open, sorted.
func (s *Set) Excluded() []string {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, hb := range s.hosts {
		s.advance(name, hb, now)
		if hb.state == Open {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// HostStatus is one host's breaker snapshot, for the /v1/hosts API and
// simulator reports.
type HostStatus struct {
	Host        string  `json:"host"`
	State       string  `json:"breaker"`
	FailureRate float64 `json:"failure_rate"`
	Samples     int     `json:"samples"`
	Opens       int     `json:"opens"`
}

// Snapshot returns every known host's status, sorted by host name.
func (s *Set) Snapshot() []HostStatus {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]HostStatus, 0, len(s.hosts))
	for name, hb := range s.hosts {
		s.advance(name, hb, now)
		r, n := hb.rate()
		out = append(out, HostStatus{
			Host: name, State: hb.state.String(),
			FailureRate: r, Samples: n, Opens: hb.opens,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}
