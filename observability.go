package vdce

import (
	"log/slog"
	"vdce/internal/breaker"
	"vdce/internal/obs"
	"vdce/internal/services"
)

// discardLog backs every nil-logger default so call sites never branch.
var discardLog = slog.New(slog.DiscardHandler)

// envMetrics holds the pre-resolved handles every pipeline hot path
// records through. Handles are resolved once here — label lookup,
// map access, and allocation all happen at wiring time — so the
// record calls on the submit/schedule/dispatch paths are pure atomics.
type envMetrics struct {
	// Admission.
	submitWait      *obs.Histogram // Submit call → admitted
	accepted        *obs.Counter
	rejectQueueFull *obs.Counter
	rejectDeadline  *obs.Counter
	rejectQuota     *obs.Counter

	// Scheduler.
	roundLatency *obs.Histogram
	// batchPops is the batched-handoff observability: how many jobs one
	// worker wakeup drained from the admission queue (1 = the pre-batch
	// behavior; the distribution shifting right under load is the
	// amortization working).
	batchPops *obs.Histogram

	// Job lifecycle phase durations, observed when each boundary is
	// crossed or at the terminal move.
	phaseQueueWait    *obs.Histogram  // admitted → scheduled
	phaseDispatchWait *obs.Histogram  // scheduled → dispatched
	phaseRun          *obs.Histogram  // running → terminal
	phaseTotal        *obs.Histogram  // submitted → terminal
	completed         [3]*obs.Counter // by terminal state, from JobDone
	hostParks         *obs.Counter

	// Execution recovery (fed by the engine's per-job event stream).
	reschedules  *obs.Counter
	hostFailures *obs.Counter

	// Breakers: opens per host, incremented from the OnTransition hook.
	// This counter — not the breaker package's private tally — is what
	// GET /v1/hosts reports, so the HTTP view and /metrics read one cell.
	breakerOpens *obs.CounterVec

	// Boot replay outcomes.
	recoveryRequeued     *obs.Counter
	recoveryRedispatched *obs.Counter
	recoveryTerminal     *obs.Counter
	recoveryExpired      *obs.Counter
}

// newEnvMetrics registers the pipeline's metric families on reg and
// resolves every hot-path handle.
func newEnvMetrics(reg *obs.Registry) *envMetrics {
	rejects := reg.Counter("vdce_admission_rejects_total",
		"Submissions rejected at admission, by reason (shed reasons plus owner quota).", "reason")
	phase := reg.Histogram("vdce_job_phase_seconds",
		"Job lifecycle phase durations: submit_wait, queue_wait, dispatch_wait, run, total.",
		obs.DefBuckets, "phase")
	completed := reg.Counter("vdce_jobs_completed_total",
		"Jobs reaching a terminal state, by state.", "state")
	recovery := reg.Counter("vdce_recovery_jobs_total",
		"Boot-replay outcomes of jobs recovered from the durable store.", "outcome")
	return &envMetrics{
		submitWait: reg.Histogram("vdce_admission_submit_wait_seconds",
			"Time from Submit to admission-queue entry (backpressure wait).", obs.DefBuckets).With(),
		accepted: reg.Counter("vdce_admission_accepted_total",
			"Submissions admitted into the queue.").With(),
		rejectQueueFull: rejects.With(ShedQueueFull),
		rejectDeadline:  rejects.With(ShedDeadlineInfeasible),
		rejectQuota:     rejects.With("quota"),
		roundLatency: reg.Histogram("vdce_scheduler_round_seconds",
			"Site-scheduler round latency (Fig. 2 round per job).", obs.DefBuckets).With(),
		batchPops: reg.Histogram("vdce_admission_batch_pops",
			"Jobs drained from the admission queue per worker wakeup (batched handoff).",
			obs.ExponentialBuckets(1, 2, 6)).With(),
		phaseQueueWait:    phase.With("queue_wait"),
		phaseDispatchWait: phase.With("dispatch_wait"),
		phaseRun:          phase.With("run"),
		phaseTotal:        phase.With("total"),
		completed: [3]*obs.Counter{completed.With(services.JobStateDone),
			completed.With(services.JobStateFailed), completed.With(services.JobStateCanceled)},
		hostParks: reg.Counter("vdce_dispatch_host_parks_total",
			"Scheduled jobs parked on the per-owner held-hosts quota.").With(),
		reschedules: reg.Counter("vdce_exec_reschedules_total",
			"Mid-run task reschedules across all jobs.").With(),
		hostFailures: reg.Counter("vdce_exec_host_failures_total",
			"Distinct per-job host failures forcing recovery.").With(),
		breakerOpens: reg.Counter("vdce_breaker_opens_total",
			"Circuit-breaker open transitions, by host.", "host"),
		recoveryRequeued:     recovery.With("requeued"),
		recoveryRedispatched: recovery.With("redispatched"),
		recoveryTerminal:     recovery.With("terminal-retained"),
		recoveryExpired:      recovery.With("deadline-expired"),
	}
}

// registerDerived registers the scrape-time collectors that sample
// subsystems which already answer cheaply on demand: queue depth,
// in-flight counts, retry-gate totals, rank-cache counters, breaker
// census, and broker subscribers. Called once from New after the
// pipeline is running; nothing here touches a hot path.
func (env *Environment) registerDerived(reg *obs.Registry) {
	pipe := env.pipe
	reg.GaugeFunc("vdce_admission_queue_depth",
		"Jobs waiting in the admission queue across owners.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(pipe.admit.queuedLen()))
		})
	reg.GaugeFunc("vdce_admission_owners",
		"Owner shares the admission queue currently tracks (live state only; drained owners are pruned).", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(pipe.admit.ownerCount()))
		})
	reg.CounterFunc("vdce_admission_owner_prunes_total",
		"Idle owner shares retired from the admission queue.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(pipe.admit.pruneCount()))
		})
	reg.GaugeFunc("vdce_board_jobs",
		"Rows the job board retains.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Board.Len()))
		})
	reg.GaugeFunc("vdce_jobs_inflight",
		"Admitted jobs not yet terminal (board view).", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Board.InFlight()))
		})
	reg.GaugeFunc("vdce_exec_dispatch_concurrency",
		"Applications executing right now.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Engine.InFlight()))
		})
	reg.GaugeFunc("vdce_exec_dispatch_peak",
		"High-water mark of concurrent application executions.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Engine.PeakConcurrency()))
		})
	reg.CounterFunc("vdce_exec_retries_total",
		"Engine retry attempts admitted by the token-bucket budget.", nil,
		func(emit func(v float64, labelVals ...string)) {
			retries, _ := env.Engine.RetryStats()
			emit(float64(retries))
		})
	reg.CounterFunc("vdce_exec_retry_parks_total",
		"Engine retries parked waiting for a budget token.", nil,
		func(emit func(v float64, labelVals ...string)) {
			_, parked := env.Engine.RetryStats()
			emit(float64(parked))
		})
	reg.CounterFunc("vdce_scheduler_rankcache_total",
		"Ranked-host cache counters summed across sites, by event.",
		[]string{"event"},
		func(emit func(v float64, labelVals ...string)) {
			var hits, misses, inval int64
			for _, s := range env.Sites {
				cs := s.CacheStats()
				hits += cs.Hits
				misses += cs.Misses
				inval += cs.Invalidations
			}
			emit(float64(hits), "hit")
			emit(float64(misses), "miss")
			emit(float64(inval), "invalidation")
		})
	reg.GaugeFunc("vdce_scheduler_rankcache_hit_ratio",
		"Fraction of RankedHosts calls served from the generation cache.", nil,
		func(emit func(v float64, labelVals ...string)) {
			var agg struct{ hits, misses int64 }
			for _, s := range env.Sites {
				cs := s.CacheStats()
				agg.hits += cs.Hits
				agg.misses += cs.Misses
			}
			if agg.hits+agg.misses == 0 {
				emit(0)
				return
			}
			emit(float64(agg.hits) / float64(agg.hits+agg.misses))
		})
	if env.Breakers != nil {
		reg.GaugeFunc("vdce_breaker_hosts",
			"Hosts per circuit-breaker state.", []string{"state"},
			func(emit func(v float64, labelVals ...string)) {
				counts := map[string]int{
					breaker.Closed.String():   0,
					breaker.Open.String():     0,
					breaker.HalfOpen.String(): 0,
				}
				for _, hs := range env.Breakers.Snapshot() {
					counts[hs.State]++
				}
				for state, n := range counts {
					emit(float64(n), state)
				}
			})
	}
}

// breakerHook returns the OnTransition callback New installs on the
// breaker set: it feeds the shared opens counter (the cell /v1/hosts
// and /metrics both read) and the structured log. next preserves any
// caller-supplied hook.
func breakerHook(m *envMetrics, log *slog.Logger,
	next func(string, breaker.State, breaker.State)) func(string, breaker.State, breaker.State) {
	return func(host string, from, to breaker.State) {
		if to == breaker.Open {
			m.breakerOpens.With(host).Inc()
		}
		log.Info("breaker transition", "host", host, "from", from.String(), "to", to.String())
		if next != nil {
			next(host, from, to)
		}
	}
}
