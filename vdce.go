// Package vdce is the public facade of the Virtual Distributed Computing
// Environment reproduction: it wires the simulated wide-area testbed,
// the per-site repositories and schedulers, the Control Manager daemons,
// the execution engine, and the Application Editor into one Environment
// that can build, schedule, and execute applications end to end.
//
// The Environment is multi-tenant: alongside the one-shot Run helper it
// runs a concurrent submission pipeline. Submit admits an application
// flow graph — configured with functional options (WithOwner,
// WithPriority, WithDeadline, WithHomeSite, WithMaxHosts, WithLabels) —
// into a bounded fair-share priority queue and returns a *Job handle
// immediately. Within one owner, jobs dequeue by effective priority
// (the owner's user-account priority unless overridden, aged upward
// while the job waits so nothing starves); across owners the queue
// drains by weighted fair queuing (WithShareWeight, defaulting from
// the account priority) with per-owner quotas on queued jobs,
// in-flight jobs, and held hosts (PipelineConfig.Quota), so no single
// user monopolizes the shared testbed. A pool of scheduler workers
// runs core.Scheduler rounds
// concurrently — each job scheduled from its home site (round-robin for
// anonymous submissions, the submitting site for owned ones), so rounds
// spread across sites — and a bounded dispatch path executes
// independent jobs' task graphs simultaneously on the shared testbed
// (one task per machine at a time, enforced engine-wide). Jobs move
// through queued -> scheduling -> running -> done|failed|canceled;
// observe one job with Job.Wait/Job.Done, cancel it with Job.Cancel,
// drain all with Drain, and follow the fleet's lifecycle through the
// Board (services.JobBoard), Jobs, or the versioned /v1/jobs HTTP
// surface (internal/jobsapi, mounted by vdce-server and the editor).
// PipelineConfig in Config sizes the queue, the worker pool, the
// execution concurrency, and the priority-aging rate.
//
// Reproduces Topcuoglu & Hariri, "A Global Computing Environment for
// Networked Resources", ICPP 1997.
package vdce

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"vdce/internal/afg"
	"vdce/internal/breaker"
	"vdce/internal/control"
	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/editor"
	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/netmodel"
	"vdce/internal/obs"
	"vdce/internal/protocol"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/store"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// Config assembles an Environment.
type Config struct {
	// Testbed shapes the fabricated hardware (sites, groups, hosts).
	Testbed testbed.Config
	// K is the scheduler's nearest-neighbor site count (Fig. 2 step 2).
	K int
	// LoadThreshold is the Application Controller's rescheduling trigger;
	// 0 disables it.
	LoadThreshold float64
	// DilationScale emulates heterogeneous host speeds during execution;
	// 0 disables dilation.
	DilationScale float64
	// UseRPC runs a Site Manager RPC server per site and routes remote
	// host selection over real TCP. When false, sites talk in-process.
	UseRPC bool
	// StartDaemons launches Monitor daemons and Group Managers; their
	// cadence is MonitorPeriod.
	StartDaemons  bool
	MonitorPeriod time.Duration
	// StartDetector runs the heartbeat failure-detection service: every
	// monitor report feeds a per-host last-seen clock, silent hosts move
	// through suspect -> confirmed-dead (quorum), confirmed transitions
	// land in the site repositories as one epoch per round, and tasks
	// running on a confirmed-dead host are interrupted and rescheduled
	// mid-run. Echo-detected failures become quorum votes instead of
	// immediate status flips. With StartDaemons the detector's
	// evaluation loop runs on the wall clock against live heartbeats;
	// without daemons no background loop starts (a wall-clock ticker
	// would condemn hosts fed synthetic timestamps) — synchronous
	// drivers feed heartbeats via RefreshMonitoring and call
	// Detector.Tick themselves with their own clock.
	StartDetector bool
	// Detect tunes the failure detector. Zero fields default relative to
	// MonitorPeriod (suspicion after 4 missed periods, quorum 2, one
	// evaluation round per period).
	Detect detect.Config
	// Pipeline sizes the concurrent submission pipeline behind Submit.
	// The zero value takes the PipelineConfig defaults.
	Pipeline PipelineConfig
	// Retry shapes the execution engine's rescheduling retries: jittered
	// exponential backoff per attempt plus an engine-wide token-bucket
	// retry budget, so a mass host failure cannot multiply load into a
	// retry storm. The zero value keeps the legacy immediate retries.
	Retry exec.RetryConfig
	// StartBreakers runs per-host circuit breakers (internal/breaker):
	// watchdog failures and detector suspicions open a flapping host's
	// breaker, quarantining it from placements until half-open probes
	// succeed. Surfaced on GET /v1/hosts and consulted by the
	// rescheduler and the admission path's breaker-saturation shed.
	StartBreakers bool
	// Breaker tunes the circuit breakers when StartBreakers is set; the
	// zero value takes the breaker defaults.
	Breaker breaker.Config
	// StoreDir, when non-empty, makes the control plane durable: job
	// lifecycle, per-owner admin state, task-performance history, and the
	// event stream's high-water mark are logged to an append-only store
	// under this directory (internal/store), and a restarting Environment
	// replays it — queued jobs re-enter the admission queue with owner,
	// priority, deadline, and share weight intact; in-flight jobs are
	// re-adopted and re-dispatched; terminal jobs reappear on the board.
	// Empty keeps today's purely in-memory behavior.
	StoreDir string
	// Store tunes the durable store (flush interval, compaction cadence)
	// when StoreDir is set; the zero value takes the store defaults.
	Store store.Options
	// Obs is the metrics registry every subsystem records into
	// (admission, scheduler rounds, exec, breakers, WAL, event broker,
	// job phase histograms). Nil creates a fresh registry — there is
	// always one; pass a shared registry to aggregate several
	// environments onto one /metrics page.
	Obs *obs.Registry
	// Logger receives structured logs with job_id/owner correlation from
	// the pipeline, engine, and recovery paths. Nil discards.
	Logger *slog.Logger
}

// Environment is a fully wired VDCE instance.
type Environment struct {
	TB       *testbed.Testbed
	Net      *netmodel.Network
	Registry *tasklib.Registry
	Sites    []*core.LocalSite
	Managers []*control.SiteManager // non-nil when UseRPC
	Groups   []*control.GroupManager
	Engine   *exec.Engine
	Console  *services.Console
	Metrics  *services.Metrics
	// Detector is the failure-detection service (non-nil when
	// Config.StartDetector).
	Detector *detect.Detector
	// Breakers is the per-host circuit-breaker set (non-nil when
	// Config.StartBreakers).
	Breakers *breaker.Set
	// Board tracks every submitted job's lifecycle for monitoring.
	Board *services.JobBoard
	// Store is the durable control-plane log (non-nil when
	// Config.StoreDir was set).
	Store *store.Store
	// Obs is the metrics registry behind GET /metrics: every subsystem's
	// counters, gauges, and histograms. Always non-nil.
	Obs *obs.Registry

	mu            sync.Mutex // guards remoteClients
	remoteClients []*control.RemoteSite
	cancel        context.CancelFunc
	pipe          *pipeline
	// obsM holds the pre-resolved hot-path metric handles; log is the
	// structured logger (discarding when Config.Logger was nil).
	obsM *envMetrics
	log  *slog.Logger
}

// New builds and starts an Environment.
func New(cfg Config) (*Environment, error) {
	tb, err := testbed.Build(cfg.Testbed)
	if err != nil {
		return nil, err
	}
	env := &Environment{
		TB:       tb,
		Net:      tb.Net,
		Registry: tasklib.Default(),
		Console:  services.NewConsole(),
		Metrics:  services.NewMetrics(),
		Board:    services.NewJobBoard(),
		Obs:      cfg.Obs,
		log:      cfg.Logger,
	}
	if env.Obs == nil {
		env.Obs = obs.NewRegistry()
	}
	if env.log == nil {
		env.log = discardLog
	}
	env.obsM = newEnvMetrics(env.Obs)
	// Install the task catalog and a default account at every site.
	for _, site := range tb.Sites {
		names := make([]string, len(site.Hosts))
		for i, h := range site.Hosts {
			names[i] = h.Name
		}
		if err := env.Registry.InstallInto(site.Repo, names); err != nil {
			return nil, err
		}
		if _, err := site.Repo.Users.AddUser("user_k", "vdce", 5, repository.DomainGlobal); err != nil {
			return nil, err
		}
		env.Sites = append(env.Sites, core.NewLocalSite(site.Repo))
	}

	// Open the durable store before anything that will write to it. An
	// unreadable log (including mid-log corruption, surfaced as a typed
	// *store.CorruptError) fails the boot rather than silently dropping
	// state.
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		if cfg.Store.Metrics == nil {
			cfg.Store.Metrics = env.Obs
		}
		st, err = store.Open(cfg.StoreDir, cfg.Store)
		if err != nil {
			return nil, err
		}
		env.Store = st
		// Replay the recovered task-performance history into the site
		// repositories, so the scheduler's execution-time estimates
		// survive the restart instead of resetting to catalog base times.
		// Records for hosts or tasks this testbed no longer has are
		// skipped.
		for _, rec := range st.Recovered().Perf {
			for _, ls := range env.Sites {
				if _, ok := ls.Repo.Resources.View(rec.Host); ok {
					_ = ls.Repo.TaskPerf.RecordExecution(rec.Task, rec.Host, rec.Elapsed, rec.At)
					break
				}
			}
		}
	}

	if cfg.UseRPC {
		for _, ls := range env.Sites {
			sm, err := control.StartSiteManager(ls, "127.0.0.1:0")
			if err != nil {
				env.Close()
				return nil, err
			}
			env.Managers = append(env.Managers, sm)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	env.cancel = cancel
	period := cfg.MonitorPeriod
	if period <= 0 {
		period = 250 * time.Millisecond
	}
	if cfg.StartDetector {
		dcfg := cfg.Detect
		if dcfg.SuspicionTimeout <= 0 {
			// One dropped report must never raise suspicion.
			dcfg.SuspicionTimeout = 4 * period
		}
		if dcfg.TickPeriod <= 0 {
			dcfg.TickPeriod = period
		}
		env.Detector = detect.New(dcfg)
		for _, site := range tb.Sites {
			env.Detector.AddSite(site.Name, site.Repo.Resources)
		}
		// Echo-detected failures arriving over RPC become quorum votes;
		// echo-observed recoveries count as heartbeats.
		for _, sm := range env.Managers {
			sm.InterceptFailureNotices(
				func(n protocol.FailureNotice) bool {
					env.Detector.ReportFailure(n.Host, n.Detected)
					return true
				},
				func(n protocol.RecoveryNotice) bool {
					env.Detector.Observe(n.Host, n.Detected)
					return true
				},
			)
		}
	}
	if cfg.StartDaemons {
		start := time.Now()
		for si, site := range tb.Sites {
			var reporter control.Reporter
			if cfg.UseRPC {
				reporter = env.Managers[si]
			} else {
				// In-process reporter without RPC: a SiteManager is not
				// running, so apply updates directly.
				reporter = directReporter{repo: site.Repo}
			}
			if env.Detector != nil && !cfg.UseRPC {
				// Failure detection is the detector's call now: echo
				// notices become suspicion votes and recovery notices
				// heartbeats, while workload batches flow through. In
				// RPC mode the Site Manager's installed interceptors
				// play this role instead (covering remote leaders too),
				// so exactly one interception layer exists per wiring.
				reporter = detectReporter{next: reporter, det: env.Detector}
			}
			// Every forwarded workload also lands in the visualization
			// service, the paper's "workload visualizations".
			reporter = teeReporter{next: reporter, metrics: env.Metrics, start: start}
			for _, gname := range site.GroupNames() {
				gm := control.NewGroupManager(site.Name, gname, site.GroupHosts(gname), reporter, period)
				gm.EchoPeriod = period
				if env.Detector != nil {
					// Heartbeats come off the unfiltered daemon stream:
					// the significant-change filter spares the site link,
					// but a steady host must not look silent.
					det := env.Detector
					gm.Heartbeat = func(host string, s repository.WorkloadSample) {
						det.Observe(host, s.Time)
					}
				}
				env.Groups = append(env.Groups, gm)
				go gm.Run(ctx)
			}
		}
	}

	var reschedOpts []exec.ReschedulerOption
	if cfg.StartBreakers {
		// Breaker transitions feed the shared opens counter and the
		// structured log on top of any caller-installed hook.
		bcfg := cfg.Breaker
		bcfg.OnTransition = breakerHook(env.obsM, env.log, cfg.Breaker.OnTransition)
		env.Breakers = breaker.New(bcfg)
		reschedOpts = append(reschedOpts, exec.WithBreakers(env.Breakers))
	}
	env.Engine = &exec.Engine{
		Reg:           env.Registry,
		TB:            tb,
		LoadThreshold: cfg.LoadThreshold,
		DilationScale: cfg.DilationScale,
		Reschedule:    exec.NewRescheduler(env.Sites, reschedOpts...),
		Retry:         cfg.Retry,
		Breakers:      env.Breakers,
		Console:       env.Console,
		Metrics:       env.Metrics,
		Log:           cfg.Logger,
	}
	env.Engine.Record = func(rec protocol.ExecutionRecord) {
		// Route the record to the owning site's task-performance DB; the
		// membership probe needs no history, so the slim view suffices.
		for _, site := range env.Sites {
			if _, ok := site.Repo.Resources.View(rec.Host); ok {
				_ = site.Repo.TaskPerf.RecordExecution(rec.Task, rec.Host, rec.Elapsed, rec.At)
				break
			}
		}
		if env.Store != nil {
			// Measurements feed the durable log too, so a restarted
			// control plane schedules with learned estimates, not
			// catalog defaults.
			_ = env.Store.PerfMeasured(store.PerfRecord{
				Task: rec.Task, Host: rec.Host, Elapsed: rec.Elapsed, At: rec.At,
			})
		}
	}
	if env.Detector != nil {
		// Confirmed transitions drive execution: a death interrupts the
		// host's running tasks (they reschedule with the host excluded),
		// a recovery readmits it. The repository side of the transition
		// is already published when subscribers run.
		env.Detector.Subscribe(func(tr detect.Transition) {
			switch tr.To {
			case detect.Suspect:
				// The suspect signal feeds the circuit breakers: a flapping
				// host keeps re-entering suspicion without ever staying
				// silent long enough to be confirmed dead, and the breaker
				// is exactly the accumulator that notices the pattern.
				if env.Breakers != nil {
					env.Breakers.ReportFailure(tr.Host)
				}
			case detect.Dead:
				env.Engine.MarkHostDead(tr.Host)
				if env.Breakers != nil {
					env.Breakers.ReportFailure(tr.Host)
				}
			case detect.Recovered:
				env.Engine.MarkHostAlive(tr.Host)
			}
		})
		if cfg.StartDaemons {
			// The wall-clock evaluation loop only makes sense against
			// live daemon heartbeats; synchronous drivers Tick the
			// detector on their own clock instead.
			go env.Detector.Run(ctx)
		}
	}
	env.pipe = startPipeline(ctx, env, cfg.Pipeline, st)
	env.registerDerived(env.Obs)
	if st != nil {
		r := env.pipe.recovery
		env.log.Info("recovery replay complete",
			"queued_recovered", r.QueuedRecovered,
			"inflight_redispatched", r.InFlightRedispatched,
			"terminal_retained", r.TerminalRetained,
			"deadline_expired", r.DeadlineExpiredAtReplay)
	}
	return env, nil
}

// detectReporter routes a Group Manager's failure-detection notices to
// the failure detector — echo timeouts are votes, not verdicts — while
// workload batches pass through to the repository untouched.
type detectReporter struct {
	next control.Reporter
	det  *detect.Detector
}

func (d detectReporter) ApplyWorkloads(b protocol.WorkloadBatch) error {
	return d.next.ApplyWorkloads(b)
}

func (d detectReporter) ApplyFailure(n protocol.FailureNotice) error {
	d.det.ReportFailure(n.Host, n.Detected)
	return nil
}

func (d detectReporter) ApplyRecovery(n protocol.RecoveryNotice) error {
	d.det.Observe(n.Host, n.Detected)
	return nil
}

// teeReporter forwards Group Manager updates and mirrors workloads into
// the visualization service.
type teeReporter struct {
	next    control.Reporter
	metrics *services.Metrics
	start   time.Time
}

func (t teeReporter) ApplyWorkloads(b protocol.WorkloadBatch) error {
	for _, s := range b.Samples {
		t.metrics.Add("load:"+s.Host, time.Since(t.start), s.Sample.CPULoad)
	}
	return t.next.ApplyWorkloads(b)
}

func (t teeReporter) ApplyFailure(n protocol.FailureNotice) error {
	t.metrics.Add("failures:"+n.Group, time.Since(t.start), 1)
	return t.next.ApplyFailure(n)
}

func (t teeReporter) ApplyRecovery(n protocol.RecoveryNotice) error {
	t.metrics.Add("failures:"+n.Group, time.Since(t.start), 0)
	return t.next.ApplyRecovery(n)
}

// directReporter applies Group Manager updates straight to a repository
// (the no-RPC wiring).
type directReporter struct{ repo *repository.Repository }

func (d directReporter) ApplyWorkloads(b protocol.WorkloadBatch) error {
	samples := make([]repository.HostSample, len(b.Samples))
	for i, s := range b.Samples {
		samples[i] = repository.HostSample{Host: s.Host, Sample: s.Sample}
	}
	_, err := d.repo.Resources.UpdateWorkloads(samples)
	return err
}

func (d directReporter) ApplyFailure(n protocol.FailureNotice) error {
	return d.repo.Resources.SetStatus(n.Host, repository.HostDown)
}

func (d directReporter) ApplyRecovery(n protocol.RecoveryNotice) error {
	return d.repo.Resources.SetStatus(n.Host, repository.HostUp)
}

// Close stops the submission pipeline, daemons, RPC servers, and client
// connections. Queued jobs fail with ErrPipelineClosed; running jobs are
// canceled. With a durable store configured, Close is the graceful
// shutdown: the store compacts and fsyncs, and the shutdown-induced
// terminal states are not persisted — durably, queued and in-flight
// jobs remain queued/running, exactly what the next boot re-adopts.
func (env *Environment) Close() {
	env.shutdown(true)
}

// Crash is the SIGKILL-equivalent teardown (tests and the chaos
// scenario's server-restart fault): everything stops, but the durable
// store is abandoned rather than closed — no final compaction, no
// graceful flush beyond the group-commit batch already handed to the
// OS. Whatever the commit window had not yet accepted is lost, exactly
// as a real crash would lose it; a new Environment on the same StoreDir
// then exercises the true recovery path.
func (env *Environment) Crash() {
	env.shutdown(false)
}

func (env *Environment) shutdown(graceful bool) {
	if env.cancel != nil {
		env.cancel()
	}
	if env.pipe != nil {
		env.pipe.stop()
	}
	if env.Engine != nil {
		env.Engine.Close()
	}
	env.mu.Lock()
	clients := env.remoteClients
	env.remoteClients = nil
	env.mu.Unlock()
	for _, rc := range clients {
		rc.Close()
	}
	for _, sm := range env.Managers {
		sm.Close()
	}
	if env.Store != nil {
		if graceful {
			env.Store.Close()
		} else {
			env.Store.Abandon()
		}
	}
}

// Recovery reports what this Environment's boot replay of the durable
// store did: queued jobs re-admitted, in-flight jobs re-dispatched,
// terminal jobs retained. The zero report means there was no store or
// it was empty.
func (env *Environment) Recovery() RecoveryReport {
	return env.pipe.recovery
}

// siteServices resolves site index i's scheduling services: its local
// site plus every other site as a remote (over RPC when the environment
// runs Site Managers). Dialed clients are owned by the environment and
// released on Close.
func (env *Environment) siteServices(i int) (core.SiteService, []core.SiteService, error) {
	if i < 0 || i >= len(env.Sites) {
		return nil, nil, fmt.Errorf("vdce: no site %d", i)
	}
	var remotes []core.SiteService
	for j, s := range env.Sites {
		if j == i {
			continue
		}
		if len(env.Managers) == len(env.Sites) {
			rc, err := control.DialSite(s.SiteName(), env.Managers[j].Addr())
			if err != nil {
				return nil, nil, err
			}
			env.mu.Lock()
			env.remoteClients = append(env.remoteClients, rc)
			env.mu.Unlock()
			remotes = append(remotes, rc)
		} else {
			remotes = append(remotes, s)
		}
	}
	return env.Sites[i], remotes, nil
}

// SchedulerAt returns the Application Scheduler of site index i: its
// local site plus every other site as a remote (over RPC when the
// environment runs Site Managers).
func (env *Environment) SchedulerAt(i int, k int) (*core.Scheduler, error) {
	local, remotes, err := env.siteServices(i)
	if err != nil {
		return nil, err
	}
	return core.NewScheduler(local, remotes, env.Net, k), nil
}

// CostFunc derives the level-computation cost function for g from site
// 0's task-performance database (every site holds the same catalog).
func (env *Environment) CostFunc(g *afg.Graph) (afg.CostFunc, error) {
	if len(env.Sites) == 0 {
		return nil, errors.New("vdce: no sites")
	}
	oracle := env.Sites[0].Oracle
	costs := make([]float64, len(g.Tasks))
	for i, task := range g.Tasks {
		d, err := oracle.BaseTimeFor(task.Name)
		if err != nil {
			return nil, err
		}
		costs[i] = d.Seconds()
	}
	return func(id afg.TaskID) float64 { return costs[id] }, nil
}

// Schedule runs the distributed scheduler from site 0 with the
// environment's K.
func (env *Environment) Schedule(g *afg.Graph, k int) (*core.AllocationTable, error) {
	sched, err := env.SchedulerAt(0, k)
	if err != nil {
		return nil, err
	}
	cost, err := env.CostFunc(g)
	if err != nil {
		return nil, err
	}
	return sched.Schedule(g, cost)
}

// Run schedules and executes g, returning both artifacts.
func (env *Environment) Run(ctx context.Context, g *afg.Graph, k int) (*core.AllocationTable, *exec.Result, error) {
	table, err := env.Schedule(g, k)
	if err != nil {
		return nil, nil, err
	}
	res, err := env.Engine.Execute(ctx, g, table)
	if err != nil {
		return table, nil, err
	}
	return table, res, nil
}

// ClampK applies the owner's access domain type (the fifth field of the
// paper's user-account tuple) to a requested neighbor count: local users
// stay on the submitting site, campus users reach at most the two
// nearest sites, global users are unrestricted. Unknown owners are
// treated as local.
func (env *Environment) ClampK(owner string, k int) int {
	acct, err := env.Sites[0].Repo.Users.Lookup(owner)
	if err != nil {
		return 0
	}
	switch acct.Domain {
	case repository.DomainGlobal:
		return k
	case repository.DomainCampus:
		if k > 2 {
			return 2
		}
		return k
	default:
		return 0
	}
}

// EditorServer returns an Application Editor wired to site 0's accounts
// and a submitter that schedules (and optionally executes) submissions.
// The submitting user's access domain bounds how many neighbor sites the
// scheduler may use. Executed submissions go through the concurrent
// submission pipeline, so simultaneous editor clients are served
// simultaneously.
//
// When execute is true the editor also speaks the versioned job-control
// API: POST /v1/apps/{id}/submit enqueues with per-job priority,
// deadline, and max-hosts, and /v1/jobs (mounted owner-scoped, so users
// cancel only their own jobs) serves status and cancellation.
func (env *Environment) EditorServer(execute bool, k int) *editor.Server {
	users := env.Sites[0].Repo.Users
	srv := editor.NewServer(users, env.Registry, func(ctx context.Context, owner string, g *afg.Graph) (any, error) {
		if !execute {
			return env.Schedule(g, env.ClampK(owner, k))
		}
		job, err := env.Submit(ctx, g, WithOwner(owner), WithMaxHosts(k))
		if err != nil {
			return nil, err
		}
		if err := job.Wait(ctx); err != nil {
			return nil, err
		}
		res := job.Result()
		return map[string]any{
			"job":      job.ID,
			"state":    job.State().String(),
			"table":    job.Table(),
			"makespan": res.Makespan.String(),
			"runs":     len(res.Runs),
		}, nil
	})
	if execute {
		srv.SubmitJob = func(ctx context.Context, owner string, g *afg.Graph, o editor.JobOptions) (services.JobStatus, error) {
			opts := []SubmitOption{WithOwner(owner), WithMaxHosts(k)}
			if o.MaxHosts != nil {
				opts = append(opts, WithMaxHosts(*o.MaxHosts))
			}
			if o.Priority != nil {
				opts = append(opts, WithPriority(*o.Priority))
			}
			if o.ShareWeight != nil {
				opts = append(opts, WithShareWeight(*o.ShareWeight))
			}
			if o.Deadline > 0 {
				opts = append(opts, WithDeadline(time.Now().Add(o.Deadline)))
			}
			job, err := env.Submit(ctx, g, opts...)
			if err != nil {
				var se *ShedError
				switch {
				case errors.As(err, &se):
					// Adaptive load shedding: surface as 503 + Retry-After,
					// carrying the shedder's reason and backoff hint.
					err = &editor.OverloadedError{
						RetryAfter: se.RetryAfter, Reason: se.Reason, Err: err,
					}
				case errors.Is(err, ErrQuotaExceeded):
					// Per-owner admission quota: a 429, not a 400 — the
					// request was fine, the owner must back off.
					err = fmt.Errorf("%w: %v", editor.ErrQuotaExceeded, err)
				case errors.Is(err, ErrJobDeadlineExceeded), errors.Is(err, ErrJobCanceled),
					errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
					// Failures the request itself caused surface as 400s.
					err = fmt.Errorf("%w: %v", editor.ErrBadSubmission, err)
				}
				return services.JobStatus{}, err
			}
			return job.Status(), nil
		}
		srv.Jobs = env.JobsHandler(jobsapi.Config{
			Authenticate: srv.SessionUser,
			OwnerScoped:  true,
		})
	}
	return srv
}

// JobsHandler mounts the versioned job-control API (/v1/jobs) over this
// environment's pipeline. The caller supplies authentication and
// scoping; Source is filled in, and unless the caller overrides them,
// the event broker and per-owner request rate limit come from the
// pipeline configuration — so every mount (vdce-server, editor) streams
// the same events and enforces the same budget.
func (env *Environment) JobsHandler(cfg jobsapi.Config) http.Handler {
	cfg.Source = env
	if cfg.Events == nil {
		cfg.Events = env.pipe.events
	}
	if !cfg.RateLimit.Enabled() {
		cfg.RateLimit = env.pipe.cfg.APIRate
	}
	if cfg.Metrics == nil {
		// Every mount shares the environment's registry, so per-owner
		// throttle counters aggregate across mounts and /v1/owners can
		// never disagree with /metrics.
		cfg.Metrics = env.Obs
	}
	return jobsapi.Handler(cfg)
}

// JobTrace returns the lifecycle trace of one retained job. It
// satisfies jobsapi.TraceSource, so mounting the jobs API on an
// Environment exposes traces as GET /v1/jobs/{id}/trace.
func (env *Environment) JobTrace(id string) (services.JobTrace, bool) {
	j, ok := env.pipe.job(id)
	if !ok {
		return services.JobTrace{}, false
	}
	return j.Trace(), true
}

// Hosts reports every testbed host's health snapshot — host-model
// up/down, failure-detector state (when a detector runs), and
// circuit-breaker state (when breakers run). It satisfies
// jobsapi.HostSource, so mounting the jobs API on an Environment
// exposes the snapshot as GET /v1/hosts.
func (env *Environment) Hosts() []services.HostStatus {
	var brk map[string]breaker.HostStatus
	if env.Breakers != nil {
		snap := env.Breakers.Snapshot()
		brk = make(map[string]breaker.HostStatus, len(snap))
		for _, hs := range snap {
			brk[hs.Host] = hs
		}
	}
	var out []services.HostStatus
	for _, s := range env.TB.Sites {
		for _, h := range s.Hosts {
			hs := services.HostStatus{
				Host:    h.Name,
				Site:    s.Name,
				Up:      h.Reachable() && !h.Failed(),
				Breaker: breaker.Closed.String(),
			}
			if env.Detector != nil {
				if st, ok := env.Detector.State(h.Name); ok {
					hs.Detector = st.String()
				}
			}
			if b, ok := brk[h.Name]; ok {
				hs.Breaker = b.State
				hs.FailureRate = b.FailureRate
				hs.Samples = b.Samples
				// Opens come from the shared registry counter (fed by the
				// OnTransition hook), the same cell /metrics exposes, so the
				// two surfaces cannot disagree.
				hs.BreakerOpens = int(env.obsM.breakerOpens.Value(h.Name))
			}
			out = append(out, hs)
		}
	}
	return out
}

// RefreshMonitoring synchronously refreshes every site's resource DB
// from the host models (one monitor round), for callers that do not run
// the daemons. When the failure detector runs, the round's samples also
// count as heartbeats, exactly as daemon-delivered ones would.
func (env *Environment) RefreshMonitoring(now time.Time) error {
	if env.Detector != nil {
		for _, h := range env.TB.AllHosts() {
			if h.Reachable() {
				env.Detector.Observe(h.Name, now)
			}
		}
	}
	return env.TB.RefreshRepos(now)
}
