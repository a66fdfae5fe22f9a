// Command perfbench is the repository benchmark. It drives one named,
// seeded closed-loop workload through the public Environment.Submit
// path, checks every app's sink outputs against tasklib.RunLocal, and
// prints its metrics as one JSON object on the last line of stdout.
//
//	perfbench -workload c3i_stream -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an untraced window.
// With -trace 1 it runs an untraced window and then a traced one, in
// which spans are built from the outside (timed Submit calls, each
// job's Trace() and Result()), replays recorded work through each
// layer's public functions, and prints the per-layer metrics. -apps
// ends each window after that many apps instead of -seconds (the short
// mode run.py's self-test uses). The line before the result is a run
// record: commit, toolchain, CPU, seed, window lengths, production LOC
// and a fingerprint of the generated inputs.
//
// Any failed, refused or wrong-output app, or failed probe, makes the
// result's "correct" false and the exit status 1.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vdce"
	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// setupReps is how many times a run sets up from scratch; setup_s is
// the median, and the last set-up environment is the one measured.
const setupReps = 5

// workDir holds everything a run writes (store dirs, span files),
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build"

type config struct {
	w      workload
	seed   int64
	window time.Duration
	apps   int
	trace  bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runRecord struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPUModel   string    `json:"cpu_model"`
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      bool      `json:"trace"`
	WindowsS   []float64 `json:"windows_s"` // measured length of each timed window
	WindowApps []int     `json:"window_apps"`
	ProdLOC    int       `json:"prod_loc"` // non-_test.go Go lines of the repository; informational
	Inputs     string    `json:"inputs"`   // fingerprint of the seeded testbed and graphs
	SpansFile  string    `json:"spans_file,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: c3i_stream, lu_solver or fairshare_mix")
	seed := flag.Int64("seed", 1, "seed of the testbed and every graph")
	seconds := flag.Float64("seconds", 10, "length of each timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	apps := flag.Int("apps", 0, "end each window after this many apps instead of -seconds")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload c3i_stream|lu_solver|fairshare_mix, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), apps: *apps, trace: *trace == 1}
	res, rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", k)
			res.Metrics[k] = metric{Value: 0, Unit: m.Unit}
			res.Correct = false
		}
	}
	out := json.NewEncoder(os.Stdout)
	_ = out.Encode(map[string]runRecord{"run_record": rec})
	_ = out.Encode(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// inputs derives the run's inputs from its seed: the workload's pool
// of distinct graphs, and the first testbed seed in a seeded sequence
// whose testbed can place every graph. Host machine types are drawn at
// random, and a testbed without a "SUN Solaris" host cannot run the
// solver's Matrix_Multiplication.
func inputs(cfg config) (int64, []*afg.Graph, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	graphs, err := cfg.w.pool(rng)
	if err != nil {
		return 0, nil, err
	}
	for try := 0; try < 20; try++ {
		tbSeed := rng.Int63n(1<<31) + 1
		ok, err := placeable(testbedConfig(tbSeed), graphs)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			return tbSeed, graphs, nil
		}
	}
	return 0, nil, fmt.Errorf("no testbed in 20 draws can place every graph")
}

func testbedConfig(seed int64) testbed.Config {
	return testbed.Config{Sites: 4, HostsPerGroup: 3, Seed: seed, BaseLoadMax: 0.2}
}

// placeable reports whether the testbed has an eligible host for every
// task of every graph.
func placeable(tb testbed.Config, graphs []*afg.Graph) (bool, error) {
	env, err := vdce.New(vdce.Config{Testbed: tb})
	if err != nil {
		return false, fmt.Errorf("vdce.New: %w", err)
	}
	defer env.Close()
	sched, err := env.SchedulerAt(0, maxHosts)
	if err != nil {
		return false, err
	}
	for _, g := range graphs {
		cost, err := env.CostFunc(g)
		if err != nil {
			return false, err
		}
		if _, err := sched.Schedule(g, cost); errors.Is(err, core.ErrNoEligibleSite) {
			return false, nil
		} else if err != nil {
			return false, err
		}
	}
	return true, nil
}

// tempDir makes a fresh directory under workDir.
func tempDir(prefix string) (string, error) {
	tmp := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, prefix+"-")
}

// bench is one set-up environment with its generator.
type bench struct {
	env      *vdce.Environment
	gen      *gen
	storeDir string
}

// setup builds the environment, registers the owners, computes the
// reference outputs and warms the closed loop up.
func setup(cfg config, tbSeed int64, graphs []*afg.Graph) (*bench, error) {
	b := &bench{}
	vc := vdce.Config{
		Testbed:  testbedConfig(tbSeed),
		Pipeline: vdce.PipelineConfig{MaxRetainedJobs: cfg.w.retain},
	}
	if cfg.w.store {
		dir, err := tempDir(cfg.w.name)
		if err != nil {
			return nil, err
		}
		b.storeDir, vc.StoreDir = dir, dir
	}
	env, err := vdce.New(vc)
	if err != nil {
		os.RemoveAll(b.storeDir)
		return nil, fmt.Errorf("vdce.New: %w", err)
	}
	b.env = env
	// An owner unknown to site 0 is clamped to k=0, so each owner is a
	// global-domain account at every site.
	for _, c := range cfg.w.clients {
		if c.owner == "" {
			continue
		}
		for _, s := range env.Sites {
			if _, err := s.Repo.Users.AddUser(c.owner, "perfbench", c.weight, repository.DomainGlobal); err != nil {
				b.close()
				return nil, fmt.Errorf("register %s: %w", c.owner, err)
			}
		}
	}
	reg := tasklib.Default()
	refs := make([]reference, len(graphs))
	for i, g := range graphs {
		if refs[i], err = newReference(g, reg); err != nil {
			b.close()
			return nil, fmt.Errorf("reference outputs of %s: %w", g.Name, err)
		}
	}
	b.gen = newGen(env, cfg.w, graphs, refs)
	b.gen.fill()
	warm := cfg.w.warmup
	if cfg.apps > 0 {
		warm = min(warm, cfg.apps)
	}
	b.gen.warm(warm)
	runtime.GC()
	return b, nil
}

// close drains the generator, closes the environment and removes its
// store directory.
func (b *bench) close() {
	if b.gen != nil {
		b.gen.drain()
	}
	b.env.Close()
	if b.storeDir != "" {
		os.RemoveAll(b.storeDir)
	}
}

func run(cfg config) (result, runRecord, error) {
	rec := runRecord{
		Commit: gitCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(), Workload: cfg.w.name,
		Seed: cfg.seed, Trace: cfg.trace, ProdLOC: prodLOC(),
	}
	goroutines0 := runtime.NumGoroutine()
	tbSeed, graphs, err := inputs(cfg)
	if err != nil {
		return result{}, rec, fmt.Errorf("inputs: %w", err)
	}
	rec.Inputs = fingerprint(tbSeed, graphs)

	var setups []float64
	var gens []*gen
	var b *bench
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if b, err = setup(cfg, tbSeed, graphs); err != nil {
			return result{}, rec, err
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, b.gen)
		if i < setupReps-1 {
			b.close()
		}
	}
	g := b.gen

	metrics := map[string]metric{}
	untraced := g.window(cfg.window, cfg.apps, nil)
	windows := []measurement{untraced}
	if !cfg.trace {
		rss := peakRSSMiB()
		g.drain()
		endToEnd(metrics, untraced, median(setups), rss)
		b.close()
	} else {
		t := newTracer()
		traced := g.window(cfg.window, cfg.apps, t.keep)
		windows = append(windows, traced)
		g.drain()
		perLayer(metrics, cfg, b, t, untraced, traced)
		b.close()
		metrics["runtime.goroutines_after_close"] = metric{float64(goroutinesAfterClose(goroutines0)), "count"}
		if rec.SpansFile, err = t.write(cfg); err != nil {
			g.fail("spans", err)
		}
	}
	for _, m := range windows {
		rec.WindowsS = append(rec.WindowsS, m.end.Sub(m.start).Seconds())
		rec.WindowApps = append(rec.WindowApps, m.apps())
	}
	var attempted, failed, errs int
	for _, g := range gens {
		attempted, failed, errs = attempted+g.attempted, failed+g.failed, errs+g.errs
	}
	if cfg.trace {
		metrics["failed_frac"] = metric{float64(failed) / float64(max(attempted, 1)), "ratio"}
	}
	return result{
		Correct:   failed == 0 && errs == 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics:   metrics,
	}, rec, nil
}

func endToEnd(out map[string]metric, m measurement, setupS, rssMiB float64) {
	out["apps_per_s"] = metric{m.appsPerSec(), "apps/s"}
	out["latency_p50_ms"] = metric{quantile(m.latencyMs, 0.5), "ms"}
	out["latency_p90_ms"] = metric{quantile(m.latencyMs, 0.9), "ms"}
	out["cpu_ms_per_app"] = metric{m.perApp(ms(m.delta.cpu)), "ms"}
	out["allocs_per_app"] = metric{m.perApp(float64(m.delta.mallocs)), "count"}
	out["alloc_kb_per_app"] = metric{m.perApp(float64(m.delta.bytes) / 1024), "KiB"}
	out["rss_peak_mb"] = metric{rssMiB, "MiB"}
	out["setup_s"] = metric{setupS, "s"}
	out["list_page_p50_ms"] = metric{median(m.listMs), "ms"}
}

// goroutinesAfterClose reports how many goroutines outlive every
// environment of the run, against the count before the first New. It
// gives exiting goroutines up to a second to finish.
func goroutinesAfterClose(before int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-before, 0)
}

// fingerprint hashes the seeded inputs, so two seeds can be shown to
// give different inputs.
func fingerprint(tbSeed int64, graphs []*afg.Graph) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "testbed %d\n", tbSeed)
	for _, g := range graphs {
		data, err := g.EncodeJSON()
		if err != nil {
			fmt.Fprintf(h, "unencodable %s\n", g.Name)
			continue
		}
		h.Write(data)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// gitCommit reads the checked-out commit from .git, if there is one.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// prodLOC counts the lines of the repository's non-test Go files,
// leaving out the benchmark and hidden directories.
func prodLOC() int {
	n := 0
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if data, err := os.ReadFile(path); err == nil {
				n += strings.Count(string(data), "\n")
			}
		}
		return nil
	})
	return n
}
