package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"

	"vdce/internal/afg"
	"vdce/internal/exec"
	"vdce/internal/tasklib"
)

// maxHosts is the neighbor-site count every submission asks for: the
// home site plus all three others of the 4-site testbed, so no graph
// is refused for want of a machine type on its home site.
const maxHosts = 3

// client is one submitter of a closed loop: it keeps depth apps
// outstanding and submits the next one when one of its apps finishes.
type client struct {
	owner  string // "" submits anonymously
	weight int
	depth  int
}

// workload is one named, seeded input set. Each is chosen to stress a
// different layer; README.md records which metrics each should move.
type workload struct {
	name    string
	clients []client
	// store puts the durable control plane (WAL) under the workload.
	store bool
	// listEvery makes the generator read one GET /v1/jobs cursor page
	// and one limit=0 count after every listEvery completions. Tying
	// the reads to completions keeps their cost per app fixed.
	listEvery int
	// warmup is how many apps complete before the timed window opens.
	warmup int
	// retain overrides PipelineConfig.MaxRetainedJobs when non-zero.
	retain int
	// pool builds the distinct graphs the generator cycles through.
	pool func(rng *rand.Rand) ([]*afg.Graph, error)
}

var workloads = map[string]workload{
	// Tiny graphs with near-zero compute: per-app fixed costs (edge
	// listen/dial/accept, codec set-up, scheduler round, pipeline
	// bookkeeping) dominate. In flight = MaxConcurrentRuns (8).
	"c3i_stream": {
		name:    "c3i_stream",
		clients: []client{{depth: 8}},
		// A light board poll, about 1% of the CPU.
		listEvery: 64,
		warmup:    200,
		pool:      func(rng *rand.Rand) ([]*afg.Graph, error) { return c3iPool(rng, 16) },
	},
	// The paper's Fig. 1 solver at n=128: compute and per-byte codec
	// work dominate, fixed per-edge costs are a small share.
	"lu_solver": {
		name:      "lu_solver",
		clients:   []client{{depth: 4}},
		listEvery: 8,
		warmup:    40,
		// A retained job keeps its Result, about 0.5 MB of matrices
		// here; the default retention of 1024 jobs would hold ~1 GB.
		retain: 256,
		pool:   func(rng *rand.Rand) ([]*afg.Graph, error) { return lesPool(rng, 8) },
	},
	// Eight weighted owners with 32 apps outstanding against 8 run
	// slots: the only workload with a real admission backlog, WFQ
	// arbitration and WAL appends, and the one whose board is read
	// most often beside its writes.
	"fairshare_mix": {
		name:      "fairshare_mix",
		clients:   fairshareClients(),
		store:     true,
		listEvery: 16,
		warmup:    200,
		pool:      mixPool,
	},
}

func fairshareClients() []client {
	var cs []client
	for i, w := range []int{1, 1, 2, 2, 3, 3, 4, 4} {
		cs = append(cs, client{owner: fmt.Sprintf("owner-%d", i), weight: w, depth: 4})
	}
	return cs
}

func c3iPool(rng *rand.Rand, n int) ([]*afg.Graph, error) {
	var gs []*afg.Graph
	for i := 0; i < n; i++ {
		g, err := tasklib.BuildC3IPipeline(6+rng.Intn(3), rng.Int63n(1<<30))
		if err != nil {
			return nil, err
		}
		gs = append(gs, g)
	}
	return gs, nil
}

func lesPool(rng *rand.Rand, n int) ([]*afg.Graph, error) {
	var gs []*afg.Graph
	for i := 0; i < n; i++ {
		g, err := tasklib.BuildLinearEquationSolver(128, rng.Int63n(1<<30))
		if err != nil {
			return nil, err
		}
		gs = append(gs, g)
	}
	return gs, nil
}

// mixPool interleaves C3I and radar graphs, so consecutive submissions
// alternate between the two.
func mixPool(rng *rand.Rand) ([]*afg.Graph, error) {
	c3i, err := c3iPool(rng, 8)
	if err != nil {
		return nil, err
	}
	var gs []*afg.Graph
	for _, g := range c3i {
		r, err := radarGraph(4096, rng.Int63n(1<<30))
		if err != nil {
			return nil, err
		}
		gs = append(gs, g, r)
	}
	return gs, nil
}

// radarGraph is the spectrum-surveillance application of
// examples/radar: two noisy channels, low-pass filtered, transformed to
// power spectra in parallel mode, and peak-detected.
func radarGraph(n int, seed int64) (*afg.Graph, error) {
	g := afg.NewGraph("Radar Spectrum Surveillance")
	rx1 := g.AddTask("Signal_Generate", "signal", 0, 1)
	rx2 := g.AddTask("Signal_Generate", "signal", 0, 1)
	f1 := g.AddTask("Lowpass_Filter", "signal", 1, 1)
	f2 := g.AddTask("Lowpass_Filter", "signal", 1, 1)
	ps1 := g.AddTask("Power_Spectrum", "signal", 1, 1)
	ps2 := g.AddTask("Power_Spectrum", "signal", 1, 1)
	pk1 := g.AddTask("Peak_Detect", "signal", 1, 1)
	pk2 := g.AddTask("Peak_Detect", "signal", 1, 1)

	ns := strconv.Itoa(n)
	props := []struct {
		id afg.TaskID
		p  afg.Properties
	}{
		{rx1, afg.Properties{Args: map[string]string{
			"n": ns, "f1": "96", "a1": "2", "noise": "0.3", "seed": strconv.FormatInt(seed, 10)}}},
		{rx2, afg.Properties{Args: map[string]string{
			"n": ns, "f1": "200", "a1": "1.5", "f2": "1800", "a2": "1", "noise": "0.3",
			"seed": strconv.FormatInt(seed+1, 10)}}},
		{f1, afg.Properties{Args: map[string]string{"taps": "63", "cutoff": "0.15"}}},
		{f2, afg.Properties{Args: map[string]string{"taps": "63", "cutoff": "0.15"}}},
		{ps1, afg.Properties{Mode: afg.Parallel, Nodes: 2}},
		{ps2, afg.Properties{Mode: afg.Parallel, Nodes: 2}},
		{pk1, afg.Properties{Args: map[string]string{"threshold": "5"}}},
		{pk2, afg.Properties{Args: map[string]string{"threshold": "5"}}},
	}
	for _, p := range props {
		if err := g.SetProps(p.id, p.p); err != nil {
			return nil, err
		}
	}
	sz := int64(n) * 8
	for _, e := range []struct {
		from, to afg.TaskID
		size     int64
	}{{rx1, f1, sz}, {rx2, f2, sz}, {f1, ps1, sz}, {f2, ps2, sz}, {ps1, pk1, sz / 2}, {ps2, pk2, sz / 2}} {
		if err := g.Connect(e.from, 0, e.to, 0, e.size); err != nil {
			return nil, err
		}
	}
	return g, g.Validate()
}

// reference holds one graph's sink outputs as tasklib.RunLocal computes
// them: C3I Report_Generator, LES Residual_Norm, radar Peak_Detect.
type reference map[afg.TaskID][]tasklib.Value

func newReference(g *afg.Graph, reg *tasklib.Registry) (reference, error) {
	out, err := tasklib.RunLocal(g, reg)
	if err != nil {
		return nil, err
	}
	ref := reference{}
	for i := range g.Tasks {
		id := afg.TaskID(i)
		if len(g.Children(id)) == 0 {
			ref[id] = out[id]
		}
	}
	return ref, nil
}

// check reports whether a run's sink outputs equal the reference.
func (ref reference) check(res *exec.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	for id, want := range ref {
		if !reflect.DeepEqual(res.Outputs[id], want) {
			return fmt.Errorf("task %d output differs from the RunLocal reference", id)
		}
	}
	return nil
}
