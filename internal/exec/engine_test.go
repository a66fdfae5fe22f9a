package exec

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/netmodel"
	"vdce/internal/protocol"
	"vdce/internal/services"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// rig is a single-site execution fixture.
type rig struct {
	tb     *testbed.Testbed
	site   *core.LocalSite
	net    *netmodel.Network
	engine *Engine
}

func newRig(t *testing.T, hosts int) *rig {
	t.Helper()
	tb, err := testbed.Build(testbed.Config{
		Sites: 1, HostsPerGroup: hosts, Seed: 11,
		SpeedMin: 1, SpeedMax: 1, BaseLoadMax: 0.01, LoadSigma: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	site := tb.Sites[0]
	names := make([]string, len(site.Hosts))
	for i, h := range site.Hosts {
		names[i] = h.Name
	}
	if err := tasklib.Default().InstallInto(site.Repo, names); err != nil {
		t.Fatal(err)
	}
	local := core.NewLocalSite(site.Repo)
	net, err := netmodel.New([]string{site.Name})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		tb:   tb,
		site: local,
		net:  net,
		engine: &Engine{
			Reg:        tasklib.Default(),
			TB:         tb,
			Reschedule: NewRescheduler([]*core.LocalSite{local}),
		},
	}
	t.Cleanup(r.engine.Close)
	return r
}

func (r *rig) schedule(t *testing.T, g *afg.Graph) *core.AllocationTable {
	t.Helper()
	sched := core.NewScheduler(r.site, nil, r.net, 0)
	cost := func(id afg.TaskID) float64 {
		d, err := r.site.Oracle.BaseTimeFor(g.Task(id).Name)
		if err != nil {
			t.Fatalf("cost(%s): %v", g.Task(id).Name, err)
		}
		return d.Seconds()
	}
	table, err := sched.Schedule(g, cost)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestExecuteLESEndToEnd(t *testing.T) {
	r := newRig(t, 4)
	g, err := tasklib.BuildLinearEquationSolver(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		task.Props.MachineType = "" // random testbed arch mix
	}
	table := r.schedule(t, g)

	var mu sync.Mutex
	var records []protocol.ExecutionRecord
	r.engine.Record = func(rec protocol.ExecutionRecord) {
		mu.Lock()
		records = append(records, rec)
		mu.Unlock()
	}
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	// Distributed execution must agree with the reference executor.
	ref, err := tasklib.RunLocal(g, tasklib.Default())
	if err != nil {
		t.Fatal(err)
	}
	exit := g.Exits()[0]
	got := res.Outputs[exit][0].(float64)
	want := ref[exit][0].(float64)
	if got != want {
		t.Fatalf("distributed residual %g != local %g", got, want)
	}
	if got > 1e-7 {
		t.Fatalf("residual too large: %g", got)
	}
	if len(res.Runs) != len(g.Tasks) {
		t.Fatalf("runs = %d, want %d", len(res.Runs), len(g.Tasks))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(records) != len(g.Tasks) {
		t.Fatalf("records = %d, want %d", len(records), len(g.Tasks))
	}
	if res.Makespan <= 0 || res.Rescheduled != 0 {
		t.Fatalf("makespan=%v rescheduled=%d", res.Makespan, res.Rescheduled)
	}
}

func TestExecuteC3IEndToEnd(t *testing.T) {
	r := newRig(t, 3)
	g, err := tasklib.BuildC3IPipeline(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	table := r.schedule(t, g)
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	report := res.Outputs[g.Exits()[0]][0].(string)
	if !strings.Contains(report, "C3I THREAT REPORT") {
		t.Fatalf("report = %q", report)
	}
}

func TestConsoleSuspendResume(t *testing.T) {
	r := newRig(t, 2)
	r.engine.Console = services.NewConsole()
	g, err := tasklib.BuildC3IPipeline(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	table := r.schedule(t, g)

	r.engine.Console.Suspend()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := r.engine.Execute(context.Background(), g, table)
		done <- out{res, err}
	}()
	select {
	case <-done:
		t.Fatal("suspended application completed")
	case <-time.After(50 * time.Millisecond):
	}
	r.engine.Console.Resume()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resume did not release the application")
	}
}

func TestLoadThresholdTriggersReschedule(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	hostB := r.tb.Sites[0].Hosts[1]
	// Overload A; the controller must kill the task and move it to B.
	hostA.InjectLoad(0.95)
	r.engine.LoadThreshold = 0.8
	r.engine.LoadCheckPeriod = time.Millisecond

	g := afg.NewGraph("spin")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "50"}}); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: "spin", Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0",
		Hosts: []string{hostA.Name}, Predicted: time.Millisecond,
	}}}
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled < 1 {
		t.Fatalf("rescheduled = %d, want >= 1", res.Rescheduled)
	}
	last := res.Runs[len(res.Runs)-1]
	if last.Host != hostB.Name || last.Terminated {
		t.Fatalf("final run: %+v, want success on %s", last, hostB.Name)
	}
	// The terminated attempt must be visible in the run log.
	if !res.Runs[0].Terminated {
		t.Fatalf("first run not marked terminated: %+v", res.Runs[0])
	}
}

func TestHostFailureTriggersReschedule(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	r.engine.LoadCheckPeriod = time.Millisecond

	g := afg.NewGraph("spin")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "60"}}); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: "spin", Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0",
		Hosts: []string{hostA.Name}, Predicted: time.Millisecond,
	}}}
	// Fail A shortly after the run starts.
	go func() {
		time.Sleep(10 * time.Millisecond)
		hostA.Fail()
	}()
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled < 1 {
		t.Fatalf("rescheduled = %d", res.Rescheduled)
	}
	last := res.Runs[len(res.Runs)-1]
	if last.Host == hostA.Name {
		t.Fatal("task finished on the failed host")
	}
}

func TestRescheduleExhaustion(t *testing.T) {
	r := newRig(t, 2)
	for _, h := range r.tb.Sites[0].Hosts {
		h.InjectLoad(0.95)
	}
	r.engine.LoadThreshold = 0.5
	r.engine.LoadCheckPeriod = time.Millisecond
	r.engine.MaxAttempts = 2

	g := afg.NewGraph("spin")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "40"}}); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: "spin", Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0",
		Hosts: []string{r.tb.Sites[0].Hosts[0].Name}, Predicted: time.Millisecond,
	}}}
	if _, err := r.engine.Execute(context.Background(), g, table); err == nil {
		t.Fatal("hopeless application succeeded")
	}
}

func TestTaskErrorAborts(t *testing.T) {
	r := newRig(t, 2)
	// Feed LU a vector: a type error deep in the pipeline must surface.
	g := afg.NewGraph("bad")
	vg := g.AddTask("Vector_Generate", "matrix", 0, 1)
	lu := g.AddTask("LU_Decomposition", "matrix", 1, 1)
	if err := g.Connect(vg, 0, lu, 0, 0); err != nil {
		t.Fatal(err)
	}
	table := r.schedule(t, g)
	if _, err := r.engine.Execute(context.Background(), g, table); err == nil {
		t.Fatal("type error swallowed")
	}
}

func TestContextCancellation(t *testing.T) {
	r := newRig(t, 2)
	g := afg.NewGraph("spin")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "500"}}); err != nil {
		t.Fatal(err)
	}
	table := r.schedule(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := r.engine.Execute(ctx, g, table); err == nil {
		t.Fatal("cancelled execution succeeded")
	}
}

func TestDilationStretchesRuntime(t *testing.T) {
	tb, err := testbed.Build(testbed.Config{
		Sites: 1, HostsPerGroup: 1, Seed: 11,
		SpeedMin: 0.25, SpeedMax: 0.25, BaseLoadMax: 0.01, LoadSigma: 0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}
	site := tb.Sites[0]
	if err := tasklib.Default().InstallInto(site.Repo, []string{site.Hosts[0].Name}); err != nil {
		t.Fatal(err)
	}
	engine := &Engine{Reg: tasklib.Default(), TB: tb, DilationScale: 1}
	defer engine.Close()
	g := afg.NewGraph("spin")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "20"}}); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: "spin", Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0",
		Hosts: []string{site.Hosts[0].Name}, Predicted: time.Millisecond,
	}}}
	res, err := engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	// Speed 0.25 -> dilation ~4x: a 20ms spin should report >= ~60ms.
	if got := res.Runs[0].Elapsed; got < 55*time.Millisecond {
		t.Fatalf("dilated elapsed = %v, want >= 55ms", got)
	}
}

func TestSameHostTasksSerialize(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0].Name
	hostB := r.tb.Sites[0].Hosts[1].Name
	mkGraph := func() *afg.Graph {
		g := afg.NewGraph("pair")
		for i := 0; i < 2; i++ {
			id := g.AddTask("Spin", "util", 0, 1)
			if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "40"}}); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	place := func(g *afg.Graph, hosts [2]string) *core.AllocationTable {
		return &core.AllocationTable{App: g.Name, Entries: []core.Placement{
			{Task: 0, TaskName: "Spin", Site: "site0", Hosts: []string{hosts[0]}, Predicted: time.Millisecond},
			{Task: 1, TaskName: "Spin", Site: "site0", Hosts: []string{hosts[1]}, Predicted: time.Millisecond},
		}}
	}
	// Same host: the two 40ms spins must serialize (>= ~75ms).
	g1 := mkGraph()
	res1, err := r.engine.Execute(context.Background(), g1, place(g1, [2]string{hostA, hostA}))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Makespan < 75*time.Millisecond {
		t.Fatalf("same-host makespan %v — tasks overlapped on one machine", res1.Makespan)
	}
	// Different hosts: they overlap (well under the serial sum).
	g2 := mkGraph()
	res2, err := r.engine.Execute(context.Background(), g2, place(g2, [2]string{hostA, hostB}))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan >= res1.Makespan {
		t.Fatalf("two-host makespan %v not faster than one-host %v", res2.Makespan, res1.Makespan)
	}
}

func TestEngineValidation(t *testing.T) {
	var e Engine
	g := afg.NewGraph("x")
	g.AddTask("Spin", "util", 0, 1)
	if _, err := e.Execute(context.Background(), g, &core.AllocationTable{}); err == nil {
		t.Fatal("unconfigured engine accepted work")
	}
	r := newRig(t, 1)
	if _, err := r.engine.Execute(context.Background(), g, &core.AllocationTable{}); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestWaitForLoadHelper(t *testing.T) {
	if !waitForLoad(100*time.Millisecond, func() bool { return true }) {
		t.Fatal("immediate condition failed")
	}
	if waitForLoad(10*time.Millisecond, func() bool { return false }) {
		t.Fatal("impossible condition succeeded")
	}
}
