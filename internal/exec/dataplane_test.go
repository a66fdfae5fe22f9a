package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/frame"
	"vdce/internal/linalg"
	"vdce/internal/protocol"
	"vdce/internal/tasklib"
)

// radarGraph is the spectrum-surveillance application: two noisy
// channels, low-pass filtered, turned into power spectra in parallel
// mode, and peak-detected.
func radarGraph(t *testing.T, n int, seed int64) *afg.Graph {
	t.Helper()
	g := afg.NewGraph("radar")
	ns := strconv.Itoa(n)
	for ch := int64(0); ch < 2; ch++ {
		rx := g.AddTask("Signal_Generate", "signal", 0, 1)
		lp := g.AddTask("Lowpass_Filter", "signal", 1, 1)
		ps := g.AddTask("Power_Spectrum", "signal", 1, 1)
		pk := g.AddTask("Peak_Detect", "signal", 1, 1)
		for _, p := range []struct {
			id afg.TaskID
			p  afg.Properties
		}{
			{rx, afg.Properties{Args: map[string]string{"n": ns, "f1": strconv.Itoa(96 + 100*int(ch)),
				"a1": "2", "noise": "0.3", "seed": strconv.FormatInt(seed+ch, 10)}}},
			{lp, afg.Properties{Args: map[string]string{"taps": "63", "cutoff": "0.15"}}},
			{ps, afg.Properties{Mode: afg.Parallel, Nodes: 2}},
			{pk, afg.Properties{Args: map[string]string{"threshold": "5"}}},
		} {
			if err := g.SetProps(p.id, p.p); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range [][2]afg.TaskID{{rx, lp}, {lp, ps}, {ps, pk}} {
			if err := g.Connect(e[0], 0, e[1], 0, int64(n)*8); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// pairGraph is producer -> consumer with the producer's arguments, the
// shape of E10 (Matrix_Generate -> Checksum) and of Spin -> Checksum.
func pairGraph(t *testing.T, producer string, args map[string]string) *afg.Graph {
	t.Helper()
	g := afg.NewGraph(producer + "-checksum")
	from := g.AddTask(producer, "util", 0, 1)
	to := g.AddTask("Checksum", "util", 1, 1)
	if err := g.SetProps(from, afg.Properties{Args: args}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(from, 0, to, 0, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExecuteMatchesRunLocal is the data plane's exactness gate: every
// task output of a distributed run equals the reference executor's,
// value for value and bit for bit.
func TestExecuteMatchesRunLocal(t *testing.T) {
	r := newRig(t, 4)
	les := func(n int, seed int64) *afg.Graph {
		g, err := tasklib.BuildLinearEquationSolver(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range g.Tasks {
			task.Props.MachineType = "" // random testbed arch mix
		}
		return g
	}
	c3i, err := tasklib.BuildC3IPipeline(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *afg.Graph
	}{
		{"c3i", c3i},
		{"les-32", les(32, 7)},
		{"les-128", les(128, 3)},
		{"radar", radarGraph(t, 1024, 9)},
		{"e10-64", pairGraph(t, "Matrix_Generate", map[string]string{"n": "64", "seed": "1"})},
		{"e10-256", pairGraph(t, "Matrix_Generate", map[string]string{"n": "256", "seed": "1"})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := r.engine.Execute(context.Background(), tc.g, r.schedule(t, tc.g))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tasklib.RunLocal(tc.g, tasklib.Default())
			if err != nil {
				t.Fatal(err)
			}
			for _, task := range tc.g.Tasks {
				if !reflect.DeepEqual(res.Outputs[task.ID], ref[task.ID]) {
					t.Fatalf("task %d (%s) output differs from RunLocal", task.ID, task.Name)
				}
			}
		})
	}

	// Spin's output is its iteration count, which depends on the clock:
	// the reference is RunLocal's Checksum of the value the run produced.
	t.Run("spin-checksum", func(t *testing.T) {
		g := pairGraph(t, "Spin", map[string]string{"ms": "2"})
		res, err := r.engine.Execute(context.Background(), g, r.schedule(t, g))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := tasklib.Default().Get("Checksum")
		if err != nil {
			t.Fatal(err)
		}
		want, err := spec.Fn(&tasklib.Context{In: res.Outputs[0]})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Outputs[1], want) {
			t.Fatalf("checksum %v of a transported %v, want %v", res.Outputs[1], res.Outputs[0], want)
		}
	})
}

// holdRig is a rig whose registry carries Hold, a source task that
// blocks until the test releases it, and the placement of Hold ->
// Pass_Through on two hosts.
func holdRig(t *testing.T) (*rig, *afg.Graph, *core.AllocationTable, <-chan struct{}) {
	t.Helper()
	r := newRig(t, 2)
	entered, release := make(chan struct{}, 1), make(chan struct{})
	t.Cleanup(func() { close(release) })
	reg := tasklib.Default()
	if err := reg.Register(tasklib.Spec{Name: "Hold", Library: "test", InPorts: 0, OutPorts: 1,
		Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
			entered <- struct{}{}
			<-release
			return []tasklib.Value{1.0}, nil
		}}); err != nil {
		t.Fatal(err)
	}
	r.engine.Reg = reg
	g := afg.NewGraph("held")
	hold := g.AddTask("Hold", "test", 0, 1)
	sink := g.AddTask("Pass_Through", "util", 1, 1)
	if err := g.Connect(hold, 0, sink, 0, 8); err != nil {
		t.Fatal(err)
	}
	hosts := r.tb.Sites[0].Hosts
	table := &core.AllocationTable{App: "held", Entries: []core.Placement{
		{Task: hold, TaskName: "Hold", Site: "site0", Hosts: []string{hosts[0].Name}, Predicted: time.Millisecond},
		{Task: sink, TaskName: "Pass_Through", Site: "site0", Hosts: []string{hosts[1].Name}, Predicted: time.Millisecond},
	}}
	return r, g, table, entered
}

func TestCanceledRunWaitingOnInputsReturnsPromptly(t *testing.T) {
	r, g, table, entered := holdRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.engine.Execute(ctx, g, table)
		errc <- err
	}()
	<-entered // the producer runs; its consumer waits on its inbox
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled run still waiting on inputs")
	}
}

func TestEngineCloseFailsWaitingRunAndLaterExecutes(t *testing.T) {
	r, g, table, entered := holdRig(t)
	errc := make(chan error, 1)
	go func() {
		_, err := r.engine.Execute(context.Background(), g, table)
		errc <- err
	}()
	<-entered
	r.engine.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, errEngineClosed) {
			t.Fatalf("err = %v, want errEngineClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left a run waiting on inputs")
	}
	if _, err := r.engine.Execute(context.Background(), g, table); !errors.Is(err, errEngineClosed) {
		t.Fatalf("Execute after Close: %v", err)
	}
	r.engine.Close() // idempotent
}

// sealDataFrame encodes env, payload included, as one sealed frame.
func sealDataFrame(env *protocol.DataEnvelope) []byte {
	fr, start := protocol.BeginDataFrame(nil, env, len(env.Payload))
	fr = append(fr, env.Payload...)
	frame.Seal(fr, start)
	return fr
}

// connCount reports how many connections the data plane holds open.
func connCount(dp *dataPlane) int {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return len(dp.conns)
}

func TestStalledPeerDoesNotDelayRuns(t *testing.T) {
	r := newRig(t, 3)
	g, err := tasklib.BuildC3IPipeline(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	table := r.schedule(t, g)
	if _, err := r.engine.Execute(context.Background(), g, table); err != nil {
		t.Fatal(err) // opens the data listener
	}
	dp := r.engine.data
	before := connCount(dp)

	// One client writes half a frame and stalls; another never writes.
	stalled, err := net.Dial("tcp", dp.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	fr := sealDataFrame(&protocol.DataEnvelope{AppID: "intruder", ToTask: 1, Payload: make([]byte, 64)})
	if _, err := stalled.Write(fr[:len(fr)/2]); err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", dp.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for deadline := time.Now().Add(5 * time.Second); connCount(dp) < before+2; {
		if time.Now().After(deadline) {
			t.Fatal("the listener never accepted the raw clients")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := r.engine.Execute(ctx, g, table)
		cancel()
		if err != nil {
			t.Fatalf("run %d beside a stalled peer: %v", i, err)
		}
	}

	closed := make(chan struct{})
	go func() {
		r.engine.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not reap the stalled peer's reader")
	}
	for _, c := range []net.Conn{stalled, silent} {
		if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		var ne net.Error
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("raw client still connected after Close: %v", err)
		}
	}
}

// routeAllocBytes routes stream through a fresh data plane with one
// registered run and reports the bytes that allocated: the least of a
// few runs, so the fuzzing machinery's own allocations do not count.
func routeAllocBytes(stream []byte) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		dp := &dataPlane{inboxes: map[string][]chan delivery{
			"app": {nil, make(chan delivery, 2), make(chan delivery, 1)},
		}}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		dp.readFrames(bytes.NewReader(stream))
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// FuzzDataFrame feeds arbitrary bytes to the data plane's receive path
// (frame reader, envelope parser, value decoder, router): once as the
// raw stream, and once sealed in a valid frame so that the envelope and
// value decoders see them past the checksum. No input may panic or
// allocate beyond a small multiple of the bytes that arrived: declared
// frame lengths, varints and element counts are all checked against
// what is there.
func FuzzDataFrame(f *testing.F) {
	seal := func(appID string, to, port int, payload []byte) []byte {
		return sealDataFrame(&protocol.DataEnvelope{AppID: appID, ToTask: to, ToPort: port, Payload: payload})
	}
	value := func(v tasklib.Value) []byte {
		data, err := tasklib.EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	good := seal("app", 1, 0, value(linalg.Identity(2)))
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), seal("app", 2, 0, value([]tasklib.Track{{ID: 1}}))...))
	f.Add(good[:len(good)/2]) // truncated
	var oversize [frame.Header]byte
	binary.LittleEndian.PutUint32(oversize[:], protocol.MaxDataFrame+1)
	f.Add(oversize[:])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1 // CRC mismatch
	f.Add(flipped)
	f.Add(bytes.Repeat([]byte{0xff}, 24)) // sealed: app ID length varint overflow
	floats := value([]float64{})
	f.Add(seal("app", 1, 0, binary.AppendUvarint(floats[:1], 1<<40))) // element count beyond the bytes
	str := value("")
	f.Add(seal("app", 1, 0, append(str[:1], bytes.Repeat([]byte{0xff}, 11)...))) // value varint overflow
	f.Add(seal("other", 1, 0, value(1.0)))                                       // unregistered run
	f.Add(seal("app", 7, 0, value(1.0)))                                         // unregistered task
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, stream := range [][]byte{data, frame.Append(nil, data)} {
			if grew := routeAllocBytes(stream); grew > 16*uint64(len(stream))+256<<10 {
				t.Fatalf("routing %d bytes allocated %d", len(stream), grew)
			}
		}
	})
}
