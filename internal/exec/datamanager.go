package exec

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"vdce/internal/afg"
	"vdce/internal/frame"
	"vdce/internal/protocol"
	"vdce/internal/tasklib"
)

// errEngineClosed is returned by Execute, and by runs still in flight,
// once Engine.Close has shut the data plane down.
var errEngineClosed = errors.New("exec: engine closed")

// dataConns is the size of an Engine's pool of persistent sender
// connections. Loopback writes are short, so a few connections keep
// concurrent producers from queueing on each other while every frame
// still travels over a socket, as in the paper's Data Manager.
const dataConns = 4

// readBuffer is the per-connection read buffer: small frames arrive
// several to a read call.
const readBuffer = 32 << 10

// dataPlane is an Engine's socket-based point-to-point communication
// system: one loopback TCP listener on which every task's inputs
// arrive, a pool of persistent connections that carry every output, and
// one reader goroutine per accepted connection that routes each frame by
// (app ID, task) into the destination run's inbox.
type dataPlane struct {
	ln net.Listener
	// pool holds the sender connections not in use. It circulates
	// exactly dataConns entries, so a release never blocks; a nil entry
	// is a slot whose connection is not dialed yet (or was dropped after
	// a failed write).
	pool chan net.Conn
	// done is closed by close: receivers stop waiting for inputs.
	done chan struct{}
	// wg counts the accept loop and every reader.
	wg sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}      // every open connection, dialed or accepted
	inboxes map[string][]chan delivery // app ID -> inbox per task ID
}

// delivery is one decoded input on its way to a task.
type delivery struct {
	port int
	val  tasklib.Value
	err  error
}

func openDataPlane() (*dataPlane, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("exec: data listener: %w", err)
	}
	dp := &dataPlane{
		ln:      ln,
		pool:    make(chan net.Conn, dataConns),
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		inboxes: make(map[string][]chan delivery),
	}
	for i := 0; i < dataConns; i++ {
		dp.pool <- nil
	}
	dp.wg.Add(1)
	go dp.accept()
	return dp, nil
}

// close shuts the listener, every connection and every reader down and
// waits for them to exit. Runs still waiting for inputs fail.
func (dp *dataPlane) close() {
	dp.mu.Lock()
	if dp.closed {
		dp.mu.Unlock()
		return
	}
	dp.closed = true
	conns := dp.conns
	dp.conns = nil
	dp.mu.Unlock()
	close(dp.done)
	dp.ln.Close()
	for c := range conns {
		c.Close()
	}
	dp.wg.Wait()
}

// track records an open connection so close can reap it; it refuses
// once the plane is closed.
func (dp *dataPlane) track(c net.Conn) bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if dp.closed {
		return false
	}
	dp.conns[c] = struct{}{}
	return true
}

func (dp *dataPlane) drop(c net.Conn) {
	dp.mu.Lock()
	delete(dp.conns, c)
	dp.mu.Unlock()
	c.Close()
}

func (dp *dataPlane) accept() {
	defer dp.wg.Done()
	for {
		c, err := dp.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			// Out of descriptors or a similar transient failure: back off
			// instead of spinning, and keep serving.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if !dp.track(c) {
			c.Close()
			return
		}
		dp.wg.Add(1)
		go dp.serve(c)
	}
}

// serve reads frames off one accepted connection until it fails or
// closes.
func (dp *dataPlane) serve(c net.Conn) {
	defer dp.wg.Done()
	defer dp.drop(c)
	dp.readFrames(bufio.NewReaderSize(c, readBuffer))
}

// readFrames routes every frame of a stream. A corrupt frame ends the
// stream: it cannot be resynchronized.
func (dp *dataPlane) readFrames(r io.Reader) {
	fr := frame.NewReader(r, protocol.MaxDataFrame)
	for {
		p, err := fr.Next()
		if err != nil {
			return
		}
		dp.route(p)
	}
}

// route delivers one frame payload to its destination inbox. Frames for
// runs that have finished (or never existed), malformed envelopes and
// surplus frames for an inbox that is already full are dropped: a
// reader never blocks on a run.
func (dp *dataPlane) route(p []byte) {
	env, err := protocol.ParseDataEnvelope(p)
	if err != nil {
		return
	}
	inbox := dp.inbox(env.AppID, env.ToTask)
	if inbox == nil {
		return
	}
	val, err := tasklib.DecodeValue(env.Payload)
	select {
	case inbox <- delivery{port: env.ToPort, val: val, err: err}:
	default:
	}
}

func (dp *dataPlane) inbox(appID string, task int) chan delivery {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	boxes := dp.inboxes[appID]
	if task < 0 || task >= len(boxes) {
		return nil
	}
	return boxes[task]
}

// register opens the run's inboxes, one per task with dataflow inputs,
// each sized to the task's in-edge count so no delivery ever waits. It
// returns them indexed by task ID.
func (dp *dataPlane) register(appID string, g *afg.Graph) ([]chan delivery, error) {
	inEdges := make([]int, len(g.Tasks))
	for _, e := range g.Edges {
		inEdges[e.To]++
	}
	boxes := make([]chan delivery, len(g.Tasks))
	for id, n := range inEdges {
		if n > 0 {
			boxes[id] = make(chan delivery, n)
		}
	}
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if dp.closed {
		return nil, errEngineClosed
	}
	dp.inboxes[appID] = boxes
	return boxes, nil
}

func (dp *dataPlane) unregister(appID string) {
	dp.mu.Lock()
	delete(dp.inboxes, appID)
	dp.mu.Unlock()
}

// send writes one sealed frame on a pooled connection. The write
// deadline follows the run context, so a canceled run never stays parked
// behind a peer that stopped reading.
func (dp *dataPlane) send(ctx context.Context, fr []byte) error {
	var c net.Conn
	select {
	case c = <-dp.pool:
	case <-ctx.Done():
		return ctx.Err()
	case <-dp.done:
		return errEngineClosed
	}
	if c == nil {
		var err error
		if c, err = dp.dial(ctx); err != nil {
			dp.pool <- nil
			return err
		}
	}
	err := writeFrame(ctx, c, fr)
	if err != nil {
		// The connection may carry part of a frame: never reuse it.
		dp.drop(c)
		c = nil
	}
	dp.pool <- c
	return err
}

func (dp *dataPlane) dial(ctx context.Context) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", dp.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("exec: dial data listener: %w", err)
	}
	if !dp.track(c) {
		c.Close()
		return nil, errEngineClosed
	}
	return c, nil
}

// writeFrame writes fr to c under a deadline bound to ctx: the context's
// own deadline, and an immediate one the moment it is canceled.
func writeFrame(ctx context.Context, c net.Conn, fr []byte) error {
	dl, _ := ctx.Deadline()
	if err := c.SetWriteDeadline(dl); err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { c.SetWriteDeadline(time.Unix(1, 0)) })
	_, err := c.Write(fr)
	if !stop() && err == nil {
		// The cancellation hook ran, or is running, against this
		// connection: report the cancellation so the caller drops it.
		err = ctx.Err()
	}
	return err
}

// dataManager is one task's endpoint of the communication system: its
// inbox on the engine's data listener and its sender toward its
// children.
type dataManager struct {
	run   *appRun
	task  *afg.Task
	inbox chan delivery // nil when the task has no dataflow inputs
}

// receiveInputs waits for one delivery per in-edge and returns the
// values indexed by input port. It gives up when the run is canceled or
// the engine closes, whatever its peers are doing.
func (dm *dataManager) receiveInputs(ctx context.Context) ([]tasklib.Value, error) {
	in := make([]tasklib.Value, dm.task.InPorts)
	if dm.inbox == nil {
		return in, nil
	}
	expect := make([]bool, len(in))
	for _, e := range dm.run.g.InEdges(dm.task.ID) {
		expect[e.ToPort] = true
	}
	for received := 0; received < cap(dm.inbox); received++ {
		var d delivery
		select {
		case d = <-dm.inbox:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-dm.run.data.done:
			return nil, errEngineClosed
		}
		if d.err != nil {
			return nil, fmt.Errorf("exec: task %d payload: %w", dm.task.ID, d.err)
		}
		if d.port < 0 || d.port >= len(expect) || !expect[d.port] {
			return nil, fmt.Errorf("exec: task %d got unexpected port %d", dm.task.ID, d.port)
		}
		expect[d.port] = false
		in[d.port] = d.val
	}
	return in, nil
}

// sendOutputs delivers the produced values, one frame per out-edge. Each
// out-port is encoded once, straight into a frame sized for it; the
// further edges of a fan-out readdress that frame in place.
func (dm *dataManager) sendOutputs(ctx context.Context, outs []tasklib.Value) error {
	edges := dm.run.g.OutEdges(dm.task.ID)
	for _, e := range edges {
		if e.FromPort >= len(outs) {
			return fmt.Errorf("exec: task %d produced no output for port %d", dm.task.ID, e.FromPort)
		}
	}
	for port, v := range outs {
		var fr []byte
		for _, e := range edges {
			if e.FromPort != port {
				continue
			}
			var err error
			if fr == nil {
				fr, err = dm.encodeFrame(e, v)
			} else {
				err = protocol.ReaddressDataFrame(fr, int(e.To), e.ToPort)
			}
			if err != nil {
				return err
			}
			if err := dm.run.data.send(ctx, fr); err != nil {
				return fmt.Errorf("exec: send to child %d: %w", e.To, err)
			}
		}
	}
	return nil
}

// encodeFrame encodes v into a sealed data frame for edge e.
func (dm *dataManager) encodeFrame(e afg.Edge, v tasklib.Value) ([]byte, error) {
	n, err := tasklib.EncodedLen(v)
	if err != nil {
		return nil, err
	}
	env := protocol.DataEnvelope{AppID: dm.run.appID, FromTask: int(e.From), ToTask: int(e.To), ToPort: e.ToPort}
	fr, start := protocol.BeginDataFrame(nil, &env, n)
	if fr, err = tasklib.AppendValue(fr, v); err != nil {
		return nil, err
	}
	if size := len(fr) - start - frame.Header; size > protocol.MaxDataFrame {
		return nil, fmt.Errorf("exec: task %d port %d frame of %d bytes exceeds the %d-byte limit",
			dm.task.ID, e.FromPort, size, protocol.MaxDataFrame)
	}
	frame.Seal(fr, start)
	return fr, nil
}
