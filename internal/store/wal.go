package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"vdce/internal/frame"
	"vdce/internal/obs"
)

// errWALClosed is returned by appends and syncs after the log shut down.
var errWALClosed = errors.New("store: log closed")

// wal is the append-only segment log under a Store. Appends are group
// committed: append frames the payload into an in-memory batch under a
// short mutex (no I/O on the caller), and a background committer writes
// and fsyncs the whole batch once per flush interval — so the submit
// hot path pays a memcpy and a CRC, while durability costs one fsync
// per interval regardless of how many records landed in it.
type wal struct {
	dir        string
	flushEvery time.Duration

	// ioMu serializes file writes and segment rotation; it is never held
	// while appenders run, so a slow fsync stalls durability, not admission.
	ioMu sync.Mutex
	f    *os.File
	seg  uint64

	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
	// spare is the last written batch buffer, recycled so steady-state
	// appends copy into pre-grown capacity instead of re-growing from nil
	// after every flush.
	spare []byte
	// nAppend counts records accepted into the batch; nDurable counts
	// records whose batch has been fsynced. sync() waits for the gap to
	// close.
	nAppend  uint64
	nDurable uint64
	// batchRecs counts records in the current pending batch (guarded by
	// mu); the committer snapshots and resets it per flush to feed the
	// fsync batch-size histogram.
	batchRecs uint64
	err       error // sticky first I/O error; poisons later appends
	closed    bool

	// appendHist/fsyncBatch are the WAL's instrumentation handles; nil
	// (un-instrumented stores) costs the hot path one predictable branch.
	appendHist *obs.Histogram
	fsyncBatch *obs.Histogram

	kick chan struct{}
	quit chan struct{}
	done chan struct{}
}

// kickBatchBytes is the pending-batch size that wakes the committer
// early, bounding batch memory between flush ticks under burst load.
const kickBatchBytes = 1 << 20

// maxBatchBytes is the hard cap on the pending batch: past it appenders
// block until the committer drains, so a stalled disk applies
// backpressure instead of growing an unbounded buffer.
const maxBatchBytes = 8 << 20

func segmentName(n uint64) string  { return fmt.Sprintf("wal-%08d.log", n) }
func snapshotName(n uint64) string { return fmt.Sprintf("snap-%08d.json", n) }

// newWAL wraps an already-opened current segment file and starts the
// committer. reg, when non-nil, receives the append-latency and
// fsync-batch-size histograms (installed before the committer starts,
// so the handles are never written concurrently).
func newWAL(dir string, seg uint64, f *os.File, flushEvery time.Duration, reg *obs.Registry) *wal {
	w := &wal{
		dir:        dir,
		flushEvery: flushEvery,
		f:          f,
		seg:        seg,
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if reg != nil {
		w.appendHist = reg.Histogram("vdce_wal_append_seconds",
			"WAL append latency: framing plus CRC under the batch mutex, including any full-batch backpressure wait.",
			obs.WALBuckets).With()
		w.fsyncBatch = reg.Histogram("vdce_wal_fsync_batch_records",
			"Records group-committed per WAL fsync.", obs.SizeBuckets).With()
	}
	w.cond = sync.NewCond(&w.mu)
	go w.committer()
	return w
}

// append frames one payload into the pending batch. It does no I/O; the
// record is durable once a later flush covers it (see sync).
func (w *wal) append(payload []byte) error {
	if w.appendHist != nil {
		start := time.Now()
		err := w.appendInner(payload)
		w.appendHist.Observe(time.Since(start).Seconds())
		return err
	}
	return w.appendInner(payload)
}

func (w *wal) appendInner(payload []byte) error {
	w.mu.Lock()
	for len(w.buf) >= maxBatchBytes && !w.closed && w.err == nil {
		w.mu.Unlock()
		w.wake()
		w.mu.Lock()
		if len(w.buf) < maxBatchBytes || w.closed || w.err != nil {
			break
		}
		w.cond.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		return errWALClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.buf == nil && w.spare != nil {
		w.buf, w.spare = w.spare, nil
	}
	w.buf = frame.Append(w.buf, payload)
	w.nAppend++
	w.batchRecs++
	big := len(w.buf) >= kickBatchBytes
	w.mu.Unlock()
	if big {
		w.wake()
	}
	return nil
}

func (w *wal) wake() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// sync blocks until every record appended before the call is fsynced
// (the durability barrier graceful shutdown and tests use).
func (w *wal) sync() error {
	w.mu.Lock()
	target := w.nAppend
	w.mu.Unlock()
	w.wake()
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && !w.closed && w.nDurable < target {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.nDurable < target {
		return errWALClosed
	}
	return nil
}

// committer is the group-commit loop: one write+fsync per flush tick
// (or early wake on a large batch), then a final flush at shutdown.
func (w *wal) committer() {
	defer close(w.done)
	t := time.NewTicker(w.flushEvery)
	defer t.Stop()
	for {
		select {
		case <-w.quit:
			w.flushOnce()
			return
		case <-t.C:
		case <-w.kick:
		}
		w.flushOnce()
	}
}

// flushOnce writes and fsyncs the pending batch. The batch is detached
// under mu, written under ioMu only — appenders never wait on the disk.
func (w *wal) flushOnce() {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.flushLockedIO()
}

// flushLockedIO is flushOnce with ioMu already held (rotation flushes
// the old segment before switching files).
func (w *wal) flushLockedIO() {
	w.mu.Lock()
	b, target, f := w.buf, w.nAppend, w.f
	recs := w.batchRecs
	w.batchRecs = 0
	w.buf = nil
	bad := w.err
	w.mu.Unlock()
	if bad != nil {
		return
	}
	if w.fsyncBatch != nil && recs > 0 {
		w.fsyncBatch.Observe(float64(recs))
	}
	var err error
	if len(b) > 0 {
		if f == nil {
			err = errWALClosed
		} else if _, err = f.Write(b); err == nil {
			// EINVAL means the target cannot fsync (character devices,
			// some network filesystems) — best-effort there, not fatal.
			if serr := f.Sync(); serr != nil && !errors.Is(serr, syscall.EINVAL) {
				err = serr
			}
		}
	}
	w.mu.Lock()
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else if target > w.nDurable {
		w.nDurable = target
	}
	if cap(b) > 0 && cap(b) > cap(w.spare) {
		w.spare = b[:0]
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// rotate flushes and closes the current segment, then opens the next
// one. Returns the new segment number; callers write the matching
// snapshot after (never before) the rotation point exists on disk.
func (w *wal) rotate() (uint64, error) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.flushLockedIO()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, errWALClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	old := w.f
	w.mu.Unlock()
	if old != nil {
		if err := old.Close(); err != nil {
			return 0, err
		}
	}
	next := w.seg + 1
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.mu.Lock()
		if w.err == nil {
			w.err = err
		}
		w.mu.Unlock()
		return 0, err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return 0, err
	}
	w.mu.Lock()
	w.f = f
	w.mu.Unlock()
	w.seg = next
	return next, nil
}

// close stops the committer (which flushes the pending batch), then
// closes the segment file. Idempotent.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit)
	<-w.done
	w.mu.Lock()
	f, err := w.f, w.err
	w.f = nil
	w.cond.Broadcast()
	w.mu.Unlock()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// syncDir fsyncs a directory so file creations and renames inside it
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
