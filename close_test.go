package vdce

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"vdce/internal/testbed"
)

// openFDs counts this process's open file descriptors, or -1 where
// /proc/self/fd does not exist.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// leakBaseline is a process's goroutine and descriptor counts at one
// instant (fds is -1 where /proc/self/fd does not exist).
type leakBaseline struct{ goroutines, fds int }

// takeLeakBaseline records the counts before a test starts what it
// must later stop. The runtime opens its network poller's descriptors
// on first use and keeps them for the life of the process, so it opens
// and closes one pipe first: the poller's descriptors then count in the
// baseline however the test binary was started.
func takeLeakBaseline() leakBaseline {
	if r, w, err := os.Pipe(); err == nil {
		r.Close()
		w.Close()
	}
	return leakBaseline{goroutines: runtime.NumGoroutine(), fds: openFDs()}
}

// wait polls until the goroutine and descriptor counts are back at or
// below the baseline, and fails the test with every goroutine's stack
// if they are not within 5s. Exits are asynchronous (a closed
// connection's reader, timers winding down), so it polls instead of
// sampling once.
func (b leakBaseline) wait(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		goroutines, fds := runtime.NumGoroutine(), openFDs()
		if goroutines <= b.goroutines && fds <= b.fds {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines (baseline %d), %d descriptors (baseline %d)\n%s",
				goroutines, b.goroutines, fds, b.fds, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseReturnsGoroutinesAndFDsToBaseline runs applications through
// the data plane (listener, pooled connections, readers) and requires
// Close to give back every goroutine and descriptor the environment
// took.
func TestCloseReturnsGoroutinesAndFDsToBaseline(t *testing.T) {
	base := takeLeakBaseline()
	env, err := New(Config{Testbed: testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 41, BaseLoadMax: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var jobs []*Job
	for i := 0; i < 8; i++ {
		g, err := tasklibC3I(6+i%3, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		job, err := env.Submit(ctx, g, WithMaxHosts(2))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if fds := openFDs(); base.fds >= 0 && fds <= base.fds {
		t.Fatalf("%d descriptors open while running, %d before: the data plane opened no sockets", fds, base.fds)
	}
	env.Close()
	base.wait(t)
}
