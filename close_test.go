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

// TestCloseReturnsGoroutinesAndFDsToBaseline runs applications through
// the data plane (listener, pooled connections, readers) and requires
// Close to give back every goroutine and descriptor the environment
// took.
func TestCloseReturnsGoroutinesAndFDsToBaseline(t *testing.T) {
	goroutines0, fds0 := runtime.NumGoroutine(), openFDs()
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
	if fds := openFDs(); fds0 >= 0 && fds <= fds0 {
		t.Fatalf("%d descriptors open while running, %d before: the data plane opened no sockets", fds, fds0)
	}
	env.Close()

	// Exits are asynchronous (a closed connection's reader, timers
	// winding down), so poll for the baseline instead of sampling once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		goroutines, fds := runtime.NumGoroutine(), openFDs()
		if goroutines <= goroutines0 && fds <= fds0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("after Close: %d goroutines (baseline %d), %d descriptors (baseline %d)\n%s",
				goroutines, goroutines0, fds, fds0, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
