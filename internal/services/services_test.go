package services

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vdce/internal/afg"
)

func TestConsoleGate(t *testing.T) {
	c := NewConsole()
	if err := c.Gate(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Suspend()
	if !c.Suspended() {
		t.Fatal("not suspended")
	}
	// Gate blocks while suspended.
	released := make(chan error, 1)
	go func() { released <- c.Gate(context.Background()) }()
	select {
	case <-released:
		t.Fatal("gate passed while suspended")
	case <-time.After(20 * time.Millisecond):
	}
	c.Resume()
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("gate never released")
	}
	// Context cancellation unblocks a suspended gate.
	c.Suspend()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Gate(ctx) }()
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled gate returned nil")
	}
	// Double suspend / double resume are harmless.
	c.Suspend()
	c.Resume()
	c.Resume()
	if c.Suspended() {
		t.Fatal("resume lost")
	}
}

func TestMetricsSeriesAndChart(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 20; i++ {
		m.Add("load:h1", time.Duration(i)*time.Second, float64(i%5))
	}
	m.Add("other", time.Second, 1)
	if got := m.Names(); len(got) != 2 || got[0] != "load:h1" {
		t.Fatalf("Names = %v", got)
	}
	s := m.Series("load:h1")
	if len(s) != 20 || s[3].V != 3 {
		t.Fatalf("series wrong: %v", s[:4])
	}
	chart := m.Chart("load:h1", 40, 8)
	if !strings.Contains(chart, "*") || !strings.Contains(chart, "load:h1") {
		t.Fatalf("chart missing content:\n%s", chart)
	}
	if empty := m.Chart("missing", 10, 4); !strings.Contains(empty, "no data") {
		t.Fatalf("empty chart = %q", empty)
	}
	// Flat series still renders (degenerate range).
	m.Add("flat", 0, 2)
	m.Add("flat", time.Second, 2)
	if c := m.Chart("flat", 10, 3); !strings.Contains(c, "*") {
		t.Fatalf("flat chart:\n%s", c)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Add(fmt.Sprintf("s%d", i%2), time.Duration(j), float64(j))
				_ = m.Series("s0")
			}
		}(i)
	}
	wg.Wait()
	if len(m.Series("s0"))+len(m.Series("s1")) != 800 {
		t.Fatal("samples lost")
	}
}

func TestMetricsSeriesCapped(t *testing.T) {
	m := NewMetrics()
	const total = 10 * maxSeriesPoints
	for i := 0; i < total; i++ {
		m.Add("task:x", time.Duration(i), float64(i))
	}
	s := m.Series("task:x")
	if len(s) != maxSeriesPoints {
		t.Fatalf("series holds %d points, want %d", len(s), maxSeriesPoints)
	}
	for i, p := range s {
		if want := total - maxSeriesPoints + i; p.V != float64(want) || p.T != time.Duration(want) {
			t.Fatalf("point %d = %+v, want the newest points in insertion order (%d)", i, p, want)
		}
	}
}

func TestIOServiceFiles(t *testing.T) {
	root := t.TempDir()
	s := NewIOService(root)
	if err := s.Write("/users/VDCE/user_k/matrix_A.dat", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if !s.Exists("/users/VDCE/user_k/matrix_A.dat") {
		t.Fatal("written file missing")
	}
	got, err := s.Read(afg.FileSpec{Path: "/users/VDCE/user_k/matrix_A.dat"})
	if err != nil || string(got) != "data" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	// Escapes are clipped by the leading-slash clean, not allowed out.
	if err := s.Write("../../etc/passwd", []byte("x")); err != nil {
		t.Fatalf("relative escape should be confined, got error %v", err)
	}
	if s.Exists("../../etc/passwd") != true {
		t.Fatal("confined path should exist under root")
	}
	if _, err := s.Read(afg.FileSpec{Path: "/missing.dat"}); err == nil {
		t.Fatal("missing file read succeeded")
	}
	if _, err := s.Read(afg.FileSpec{Dataflow: true}); err == nil {
		t.Fatal("dataflow spec read succeeded")
	}
	if _, err := s.Read(afg.FileSpec{}); err == nil {
		t.Fatal("empty spec read succeeded")
	}
}

func TestIOServiceURL(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ok" {
			fmt.Fprint(w, "payload")
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()
	s := NewIOService(t.TempDir())
	got, err := s.Read(afg.FileSpec{Path: srv.URL + "/ok", URL: true})
	if err != nil || string(got) != "payload" {
		t.Fatalf("URL read = %q, %v", got, err)
	}
	if _, err := s.Read(afg.FileSpec{Path: srv.URL + "/missing", URL: true}); err == nil {
		t.Fatal("404 fetch succeeded")
	}
	if _, err := s.Read(afg.FileSpec{Path: "http://127.0.0.1:1/none", URL: true}); err == nil {
		t.Fatal("unreachable fetch succeeded")
	}
}

func TestDSMSequential(t *testing.T) {
	d := NewDSM()
	defer d.Close()
	if _, ok, err := d.Read("k"); err != nil || ok {
		t.Fatalf("fresh read: %v %v", ok, err)
	}
	if err := d.Write("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d.Read("k")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("read after write: %q %v %v", v, ok, err)
	}
	// CAS success and failure.
	swapped, _, err := d.CompareAndSwap("k", []byte("v1"), []byte("v2"))
	if err != nil || !swapped {
		t.Fatalf("cas: %v %v", swapped, err)
	}
	swapped, cur, err := d.CompareAndSwap("k", []byte("v1"), []byte("v3"))
	if err != nil || swapped || string(cur) != "v2" {
		t.Fatalf("stale cas: %v %q %v", swapped, cur, err)
	}
}

func TestDSMCASIsAtomic(t *testing.T) {
	d := NewDSM()
	defer d.Close()
	if err := d.Write("ctr", []byte("0")); err != nil {
		t.Fatal(err)
	}
	// 8 workers x 50 CAS-increments must total exactly 400.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for {
					cur, _, err := d.Read("ctr")
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					var n int
					fmt.Sscanf(string(cur), "%d", &n)
					ok, _, err := d.CompareAndSwap("ctr", cur, []byte(fmt.Sprint(n+1)))
					if err != nil {
						t.Errorf("cas: %v", err)
						return
					}
					if ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	v, _, _ := d.Read("ctr")
	if string(v) != "400" {
		t.Fatalf("counter = %s, want 400", v)
	}
}

func TestDSMClosed(t *testing.T) {
	d := NewDSM()
	d.Close()
	if err := d.Write("k", []byte("v")); err == nil {
		t.Fatal("write after close succeeded")
	}
}
