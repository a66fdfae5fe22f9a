package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"vdce/internal/tasklib"
)

// startServer runs the server on an ephemeral port and returns its base
// URL once it is serving.
func startServer(t *testing.T, extraArgs ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-http", "127.0.0.1:0", "-hosts", "2", "-groups", "1"}, extraArgs...)
	var out strings.Builder
	go func() {
		errCh <- run(ctx, args, &out, func(addr string) { addrCh <- addr })
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Errorf("server exited with %v\noutput:\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Error("server did not shut down")
		}
	})
	select {
	case addr := <-addrCh:
		return "http://" + addr
	case err := <-errCh:
		t.Fatalf("server failed to start: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never reported its address")
	}
	return ""
}

func login(t *testing.T, base string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"user": "user_k", "password": "vdce"})
	resp, err := http.Post(base+"/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Token == "" {
		t.Fatal("login returned no token")
	}
	return out.Token
}

func TestServerServesSubmissionsAndJobs(t *testing.T) {
	base := startServer(t, "-workers", "2", "-parallel", "2")
	token := login(t, base)

	g, err := tasklib.BuildC3IPipeline(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path string, body []byte) map[string]any {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode >= 300 {
			t.Fatalf("%s %s: %d %v", method, path, resp.StatusCode, out)
		}
		return out
	}

	imported := do("POST", "/apps/import", data)
	id, _ := imported["id"].(string)
	if id == "" {
		t.Fatalf("import failed: %v", imported)
	}
	result := do("POST", fmt.Sprintf("/apps/%s/submit", id), nil)
	if result["result"] == nil {
		t.Fatalf("submission returned no result: %v", result)
	}

	// The job-control API reflects the executed submission.
	count := do("GET", "/v1/jobs?state=done&limit=0", nil)
	if total, _ := count["total"].(float64); total != 1 {
		t.Fatalf("done jobs = %v, want 1", count)
	}
}

// TestServerServesJobControlAPI drives the versioned surface end to
// end over the server binary: async v1 submission with priority, job
// listing with filters, and cancellation.
func TestServerServesJobControlAPI(t *testing.T) {
	base := startServer(t, "-workers", "2", "-parallel", "2")
	token := login(t, base)

	do := func(method, path string, body []byte, want int) map[string]any {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != want {
			t.Fatalf("%s %s: %d (want %d) %v", method, path, resp.StatusCode, want, out)
		}
		return out
	}

	g, err := tasklib.BuildC3IPipeline(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	imported := do("POST", "/apps/import", data, http.StatusCreated)
	appID, _ := imported["id"].(string)

	body, _ := json.Marshal(map[string]any{"priority": 7})
	accepted := do("POST", fmt.Sprintf("/v1/apps/%s/submit", appID), body, http.StatusAccepted)
	job, _ := accepted["job"].(map[string]any)
	jobID, _ := job["id"].(string)
	if jobID == "" {
		t.Fatalf("v1 submit returned no job: %v", accepted)
	}
	if prio, _ := job["priority"].(float64); prio != 7 {
		t.Fatalf("job priority = %v, want 7", job["priority"])
	}

	deadline := time.Now().Add(time.Minute)
	for {
		got := do("GET", "/v1/jobs/"+jobID, nil, http.StatusOK)
		state, _ := got["job"].(map[string]any)["state"].(string)
		if state == "done" {
			break
		}
		if state == "failed" || state == "canceled" {
			t.Fatalf("job ended %s: %v", state, got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %v", jobID, got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	list := do("GET", "/v1/jobs?owner=user_k&state=done", nil, http.StatusOK)
	jobs, _ := list["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("filtered listing = %v", list)
	}
	// Unauthenticated requests are rejected.
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/jobs = %d, want 401", resp.StatusCode)
	}
	// Canceling a finished job is a no-op that reports the final state.
	final := do("DELETE", "/v1/jobs/"+jobID, nil, http.StatusOK)
	if state, _ := final["job"].(map[string]any)["state"].(string); state != "done" {
		t.Fatalf("cancel of finished job reports %q, want done", state)
	}
}

func TestServerRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-no-such-flag"}, &out, nil); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestServerShedDeadlineAlone: -shed-deadline works without -shed-wait.
// A submission whose deadline is closer than the graph's critical-path
// estimate answers 503 deadline-infeasible with Retry-After, and a
// feasible deadline is accepted.
func TestServerShedDeadlineAlone(t *testing.T) {
	base := startServer(t, "-shed-deadline")
	token := login(t, base)
	// Linear Equation Solver: about 0.5s of critical path at catalog
	// base times, whatever its matrix size.
	g, err := tasklib.BuildLinearEquationSolver(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body []byte) (int, http.Header, map[string]any) {
		t.Helper()
		req, err := http.NewRequest("POST", base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, resp.Header, out
	}
	code, _, imported := post("/apps/import", data)
	appID, _ := imported["id"].(string)
	if code != http.StatusCreated || appID == "" {
		t.Fatalf("import = %d %v", code, imported)
	}
	code, hdr, body := post("/v1/apps/"+appID+"/submit", []byte(`{"deadline_ms": 100}`))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("infeasible deadline = %d %v, want 503", code, body)
	}
	if reason, _ := body["shed_reason"].(string); reason != "deadline-infeasible" {
		t.Errorf("shed_reason = %v, want deadline-infeasible", body["shed_reason"])
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shed 503 carries no Retry-After")
	}
	if code, _, body := post("/v1/apps/"+appID+"/submit", []byte(`{"deadline_ms": 3600000}`)); code != http.StatusAccepted {
		t.Fatalf("feasible deadline = %d %v, want 202", code, body)
	}
}
