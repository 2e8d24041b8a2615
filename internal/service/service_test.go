package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// postRun submits one /run request and returns status, outcome header,
// and body.
func postRun(t *testing.T, srv *httptest.Server, req RunRequest) (int, string, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/run", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Vcache-Outcome"), body
}

func metricsText(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSingleflightAndCache is the core serving guarantee: 32 concurrent
// identical requests produce exactly one backing simulation; every other
// request is served from the cache or by attaching to the in-flight run;
// and all 32 responses are byte-identical.
func TestSingleflightAndCache(t *testing.T) {
	svc := New(Config{MaxConcurrent: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	req := RunRequest{Workload: "kernel-build", Config: "F", Scale: 0.05}
	const n = 32
	bodies := make([][]byte, n)
	outcomes := make([]string, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			status, outcome, body := postRun(t, srv, req)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
			outcomes[i] = outcome
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	snap := svc.Metrics()
	if snap.RunsStarted != 1 {
		t.Fatalf("expected exactly 1 backing run, got %d", snap.RunsStarted)
	}
	if snap.RunsCompleted != 1 || snap.RunErrors != 0 {
		t.Fatalf("expected 1 clean completion, got %d completed / %d errors", snap.RunsCompleted, snap.RunErrors)
	}
	if got := snap.CacheHits + snap.SingleflightHits; got != n-1 {
		t.Fatalf("expected %d cache+singleflight hits, got %d (cache %d, singleflight %d)",
			n-1, got, snap.CacheHits, snap.SingleflightHits)
	}
	// The same numbers must be visible on the /metrics surface.
	text := metricsText(t, srv)
	if !strings.Contains(text, "vcached_runs_started_total 1\n") {
		t.Errorf("/metrics does not report 1 backing run:\n%s", text)
	}
	var hits, shared uint64
	for _, line := range strings.Split(text, "\n") {
		if _, err := fmt.Sscanf(line, "vcached_cache_hits_total %d", &hits); err == nil {
			continue
		}
		_, _ = fmt.Sscanf(line, "vcached_singleflight_hits_total %d", &shared)
	}
	if hits+shared != n-1 {
		t.Errorf("/metrics reports %d cache + %d singleflight hits, want a total of %d", hits, shared, n-1)
	}
	// A later identical request is a pure cache hit.
	status, outcome, body := postRun(t, srv, req)
	if status != http.StatusOK || outcome != OutcomeHit {
		t.Fatalf("follow-up request: status %d outcome %q", status, outcome)
	}
	if !bytes.Equal(body, bodies[0]) {
		t.Fatalf("cached follow-up body differs")
	}
}

// TestGracefulShutdownDrains proves Shutdown waits for the in-flight
// simulation to finish (and its requester to get a 200) while refusing
// new work with 503.
func TestGracefulShutdownDrains(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	type reply struct {
		status  int
		outcome string
	}
	inflight := make(chan reply, 1)
	go func() {
		status, outcome, _ := postRun(t, srv, RunRequest{Workload: "kernel-build", Config: "F", Scale: 0.4})
		inflight <- reply{status, outcome}
	}()
	waitFor(t, "run in flight", func() bool { return svc.Metrics().RunsInflight == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- svc.Shutdown(context.Background()) }()
	waitFor(t, "draining", svc.Draining)

	status, _, body := postRun(t, srv, RunRequest{Workload: "afs-bench", Config: "A", Scale: 0.05})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503 (body %s)", status, body)
	}
	var e httpError
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("503 body is not a JSON error object: %s", body)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown returned %v, want nil (drained)", err)
	}
	// Shutdown only returns after the backing run drained; its requester
	// must observe a clean 200, not a cancellation.
	select {
	case r := <-inflight:
		if r.status != http.StatusOK || r.outcome != OutcomeMiss {
			t.Fatalf("drained run: status %d outcome %q, want 200/miss", r.status, r.outcome)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request did not complete after shutdown drained")
	}
	if snap := svc.Metrics(); snap.RunsCompleted != 1 || snap.RunErrors != 0 {
		t.Fatalf("after drain: %d completed / %d errors, want 1/0", snap.RunsCompleted, snap.RunErrors)
	}
}

// TestAdmissionQueueFull proves overload turns into a fast 429 instead
// of unbounded queueing: with one run slot and a one-deep queue, a third
// distinct request is rejected.
func TestAdmissionQueueFull(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	// Occupy the only run slot directly, so the queue state below is
	// deterministic regardless of how fast simulations finish.
	svc.sem <- struct{}{}

	queued := make(chan int, 1)
	go func() {
		status, _, _ := postRun(t, srv, RunRequest{Workload: "kernel-build", Config: "A", Scale: 0.05})
		queued <- status
	}()
	waitFor(t, "run waiting in queue", func() bool { return svc.Metrics().QueueDepth == 1 })

	status, _, body := postRun(t, srv, RunRequest{Workload: "kernel-build", Config: "B", Scale: 0.05})
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429 (body %s)", status, body)
	}
	var e httpError
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body is not a JSON error object: %s", body)
	}
	if snap := svc.Metrics(); snap.RejectedQueue != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", snap.RejectedQueue)
	}

	<-svc.sem // free the slot; the queued run proceeds
	select {
	case status := <-queued:
		if status != http.StatusOK {
			t.Fatalf("queued run finished with status %d", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued run did not finish after the slot freed")
	}
}

// TestRequestDeadlineDetachesRun proves a request deadline bounds only
// the caller's wait: the backing run keeps going and lands in the cache.
func TestRequestDeadlineDetachesRun(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	req := RunRequest{Workload: "kernel-build", Config: "F", Scale: 0.3, TimeoutMS: 1}
	status, _, body := postRun(t, srv, req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline-1ms request: status %d, want 504 (body %s)", status, body)
	}
	waitFor(t, "detached run completion", func() bool { return svc.Metrics().RunsCompleted == 1 })

	req.TimeoutMS = 0
	status, outcome, _ := postRun(t, srv, req)
	if status != http.StatusOK || outcome != OutcomeHit {
		t.Fatalf("retry after detached completion: status %d outcome %q, want 200/hit", status, outcome)
	}
}

// TestBatchDedupAndOrder: a batch of identical entries costs one
// simulation; results come back in request order; an invalid entry
// fails alone.
func TestBatchDedup(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	spec := RunRequest{Workload: "afs-bench", Config: "F", Scale: 0.05}
	breq := BatchRequest{Runs: []RunRequest{spec, spec, {Workload: "bogus", Config: "F"}, spec}}
	b, _ := json.Marshal(breq)
	resp, err := srv.Client().Post(srv.URL+"/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(br.Results))
	}
	if br.Results[2].Error == "" {
		t.Fatalf("invalid entry did not fail: %+v", br.Results[2])
	}
	for _, i := range []int{0, 1, 3} {
		if br.Results[i].Error != "" {
			t.Fatalf("entry %d failed: %s", i, br.Results[i].Error)
		}
		if !bytes.Equal(br.Results[i].Run, br.Results[0].Run) {
			t.Fatalf("entry %d body differs from entry 0", i)
		}
	}
	if snap := svc.Metrics(); snap.RunsStarted != 1 {
		t.Fatalf("batch of identical specs started %d runs, want 1", snap.RunsStarted)
	}
}

func TestHealthzAndWorkloads(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Fatalf("/healthz status field %v", h["status"])
	}

	resp2, err := srv.Client().Get(srv.URL + "/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var wl struct {
		Workloads []string `json:"workloads"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Workloads) != 3 {
		t.Fatalf("/workloads lists %v, want the three paper benchmarks", wl.Workloads)
	}
}

func TestInvalidRequests(t *testing.T) {
	svc := New(Config{MaxScale: 1.0})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	for _, tc := range []struct {
		name string
		req  RunRequest
	}{
		{"unknown workload", RunRequest{Workload: "nope", Config: "F"}},
		{"unknown config", RunRequest{Workload: "kernel-build", Config: "Z"}},
		{"deleted backend label", RunRequest{Workload: "kernel-build", Config: "HYB"}},
		{"negative scale", RunRequest{Workload: "kernel-build", Config: "F", Scale: -1}},
		{"bad cpus", RunRequest{Workload: "kernel-build", Config: "F", CPUs: -2}},
		{"cpus past the limit", RunRequest{Workload: "kernel-build", Config: "F", Scale: 0.01, CPUs: 65}},
		{"frames past the limit", RunRequest{Workload: "kernel-build", Config: "F", Scale: 0.01, Frames: 1<<20 + 1}},
		{"over scale cap", RunRequest{Workload: "kernel-build", Config: "F", Scale: 2.0}},
	} {
		status, _, body := postRun(t, srv, tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, status, body)
			continue
		}
		var e httpError
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: 400 body is not a JSON error object: %s", tc.name, body)
		}
	}
}

// TestHugeScaleRejectedWithoutCap: with no MaxScale configured, a scale
// that would overflow the workload sizes is still a 400 JSON error, not
// a run.
func TestHugeScaleRejectedWithoutCap(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	status, _, body := postRun(t, srv, RunRequest{Workload: "kernel-build", Config: "F", Scale: 1e300})
	var e httpError
	if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "scale") {
		t.Fatalf("scale 1e300: status %d body %s, want 400 with a scale error", status, body)
	}
}

// waitFor polls cond for up to 30s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
