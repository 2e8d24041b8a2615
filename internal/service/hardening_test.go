package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestLogRequestShortKey is the regression test for the access-log
// truncation panic: a Resolved whose key is shorter than the 12-char
// log prefix must log the whole key, not slice past its end.
func TestLogRequestShortKey(t *testing.T) {
	var buf bytes.Buffer
	svc := New(Config{Log: &buf})
	defer svc.Shutdown(context.Background())

	svc.logRequest("/run", http.StatusOK, OutcomeHit, &Resolved{Key: "abc"}, RunRequest{Workload: "w"}, "", time.Millisecond, nil)
	svc.logRequest("/run", http.StatusOK, OutcomeHit, &Resolved{Key: strings.Repeat("f", 64)}, RunRequest{}, "", time.Millisecond, nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2: %q", len(lines), buf.String())
	}
	var entry struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line %q: %v", lines[0], err)
	}
	if entry.Key != "abc" {
		t.Fatalf("short key logged as %q, want %q", entry.Key, "abc")
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatalf("log line %q: %v", lines[1], err)
	}
	if entry.Key != strings.Repeat("f", 12) {
		t.Fatalf("long key logged as %q, want the 12-char prefix", entry.Key)
	}
}

// TestReadOnlyEndpointMethods: /healthz, /metrics, and /workloads must
// reject non-GET methods with the same 405 JSON error shape /run uses,
// instead of silently executing the handler.
func TestReadOnlyEndpointMethods(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	for _, path := range []string{"/healthz", "/metrics", "/workloads"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, err := http.NewRequest(method, srv.URL+path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var e httpError
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
			if err != nil || e.Error == "" {
				t.Fatalf("%s %s: body is not the JSON error shape (decode err %v)", method, path, err)
			}
		}
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d after adding the method guard", path, resp.StatusCode)
		}
	}
}

// TestBatchClientDisconnectMidFeed: cancelling the request context while
// a batch is mid-flight must settle cleanly — the worker pool drains,
// every element ends with a result or an error, no goroutine leaks, and
// the service still shuts down.
func TestBatchClientDisconnectMidFeed(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, MaxQueue: 64})
	baseline := runtime.NumGoroutine()

	batch := BatchRequest{}
	for i := 0; i < 32; i++ {
		// Distinct scales force distinct keys: every element is its own
		// backing run, so one run slot drains the batch slowly enough to
		// cancel mid-feed.
		batch.Runs = append(batch.Runs, RunRequest{
			Workload: "kernel-build", Config: "F", Scale: 0.05 + 0.002*float64(i),
		})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		svc.Handler().ServeHTTP(rec, req)
		close(done)
	}()

	waitFor(t, "first backing run to start", func() bool { return svc.Metrics().RunsStarted >= 1 })
	cancel()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("batch handler did not settle after client disconnect")
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("batch response after disconnect: %v: %q", err, rec.Body.String())
	}
	if len(resp.Results) != len(batch.Runs) {
		t.Fatalf("batch response carries %d results, want %d", len(resp.Results), len(batch.Runs))
	}
	for i, e := range resp.Results {
		if e.Error == "" && len(e.Run) == 0 {
			t.Errorf("element %d has neither a result nor an error", i)
		}
	}

	shutdownCtx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := svc.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown after disconnected batch: %v", err)
	}
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}
