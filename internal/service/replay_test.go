package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vcache/internal/trace"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, v any) (int, string, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Vcache-Outcome"), b
}

// TestRecordReplayRoundTrip is the serving half of the replay closure:
// a record:true /run yields a re-executable export, POSTing that export
// to /replay re-runs it through admission control, and the two
// responses' "result" fields are byte-identical.
func TestRecordReplayRoundTrip(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2, EnableReplay: true})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	req := RunRequest{Workload: "afs-bench", Config: "B", Scale: 0.1, Record: true}
	status, outcome, recorded := postRun(t, srv, req)
	if status != http.StatusOK {
		t.Fatalf("recorded run: status %d: %s", status, recorded)
	}
	if outcome == OutcomeHit {
		t.Fatalf("recorded request served from the trace-free cache")
	}
	var rb tracedBody
	if err := json.Unmarshal(recorded, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Trace == nil || rb.Trace.Origin == nil {
		t.Fatal("recorded response carries no replayable trace")
	}
	if rb.Trace.Dropped != 0 {
		t.Fatalf("recorded run dropped %d events; the export is not replayable", rb.Trace.Dropped)
	}

	status, outcome, replayed := postJSON(t, srv, "/replay", rb.Trace)
	if status != http.StatusOK {
		t.Fatalf("/replay: status %d: %s", status, replayed)
	}
	if outcome != OutcomeMiss {
		t.Fatalf("first /replay outcome %q, want %q", outcome, OutcomeMiss)
	}
	var pb tracedBody
	if err := json.Unmarshal(replayed, &pb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb.Result, pb.Result) {
		t.Fatalf("replayed result differs from the recorded run's:\n%s\nvs\n%s", rb.Result, pb.Result)
	}

	// A second upload of the same recording is a pure cache hit: replay
	// bodies are content-addressed on the op list.
	status, outcome, again := postJSON(t, srv, "/replay", rb.Trace)
	if status != http.StatusOK || outcome != OutcomeHit {
		t.Fatalf("repeat /replay: status %d outcome %q", status, outcome)
	}
	if !bytes.Equal(again, replayed) {
		t.Fatal("cached replay body differs")
	}
}

// recordRun POSTs a record:true request and returns the recorded
// result and the replayable export.
func recordRun(t *testing.T, srv *httptest.Server, req RunRequest) tracedBody {
	t.Helper()
	req.Record = true
	status, _, body := postRun(t, srv, req)
	if status != http.StatusOK {
		t.Fatalf("recorded run %+v: status %d: %s", req, status, body)
	}
	var rb tracedBody
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Trace == nil || rb.Trace.Origin == nil {
		t.Fatalf("recorded run %+v carries no replayable trace", req)
	}
	return rb
}

// TestReplayKeyedOnResolvedSystem: two recordings with the same op list
// on different machines are different replays. afs-bench runs the same
// operations on 1 and on 2 CPUs (the service arms no scheduler), but
// the second CPU changes the result, so each /replay must answer with
// its own recording's result — never the other's cached body.
func TestReplayKeyedOnResolvedSystem(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2, EnableReplay: true})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	var recorded []tracedBody
	for _, cpus := range []int{1, 2} {
		recorded = append(recorded, recordRun(t, srv, RunRequest{Workload: "afs-bench", Config: "F", Scale: 0.1, CPUs: cpus}))
	}
	if bytes.Equal(recorded[0].Result, recorded[1].Result) {
		t.Fatal("1- and 2-CPU recordings have the same result; the test cannot tell replays apart")
	}
	for i, rb := range recorded {
		status, _, body := postJSON(t, srv, "/replay", rb.Trace)
		if status != http.StatusOK {
			t.Fatalf("/replay %d CPU(s): status %d: %s", i+1, status, body)
		}
		var pb tracedBody
		if err := json.Unmarshal(body, &pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb.Result, rb.Result) {
			t.Errorf("/replay of the %d-CPU recording returned another result:\n%s\nwant\n%s", i+1, pb.Result, rb.Result)
		}
	}
}

// TestReplayScaleCap: /replay takes the same Config.MaxScale gate as
// /run, so an export recorded elsewhere cannot run a scale this daemon
// refuses.
func TestReplayScaleCap(t *testing.T) {
	open := New(Config{MaxConcurrent: 1})
	openSrv := httptest.NewServer(open.Handler())
	defer openSrv.Close()
	defer open.Shutdown(context.Background())
	rb := recordRun(t, openSrv, RunRequest{Workload: "afs-bench", Config: "F", Scale: 0.1})

	capped := New(Config{MaxConcurrent: 1, MaxScale: 0.05, EnableReplay: true})
	srv := httptest.NewServer(capped.Handler())
	defer srv.Close()
	defer capped.Shutdown(context.Background())
	status, _, body := postJSON(t, srv, "/replay", rb.Trace)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the service cap") {
		t.Fatalf("/replay past MaxScale: status %d, want 400 naming the cap: %s", status, body)
	}
	if snap := capped.Metrics(); snap.RunsStarted != 0 {
		t.Fatalf("rejected replay started %d runs", snap.RunsStarted)
	}
}

// TestReplayOptIn pins the endpoint's gating: a daemon without
// Config.EnableReplay answers 404 with the standard JSON error shape
// and never parses the upload.
func TestReplayOptIn(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	status, _, body := postJSON(t, srv, "/replay", trace.Export{})
	if status != http.StatusNotFound {
		t.Fatalf("disabled /replay: status %d, want 404: %s", status, body)
	}
	var e httpError
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("disabled /replay error is not the JSON error shape: %s", body)
	}
}

// TestReplayRejectsMalformedExports: garbage and structurally invalid
// exports are 400s before any simulation state exists.
func TestReplayRejectsMalformedExports(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, EnableReplay: true})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	resp, err := http.Post(srv.URL+"/replay", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: status %d, want 400", resp.StatusCode)
	}

	// Well-formed JSON, but no origin and no op events: replay.Parse
	// must reject it.
	status, _, body := postJSON(t, srv, "/replay", trace.Export{Retained: 1})
	if status != http.StatusBadRequest {
		t.Fatalf("originless export: status %d, want 400: %s", status, body)
	}

	// A parseable program whose origin machine is past the size limits:
	// Spec must reject it.
	oversized := trace.Export{
		Origin:   &trace.Origin{Workload: "x", Config: "F", CPUs: 65},
		Retained: 1,
		Events:   []trace.Event{{Kind: trace.EvOp, Note: "sync"}},
	}
	status, _, body = postJSON(t, srv, "/replay", oversized)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "cpus") {
		t.Fatalf("oversized origin: status %d, want 400 naming cpus: %s", status, body)
	}
	if snap := svc.Metrics(); snap.RunsStarted != 0 {
		t.Fatalf("invalid exports started %d runs", snap.RunsStarted)
	}
}

// TestNegativeTraceRejected pins the trace-field validation on both
// submission endpoints: a negative trace is a JSON 400 on /run and a
// per-element error on /batch, with no backing run started either way.
func TestNegativeTraceRejected(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Shutdown(context.Background())

	bad := RunRequest{Workload: "afs-bench", Config: "F", Trace: -1}
	status, _, body := postRun(t, srv, bad)
	if status != http.StatusBadRequest {
		t.Fatalf("/run trace=-1: status %d, want 400: %s", status, body)
	}
	var e httpError
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "trace") {
		t.Fatalf("/run trace=-1 error is not a JSON error naming the field: %s", body)
	}

	status, _, body = postJSON(t, srv, "/batch", BatchRequest{Runs: []RunRequest{bad}})
	if status != http.StatusOK {
		t.Fatalf("/batch: status %d: %s", status, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || !strings.Contains(br.Results[0].Error, "trace") {
		t.Fatalf("/batch element did not report the trace validation error: %s", body)
	}
	if snap := svc.Metrics(); snap.RunsStarted != 0 || snap.RejectedInvalid != 2 {
		t.Fatalf("want 0 runs and 2 invalid rejections, got %d / %d",
			snap.RunsStarted, snap.RejectedInvalid)
	}
}
