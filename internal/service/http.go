package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"vcache/internal/harness"
	"vcache/internal/policy"
	"vcache/internal/replay"
	"vcache/internal/trace"
	"vcache/internal/workload"
)

// Handler returns the service's HTTP surface:
//
//	POST /run       one simulation request  → {"key","result"} (+ X-Vcache-Key / X-Vcache-Outcome headers)
//	POST /batch     {"runs":[...]}          → {"results":[{"outcome","run"|"error"}]}
//	POST /replay    a recorded trace export → {"key","result"} (opt-in; 404 unless Config.EnableReplay)
//	GET  /healthz   liveness + drain state
//	GET  /metrics   Prometheus-style text exposition
//	GET  /workloads available workloads and configurations
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/replay", s.handleReplay)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/workloads", s.handleWorkloads)
	return mux
}

// MetricsHandler exposes just the /metrics rendering, for mounting on a
// separate debug listener alongside net/http/pprof.
func (s *Service) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}

// httpError is the JSON error object every non-2xx response carries.
type httpError struct {
	Error string `json:"error"`
}

func writeJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(httpError{Error: fmt.Sprintf(format, args...)})
}

// statusOf maps a Submit error onto an HTTP status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests // 429
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout // 504
	default:
		return http.StatusInternalServerError
	}
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST a RunRequest to /run")
		return
	}
	start := time.Now()
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.m.inc(&s.m.rejectedInvalid)
		writeJSONError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	sv := s.serveOne(r.Context(), req)
	if sv.errMsg != "" {
		s.logRequest("/run", sv.status, sv.outcome, sv.res, req, sv.errMsg, time.Since(start), sv.phases)
		writeJSONError(w, sv.status, "%s", sv.errMsg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Vcache-Key", sv.res.Key)
	w.Header().Set("X-Vcache-Outcome", sv.outcome)
	if ph := sv.phases.header(); ph != "" {
		w.Header().Set("X-Vcache-Phases", ph)
	}
	_, _ = w.Write(sv.body)
	s.logRequest("/run", http.StatusOK, sv.outcome, sv.res, req, "", time.Since(start), sv.phases)
}

// handleReplay re-executes a recorded trace export (the body of a
// record:true /run response's "trace" field, or a vcachesim -record
// file) through the same admission control, singleflight, and cache as
// /run. The response body has the /run shape — {"key","result"} — and
// determinism makes its "result" byte-identical to the recorded run's.
// The endpoint is opt-in (Config.EnableReplay); a daemon without it
// answers 404.
func (s *Service) handleReplay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST a trace export to /replay")
		return
	}
	if !s.cfg.EnableReplay {
		writeJSONError(w, http.StatusNotFound, "replay is not enabled on this daemon (Config.EnableReplay)")
		return
	}
	start := time.Now()
	var ex trace.Export
	if err := json.NewDecoder(io.LimitReader(r.Body, maxReplayBody)).Decode(&ex); err != nil {
		s.m.inc(&s.m.rejectedInvalid)
		writeJSONError(w, http.StatusBadRequest, "decode trace export: %v", err)
		return
	}
	pr, err := replay.Parse(ex)
	if err != nil {
		s.m.inc(&s.m.rejectedInvalid)
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := pr.Spec()
	if err == nil {
		err = s.checkScale(spec)
	}
	if err != nil {
		s.m.inc(&s.m.rejectedInvalid)
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.Draining() {
		s.m.inc(&s.m.rejectedDraining)
		writeJSONError(w, http.StatusServiceUnavailable, "%s", ErrDraining.Error())
		return
	}
	// The replay runs untraced: its response is the result alone.
	spec.TraceN, spec.RecordOps = 0, false
	req := RunRequest{Workload: pr.Origin.Workload, Config: pr.Origin.Config}
	res := &Resolved{Req: req, Key: replayKey(spec, pr), Spec: spec}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	body, outcome, runPhases, err := s.submit(ctx, res)
	ph := &phaseLog{}
	ph.fill(runPhases)
	if err != nil {
		status := statusOf(err)
		s.logRequest("/replay", status, outcome, res, req, err.Error(), time.Since(start), ph)
		writeJSONError(w, status, "%s", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Vcache-Key", res.Key)
	w.Header().Set("X-Vcache-Outcome", outcome)
	if h := ph.header(); h != "" {
		w.Header().Set("X-Vcache-Phases", h)
	}
	_, _ = w.Write(body)
	s.logRequest("/replay", http.StatusOK, outcome, res, req, "", time.Since(start), ph)
}

// maxReplayBody bounds an uploaded export: a full RecordTraceEvents
// ring of op events is a few MiB of JSON; anything past this is not a
// recording this service produced.
const maxReplayBody = 64 << 20

// replayKey content-addresses a replay program: the resolved system it
// runs on (spec's SnapshotKey, which covers machine size and timing)
// plus the exact op list. Two uploads of the same recording share one
// cache entry and one backing run, like two identical /run requests;
// two recordings with equal op lists on different machines do not.
func replayKey(spec harness.Spec, pr *replay.Program) string {
	h := sha256.New()
	h.Write([]byte("replay\x00" + spec.SnapshotKey() + "\x00"))
	for _, op := range pr.Ops {
		h.Write([]byte(op.Note()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// served is the outcome of one request through the full serving path.
type served struct {
	body    []byte
	outcome string
	res     *Resolved
	status  int
	errMsg  string
	phases  *phaseLog
}

// serveOne runs the full request path for one RunRequest: drain gate,
// validation, deadline, submit. On failure the returned served carries
// the HTTP status and error message; on success, the response body and
// outcome. phases always carries at least the resolve span; a request
// that owned (or attached to) a completed backing run also gets the
// run's breakdown.
func (s *Service) serveOne(ctx context.Context, req RunRequest) served {
	if s.Draining() {
		s.m.inc(&s.m.rejectedDraining)
		return served{status: http.StatusServiceUnavailable, errMsg: ErrDraining.Error()}
	}
	resolveStart := time.Now()
	res, err := Resolve(req)
	ph := &phaseLog{ResolveMS: ms(time.Since(resolveStart))}
	if err != nil {
		s.m.inc(&s.m.rejectedInvalid)
		return served{status: http.StatusBadRequest, errMsg: err.Error(), phases: ph}
	}
	if err := s.checkScale(res.Spec); err != nil {
		s.m.inc(&s.m.rejectedInvalid)
		return served{res: res, status: http.StatusBadRequest, phases: ph, errMsg: err.Error()}
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	body, outcome, runPhases, err := s.submit(ctx, res)
	ph.fill(runPhases)
	if err != nil {
		return served{outcome: outcome, res: res, status: statusOf(err), errMsg: err.Error(), phases: ph}
	}
	return served{body: body, outcome: outcome, res: res, status: http.StatusOK, phases: ph}
}

// checkScale applies the service's scale cap (Config.MaxScale) to a
// resolved spec, the same gate for /run, /batch and /replay.
func (s *Service) checkScale(spec harness.Spec) error {
	if s.cfg.MaxScale > 0 && spec.Scale.Factor > s.cfg.MaxScale {
		return fmt.Errorf("scale %g exceeds the service cap %g", spec.Scale.Factor, s.cfg.MaxScale)
	}
	return nil
}

// BatchRequest submits a whole plan of runs in one call.
type BatchRequest struct {
	Runs []RunRequest `json:"runs"`
}

// BatchElem is one per-run outcome of a batch response; exactly one of
// Run (the /run response body) and Error is set.
type BatchElem struct {
	Outcome string          `json:"outcome,omitempty"`
	Run     json.RawMessage `json:"run,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// BatchResponse mirrors the request order.
type BatchResponse struct {
	Results []BatchElem `json:"results"`
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST a BatchRequest to /batch")
		return
	}
	start := time.Now()
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.m.inc(&s.m.rejectedInvalid)
		writeJSONError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(req.Runs) == 0 {
		s.m.inc(&s.m.rejectedInvalid)
		writeJSONError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// Reject oversized batches before any element is admitted: the fan-
	// out below is bounded by a worker pool, but an unbounded element
	// count would still buffer an unbounded response in memory.
	if len(req.Runs) > s.cfg.MaxBatch {
		s.m.inc(&s.m.rejectedInvalid)
		writeJSONError(w, http.StatusBadRequest, "batch of %d runs exceeds the %d-run cap", len(req.Runs), s.cfg.MaxBatch)
		return
	}
	// Elements fan out through the same cache/singleflight/admission
	// path as /run, but through a small worker pool rather than one
	// goroutine per element: a maximal batch costs a handful of
	// goroutines, not MaxBatch of them, and admission control sees a
	// bounded arrival rate. The pool is sized past the run slots so a
	// batch can still keep every slot busy (and the queue fed).
	resp := BatchResponse{Results: make([]BatchElem, len(req.Runs))}
	workers := 2 * s.cfg.MaxConcurrent
	if workers > len(req.Runs) {
		workers = len(req.Runs)
	}
	idx := make(chan int)
	var done sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for i := range idx {
				sv := s.serveOne(r.Context(), req.Runs[i])
				if sv.errMsg != "" {
					resp.Results[i] = BatchElem{Outcome: sv.outcome, Error: sv.errMsg}
					continue
				}
				resp.Results[i] = BatchElem{Outcome: sv.outcome, Run: sv.body}
			}
		}()
	}
	for i := range req.Runs {
		idx <- i
	}
	close(idx)
	done.Wait()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
	// The batch log line aggregates per-element outcomes: the HTTP
	// status is 200 whenever the batch itself decoded, so without the
	// ok/err split a fully-failed batch would be indistinguishable from
	// a clean one in the access log.
	ok, errs := 0, 0
	for _, e := range resp.Results {
		if e.Error != "" {
			errs++
		} else {
			ok++
		}
	}
	s.logBatch(len(req.Runs), ok, errs, time.Since(start))
}

// requireGET guards a read-only endpoint: anything but GET is rejected
// with the same 405 JSON error shape /run uses for non-POST methods.
// Before this guard, a POST to /healthz or /metrics would fall through
// and execute the handler.
func requireGET(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	writeJSONError(w, http.StatusMethodNotAllowed, "%s is read-only: GET it (got %s)", r.URL.Path, r.Method)
	return false
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"inflight": s.inflight.Load(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	var b strings.Builder
	s.m.render(&b, s.Metrics())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = fmt.Fprint(w, b.String())
}

func (s *Service) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	type cfgInfo struct {
		Label string `json:"label"`
		Name  string `json:"name"`
	}
	var ws []string
	for _, wl := range workload.Benchmarks() {
		ws = append(ws, wl.Name)
	}
	var cfgs []cfgInfo
	for _, c := range append(policy.Configs(), policy.Table5Systems()...) {
		cfgs = append(cfgs, cfgInfo{Label: c.Label, Name: c.Name})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"workloads": ws, "configs": cfgs})
}

// ms converts a duration to float milliseconds for the log.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseLog is the wall-clock phase breakdown attached to an access-log
// line: where one request's real time went. ResolveMS is per request;
// the remaining spans describe the backing run and are present only
// when this request owned or attached to one (a cache hit has no run to
// time).
type phaseLog struct {
	ResolveMS float64 `json:"resolve_ms"`
	BootMS    float64 `json:"boot_ms,omitempty"`
	SetupMS   float64 `json:"setup_ms,omitempty"`
	RestoreMS float64 `json:"restore_ms,omitempty"`
	RunMS     float64 `json:"run_ms,omitempty"`
	CollectMS float64 `json:"collect_ms,omitempty"`
	CheckMS   float64 `json:"check_ms,omitempty"`
	EncodeMS  float64 `json:"encode_ms,omitempty"`
	hasRun    bool
}

// fill copies a backing run's phase breakdown into the log entry.
func (p *phaseLog) fill(rp *RunPhases) {
	if p == nil || rp == nil {
		return
	}
	p.BootMS = ms(rp.Harness.Boot)
	p.SetupMS = ms(rp.Harness.Setup)
	p.RestoreMS = ms(rp.Harness.Restore)
	p.RunMS = ms(rp.Harness.Run)
	p.CollectMS = ms(rp.Harness.Collect)
	p.CheckMS = ms(rp.Check)
	p.EncodeMS = ms(rp.Encode)
	p.hasRun = true
}

// header renders the breakdown for the X-Vcache-Phases response header;
// empty when the request was served without a backing run.
func (p *phaseLog) header() string {
	if p == nil || !p.hasRun {
		return ""
	}
	return fmt.Sprintf("resolve=%.3fms boot=%.3fms setup=%.3fms restore=%.3fms run=%.3fms collect=%.3fms check=%.3fms encode=%.3fms",
		p.ResolveMS, p.BootMS, p.SetupMS, p.RestoreMS, p.RunMS, p.CollectMS, p.CheckMS, p.EncodeMS)
}

// accessLog is one structured request-log line.
type accessLog struct {
	Time     string    `json:"time"`
	Path     string    `json:"path"`
	Status   int       `json:"status"`
	Outcome  string    `json:"outcome,omitempty"`
	Key      string    `json:"key,omitempty"`
	Workload string    `json:"workload,omitempty"`
	Config   string    `json:"config,omitempty"`
	Scale    float64   `json:"scale,omitempty"`
	Runs     int       `json:"runs,omitempty"`
	DurMS    float64   `json:"dur_ms"`
	Error    string    `json:"error,omitempty"`
	Phases   *phaseLog `json:"phases,omitempty"`
}

func (s *Service) logRequest(path string, status int, outcome string, res *Resolved, req RunRequest, errMsg string, dur time.Duration, phases *phaseLog) {
	if s.cfg.Log == nil {
		return
	}
	entry := accessLog{
		Time:     time.Now().UTC().Format(time.RFC3339Nano),
		Path:     path,
		Status:   status,
		Outcome:  outcome,
		Workload: req.Workload,
		Config:   req.Config,
		Scale:    req.Scale,
		DurMS:    ms(dur),
		Error:    errMsg,
		Phases:   phases,
	}
	if res != nil {
		// A resolved key is normally 64 hex digits, but never assume it:
		// slicing a shorter key (a Resolved built on a rejection path, or
		// by a future caller) would panic the daemon from its own access
		// log. Truncate only what is there.
		entry.Key = res.Key
		if len(entry.Key) > 12 {
			entry.Key = entry.Key[:12]
		}
	}
	s.writeLog(entry)
}

// logBatch writes the aggregate line for one /batch request: element
// count plus the ok/err outcome split.
func (s *Service) logBatch(runs, ok, errs int, dur time.Duration) {
	if s.cfg.Log == nil {
		return
	}
	s.writeLog(accessLog{
		Time:    time.Now().UTC().Format(time.RFC3339Nano),
		Path:    "/batch",
		Status:  http.StatusOK,
		Outcome: fmt.Sprintf("ok=%d err=%d", ok, errs),
		Runs:    runs,
		DurMS:   ms(dur),
	})
}

func (s *Service) writeLog(entry accessLog) {
	line, err := json.Marshal(entry)
	if err != nil {
		return
	}
	s.logMu.Lock()
	_, _ = s.cfg.Log.Write(append(line, '\n'))
	s.logMu.Unlock()
}
