// Package service is the simulation-as-a-service layer: a long-lived
// daemon front-end over the experiment harness.
//
// The paper's argument for software-managed consistency rests on the
// kernel knowing, deterministically, what each operation will do to the
// cache; PR 1's harness extends that determinism to whole experiment
// runs — identical Specs produce byte-identical Results. This package
// exploits it the way a serving system exploits idempotence:
//
//   - a content-addressed result cache (resolved spec hash → rendered
//     result) makes every repeated run free;
//   - singleflight deduplication collapses N concurrent identical
//     requests into exactly one backing simulation;
//   - admission control (a run-slot semaphore plus a bounded wait queue
//     with per-request deadlines) turns overload into fast 429/503/504
//     responses instead of unbounded goroutine growth;
//   - graceful shutdown drains in-flight simulations, then cancels any
//     stragglers through the harness's cooperative context support.
//
// cmd/vcached wraps this package in an HTTP daemon; the HTTP layer
// itself lives in http.go.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vcache/internal/harness"
	"vcache/internal/memo"
	"vcache/internal/trace"
	"vcache/internal/workload"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull reports that the admission queue was at capacity (429).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining reports that the service is shutting down (503).
	ErrDraining = errors.New("service: draining, not accepting new runs")
)

// Config tunes the service.
type Config struct {
	// MaxConcurrent bounds backing simulations running at once;
	// <= 0 means runtime.GOMAXPROCS(0).
	MaxConcurrent int
	// MaxQueue bounds how many admitted runs may wait for a free run
	// slot before new work is rejected with ErrQueueFull; <= 0 means 64.
	MaxQueue int
	// CacheEntries bounds the content-addressed result cache (LRU);
	// <= 0 means 512.
	CacheEntries int
	// SnapshotPool bounds the warm-boot pool of frozen machine images
	// (entries; each is one booted, post-setup kernel keyed by config ×
	// workload × scale). <= 0 disables pooling: every backing run boots
	// cold. Unlike the result cache there is no default pin — images are
	// large, so pooling is strictly opt-in.
	SnapshotPool int
	// DefaultTimeout bounds how long a request waits for its result when
	// it does not carry its own timeout_ms; <= 0 means 60s.
	DefaultTimeout time.Duration
	// RunTimeout is the server-side cap on one backing simulation;
	// <= 0 means 5 minutes. A run that exceeds it is cancelled
	// cooperatively and reported as a run error.
	RunTimeout time.Duration
	// MaxScale rejects requests above this scale factor (a cheap guard
	// against a single request monopolizing the daemon); 0 means no cap.
	MaxScale float64
	// MaxBatch bounds how many runs one /batch request may carry; a
	// larger batch is rejected with 400 before any element is admitted.
	// <= 0 means 256.
	MaxBatch int
	// EnableReplay opens the /replay endpoint: POST a recorded trace
	// export and the daemon re-executes it through the same admission
	// control as /run. Opt-in because a replayed program is arbitrary
	// caller-supplied work, not a named benchmark a cap can reason about.
	EnableReplay bool
	// Log, when non-nil, receives one structured JSON line per request.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	// A zero or negative cache capacity is pinned to the default rather
	// than passed through: an unbounded result cache is never a valid
	// configuration, and memo.NewCache refuses one.
	if c.CacheEntries <= 0 {
		c.CacheEntries = defaultCacheEntries
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 5 * time.Minute
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	return c
}

// defaultCacheEntries is the result cache's capacity when
// Config.CacheEntries is <= 0.
const defaultCacheEntries = 512

// Service executes simulation requests on a shared harness runner behind
// a content-addressed cache, singleflight dedup, and admission control.
type Service struct {
	cfg    Config
	runner *harness.Runner
	// cache is the content-addressed result store: resolved spec hash →
	// rendered response body. Identical requests are byte-identical
	// simulations (the harness determinism guarantee), so a cached body
	// is authoritative for every future request with the same key.
	cache *memo.Cache[[]byte]
	// flight collapses concurrent requests for one key into one backing
	// run; every request attaches to its outcome.
	flight memo.Flight[flightResult]
	// snapshots is the warm-boot pool shared by every backing run (nil
	// when Config.SnapshotPool <= 0); its counters surface on /metrics.
	snapshots *harness.SnapshotPool
	m         metrics

	// sem holds one token per running backing simulation.
	sem chan struct{}
	// queued counts admitted runs waiting for a sem token (the bounded
	// queue); inflight counts runs holding a token.
	queued   atomic.Int64
	inflight atomic.Int64

	// base is the lifetime context of all backing runs; cancelling it
	// (forced shutdown) aborts them cooperatively via the kernel's
	// interrupt poll.
	base       context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex // guards draining and the wg Add-vs-Wait race
	draining bool
	wg       sync.WaitGroup // one count per backing-run executor

	logMu sync.Mutex
}

// New builds a service. The runner is shared across all requests: each
// backing simulation is submitted to it as a one-entry plan, which buys
// the harness's panic containment (a panicking workload becomes a
// structured RunError, not a dead daemon).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	pool := harness.NewSnapshotPool(cfg.SnapshotPool)
	return &Service{
		cfg:        cfg,
		runner:     &harness.Runner{Workers: 1, Snapshots: pool},
		cache:      memo.NewCache(cfg.CacheEntries, func(b []byte) int64 { return int64(len(b)) }),
		snapshots:  pool,
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		base:       base,
		cancelBase: cancel,
	}
}

// runBody is the cached, served representation of one completed run.
// Trace is attached only on responses to traced requests and is never
// cached: the cached body for a key is always the trace-free form, so
// traced and untraced requests share one content address and the
// "result" field is byte-identical between them.
type runBody struct {
	Key    string          `json:"key"`
	Result workload.Result `json:"result"`
	Trace  *trace.Export   `json:"trace,omitempty"`
}

// RunPhases is the wall-clock phase breakdown of one backing run as the
// service saw it: the harness's boot/setup/run/collect spans plus the
// service's own oracle check and response encode. It feeds the access
// log and the X-Vcache-Phases response header; it is never part of the
// (deterministic, content-addressed) response body.
type RunPhases struct {
	Harness harness.Phases
	Check   time.Duration
	Encode  time.Duration
}

// flightResult is what a backing run publishes to the requests attached
// to it; phases is nil when the call was settled without running.
type flightResult struct {
	body   []byte
	phases *RunPhases
}

// Outcome labels how a request was satisfied (the X-Vcache-Outcome
// header): from the cache, by a fresh backing run, or by attaching to a
// concurrent identical run.
const (
	OutcomeHit    = "hit"
	OutcomeMiss   = "miss"
	OutcomeShared = "shared"
)

// submit satisfies one resolved request: cache lookup, then singleflight
// attach-or-execute. The returned body is byte-identical across every
// request with the same key, and phases is the backing run's breakdown
// (nil when the request was served from the cache or the run never
// executed). ctx bounds only this caller's wait — a backing run it
// triggered keeps running (and populates the cache) even if this caller
// gives up.
//
// A traced request (Spec.TraceN > 0) skips the result cache — the cached
// body carries no events — and singleflights under a trace-qualified
// key, so concurrent identical traced requests still collapse into one
// backing run without ever attaching an untraced caller to a traced
// body or vice versa.
func (s *Service) submit(ctx context.Context, r *Resolved) (body []byte, outcome string, phases *RunPhases, err error) {
	s.m.inc(&s.m.requests)
	traced := r.Spec.TraceN > 0
	flightKey := r.Key
	if traced {
		flightKey = fmt.Sprintf("%s|trace=%d|record=%t", r.Key, r.Spec.TraceN, r.Spec.RecordOps)
	}
	if !traced {
		if b, ok := s.cache.Get(r.Key); ok {
			return b, OutcomeHit, nil, nil
		}
	}
	c, owner := s.flight.Join(flightKey)
	if !owner {
		s.m.inc(&s.m.singleflightHits)
		return s.await(ctx, c, OutcomeShared, "shared run")
	}
	// Owner path. First re-check the cache: a previous owner may have
	// completed between our cache miss and our join, and its result is
	// always cached before its flight key is released — so a hit here is
	// authoritative and no second backing run may start.
	if !traced {
		if b, ok := s.cache.Recheck(r.Key); ok {
			s.flight.Finish(flightKey, c, flightResult{body: b}, nil)
			return b, OutcomeHit, nil, nil
		}
	}
	// Launch the backing run detached from this caller's context, so
	// later arrivals (and the cache) still get the result if this
	// caller times out.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.inc(&s.m.rejectedDraining)
		s.flight.Finish(flightKey, c, flightResult{}, ErrDraining)
		return nil, OutcomeMiss, nil, ErrDraining
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.execute(r, flightKey, c)
	return s.await(ctx, c, OutcomeMiss, "run")
}

// await returns the outcome of call c, or a deadline error if ctx ends
// first; the call itself runs on regardless.
func (s *Service) await(ctx context.Context, c *memo.Call[flightResult], outcome, what string) ([]byte, string, *RunPhases, error) {
	select {
	case <-c.Done():
		return c.Val.body, outcome, c.Val.phases, c.Err
	case <-ctx.Done():
		s.m.inc(&s.m.timeouts)
		return nil, outcome, nil, fmt.Errorf("request deadline expired waiting for %s: %w", what, ctx.Err())
	}
}

// execute is the detached backing-run executor: admission, then the
// run, then publication. Exactly one executes per flight key at a time.
func (s *Service) execute(r *Resolved, flightKey string, c *memo.Call[flightResult]) {
	defer s.wg.Done()
	if err := s.admit(); err != nil {
		s.flight.Finish(flightKey, c, flightResult{}, err)
		return
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		<-s.sem
	}()
	v, err := s.run(r)
	s.flight.Finish(flightKey, c, v, err)
}

// run executes one admitted backing run: simulation, oracle check,
// encode, cache insert.
func (s *Service) run(r *Resolved) (flightResult, error) {
	s.m.inc(&s.m.runsStarted)
	runCtx, cancel := context.WithTimeout(s.base, s.cfg.RunTimeout)
	defer cancel()
	start := time.Now()
	out := s.runner.Run(runCtx, harness.Plan{r.Spec})[0]
	elapsed := time.Since(start)
	if out.Err != nil {
		// A run cancelled by the server-side RunTimeout is capacity
		// exhaustion, not a bad spec: count it apart from run_errors_total
		// and surface it as a deadline error so the HTTP layer maps it to
		// 504 instead of 500. (A run cancelled by forced shutdown carries
		// context.Canceled and stays an ordinary run error.)
		if errors.Is(out.Err, context.DeadlineExceeded) {
			s.m.inc(&s.m.runTimeouts)
			return flightResult{}, fmt.Errorf("run exceeded the server-side run timeout %v: %w", s.cfg.RunTimeout, context.DeadlineExceeded)
		}
		return s.runError(out.Err)
	}
	phases := &RunPhases{Harness: out.Phases}
	start = time.Now()
	err := out.Result.CheckClean()
	phases.Check = time.Since(start)
	if err != nil {
		return s.runError(err)
	}
	start = time.Now()
	cacheBody, err := json.Marshal(runBody{Key: r.Key, Result: out.Result})
	if err != nil {
		return s.runError(fmt.Errorf("encode result: %w", err))
	}
	body := cacheBody
	if r.Spec.TraceN > 0 {
		exp := out.Trace.Export()
		if body, err = json.Marshal(runBody{Key: r.Key, Result: out.Result, Trace: &exp}); err != nil {
			return s.runError(fmt.Errorf("encode traced result: %w", err))
		}
	}
	phases.Encode = time.Since(start)
	// The latency histograms observe completed runs only: a timed-out or
	// failed run would otherwise drag the distribution toward whatever
	// the failure mode's duration happens to be (RunTimeout, mostly) and
	// make vcached_run_latency_ms_count disagree with runs_completed.
	s.m.observeRun(r.Spec.Workload.Name, r.Spec.Config.Label, elapsed)
	// Cache before releasing the flight key: a completed key is always
	// findable in cache or flight map, never neither. The cached body is
	// always the trace-free form, so a traced run warms the cache for
	// untraced requests with byte-identical content. The run is counted
	// after the put, so a request that sees it counted hits the cache,
	// and before the finish, so a waiter that returns sees it counted.
	s.cache.Put(r.Key, cacheBody)
	s.m.inc(&s.m.runsCompleted)
	return flightResult{body, phases}, nil
}

// runError counts a failed backing run and returns its outcome.
func (s *Service) runError(err error) (flightResult, error) {
	s.m.inc(&s.m.runErrors)
	return flightResult{}, err
}

// admit acquires a run slot, waiting in the bounded queue if none is
// free. It fails fast with ErrQueueFull when the queue is at capacity
// and with ErrDraining if a forced shutdown cancels the wait.
func (s *Service) admit() error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.m.inc(&s.m.rejectedQueue)
		return ErrQueueFull
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-s.base.Done():
		s.m.inc(&s.m.rejectedDraining)
		return ErrDraining
	}
}

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the service: new runs are refused immediately (503),
// in-flight and queued backing runs finish normally. If ctx expires
// before the drain completes, remaining runs are cancelled cooperatively
// (the kernel aborts at its next operation boundary) and Shutdown
// returns ctx's error after they unwind.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelBase()
		return nil
	case <-ctx.Done():
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}

// Metrics returns a consistent-enough point-in-time snapshot of every
// counter (individual counters are exact; cross-counter sums may be
// mid-update by one during concurrent traffic).
func (s *Service) Metrics() Snapshot {
	cs := s.cache.Stats()
	s.m.mu.Lock()
	snap := Snapshot{
		Requests:         s.m.requests,
		SingleflightHits: s.m.singleflightHits,
		RunsStarted:      s.m.runsStarted,
		RunsCompleted:    s.m.runsCompleted,
		RunErrors:        s.m.runErrors,
		RunTimeouts:      s.m.runTimeouts,
		RejectedInvalid:  s.m.rejectedInvalid,
		RejectedQueue:    s.m.rejectedQueue,
		RejectedDraining: s.m.rejectedDraining,
		Timeouts:         s.m.timeouts,
	}
	s.m.mu.Unlock()
	snap.CacheHits = cs.Hits
	snap.CacheMisses = cs.Misses
	snap.CacheEntries = cs.Entries
	snap.CacheBytes = cs.Bytes
	snap.CacheEvictions = cs.Evictions
	ss := s.snapshots.Stats() // nil-safe: a disabled pool reports zeros
	snap.SnapshotHits = ss.Hits
	snap.SnapshotMisses = ss.Misses
	snap.SnapshotEvictions = ss.Evictions
	snap.SnapshotEntries = ss.Entries
	snap.SnapshotBytes = ss.Bytes
	snap.QueueDepth = s.queued.Load()
	snap.RunsInflight = s.inflight.Load()
	return snap
}
