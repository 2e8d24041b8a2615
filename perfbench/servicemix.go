package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vcache/internal/service"
)

// The service-mix load: a closed loop of svcClients clients, each
// sending its next /run request only after the previous one completed.
// No request waits for another, so both clients are always busy. The
// seeded stream mixes four request classes:
//
//   - fresh: a never-seen stress-<n> run (result-cache miss, cold boot);
//   - repeat: an exact repeat of a completed fresh request (result-cache
//     hit);
//   - attach: an exact repeat of the fresh request the other client has
//     in flight (singleflight attach);
//   - traced: a repeat of a recent completed fresh request with trace
//     events requested, which bypasses the result cache and warm-boots
//     from the snapshot pool.
//
// An attach drawn while no fresh request is in flight is sent as a
// repeat, and a repeat or traced request drawn before any fresh request
// completed is sent as a fresh one. Hits and attaches finish early, the
// simulated classes late; with about 28% hits and 6-8% attaches, p50
// falls at about the 30th and p90 at about the 85th percentile of the
// simulated requests, away from the class boundaries.
const (
	svcClients   = 2
	svcFreshPct  = 35
	svcRepeatPct = 20
	svcAttachPct = 15 // the rest are traced repeats
	svcPool      = 8  // snapshot pool entries
	// A traced repeat names one of the svcRecent most recently completed
	// fresh requests, which the pool (LRU, svcPool entries) still holds.
	svcRecent     = 4
	svcTraceN     = 64
	svcScale      = 0.2 // stress steps = 1500 × svcScale
	svcTracedReqs = 160 // requests per block of the traced run
	svcProbeReqs  = 60  // requests of the service probe in other traced runs
	svcStarts     = 15  // server starts sampled for setup_s
	svcForks      = 3   // restore samples before each server start
	// svcStreamPCG is the second PCG word of every stream's class RNG, so
	// that two streams of one seed draw the same classes.
	svcStreamPCG = 0x5eed
)

const (
	classFresh = iota
	classRepeat
	classAttach
	classTraced
)

var classNames = []string{"fresh", "repeat", "attach", "traced"}

// svcReq is one request of the stream; ref is the index of the fresh
// request it repeats (its own index when fresh).
type svcReq struct {
	idx   int
	class int
	ref   int
	body  []byte
}

// original is a fresh request as its repeats see it: done is closed when
// it completed, after digest holds its result digest ("" if it failed).
type original struct {
	done   chan struct{}
	digest string
}

// svcStream generates the seeded request sequence. The class draws
// depend on the seed alone; base makes the stress names of one stream
// distinct from every other stream's.
type svcStream struct {
	mu        sync.Mutex
	rng       *rand.Rand
	base      uint64
	n         int
	completed []int          // fresh requests that completed, in completion order
	flying    map[int]svcReq // requests sent and not yet completed, by index
	orig      map[int]*original
}

func newStream(seed, base uint64) *svcStream {
	return &svcStream{rng: rand.New(rand.NewPCG(seed, svcStreamPCG)), base: base,
		flying: map[int]svcReq{}, orig: map[int]*original{}}
}

func (s *svcStream) next() svcReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.n
	s.n++
	// Every request takes the same two draws, whatever its class ends up
	// as, so the draws of two streams of one seed stay aligned.
	u, pick := s.rng.IntN(100), s.rng.IntN(1<<30)
	r := svcReq{idx: i, class: classFresh, ref: i}
	switch {
	case u < svcFreshPct:
	case u < svcFreshPct+svcRepeatPct+svcAttachPct:
		if f := s.freshInFlight(); u >= svcFreshPct+svcRepeatPct && f >= 0 {
			r.class, r.ref = classAttach, f
		} else if n := len(s.completed); n > 0 {
			r.class, r.ref = classRepeat, s.completed[pick%n]
		}
	default:
		if c := s.traceable(); len(c) > 0 {
			r.class, r.ref = classTraced, c[pick%len(c)]
		}
	}
	req := service.RunRequest{Workload: fmt.Sprintf("stress-%d", s.base+uint64(r.ref)), Config: "F", Scale: svcScale}
	if r.class == classTraced {
		req.Trace = svcTraceN
	}
	if r.class == classFresh {
		s.orig[i] = &original{done: make(chan struct{})}
	}
	s.flying[i] = r
	r.body, _ = json.Marshal(req)
	return r
}

// freshInFlight returns the latest fresh request in flight, or -1.
func (s *svcStream) freshInFlight() int {
	f := -1
	for i, q := range s.flying {
		if q.class == classFresh && i > f {
			f = i
		}
	}
	return f
}

// traceable returns the svcRecent most recently completed fresh requests
// that have no traced repeat in flight, with which a new one would share
// a flight.
func (s *svcStream) traceable() []int {
	var c []int
	for _, f := range s.completed[max(0, len(s.completed)-svcRecent):] {
		busy := false
		for _, q := range s.flying {
			busy = busy || (q.class == classTraced && q.ref == f)
		}
		if !busy {
			c = append(c, f)
		}
	}
	return c
}

// finish marks r completed; a fresh request's result digest d (ok when it
// succeeded) becomes the one its repeats must return.
func (s *svcStream) finish(r svcReq, d string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.flying, r.idx)
	if r.class != classFresh {
		return
	}
	o := s.orig[r.idx]
	if ok {
		o.digest = d
		s.completed = append(s.completed, r.idx)
	}
	close(o.done)
}

// want returns the result digest r must return: its original's. An
// attach waits here for its original to complete.
func (s *svcStream) want(r svcReq) string {
	s.mu.Lock()
	o := s.orig[r.ref]
	s.mu.Unlock()
	<-o.done
	return o.digest
}

// phases is the server's X-Vcache-Phases breakdown, in ms.
type phases map[string]float64

func parsePhases(h string) (phases, error) {
	p := phases{}
	for _, f := range strings.Fields(h) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad phase %q", f)
		}
		x, err := strconv.ParseFloat(strings.TrimSuffix(v, "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad phase %q: %w", f, err)
		}
		p[k] = x
	}
	return p, nil
}

// svcSample is one completed request.
type svcSample struct {
	class   int
	outcome string // X-Vcache-Outcome: hit, miss or shared
	sent    time.Time
	rtt     time.Duration
	ph      phases // set only when the request ran the simulation itself
	cycles  uint64
}

// server is an in-process vcached on a loopback listener.
type server struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan error
}

// startServer builds the service, serves its Handler on loopback and
// sends it the canary request: the service-mix set-up, from service.New
// to the first result. It returns that time and the digest of the
// result.
func startServer(tr *tracer) (*server, time.Duration, string, error) {
	t0 := time.Now()
	svc := service.New(service.Config{MaxConcurrent: svcClients, SnapshotPool: svcPool})
	t1 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, "", fmt.Errorf("listen: %w", err)
	}
	s := &server{svc: svc, srv: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	body, _ := json.Marshal(canaryReq)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var b []byte
	resp, err := client.Post(s.url+"/run", "application/json", bytes.NewReader(body))
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t2 := time.Now()
	var rb struct {
		Result json.RawMessage `json:"result"`
	}
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("canary request: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	default:
		if err = json.Unmarshal(b, &rb); err != nil {
			err = fmt.Errorf("canary request: decode: %w", err)
		}
	}
	if err != nil {
		_ = s.stop()
		return nil, 0, "", err
	}
	root := tr.record("start", 0, t0, t2)
	tr.record("boot", root, t0, t1)
	tr.record("setup", root, t1, t2)
	return s, t2.Sub(t0), digest(rb.Result), nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if e := s.svc.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.done; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	return err
}

// send performs one /run request and checks its result's identity: a
// fresh result is recorded, a repeat's must equal it.
func (s *server) send(c *http.Client, st *svcStream, r svcReq) (smp svcSample, err error) {
	var d string
	defer func() { st.finish(r, d, err == nil) }()
	smp = svcSample{class: r.class, sent: time.Now()}
	resp, err := c.Post(s.url+"/run", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return smp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	smp.rtt = time.Since(smp.sent)
	if err != nil {
		return smp, err
	}
	if resp.StatusCode != http.StatusOK {
		return smp, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var rb struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		return smp, fmt.Errorf("decode: %w", err)
	}
	var res struct{ Cycles uint64 }
	if err := json.Unmarshal(rb.Result, &res); err != nil {
		return smp, fmt.Errorf("decode result: %w", err)
	}
	smp.cycles = res.Cycles
	// An attach carries the phases of the run it shared; they belong to
	// the request that ran it.
	smp.outcome = resp.Header.Get("X-Vcache-Outcome")
	if h := resp.Header.Get("X-Vcache-Phases"); h != "" && smp.outcome == service.OutcomeMiss {
		if smp.ph, err = parsePhases(h); err != nil {
			return smp, err
		}
	}
	d = digest(rb.Result)
	if r.class == classFresh {
		return smp, nil
	}
	if want := st.want(r); d != want {
		return smp, fmt.Errorf("%s of request %d: result digest %s differs from the original's %s",
			classNames[r.class], r.ref, d, want)
	}
	return smp, nil
}

// drive runs the closed loop until the deadline (or, with limit > 0,
// for exactly limit requests) and returns the completed samples in
// completion order.
func (s *server) drive(st *svcStream, deadline time.Time, limit int, out *outcome) []svcSample {
	c := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients}}
	defer c.CloseIdleConnections()
	var mu sync.Mutex
	var samples []svcSample
	issued := 0
	var wg sync.WaitGroup
	for w := 0; w < svcClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if (limit > 0 && issued >= limit) || (limit == 0 && !time.Now().Before(deadline)) {
					mu.Unlock()
					return
				}
				issued++
				out.attempted++
				r := st.next()
				mu.Unlock()
				smp, err := s.send(c, st, r)
				mu.Lock()
				if err != nil {
					out.fail("service-mix request %d: %v", r.idx, err)
				} else {
					samples = append(samples, smp)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples
}

// canaryReq is the fixed first request of every server start. Its
// result through the service must equal the same spec run in-process,
// whose digest (with CPU 0's cache and TLB counters) is the recorded one.
var canaryReq = service.RunRequest{Workload: "stress-1", Config: "F", Scale: svcScale}

// canaryCell resolves the canary request into an in-process cell.
func canaryCell() (cell, error) {
	res, err := service.Resolve(canaryReq)
	if err != nil {
		return cell{}, err
	}
	return cell{name: "service-mix", kc: *res.Spec.Kernel, cfg: res.Spec.Config, w: res.Spec.Workload, scale: res.Spec.Scale}, nil
}

// runService measures the service-mix workload.
func runService(o options, want string) (outcome, error) {
	out := outcome{m: newMetrics()}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The canary in-process: the recorded digest, the per-layer counts
	// and the post-setup image the restore samples fork.
	c, err := canaryCell()
	if err != nil {
		return out, err
	}
	canary, res, err := c.op(nil, nil)
	out.attempted++
	if err != nil {
		return out, fmt.Errorf("canary: %w", err)
	}
	out.check("service-mix", canary.digest, want)
	resDigest := digest(res)
	img, err := c.image(nil, 0)
	if err != nil {
		return out, err
	}
	runtime.GC()
	t0 := time.Now()
	snap := img.Snapshot()
	snapMS := ms(time.Since(t0))
	tr.record("snapshot", 0, t0, time.Now())

	// sample takes n set-up samples, each starting a server until its
	// first result, and svcForks restore samples before each; it keeps
	// the last server running. They are taken half before the measured
	// requests and half after, so that they see the same host as the
	// requests.
	var starts, forks []float64
	var s *server
	sample := func(n int) error {
		for i := 0; i < n; i++ {
			if s != nil {
				if err := s.stop(); err != nil {
					return err
				}
				s = nil
			}
			for j := 0; j < svcForks; j++ {
				runtime.GC()
				forks = append(forks, forkSample(snap, tr))
			}
			srv, d, got, err := startServer(tr)
			if err != nil {
				return err
			}
			s = srv
			out.attempted++
			if got != resDigest {
				out.fail("canary: service result digest %s differs from the in-process run's %s", got, resDigest)
			}
			starts = append(starts, d.Seconds())
		}
		return nil
	}
	defer func() {
		if s == nil {
			return
		}
		if err := s.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: service-mix: stop: %v\n", err)
		}
	}()
	if err := sample(svcStarts - svcStarts/2); err != nil {
		return out, err
	}
	if o.trace {
		return traceService(s, o, tr, canary, snapMS, forks, out)
	}

	st := newStream(o.seed, o.seed<<20)
	a0 := totalAlloc()
	samples := s.drive(st, time.Now().Add(o.seconds), 0, &out)
	alloc := totalAlloc() - a0
	if err := sample(svcStarts / 2); err != nil {
		return out, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	if len(samples) == 0 {
		return out, fmt.Errorf("service-mix: no request completed")
	}
	var lats, runs, nsPerCycle []float64
	first, last := samples[0].sent, samples[0].sent.Add(samples[0].rtt)
	for _, smp := range samples {
		lats = append(lats, ms(smp.rtt))
		if smp.sent.Before(first) {
			first = smp.sent
		}
		if e := smp.sent.Add(smp.rtt); e.After(last) {
			last = e
		}
		if smp.ph != nil {
			runs = append(runs, smp.ph["run"])
			nsPerCycle = append(nsPerCycle, smp.ph["run"]*1e6/float64(smp.cycles))
		}
	}
	m, n := out.m, len(samples)
	m.set("ns_per_simcycle", median(nsPerCycle), "ns", len(nsPerCycle))
	m.set("run_ms", median(runs), "ms", len(runs))
	m.set("setup_s", median(starts), "s", len(starts))
	m.set("restore_ms", median(forks), "ms", len(forks))
	m.set("alloc_mb", float64(alloc)/1e6/float64(n), "MB", n)
	m.set("peak_rss_mb", rss, "MB", 1)
	m.set("req_per_s", float64(n)/last.Sub(first).Seconds(), "1/s", n)
	m.set("latency_ms_p50", quantile(lats, 0.5), "ms", n)
	m.set("latency_ms_p90", quantile(lats, 0.9), "ms", n)
	printMix(samples)
	return out, nil
}

// printMix records the class mix, each class's median round trip, and
// the classes of the requests around p50 and p90.
func printMix(samples []svcSample) {
	byClass := make([][]float64, len(classNames))
	for _, smp := range samples {
		byClass[smp.class] = append(byClass[smp.class], ms(smp.rtt))
	}
	for c, name := range classNames {
		fmt.Printf("service-mix class %-6s %5d requests (%.1f%%), median round trip %.3f ms\n",
			name, len(byClass[c]), 100*float64(len(byClass[c]))/float64(len(samples)), median(byClass[c]))
	}
	sorted := append([]svcSample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].rtt < sorted[j].rtt })
	for _, q := range []float64{0.5, 0.9} {
		i := int(q * float64(len(sorted)-1))
		lo, hi := max(i-2, 0), min(i+3, len(sorted))
		var around []string
		for _, smp := range sorted[lo:hi] {
			around = append(around, classNames[smp.class])
		}
		fmt.Printf("service-mix p%.0f falls among %s\n", 100*q, strings.Join(around, ","))
	}
}

// classPhases are the server phases each request class has: a cache hit
// or an attach runs no simulation of its own, and a traced repeat
// warm-boots from the pool.
var classPhases = [][]string{
	classFresh:  {"boot", "setup", "restore", "run", "collect"},
	classRepeat: nil,
	classAttach: nil,
	classTraced: {"restore", "run", "collect"},
}

// serviceBlock drives n requests of st on s and sets the service.*
// per-layer metrics from them: the service counters across the block
// and, per request class, the mean round trip, the mean of each server
// phase the class has, and the mean queue wait (round trip minus the
// whole X-Vcache-Phases total). Means, unlike medians, add up: a class's
// round trip is its phases plus its queue wait. A class with phases
// counts only its requests that ran the simulation themselves; a class
// with no request in the block reads 0.
func serviceBlock(m *metrics, s *server, st *svcStream, n int, out *outcome) []svcSample {
	before := s.svc.Metrics()
	samples := s.drive(st, time.Time{}, n, out)
	after := s.svc.Metrics()
	cacheHits, cacheMisses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	snapHits, snapMisses := after.SnapshotHits-before.SnapshotHits, after.SnapshotMisses-before.SnapshotMisses
	m.set("service.result_cache_hit_ratio", ratio(cacheHits, cacheHits+cacheMisses), "ratio", len(samples))
	m.set("service.snapshot_hit_ratio", ratio(snapHits, snapHits+snapMisses), "ratio", len(samples))
	m.set("service.singleflight_hits", float64(after.SingleflightHits-before.SingleflightHits), "count", len(samples))
	for cl, name := range classNames {
		var k int
		var rtt, wait float64
		phase := map[string]float64{}
		for _, smp := range samples {
			if smp.class != cl || (classPhases[cl] != nil && smp.ph == nil) {
				continue
			}
			k++
			rtt += ms(smp.rtt)
			wait += ms(smp.rtt)
			for _, v := range smp.ph {
				wait -= v
			}
			for _, p := range classPhases[cl] {
				phase[p] += smp.ph[p]
			}
		}
		mean := func(sum float64) float64 { return sum / float64(max(k, 1)) }
		pre := "service." + name + "."
		m.set(pre+"roundtrip_ms", mean(rtt), "ms", k)
		if classPhases[cl] == nil {
			continue
		}
		m.set(pre+"queue_wait_ms", mean(wait), "ms", k)
		for _, p := range classPhases[cl] {
			m.set(pre+"phase."+p+"_ms", mean(phase[p]), "ms", k)
		}
	}
	return samples
}

// serviceProbe measures the service layer in the traced run of a
// simulated workload: a fresh server and svcProbeReqs requests of the
// service-mix stream.
func serviceProbe(m *metrics, seed uint64, out *outcome) error {
	s, _, _, err := startServer(nil)
	if err != nil {
		return err
	}
	serviceBlock(m, s, newStream(seed, seed<<20|1<<18), svcProbeReqs, out)
	return s.stop()
}

// traceService is the traced service-mix run: the canary's exact
// per-layer counts, the layer probes, then one untraced and one traced
// block of svcTracedReqs requests with the same class draws. The
// traced block records a span per request, profiles the request loop,
// and sets the service.* metrics.
func traceService(s *server, o options, tr *tracer, canary simOp, snapMS float64, forks []float64, out outcome) (outcome, error) {
	m := out.m
	canary.layers.report(m)
	if err := runProbes(m, o.seed); err != nil {
		return out, err
	}
	plain := s.drive(newStream(o.seed, o.seed<<20), time.Time{}, svcTracedReqs, &out)
	prof, err := newProfiler(o.traceDir)
	if err != nil {
		return out, err
	}
	if err := prof.start(); err != nil {
		return out, err
	}
	traced := serviceBlock(m, s, newStream(o.seed, o.seed<<20|1<<19), svcTracedReqs, &out)
	if err := prof.stop(); err != nil {
		return out, err
	}
	c0 := time.Now()
	_ = s.svc.Metrics()
	tr.record("collect", 0, c0, time.Now())
	for _, smp := range traced {
		tr.record("run", tr.record("request."+classNames[smp.class], 0, smp.sent, smp.sent.Add(smp.rtt)), smp.sent, smp.sent.Add(smp.rtt))
	}
	runPhase := func(ss []svcSample) float64 {
		var xs []float64
		for _, smp := range ss {
			if smp.ph != nil {
				xs = append(xs, smp.ph["run"])
			}
		}
		return median(xs)
	}
	m.set("span.boot_ms", median(tr.durations("boot")), "ms", len(tr.durations("boot")))
	m.set("span.setup_ms", median(tr.durations("setup")), "ms", len(tr.durations("setup")))
	m.set("span.run_ms", median(tr.durations("run")), "ms", len(tr.durations("run")))
	m.set("span.collect_ms", median(tr.durations("collect")), "ms", len(tr.durations("collect")))
	m.set("span.snapshot_ms", snapMS, "ms", 1)
	m.set("span.fork_ms", median(forks), "ms", len(forks))
	m.set("trace.overhead_frac", runPhase(traced)/runPhase(plain)-1, "ratio", len(traced))
	if err := prof.attribute(m); err != nil {
		return out, err
	}
	return out, tr.write(o.spanPath())
}
