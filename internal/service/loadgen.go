package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// LoadGen drives a running vcached with a mixed hot/cold request stream
// and measures the serving path: throughput, outcome mix, and latency
// percentiles. It is the BENCH-tracking probe for the service layer
// (`vcached -selftest` wires it to an in-process daemon).
//
// The stream is deterministic: request i is "hot" — drawn round-robin
// from HotSpecs, so it repeats and should be served from cache or
// singleflight — when i mod 10 < 10*HotFraction; otherwise ColdSpec(i)
// supplies a unique spec that forces a backing simulation.
type LoadGen struct {
	// URL is the service base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Requests is the total request count; <= 0 means 100.
	Requests int
	// Concurrency is the number of client workers; <= 0 means 8.
	Concurrency int
	// HotFraction in [0,1] is the share of requests drawn from HotSpecs;
	// out-of-range values are clamped. Zero means an all-cold stream.
	HotFraction float64
	// HotSpecs is the repeated working set.
	HotSpecs []RunRequest
	// ColdSpec builds the unique spec for cold request i.
	ColdSpec func(i int) RunRequest
	// Client optionally overrides the HTTP client.
	Client *http.Client
}

// LoadReport is the measured outcome of one load-generator pass.
type LoadReport struct {
	Requests   int
	Errors     int
	Hits       int
	Shared     int
	Misses     int
	Elapsed    time.Duration
	Throughput float64 // requests per second
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
}

// Run fires the stream and collects the report.
func (g LoadGen) Run() (LoadReport, error) {
	n := g.Requests
	if n <= 0 {
		n = 100
	}
	workers := g.Concurrency
	if workers <= 0 {
		workers = 8
	}
	hot := g.HotFraction
	if hot < 0 {
		hot = 0
	}
	if hot > 1 {
		hot = 1
	}
	if hot > 0 && len(g.HotSpecs) == 0 {
		return LoadReport{}, fmt.Errorf("loadgen: HotFraction %.2f with no HotSpecs", hot)
	}
	if hot < 1 && g.ColdSpec == nil {
		return LoadReport{}, fmt.Errorf("loadgen: cold requests requested with no ColdSpec")
	}
	client := g.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}

	var (
		mu        sync.Mutex
		rep       LoadReport
		latencies = make([]time.Duration, 0, n)
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var req RunRequest
				if float64(i%10) < hot*10 {
					req = g.HotSpecs[i%len(g.HotSpecs)]
				} else {
					req = g.ColdSpec(i)
				}
				t0 := time.Now()
				outcome, err := g.post(client, req)
				d := time.Since(t0)
				mu.Lock()
				rep.Requests++
				latencies = append(latencies, d)
				if err != nil {
					rep.Errors++
				} else {
					switch outcome {
					case OutcomeHit:
						rep.Hits++
					case OutcomeShared:
						rep.Shared++
					case OutcomeMiss:
						rep.Misses++
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.Throughput = float64(rep.Requests) / rep.Elapsed.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = percentile(latencies, 0.50)
	rep.P95 = percentile(latencies, 0.95)
	rep.P99 = percentile(latencies, 0.99)
	return rep, nil
}

// post submits one request and returns its X-Vcache-Outcome.
func (g LoadGen) post(client *http.Client, req RunRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := client.Post(g.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Vcache-Outcome"), nil
}

// String renders the report for humans.
func (r LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d requests in %v (%.1f req/s)\n",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput)
	fmt.Fprintf(&b, "  outcomes: %d cache hits, %d singleflight-shared, %d backing runs, %d errors\n",
		r.Hits, r.Shared, r.Misses, r.Errors)
	fmt.Fprintf(&b, "  latency: p50 %v, p95 %v, p99 %v\n",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	return b.String()
}

// percentile returns the p-th percentile of ascending-sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
