package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// latencyBucketsMS are the upper bounds (milliseconds) of the run-latency
// histograms; a final +Inf bucket catches the rest.
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// hist is one latency histogram: cumulative rendering happens at export
// time, the counts here are per-bucket. counts has
// len(latencyBucketsMS)+1 entries (the last is +Inf); it is sized from
// the bucket table on first observation so the two can never drift
// apart.
type hist struct {
	counts []uint64
	sumMS  float64
	n      uint64
}

func (h *hist) observe(ms float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(latencyBucketsMS)+1)
	}
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.counts[i]++
	h.sumMS += ms
	h.n++
}

// specKey labels one workload×config histogram series.
type specKey struct {
	workload, config string
}

// metrics is the service's counter set. Counters are monotonic; gauges
// (queue depth, in-flight runs) are sampled from the live admission
// state at render time.
type metrics struct {
	mu sync.Mutex

	requests         uint64 // simulation requests accepted for processing
	singleflightHits uint64 // requests served by attaching to an in-flight run
	runsStarted      uint64 // backing simulations launched
	runsCompleted    uint64 // backing simulations that produced a result
	runErrors        uint64 // backing simulations that failed
	runTimeouts      uint64 // backing simulations cancelled by the server-side RunTimeout
	rejectedInvalid  uint64 // 400s: malformed or unresolvable requests
	rejectedQueue    uint64 // 429s: admission queue full
	rejectedDraining uint64 // 503s: refused because the service is draining
	timeouts         uint64 // 504s: request deadline expired while waiting

	// latency is the aggregate run-latency histogram; bySpec carries one
	// histogram per workload×config label pair, so a slow configuration
	// cannot hide inside the aggregate distribution.
	latency hist
	bySpec  map[specKey]*hist
}

func (m *metrics) inc(field *uint64) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

// observeRun records one backing-simulation latency under its
// workload×config labels.
func (m *metrics) observeRun(workload, config string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latency.observe(ms)
	if m.bySpec == nil {
		m.bySpec = make(map[specKey]*hist)
	}
	k := specKey{workload: workload, config: config}
	h := m.bySpec[k]
	if h == nil {
		h = &hist{}
		m.bySpec[k] = h
	}
	h.observe(ms)
}

// Snapshot is a point-in-time view of every service counter, for tests
// and for the /metrics rendering.
type Snapshot struct {
	Requests          uint64
	CacheHits         uint64
	CacheMisses       uint64
	CacheEntries      int
	CacheBytes        int64
	CacheEvictions    uint64
	SnapshotHits      uint64
	SnapshotMisses    uint64
	SnapshotEvictions uint64
	SnapshotEntries   int
	SnapshotBytes     int64
	SingleflightHits  uint64
	RunsStarted       uint64
	RunsCompleted     uint64
	RunErrors         uint64
	RunTimeouts       uint64
	RejectedInvalid   uint64
	RejectedQueue     uint64
	RejectedDraining  uint64
	Timeouts          uint64
	QueueDepth        int64
	RunsInflight      int64
}

// renderHist emits one Prometheus-style histogram. labels is the
// rendered label prefix ("" for the aggregate series, `workload="x",config="y",`
// for a labeled one); the le label is always appended last.
func renderHist(b *strings.Builder, name, labels string, h hist) {
	counts := h.counts
	if counts == nil {
		counts = make([]uint64, len(latencyBucketsMS)+1)
	}
	cum := uint64(0)
	for i, le := range latencyBucketsMS {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket{%sle=\"%g\"} %d\n", name, labels, le, cum)
	}
	cum += counts[len(latencyBucketsMS)]
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %.3f\n", name, h.sumMS)
		fmt.Fprintf(b, "%s_count %d\n", name, h.n)
	} else {
		trimmed := strings.TrimSuffix(labels, ",")
		fmt.Fprintf(b, "%s_sum{%s} %.3f\n", name, trimmed, h.sumMS)
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, trimmed, h.n)
	}
}

// render emits the Prometheus-style text exposition of the snapshot plus
// the latency histograms (aggregate and per-workload×config).
func (m *metrics) render(b *strings.Builder, s Snapshot) {
	counter := func(name string, v uint64) {
		fmt.Fprintf(b, "vcached_%s %d\n", name, v)
	}
	counter("requests_total", s.Requests)
	counter("cache_hits_total", s.CacheHits)
	counter("cache_misses_total", s.CacheMisses)
	counter("cache_evictions_total", s.CacheEvictions)
	fmt.Fprintf(b, "vcached_cache_entries %d\n", s.CacheEntries)
	fmt.Fprintf(b, "vcached_cache_bytes %d\n", s.CacheBytes)
	counter("snapshot_hits_total", s.SnapshotHits)
	counter("snapshot_misses_total", s.SnapshotMisses)
	counter("snapshot_evictions_total", s.SnapshotEvictions)
	fmt.Fprintf(b, "vcached_snapshot_pool_entries %d\n", s.SnapshotEntries)
	fmt.Fprintf(b, "vcached_snapshot_pool_bytes %d\n", s.SnapshotBytes)
	counter("singleflight_hits_total", s.SingleflightHits)
	counter("runs_started_total", s.RunsStarted)
	counter("runs_completed_total", s.RunsCompleted)
	counter("run_errors_total", s.RunErrors)
	counter("run_timeouts_total", s.RunTimeouts)
	counter("rejected_invalid_total", s.RejectedInvalid)
	counter("rejected_queue_full_total", s.RejectedQueue)
	counter("rejected_draining_total", s.RejectedDraining)
	counter("request_timeouts_total", s.Timeouts)
	fmt.Fprintf(b, "vcached_queue_depth %d\n", s.QueueDepth)
	fmt.Fprintf(b, "vcached_runs_inflight %d\n", s.RunsInflight)

	m.mu.Lock()
	agg := hist{counts: append([]uint64(nil), m.latency.counts...), sumMS: m.latency.sumMS, n: m.latency.n}
	keys := make([]specKey, 0, len(m.bySpec))
	for k := range m.bySpec {
		keys = append(keys, k)
	}
	labeled := make(map[specKey]hist, len(keys))
	for k, h := range m.bySpec {
		labeled[k] = hist{counts: append([]uint64(nil), h.counts...), sumMS: h.sumMS, n: h.n}
	}
	m.mu.Unlock()

	renderHist(b, "vcached_run_latency_ms", "", agg)
	// Labeled series render in sorted order so the exposition is
	// deterministic (and diffable) across scrapes.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].config < keys[j].config
	})
	for _, k := range keys {
		labels := fmt.Sprintf("workload=%q,config=%q,", k.workload, k.config)
		renderHist(b, "vcached_spec_run_latency_ms", labels, labeled[k])
	}
}
