package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"vcache/internal/harness"
	"vcache/internal/kernel"
	"vcache/internal/machine"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/workload"
)

// RunRequest is the wire form of one simulation request: which benchmark,
// under which consistency configuration, at what scale, with optional
// machine overrides. Zero-valued optional fields take defaults (scale
// 1.0, one CPU, the HP 720 memory size and timing profile).
type RunRequest struct {
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	Scale    float64 `json:"scale,omitempty"`
	CPUs     int     `json:"cpus,omitempty"`
	// Frames overrides physical memory size (4 KiB frames); 0 keeps the
	// kernel default.
	Frames int `json:"frames,omitempty"`
	// Timing overrides individual cycle costs of the machine profile
	// (the Section 5.1 what-if knobs).
	Timing *TimingOverride `json:"timing,omitempty"`
	// TimeoutMS bounds how long this request waits for its result
	// (queueing included). It is part of the request, not of the
	// simulation: two requests differing only in TimeoutMS are the same
	// cached content. 0 takes the service default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace, when positive, asks for the last Trace consistency events
	// of the backing run plus a per-kind summary in the response body.
	// Like TimeoutMS it is request metadata, not simulation content: it
	// does not enter the content-address key, and the result portion of
	// a traced response is byte-identical to the untraced one. A traced
	// request always executes a fresh backing run (the cached body holds
	// no events), capped at MaxTraceEvents.
	Trace int `json:"trace,omitempty"`
	// Record asks the backing run to record its operation stream: the
	// response's trace export is then a re-executable program — the
	// artifact /replay and `vcachesim -replay` consume. Record implies
	// tracing with a RecordTraceEvents ring (ops need room beyond the
	// MaxTraceEvents consistency-event cap) and, like Trace, is request
	// metadata: it stays out of the content-address key and the "result"
	// field is byte-identical to an unrecorded run's.
	Record bool `json:"record,omitempty"`
}

// MaxTraceEvents bounds the per-request trace ring so one request
// cannot ask the daemon to buffer an arbitrarily large event history.
const MaxTraceEvents = 4096

// RecordTraceEvents is the ring size of a recorded (record:true) run:
// large enough that no service-scale run drops an op event, since a
// dropped op would make the export unreplayable.
const RecordTraceEvents = 1 << 16

// TimingOverride adjusts individual cycle costs; nil fields keep the
// HP 720 profile's values.
type TimingOverride struct {
	LineFlushHit    *uint64 `json:"line_flush_hit,omitempty"`
	LineFlushMiss   *uint64 `json:"line_flush_miss,omitempty"`
	LinePurgeHit    *uint64 `json:"line_purge_hit,omitempty"`
	LinePurgeMiss   *uint64 `json:"line_purge_miss,omitempty"`
	ICachePagePurge *uint64 `json:"icache_page_purge,omitempty"`
}

// canonical is the fully resolved simulation content a request denotes:
// every default applied, every override folded into the effective
// machine configuration. Two requests that resolve to the same canonical
// value are the same simulation — the content-addressed cache keys on a
// hash of this struct, so `{"timing":null}` and a timing override that
// spells out the default cost hash identically.
type canonical struct {
	Workload string     `json:"workload"`
	Config   string     `json:"config"`
	Scale    float64    `json:"scale"`
	CPUs     int        `json:"cpus"`
	Frames   int        `json:"frames"`
	Timing   sim.Timing `json:"timing"`
}

// Resolved is a validated request bound to its runnable harness.Spec and
// content-address key. TraceN is carried outside the Spec (and outside
// the key) so the same Resolved content hashes identically whether or
// not events were requested.
type Resolved struct {
	Req    RunRequest
	Key    string
	Spec   harness.Spec
	TraceN int
	// Record mirrors RunRequest.Record: the backing run records its op
	// stream and the response trace is a replayable export. Carried
	// outside the Spec and key like TraceN.
	Record bool
}

// Resolve validates a request and binds it to its workload,
// configuration, effective kernel configuration, and content-address
// key. All validation errors are reported here, before any simulation
// state exists.
func Resolve(req RunRequest) (*Resolved, error) {
	if req.Workload == "" {
		return nil, fmt.Errorf("missing workload (one of: %s)", workloadNames())
	}
	w, err := workload.ByName(req.Workload)
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (one of: %s)", req.Workload, workloadNames())
	}
	if req.Config == "" {
		return nil, fmt.Errorf("missing config (one of: %s)", policy.Labels())
	}
	cfg, err := policy.ByLabel(req.Config)
	if err != nil {
		return nil, fmt.Errorf("unknown config %q (one of: %s)", req.Config, policy.Labels())
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1.0
	}
	if err := (workload.Scale{Factor: scale}).Validate(); err != nil {
		return nil, err
	}
	if err := machine.CheckSize(req.CPUs, req.Frames); err != nil {
		return nil, err
	}
	cpus := req.CPUs
	if cpus == 0 {
		cpus = 1
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	if req.Trace < 0 || req.Trace > MaxTraceEvents {
		return nil, fmt.Errorf("trace must be between 0 and %d events, got %d", MaxTraceEvents, req.Trace)
	}

	kc := kernel.DefaultConfig(cfg)
	kc.Machine.CPUs = cpus
	if req.Frames > 0 {
		kc.Machine.Frames = req.Frames
	}
	if t := req.Timing; t != nil {
		applyOverride(&kc.Machine.Timing.LineFlushHit, t.LineFlushHit)
		applyOverride(&kc.Machine.Timing.LineFlushMiss, t.LineFlushMiss)
		applyOverride(&kc.Machine.Timing.LinePurgeHit, t.LinePurgeHit)
		applyOverride(&kc.Machine.Timing.LinePurgeMiss, t.LinePurgeMiss)
		applyOverride(&kc.Machine.Timing.ICachePagePurge, t.ICachePagePurge)
	}

	key, err := contentKey(canonical{
		Workload: w.Name,
		Config:   cfg.Label,
		Scale:    scale,
		CPUs:     cpus,
		Frames:   kc.Machine.Frames,
		Timing:   kc.Machine.Timing,
	})
	if err != nil {
		return nil, err
	}
	traceN := req.Trace
	if req.Record && traceN < RecordTraceEvents {
		traceN = RecordTraceEvents
	}
	return &Resolved{
		Req:    req,
		Key:    key,
		TraceN: traceN,
		Record: req.Record,
		Spec: harness.Spec{
			Workload: w,
			Config:   cfg,
			Scale:    workload.Scale{Name: "service", Factor: scale},
			Kernel:   &kc,
		},
	}, nil
}

func applyOverride(dst *uint64, v *uint64) {
	if v != nil {
		*dst = *v
	}
}

// contentKey hashes the canonical simulation content. JSON of a struct
// is deterministic (fixed field order), so the hash is stable across
// processes and restarts.
func contentKey(c canonical) (string, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("canonicalize request: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func workloadNames() string {
	var names []string
	for _, w := range workload.Benchmarks() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
