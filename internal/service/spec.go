package service

import (
	"fmt"
	"strings"

	"vcache/internal/harness"
	"vcache/internal/policy"
	"vcache/internal/sim"
	"vcache/internal/trace"
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
	Timing *sim.TimingOverride `json:"timing,omitempty"`
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

// Resolved is a validated request bound to its runnable harness.Spec and
// content-address key. The spec's TraceN and RecordOps carry the
// request's trace and record fields; the key (Spec.SnapshotKey) leaves
// them out, so the same content hashes identically whether or not
// events were requested.
type Resolved struct {
	Req  RunRequest
	Key  string
	Spec harness.Spec
}

// Resolve validates a request and binds it to its workload,
// configuration, effective kernel configuration, and content-address
// key. All validation errors are reported here, before any simulation
// state exists. The request becomes a trace.Origin and goes through
// harness.Resolve like every other run description; the key is the
// resolved spec's SnapshotKey, so two requests that resolve to the same
// system — `{"timing":null}` and a timing override spelling out the
// default cost, say — share one cache entry.
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
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	if req.Trace < 0 || req.Trace > MaxTraceEvents {
		return nil, fmt.Errorf("trace must be between 0 and %d events, got %d", MaxTraceEvents, req.Trace)
	}
	scale, cpus := req.Scale, req.CPUs
	if scale == 0 {
		scale = 1.0
	}
	if cpus == 0 {
		cpus = 1
	}
	spec, err := harness.Resolve(trace.Origin{
		Workload: w.Name,
		Config:   req.Config,
		Scale:    "service",
		Factor:   scale,
		CPUs:     cpus,
		Frames:   req.Frames,
		Timing:   req.Timing,
	}, w)
	if err != nil {
		return nil, err
	}
	spec.TraceN, spec.RecordOps = req.Trace, req.Record
	if req.Record && spec.TraceN < RecordTraceEvents {
		spec.TraceN = RecordTraceEvents
	}
	return &Resolved{Req: req, Key: spec.SnapshotKey(), Spec: spec}, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workload.Benchmarks() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
