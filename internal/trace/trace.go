// Package trace records the consistency-relevant events of a simulation
// run: cache page flushes and purges, fault handling, DMA preparation,
// and page preparation. The recorder is a fixed-size ring buffer so it
// can stay attached during long runs; `vcachesim -trace N` prints the
// last N events of a benchmark, which is how the workloads in this
// repository were debugged.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"vcache/internal/arch"
	"vcache/internal/sim"
)

// Kind classifies an event.
type Kind uint8

const (
	// EvFlush is a data-cache page flush.
	EvFlush Kind = iota
	// EvPurge is a data-cache page purge.
	EvPurge
	// EvIPurge is an instruction-cache page purge.
	EvIPurge
	// EvMappingFault is a first-touch fault.
	EvMappingFault
	// EvConsistencyFault is a protection trap taken for consistency.
	EvConsistencyFault
	// EvModifyFault is a first-write (TLB dirty bit) trap.
	EvModifyFault
	// EvDMAPrep is DMA preparation on a frame.
	EvDMAPrep
	// EvPrepare is page preparation (zero or copy).
	EvPrepare
	// EvDMAMove is an actual device transfer through the DMA port (the
	// machine-level data movement the EvDMAPrep consistency work
	// precedes).
	EvDMAMove
	// EvOp is one kernel-level operation of the workload program — the
	// *cause* stream, where every other kind is a consequence. The Note
	// field carries the operation in the replayable grammar of
	// internal/replay (verb followed by key=value arguments); a trace
	// whose EvOp events were all retained can be re-executed against a
	// fresh kernel.
	EvOp

	// numKinds bounds the Kind space; keep it last.
	numKinds
)

func (k Kind) String() string {
	switch k {
	case EvFlush:
		return "flush"
	case EvPurge:
		return "purge"
	case EvIPurge:
		return "ipurge"
	case EvMappingFault:
		return "map-fault"
	case EvConsistencyFault:
		return "cons-fault"
	case EvModifyFault:
		return "mod-fault"
	case EvDMAPrep:
		return "dma-prep"
	case EvPrepare:
		return "prepare"
	case EvDMAMove:
		return "dma-move"
	case EvOp:
		return "op"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromString is the inverse of Kind.String, for decoding exported
// traces.
func KindFromString(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one recorded occurrence.
type Event struct {
	Seq    uint64
	Cycles uint64
	Kind   Kind
	Frame  arch.PFN
	Color  arch.CachePage
	Space  arch.SpaceID
	VPN    arch.VPN
	Note   string
}

func (e Event) String() string {
	color := "-"
	if e.Color != arch.NoCachePage {
		color = fmt.Sprintf("%d", e.Color)
	}
	s := fmt.Sprintf("%8d @%-10d %-10s frame=%-4d color=%-2s", e.Seq, e.Cycles, e.Kind, e.Frame, color)
	if e.VPN != 0 {
		s += fmt.Sprintf(" space=%d vpn=%#x", e.Space, uint64(e.VPN))
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// eventJSON is the wire form of one event: the kind is its stable string
// name (not the numeric constant, which may be renumbered), and a frame
// with no target cache page omits the color field rather than emitting
// the NoCachePage sentinel value.
type eventJSON struct {
	Seq    uint64          `json:"seq"`
	Cycles uint64          `json:"cycles"`
	Kind   string          `json:"kind"`
	Frame  arch.PFN        `json:"frame"`
	Color  *arch.CachePage `json:"color,omitempty"`
	Space  arch.SpaceID    `json:"space,omitempty"`
	VPN    arch.VPN        `json:"vpn,omitempty"`
	Note   string          `json:"note,omitempty"`
}

// MarshalJSON emits the structured wire form of the event.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{
		Seq:    e.Seq,
		Cycles: e.Cycles,
		Kind:   e.Kind.String(),
		Frame:  e.Frame,
		Space:  e.Space,
		VPN:    e.VPN,
		Note:   e.Note,
	}
	if e.Color != arch.NoCachePage {
		c := e.Color
		j.Color = &c
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	kind, err := KindFromString(j.Kind)
	if err != nil {
		return err
	}
	*e = Event{
		Seq:    j.Seq,
		Cycles: j.Cycles,
		Kind:   kind,
		Frame:  j.Frame,
		Color:  arch.NoCachePage,
		Space:  j.Space,
		VPN:    j.VPN,
		Note:   j.Note,
	}
	if j.Color != nil {
		e.Color = *j.Color
	}
	return nil
}

// Origin describes one run: which workload's Setup built the initial
// state, under which policy configuration and scale, on what machine.
// It is the one run description: harness.Resolve turns it into a
// runnable spec for a service request, a vcachesim run and a replay
// alike, and a recorded trace carries the origin of its run so
// internal/replay can rebuild the same system. Zero-valued machine
// fields and a nil Timing mean the kernel defaults.
type Origin struct {
	Workload string              `json:"workload"`
	Config   string              `json:"config"`
	Scale    string              `json:"scale,omitempty"`
	Factor   float64             `json:"factor,omitempty"`
	CPUs     int                 `json:"cpus,omitempty"`
	Frames   int                 `json:"frames,omitempty"`
	Timing   *sim.TimingOverride `json:"timing,omitempty"`
}

// Recorder is a ring buffer of events. A nil *Recorder discards
// everything, so call sites need no guards.
type Recorder struct {
	buf    []Event
	seq    uint64
	next   int
	full   bool
	origin *Origin
}

// SetOrigin attaches the run description carried by Export (nil detaches
// it). The harness sets it when operation recording is on, so an
// exported trace is a self-describing replay case.
func (r *Recorder) SetOrigin(o *Origin) {
	if r == nil {
		return
	}
	r.origin = o
}

// Origin returns the attached run description, if any.
func (r *Recorder) Origin() *Origin {
	if r == nil {
		return nil
	}
	return r.origin
}

// NewRecorder returns a recorder keeping the last `size` events.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = 1024
	}
	return &Recorder{buf: make([]Event, size)}
}

// Record appends an event.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.seq++
	e.Seq = r.seq
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Total returns how many events were recorded overall (including those
// that have rotated out of the buffer).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dump writes the retained events to w, oldest first.
func (r *Recorder) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// CountByKind tallies the retained events.
func (r *Recorder) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Events() {
		out[e.Kind]++
	}
	return out
}

// Filter returns the retained events satisfying keep, oldest first.
func (r *Recorder) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range r.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// EventsOfKind returns the retained events of one kind, oldest first.
func (r *Recorder) EventsOfKind(k Kind) []Event {
	return r.Filter(func(e Event) bool { return e.Kind == k })
}

// EventsOfFrame returns the retained events touching one physical
// frame, oldest first.
func (r *Recorder) EventsOfFrame(f arch.PFN) []Event {
	return r.Filter(func(e Event) bool { return e.Frame == f })
}

// Summary is the per-kind tally of a recorder's retained events in a
// stable, JSON-friendly shape: one named field per kind, so the field
// order (and therefore the rendered JSON) never depends on map
// iteration. It covers only the retained window; Export.Total and
// Export.Dropped describe what rotated out.
type Summary struct {
	Flushes           int `json:"flushes"`
	Purges            int `json:"purges"`
	IPurges           int `json:"ipurges"`
	MappingFaults     int `json:"mapping_faults"`
	ConsistencyFaults int `json:"consistency_faults"`
	ModifyFaults      int `json:"modify_faults"`
	DMAPreps          int `json:"dma_preps"`
	Prepares          int `json:"prepares"`
	DMAMoves          int `json:"dma_moves"`
	Ops               int `json:"ops"`
}

// add tallies one event kind.
func (s *Summary) add(k Kind) {
	switch k {
	case EvFlush:
		s.Flushes++
	case EvPurge:
		s.Purges++
	case EvIPurge:
		s.IPurges++
	case EvMappingFault:
		s.MappingFaults++
	case EvConsistencyFault:
		s.ConsistencyFaults++
	case EvModifyFault:
		s.ModifyFaults++
	case EvDMAPrep:
		s.DMAPreps++
	case EvPrepare:
		s.Prepares++
	case EvDMAMove:
		s.DMAMoves++
	case EvOp:
		s.Ops++
	}
}

// Summary tallies the retained events into the stable per-kind struct.
func (r *Recorder) Summary() Summary {
	var s Summary
	for _, e := range r.Events() {
		s.add(e.Kind)
	}
	return s
}

// Export is the complete structured form of a recorder: overall volume,
// the per-kind summary of the retained window, and the retained events
// oldest first. It is what vcachesim -trace-json emits and what the
// service attaches to a traced /run response.
type Export struct {
	// Total counts every event ever recorded, including those that
	// rotated out of the ring.
	Total uint64 `json:"total"`
	// Retained is len(Events).
	Retained int `json:"retained"`
	// Dropped is Total - Retained: how many events rotated out.
	Dropped uint64  `json:"dropped"`
	Summary Summary `json:"summary"`
	// Origin, when present, describes the recorded run well enough for
	// internal/replay to re-execute the EvOp stream (replay requires
	// Dropped == 0 so the stream is complete).
	Origin *Origin `json:"origin,omitempty"`
	Events []Event `json:"events"`
}

// Export snapshots the recorder. A nil recorder exports an empty value
// with a non-nil (but empty) event slice, so the JSON always has an
// "events" array.
func (r *Recorder) Export() Export {
	evs := r.Events()
	if evs == nil {
		evs = []Event{}
	}
	exp := Export{
		Total:    r.Total(),
		Retained: len(evs),
		Dropped:  r.Total() - uint64(len(evs)),
		Origin:   r.Origin(),
		Events:   evs,
	}
	for _, e := range evs {
		exp.Summary.add(e.Kind)
	}
	return exp
}

// MarshalJSON renders the recorder as its Export.
func (r *Recorder) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Export())
}

// UnmarshalJSON reconstructs a recorder from an exported trace. The
// rebuilt recorder reproduces Events, Total, and Summary exactly; its
// ring capacity is the retained event count (the export does not record
// the original capacity), so it is a faithful read-side replica, not a
// recorder to keep appending to.
func (r *Recorder) UnmarshalJSON(b []byte) error {
	var exp Export
	if err := json.Unmarshal(b, &exp); err != nil {
		return err
	}
	if exp.Total < uint64(len(exp.Events)) {
		return fmt.Errorf("trace: export total %d below retained event count %d", exp.Total, len(exp.Events))
	}
	if len(exp.Events) == 0 {
		*r = Recorder{buf: make([]Event, 1), seq: exp.Total, origin: exp.Origin}
		return nil
	}
	buf := make([]Event, len(exp.Events))
	copy(buf, exp.Events)
	*r = Recorder{buf: buf, seq: exp.Total, next: 0, full: true, origin: exp.Origin}
	return nil
}
