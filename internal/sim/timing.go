// Package sim provides the simulation clock, cycle-cost (timing) profiles,
// and a deterministic random-number source used across the simulator.
//
// Every hardware-level event in the simulated machine charges a number of
// processor cycles against a Clock according to a Timing profile. The
// default profile approximates the 50 MHz HP 9000 Model 720 the paper
// measures, including its two quirks the paper calls out: a flush or purge
// of an address is several times slower when the line is actually present
// in the cache, and the instruction cache purges in constant time
// regardless of its contents.
package sim

// Timing is a cycle-cost profile for the simulated machine. All costs are
// in CPU cycles.
type Timing struct {
	// ClockHz converts accumulated cycles into seconds of simulated time.
	ClockHz uint64

	// CacheHit is the cost of a load or store that hits in the cache.
	CacheHit uint64
	// CacheMissFill is the cost of filling a line from memory on a miss
	// (on top of CacheHit).
	CacheMissFill uint64
	// WriteBack is the cost of writing a dirty victim line to memory.
	WriteBack uint64

	// LineFlushHit / LineFlushMiss cost one flush of a line that is /
	// is not present in the cache. On the 720 a flush is up to seven
	// times slower when the line is present.
	LineFlushHit  uint64
	LineFlushMiss uint64
	// LinePurgeHit / LinePurgeMiss are the same for purge. The paper
	// observes the 720 "appears to purge no more quickly than it
	// flushes", so the default profile makes them equal.
	LinePurgeHit  uint64
	LinePurgeMiss uint64

	// ICachePagePurge is the fixed cost of purging one instruction-cache
	// page; the 720 purges its I-cache in constant time regardless of
	// contents.
	ICachePagePurge uint64

	// TLBMiss is the cost of a hardware TLB refill from the page tables.
	TLBMiss uint64
	// FaultTrap is the cost of taking a trap into the kernel and
	// returning (added on every mapping, protection, or modify fault,
	// on top of whatever the handler does).
	FaultTrap uint64

	// DMASetup is the fixed cost of programming one DMA transfer, and
	// DMAPerWord its per-word cost. The CPU is modeled as synchronous
	// with the device (the benchmarks' processes block on I/O anyway).
	DMASetup   uint64
	DMAPerWord uint64
	// DiskAccess is the fixed latency of one disk block access.
	DiskAccess uint64

	// RLTAssist is the cost of one reverse-lookup synonym-table assist
	// (RLT-VIVT backend): a hardware associative lookup plus tag
	// re-bind, paid where the software scheme would flush or purge a
	// whole cache page. Zero in profiles predating the backend is fine —
	// assists then cost nothing, but the category split still shows
	// where the work went.
	RLTAssist uint64
}

// HP720Timing returns the default profile approximating the 50 MHz
// Model 720.
func HP720Timing() Timing {
	return Timing{
		ClockHz:         50_000_000,
		CacheHit:        1,
		CacheMissFill:   20,
		WriteBack:       20,
		LineFlushHit:    7,
		LineFlushMiss:   1,
		LinePurgeHit:    7, // the 720 purges no faster than it flushes
		LinePurgeMiss:   1,
		ICachePagePurge: 180, // constant-time page purge
		TLBMiss:         30,
		FaultTrap:       220,
		DMASetup:        2000,
		DMAPerWord:      2,
		DiskAccess:      60000,
		RLTAssist:       6, // associative lookup + tag re-bind
	}
}

// FastPurgeTiming returns the HP720 profile with the single-cycle page
// purge the paper argues architectures should provide ("It should be
// possible to purge an empty, present, or dirty line, and possibly page,
// in one cache cycle"). Used by the Section 5.1 what-if analysis (E7).
func FastPurgeTiming() Timing {
	t := HP720Timing()
	// One cycle per page purge: amortized below one cycle per line.
	t.LinePurgeHit = 0
	t.LinePurgeMiss = 0
	t.ICachePagePurge = 1
	return t
}

// Seconds converts a cycle count to seconds under this profile.
func (t Timing) Seconds(cycles uint64) float64 {
	return float64(cycles) / float64(t.ClockHz)
}

// TimingOverride adjusts the cycle costs the Section 5.1 what-if
// analysis varies; nil fields keep the base profile's values. It is the
// wire form of a run's timing both in a service request and in a
// recorded trace's origin.
type TimingOverride struct {
	LineFlushHit    *uint64 `json:"line_flush_hit,omitempty"`
	LineFlushMiss   *uint64 `json:"line_flush_miss,omitempty"`
	LinePurgeHit    *uint64 `json:"line_purge_hit,omitempty"`
	LinePurgeMiss   *uint64 `json:"line_purge_miss,omitempty"`
	ICachePagePurge *uint64 `json:"icache_page_purge,omitempty"`
}

// Apply returns t with every field o sets replaced. A nil o returns t.
func (o *TimingOverride) Apply(t Timing) Timing {
	if o != nil {
		override(&t.LineFlushHit, o.LineFlushHit)
		override(&t.LineFlushMiss, o.LineFlushMiss)
		override(&t.LinePurgeHit, o.LinePurgeHit)
		override(&t.LinePurgeMiss, o.LinePurgeMiss)
		override(&t.ICachePagePurge, o.ICachePagePurge)
	}
	return t
}

func override(dst, v *uint64) {
	if v != nil {
		*dst = *v
	}
}

// OverrideOf returns the override that turns base into t: one field per
// what-if cost that differs, or nil when none does. Costs outside the
// override's five fields are not described.
func OverrideOf(base, t Timing) *TimingOverride {
	o := TimingOverride{
		LineFlushHit:    differs(base.LineFlushHit, t.LineFlushHit),
		LineFlushMiss:   differs(base.LineFlushMiss, t.LineFlushMiss),
		LinePurgeHit:    differs(base.LinePurgeHit, t.LinePurgeHit),
		LinePurgeMiss:   differs(base.LinePurgeMiss, t.LinePurgeMiss),
		ICachePagePurge: differs(base.ICachePagePurge, t.ICachePagePurge),
	}
	if o == (TimingOverride{}) {
		return nil
	}
	return &o
}

func differs(base, v uint64) *uint64 {
	if v == base {
		return nil
	}
	return &v
}
