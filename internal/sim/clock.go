package sim

// Clock accumulates simulated CPU cycles, attributed to named categories
// so that experiment harnesses can decompose elapsed time the way the
// paper's Table 4 does (cycles spent purging, flushing, faulting, ...).
//
// Charge is on the critical path of every simulated access, so the
// per-category accumulators are a fixed array indexed by Category rather
// than a map: the category space is small, dense, and closed.
type Clock struct {
	timing Timing
	cycles uint64
	byCat  [numCategories]uint64
}

// Category labels where simulated cycles were spent.
type Category uint8

const (
	// CatAccess is ordinary CPU loads/stores/fetches (hits, misses,
	// write-backs).
	CatAccess Category = iota
	// CatFlush is cycles spent in cache flush operations.
	CatFlush
	// CatPurge is cycles spent in cache purge operations.
	CatPurge
	// CatFault is trap/handler overhead for faults.
	CatFault
	// CatDMA is DMA programming and transfer time.
	CatDMA
	// CatCompute is workload "think time" charged explicitly by
	// benchmark drivers.
	CatCompute
	// CatRLT is reverse-lookup synonym-table assists (RLT-VIVT
	// backend): the lookup cost paid where the CMU backend would have
	// spent flush/purge cycles.
	CatRLT
	// CatRLTEvict is the software clean-up forced by RLT capacity
	// evictions — real flush/purge work, attributed to the structure
	// that caused it rather than to the ordinary flush/purge buckets.
	CatRLTEvict
	numCategories
)

func (c Category) String() string {
	switch c {
	case CatAccess:
		return "access"
	case CatFlush:
		return "flush"
	case CatPurge:
		return "purge"
	case CatFault:
		return "fault"
	case CatDMA:
		return "dma"
	case CatCompute:
		return "compute"
	case CatRLT:
		return "rlt"
	case CatRLTEvict:
		return "rlt-evict"
	default:
		return "unknown"
	}
}

// MarshalText renders the category by name, so JSON maps keyed by
// Category (vcachesim -json) read "access"/"flush"/... instead of raw
// integers.
func (c Category) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// NewClock returns a clock charging cycles per the given profile.
func NewClock(t Timing) *Clock {
	return &Clock{timing: t}
}

// Timing returns the profile the clock was built with. It is a pointer
// so the per-access charges read one field instead of copying the whole
// profile; callers must not modify it.
func (c *Clock) Timing() *Timing { return &c.timing }

// Charge adds n cycles in the given category.
func (c *Clock) Charge(cat Category, n uint64) {
	c.cycles += n
	c.byCat[cat] += n
}

// Cycles returns the total cycles elapsed.
func (c *Clock) Cycles() uint64 { return c.cycles }

// CyclesIn returns the cycles charged to one category. Unknown
// categories report zero, as the map-based accumulator did.
func (c *Clock) CyclesIn(cat Category) uint64 {
	if cat >= numCategories {
		return 0
	}
	return c.byCat[cat]
}

// Seconds returns the elapsed simulated time in seconds.
func (c *Clock) Seconds() float64 { return c.timing.Seconds(c.cycles) }

// Reset zeroes the clock.
func (c *Clock) Reset() {
	c.cycles = 0
	c.byCat = [numCategories]uint64{}
}

// Clone returns an independent copy of the clock (snapshot/fork support).
// The accumulators are plain values, so a struct copy suffices.
func (c *Clock) Clone() *Clock {
	c2 := *c
	return &c2
}
