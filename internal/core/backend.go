package core

import "fmt"

// BackendKind identifies a consistency-management backend, the axis
// orthogonal to the architecture variants of variants.go: a Variant
// describes what the hardware *is*, a backend what strategy manages
// synonym consistency on top of it.
//
//   - CMU — the paper's software scheme: lazy flush/purge driven by the
//     Table 2 state machine.
//   - RLT-VIVT — a VIVT cache with a hardware reverse-lookup synonym
//     table (arXiv 2108.00444): a remap to a synonym address hits the
//     table and re-binds the line instead of software flushing or
//     purging it. Its table is the RLTVIVT variant.
//   - HYBRID — update/invalidate transitions selected per page by a
//     write-run heuristic (arXiv 1502.00101). Its invalidate mode is
//     Table 2 verbatim; an update-mode page is uncached, so it has no
//     line to transition.
//
// The kind is serialized with a configuration and binds coverage maps
// (coverage.go). The runtime behaviour — cycle attribution, table
// occupancy, per-page mode switching — lives in internal/pmap.
type BackendKind uint8

const (
	// BackendCMU is the paper's software flush/purge scheme (the zero
	// value, so every configuration literal without a backend is CMU).
	BackendCMU BackendKind = iota
	// BackendRLT is the reverse-lookup synonym-table VIVT backend.
	BackendRLT
	// BackendHybrid is the per-page update/invalidate hybrid backend.
	BackendHybrid
	// NumBackends is the number of backend kinds.
	NumBackends
)

func (k BackendKind) String() string {
	switch k {
	case BackendCMU:
		return "CMU"
	case BackendRLT:
		return "RLT-VIVT"
	case BackendHybrid:
		return "HYBRID"
	default:
		return fmt.Sprintf("BackendKind(%d)", uint8(k))
	}
}
