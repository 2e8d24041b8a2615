// Package policy defines the consistency-management configurations the
// paper evaluates.
//
// Section 5 measures six cumulative configurations of the Mach kernel,
// from "A" (the original system, which assumed a physically indexed cache
// and guaranteed consistency with a simple eager strategy) to "F" (the
// full model of Sections 3–4 with every optimization):
//
//	A  old           eager cleaning whenever a mapping is broken
//	B  +lazy unmap   delay flush/purge until a virtual address is reused
//	C  +align pages  kernel selects aligning virtual addresses for
//	                 multiply mapped pages (IPC, server shared pages)
//	D  +aligned prepare  copy/zero through windows aligned with the
//	                 page's eventual mapping
//	E  +need data    purge instead of flush when dirty data is dead
//	F  +will overwrite   skip the purge when the destination page is
//	                 completely overwritten
//
// Section 6 (Table 5) compares the styles of other operating systems on
// virtually indexed caches; Variant selects approximations of those
// strategies built from the same machinery.
package policy

import (
	"fmt"
	"strings"
)

// Variant selects a fundamentally different consistency style for the
// Table 5 comparison (the A–F configurations all use VariantCMU).
type Variant uint8

const (
	// VariantCMU is the paper's system: explicit cache-page state with
	// lazy, alignment-aware management (the Feature flags select how
	// much of it is enabled).
	VariantCMU Variant = iota
	// VariantTut keys consistency state to virtual addresses rather
	// than cache pages: a remap avoids cache operations only when the
	// new virtual address *equals* the old one, not merely aligns with
	// it. (HP's Tut project, which merged Mach VM into HP-UX.)
	VariantTut
	// VariantSun makes pages with unaligned aliases non-cacheable
	// rather than managing them, and cleans eagerly at unmap
	// (SunOS 4.2BSD on the Sun-3/200).
	VariantSun
)

func (v Variant) String() string {
	switch v {
	case VariantCMU:
		return "cmu"
	case VariantTut:
		return "tut"
	default:
		return "sun"
	}
}

// Backend selects the consistency-management scheme, the axis
// orthogonal to Variant: a Variant approximates another system's use of
// the paper's software scheme, a Backend swaps the scheme itself. Every
// backend runs the same Figure 1 state machine, so memory and cache
// contents are the same under all of them; the peer backend differs in
// cycle attribution, whose runtime is internal/pmap/backend.go.
//
//   - CMU — the paper's software scheme: lazy flush/purge driven by the
//     Table 2 state machine.
//   - RLT-VIVT — a VIVT cache with a hardware reverse-lookup synonym
//     table (arXiv 2108.00444): a remap to a synonym address hits the
//     table and re-binds the line instead of software flushing or
//     purging it. Its table is core's RLTVIVT variant.
type Backend uint8

const (
	// BackendCMU is the paper's software flush/purge scheme (the zero
	// value, so every configuration literal without a backend is CMU).
	BackendCMU Backend = iota
	// BackendRLT is the reverse-lookup synonym-table VIVT backend.
	BackendRLT
	// NumBackends is the number of backends.
	NumBackends
)

func (b Backend) String() string {
	switch b {
	case BackendCMU:
		return "CMU"
	case BackendRLT:
		return "RLT-VIVT"
	default:
		return fmt.Sprintf("Backend(%d)", uint8(b))
	}
}

// Features is the switchboard for the optimizations of Sections 4–5.
type Features struct {
	// LazyUnmap delays cache cleaning past mapping removal: other
	// structures (TLB, page tables) are invalidated to deny access,
	// but the flush or purge happens only if and when a non-aligning
	// mapping is created (configuration B).
	LazyUnmap bool
	// AlignPages lets the kernel select destination virtual addresses
	// that align in the cache with the page's previous/source mapping:
	// IPC out-of-line transfers and Unix-server shared pages
	// (configuration C).
	AlignPages bool
	// AlignedPrepare prepares new pages (copy, zero-fill) through a
	// kernel window that aligns with the page's eventual mapping
	// (configuration D).
	AlignedPrepare bool
	// NeedData replaces flushes with purges when the dirty data will
	// never be used again (configuration E).
	NeedData bool
	// WillOverwrite eliminates purges when the destination cache page
	// is about to be completely overwritten (configuration F).
	WillOverwrite bool

	// ColoredFreeList is the Section 5.1 extension the paper suggests
	// but did not implement: multiple free page lists reduce the
	// associativity of virtual-to-physical mappings so that recycled
	// frames tend to be handed out already aligned with their next
	// mapping. Not part of any lettered configuration.
	ColoredFreeList bool

	// Variant selects the Table 5 strategy; VariantCMU for A–F.
	Variant Variant

	// Backend selects the consistency-management scheme: BackendCMU
	// for every paper configuration, BackendRLT for RLT.
	Backend Backend
}

// Aliases is the Table 5 "unaligned aliases" cell: how the
// configuration treats unaligned aliases.
func (f Features) Aliases() string {
	switch {
	case f.Variant == VariantSun:
		return "uncached"
	case f.Backend == BackendRLT:
		return "rlt"
	}
	return "yes"
}

// Config is a named configuration.
type Config struct {
	// Label is the paper's single-letter configuration name (A–F) or a
	// short tag for Table 5 systems.
	Label string
	// Name is the human-readable description used in table output.
	Name     string
	Features Features
}

// ConfigA is the original system: both the kernel and the server run as
// if the cache were physically indexed, while low-level software
// guarantees consistency by eagerly cleaning the cache whenever a
// mapping is broken.
func ConfigA() Config {
	return Config{Label: "A", Name: "old (eager, unaligned)"}
}

// ConfigB adds lazy unmap.
func ConfigB() Config {
	c := ConfigA()
	c.Label, c.Name = "B", "+lazy unmap"
	c.Features.LazyUnmap = true
	return c
}

// ConfigC additionally aligns multiply mapped pages.
func ConfigC() Config {
	c := ConfigB()
	c.Label, c.Name = "C", "+align pages"
	c.Features.AlignPages = true
	return c
}

// ConfigD additionally aligns page preparation.
func ConfigD() Config {
	c := ConfigC()
	c.Label, c.Name = "D", "+aligned prepare"
	c.Features.AlignedPrepare = true
	return c
}

// ConfigE additionally purges dead dirty data instead of flushing it.
func ConfigE() Config {
	c := ConfigD()
	c.Label, c.Name = "E", "+need data"
	c.Features.NeedData = true
	return c
}

// ConfigF is the full system of the paper ("new").
func ConfigF() Config {
	c := ConfigE()
	c.Label, c.Name = "F", "+will overwrite"
	c.Features.WillOverwrite = true
	return c
}

// Configs returns the six lettered configurations in order.
func Configs() []Config {
	return []Config{ConfigA(), ConfigB(), ConfigC(), ConfigD(), ConfigE(), ConfigF()}
}

// Old and New return the two systems of Table 1.
func Old() Config { return ConfigA() }
func New() Config { return ConfigF() }

// Table 5 systems. CMU is ConfigF; Utah behaves as the paper's Section
// 2.5 "old" system; Apollo cleans eagerly at unmap but handles aliases
// with the same machinery.

// Utah is the version of Mach that behaves as the one described in
// Section 2.5 (no alignment, eager cleaning).
func Utah() Config {
	c := ConfigA()
	c.Label, c.Name = "Utah", "Utah Mach (eager, no alignment)"
	return c
}

// Apollo is the OSF/1 implementation: cleans the cache whenever the last
// mapping to a physical page is removed, no address alignment.
func Apollo() Config {
	c := ConfigA()
	c.Label, c.Name = "Apollo", "Apollo OSF/1 (eager at unmap)"
	return c
}

// Tut is HP's Mach/HP-UX merge: lazy unmap keyed to equal (not merely
// aligned) virtual addresses, text-page alignment, aligned preparation.
func Tut() Config {
	return Config{
		Label: "Tut",
		Name:  "HP Tut (lazy by VA equality)",
		Features: Features{
			LazyUnmap:      true,
			AlignedPrepare: true,
			Variant:        VariantTut,
		},
	}
}

// Sun is 4.2BSD on the Sun-3/200: unaligned aliases become uncacheable,
// cleaning is eager.
func Sun() Config {
	return Config{
		Label:    "Sun",
		Name:     "Sun 4.2BSD (uncached unaligned aliases)",
		Features: Features{Variant: VariantSun},
	}
}

// CMU is the paper's system (configuration F) under its Table 5 name.
func CMU() Config {
	c := ConfigF()
	c.Label, c.Name = "CMU", "CMU Mach (this paper)"
	return c
}

// Table5Systems returns the five systems of Table 5 in the paper's order.
func Table5Systems() []Config {
	return []Config{CMU(), Utah(), Tut(), Apollo(), Sun()}
}

// Peer consistency backends: alternative synonym-management schemes
// reported side-by-side with A–F and the Table 5 systems. Each runs the
// full F feature set so differences in the tables isolate the backend,
// not the software optimizations.

// RLT is a VIVT cache with a hardware reverse-lookup synonym table
// (arXiv 2108.00444): synonym remaps hit the RLT and re-bind lines
// instead of software flushing/purging; software pays only for RLT
// capacity evictions.
func RLT() Config {
	c := ConfigF()
	c.Label, c.Name = "RLT", "RLT-VIVT (reverse-lookup synonym table)"
	c.Features.Backend = BackendRLT
	return c
}

// PeerBackends returns the non-CMU consistency backends as selectable
// configurations.
func PeerBackends() []Config {
	return []Config{RLT()}
}

// All returns every selectable configuration: the lettered A–F series,
// the Table 5 systems, and the peer consistency backends.
func All() []Config {
	return append(append(Configs(), Table5Systems()...), PeerBackends()...)
}

// Labels returns the comma-separated list of every selectable label,
// for CLI/service error messages and usage strings.
func Labels() string {
	all := All()
	parts := make([]string, len(all))
	for i, c := range all {
		parts[i] = c.Label
	}
	return strings.Join(parts, ", ")
}

// ByLabel looks a configuration up by its label (the Table 4/5 labels
// plus the peer-backend labels; see Labels).
func ByLabel(label string) (Config, error) {
	for _, c := range All() {
		if c.Label == label {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("policy: unknown configuration %q (valid: %s)", label, Labels())
}
