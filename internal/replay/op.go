// Package replay turns an exported trace back into a deterministic,
// re-executable program.
//
// A trace recorded with harness.Spec.RecordOps interleaves one "op"
// event per successful top-level kernel operation (the cause stream)
// with the consistency events those operations produced (the
// consequence stream). Parse extracts the cause stream into a Program;
// Program.Workload re-issues the recorded operations against a freshly
// booted kernel. Because the simulator is fully deterministic, a full
// replay reproduces the original run exactly — re-exporting the
// replayed run's trace yields byte-identical JSON, and its Result is
// DeepEqual to the original. That closure property is what the replay
// tests prove and what lets the fuzzer's minimizer (internal/fuzz)
// shrink any interesting run to a small witness that still replays.
package replay

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Op is one replayable kernel operation: a verb plus key=value
// arguments in the grammar the kernel op log emits (see
// internal/kernel/oplog.go). Result values the kernel chose during the
// recorded run (assigned pids, receiver VPNs, object ids) are included
// as arguments, so the executor can correlate them with the values the
// replay produces.
type Op struct {
	Verb string
	Args map[string]string
}

// verbKeys is the grammar: the exact argument keys, in canonical
// order, of every verb the kernel emits.
var verbKeys = map[string][]string{
	"spawn":   {"pid", "img", "text", "heap"},
	"fork":    {"pid", "parent"},
	"exit":    {"pid"},
	"syscall": {"pid"},
	"create":  {"pid", "file"},
	"open":    {"pid", "file"},
	"remove":  {"pid", "file"},
	"readf":   {"pid", "file", "page", "heap"},
	"writef":  {"pid", "file", "page", "heap"},
	"readfd":  {"pid", "file", "page", "heap"},
	"touch":   {"pid", "page", "words"},
	"readh":   {"pid", "page", "words"},
	"runtext": {"pid", "words"},
	"send":    {"from", "page", "to", "vpn"},
	"sharep":  {"from", "page", "to", "vpn"},
	"readp":   {"pid", "vpn", "words"},
	"writep":  {"pid", "vpn", "words"},
	"mapfile": {"pid", "file", "obj", "pages", "vpn"},
	"writec":  {"file", "pages"},
	"compute": {"cycles"},
	"sync":    {},
	"flushp":  {"pid", "vpn"},
	"purgep":  {"pid", "vpn"},
	"sched":   {"pid", "cpu"},
}

// ParseNote parses one op-event note. The grammar is strict: an
// unknown verb, a missing or extra key, or a malformed pair is an
// error — a trace that does not parse is not replayable, and saying so
// loudly beats silently skipping operations. (File names are
// space-free by construction in every workload; the grammar relies on
// that.)
func ParseNote(note string) (Op, error) {
	fields := strings.Fields(note)
	if len(fields) == 0 {
		return Op{}, fmt.Errorf("replay: empty op note")
	}
	verb := fields[0]
	keys, ok := verbKeys[verb]
	if !ok {
		return Op{}, fmt.Errorf("replay: unknown op verb %q in %q", verb, note)
	}
	if len(fields)-1 != len(keys) {
		return Op{}, fmt.Errorf("replay: op %q wants %d args, note %q has %d",
			verb, len(keys), note, len(fields)-1)
	}
	op := Op{Verb: verb, Args: make(map[string]string, len(keys))}
	for i, f := range fields[1:] {
		k, v, found := strings.Cut(f, "=")
		if !found || k != keys[i] || v == "" {
			return Op{}, fmt.Errorf("replay: op %q arg %d: want %s=<value>, got %q", verb, i, keys[i], f)
		}
		op.Args[k] = v
	}
	return op, nil
}

// Note formats the op back into its canonical note form; for any op
// produced by ParseNote, Note returns the input exactly.
func (o Op) Note() string {
	var b strings.Builder
	b.WriteString(o.Verb)
	for _, k := range verbKeys[o.Verb] {
		fmt.Fprintf(&b, " %s=%s", k, o.Args[k])
	}
	return b.String()
}

// Uint returns the named argument as an unsigned integer (decimal or
// 0x-hex, matching the kernel's %d and %#x formats).
func (o Op) Uint(key string) (uint64, error) {
	v, ok := o.Args[key]
	if !ok {
		return 0, fmt.Errorf("replay: op %q has no arg %q", o.Verb, key)
	}
	n, err := strconv.ParseUint(v, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("replay: op %q arg %s=%q: %w", o.Verb, key, v, err)
	}
	return n, nil
}

// Int is Uint for values that fit an int (pids, word counts); a larger
// value is an error, not a wrapped negative int.
func (o Op) Int(key string) (int, error) {
	n, err := o.Uint(key)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt {
		return 0, fmt.Errorf("replay: op %q arg %s=%d: out of range for an int", o.Verb, key, n)
	}
	return int(n), nil
}

// Str returns the named argument verbatim.
func (o Op) Str(key string) (string, error) {
	v, ok := o.Args[key]
	if !ok {
		return "", fmt.Errorf("replay: op %q has no arg %q", o.Verb, key)
	}
	return v, nil
}
