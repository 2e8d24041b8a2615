package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"

	"vcache/internal/harness"
	"vcache/internal/trace"
)

// Record runs spec with op recording forced on and returns the result
// and the exported trace. The spec must request a trace ring (TraceN >
// 0); RecordOps is set unconditionally.
func Record(ctx context.Context, spec harness.Spec) (harness.Result, trace.Export, error) {
	if spec.TraceN <= 0 {
		return harness.Result{}, trace.Export{}, fmt.Errorf("replay: Record needs TraceN > 0")
	}
	spec.RecordOps = true
	res, rec, _, err := harness.Exec(ctx, spec, nil)
	if err != nil {
		return harness.Result{}, trace.Export{}, err
	}
	return res, rec.Export(), nil
}

// Replay parses ex, re-executes it on a fresh system, and returns the
// replayed run's result and re-exported trace.
func Replay(ctx context.Context, ex trace.Export) (harness.Result, trace.Export, error) {
	pr, err := Parse(ex)
	if err != nil {
		return harness.Result{}, trace.Export{}, err
	}
	spec, err := pr.Spec()
	if err != nil {
		return harness.Result{}, trace.Export{}, err
	}
	res, rec, _, err := harness.Exec(ctx, spec, nil)
	if err != nil {
		return harness.Result{}, trace.Export{}, err
	}
	return res, rec.Export(), nil
}

// VerifyClosure proves the record→replay→re-export closure for one
// spec: it records a traced run, replays the export on a fresh system,
// and requires the replayed result to DeepEqual the original and the
// re-exported trace to marshal to byte-identical JSON. Any divergence
// is returned as an error describing the first difference.
func VerifyClosure(ctx context.Context, spec harness.Spec) error {
	origRes, origEx, err := Record(ctx, spec)
	if err != nil {
		return fmt.Errorf("replay: record: %w", err)
	}
	gotRes, gotEx, err := Replay(ctx, origEx)
	if err != nil {
		return fmt.Errorf("replay: replay: %w", err)
	}
	if !reflect.DeepEqual(origRes, gotRes) {
		return fmt.Errorf("replay: %s: replayed Result differs from original", spec.Label())
	}
	return CompareExports(origEx, gotEx)
}

// CompareExports requires two exports to marshal to identical JSON,
// reporting the first differing event when they do not.
func CompareExports(want, got trace.Export) error {
	wb, err := json.Marshal(want)
	if err != nil {
		return fmt.Errorf("replay: marshal original export: %w", err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		return fmt.Errorf("replay: marshal replayed export: %w", err)
	}
	if bytes.Equal(wb, gb) {
		return nil
	}
	// Locate the divergence for the error message.
	if want.Total != got.Total || want.Retained != got.Retained || want.Dropped != got.Dropped {
		return fmt.Errorf("replay: export header differs: total %d vs %d, retained %d vs %d, dropped %d vs %d",
			want.Total, got.Total, want.Retained, got.Retained, want.Dropped, got.Dropped)
	}
	for i := range want.Events {
		if i >= len(got.Events) {
			break
		}
		if want.Events[i] != got.Events[i] {
			return fmt.Errorf("replay: traces diverge at event %d: recorded %q, replayed %q",
				i, want.Events[i].String(), got.Events[i].String())
		}
	}
	return fmt.Errorf("replay: exports differ (%d vs %d bytes)", len(wb), len(gb))
}
