package kernel

import (
	"fmt"

	"vcache/internal/trace"
	"vcache/internal/vm"
)

// Operation recording. When an op log is attached, every successful
// top-level kernel operation appends one trace.EvOp event whose Note
// carries the operation in the replayable grammar of internal/replay
// (a verb followed by key=value arguments, result values included).
// The stream is the *cause* side of a trace — the consequence events
// (flushes, purges, faults) interleave with it in the same ring — and
// is what turns an exported trace into a re-executable program.
//
// Only the outermost operation is recorded: CreateFile performs a
// Syscall internally, but replaying "create" re-issues that syscall
// itself, so logging both would double it. The depth counter makes the
// guard structural rather than per-call-site.

// SetOpLog attaches a recorder receiving one EvOp event per successful
// top-level kernel operation (nil detaches). Like the tracers, it is
// attached per run, after any snapshot fork, and never carried by Clone.
func (k *Kernel) SetOpLog(r *trace.Recorder) {
	k.oplog = r
	if r != nil && k.objIDs == nil {
		k.objIDs = make(map[*vm.Object]int)
	}
}

// opEnter/opExit bracket one public kernel operation; the pair is how
// oplogf knows whether it is looking at the outermost call.
func (k *Kernel) opEnter() { k.opDepth++ }
func (k *Kernel) opExit()  { k.opDepth-- }

// oplogf records the current (successful, outermost) operation. Cycles
// are stamped after the operation completed, so a recorded run and its
// replay stamp identical values. args is called only when the operation
// is recorded, so a run with no op log boxes no argument.
func (k *Kernel) oplogf(format string, args func() []any) {
	if k.oplog == nil || k.opDepth != 1 {
		return
	}
	k.oplog.Record(trace.Event{
		Cycles: k.M.Clock.Cycles(),
		Kind:   trace.EvOp,
		Note:   fmt.Sprintf(format, args()...),
	})
}

// objID returns a stable small integer naming obj within this run's op
// log, assigning one on first sight. MapFile records it so a replay can
// tell "map the same object again" from "map a fresh object".
func (k *Kernel) objID(obj *vm.Object) int {
	if k.objIDs == nil {
		return 0
	}
	if id, ok := k.objIDs[obj]; ok {
		return id
	}
	id := len(k.objIDs) + 1
	k.objIDs[obj] = id
	return id
}
