package fuzz

import (
	"fmt"

	"vcache/internal/replay"
)

// Handcrafted seed programs: deterministic recipes for the Table 2
// cells random search finds slowly. Each is a plain op-note program —
// the same artifact the generator emits and the minimizer consumes —
// run under every campaign configuration (the eager and lazy regimes
// reach different cells from the same ops).

// seedRecipe is one named note list. cpus > 0 builds the program for a
// multiprocessor origin of that size (sched verbs migrate processes
// between real per-CPU caches and TLBs); 0 is the default uniprocessor.
type seedRecipe struct {
	name  string
	cpus  int
	notes []string
}

func seedRecipes() []seedRecipe {
	return []seedRecipe{
		// Explicit maintenance against every reachable target state:
		// dirty, empty (after the flush revoked the color), present,
		// and — via a direct-DMA file read that stales the heap page's
		// color — stale.
		{name: "maint", notes: []string{
			"spawn pid=1 img=- text=0 heap=16",
			"touch pid=1 page=0 words=64",
			"flushp pid=1 vpn=0x10000", // flush of Dirty
			"flushp pid=1 vpn=0x10000", // flush of Empty
			"readh pid=1 page=0 words=32",
			"flushp pid=1 vpn=0x10000", // flush of Present
			"touch pid=1 page=0 words=64",
			"purgep pid=1 vpn=0x10000", // purge of Dirty (degrades to flush)
			"readh pid=1 page=0 words=32",
			"purgep pid=1 vpn=0x10000", // purge of Present
			"purgep pid=1 vpn=0x10000", // purge of Empty
			"create pid=1 file=sd/f",
			"writec file=sd/f pages=2",
			"sync",
			"readh pid=1 page=4 words=32",
			"readfd pid=1 file=sd/f page=0 heap=4", // DMA-write stales color of heap 4
			"flushp pid=1 vpn=0x10004",             // flush of Stale (purges, never writes back)
			"readh pid=1 page=5 words=32",
			"readfd pid=1 file=sd/f page=1 heap=5",
			"purgep pid=1 vpn=0x10005",             // purge of Stale
			"readfd pid=1 file=sd/f page=0 heap=6", // DMA-write into Empty heap color
			"readfd pid=1 file=sd/f page=0 heap=6", // and again into the now-Stale one
			"touch pid=1 page=7 words=64",
			"readfd pid=1 file=sd/f page=1 heap=7", // DMA-write over Dirty
			"exit pid=1",
		}},
		// A file mapped into two address spaces while being rewritten
		// through the buffer cache: cross-color aliasing between the
		// kernel buffer mapping and the user mappings yields the
		// other-role Present/Dirty/Stale cells for every operation
		// class, and sync adds the DMA-read-of-dirty path.
		{name: "sharedfile", notes: []string{
			"spawn pid=1 img=- text=0 heap=16",
			"spawn pid=2 img=- text=0 heap=16",
			"create pid=1 file=sd/shared",
			"writec file=sd/shared pages=2",
			"sync",
			"mapfile pid=1 file=sd/shared obj=1 pages=2 vpn=0xa00000",
			"readp pid=1 vpn=0xa00000 words=16",
			"mapfile pid=2 file=sd/shared obj=1 pages=2 vpn=0xb00000",
			"readp pid=2 vpn=0xb00000 words=16", // alias read: target or other Present
			"touch pid=1 page=1 words=64",
			"writef pid=1 file=sd/shared page=0 heap=1", // dirties the buffer color, stales the users
			"readp pid=1 vpn=0xa00000 words=16",         // CPU read: target Stale, other Dirty
			"flushp pid=2 vpn=0xb00000",                 // flush: target Stale, other Dirty
			"touch pid=1 page=2 words=64",
			"writef pid=1 file=sd/shared page=0 heap=2",
			"purgep pid=1 vpn=0xa00000", // purge: target Stale, other Dirty
			"sync",                      // DMA read of the dirty buffer
			"readp pid=2 vpn=0xb00000 words=16",
			"sync", // DMA read of the now-clean buffer
			"touch pid=2 page=3 words=64",
			"readfd pid=2 file=sd/shared page=0 heap=3",
			"exit pid=2",
			"exit pid=1",
		}},
		// IPC transfer chains: the sender's lazily broken mapping
		// leaves stale colors the receiver's aligned (config F) or
		// unaligned (config A) accesses then hit; write-after-receive
		// drives the modify-fault CPU-write paths.
		{name: "ipc", notes: []string{
			"spawn pid=1 img=- text=0 heap=16",
			"spawn pid=2 img=- text=0 heap=16",
			"touch pid=1 page=0 words=64",
			"send from=1 page=0 to=2 vpn=0xf00001",
			"readp pid=2 vpn=0xf00001 words=16",
			"writep pid=2 vpn=0xf00001 words=8",
			"touch pid=1 page=1 words=64",
			"flushp pid=1 vpn=0x10001",
			"send from=1 page=1 to=2 vpn=0xf00002",
			"purgep pid=2 vpn=0xf00002",
			"readp pid=2 vpn=0xf00002 words=16",
			"touch pid=1 page=2 words=64",
			"send from=1 page=2 to=2 vpn=0xf00003",
			"writep pid=2 vpn=0xf00003 words=8", // write-first receive
			"readp pid=2 vpn=0xf00003 words=16",
			// A page shared read-write across the spaces (sharep) is the
			// one place maintenance can catch dirty data at a color the
			// caller does not own: the sender re-dirties its side after
			// the receiver's mapping is established, and under unaligned
			// placement (config B) the receiver's flush or purge then
			// sees that dirty line in the other-role column.
			"touch pid=1 page=5 words=64",
			"sharep from=1 page=5 to=2 vpn=0xf00005",
			"readp pid=2 vpn=0xf00005 words=16",
			"touch pid=1 page=5 words=64",
			"flushp pid=2 vpn=0xf00005", // flush with other color Dirty
			"touch pid=1 page=6 words=64",
			"sharep from=1 page=6 to=2 vpn=0xf00006",
			"readp pid=2 vpn=0xf00006 words=16",
			"touch pid=1 page=6 words=64",
			"purgep pid=2 vpn=0xf00006", // purge with other color Dirty
			"readp pid=2 vpn=0xf00006 words=16",
			"touch pid=1 page=7 words=64",
			"sharep from=1 page=7 to=2 vpn=0xf00007",
			"writep pid=2 vpn=0xf00007 words=8", // CPU write with other color Dirty
			// Read-sharing the page first leaves both colors Present; a
			// direct-DMA read into the frame then stales them both at
			// once, so each side's maintenance sees the other's stale
			// line.
			"readh pid=1 page=8 words=32",
			"create pid=1 file=sd/d",
			"writec file=sd/d pages=1",
			"sync",
			"sharep from=1 page=8 to=2 vpn=0xf00008",
			"readp pid=2 vpn=0xf00008 words=16",
			"readfd pid=1 file=sd/d page=0 heap=8",
			"flushp pid=1 vpn=0x10008",  // flush with other color Stale
			"purgep pid=2 vpn=0xf00008", // purge of Stale
			"readp pid=2 vpn=0xf00008 words=16",
			"fork pid=3 parent=1",
			"touch pid=3 page=4 words=32",          // COW write
			"touch pid=1 page=4 words=32",          // parent's COW write
			"send from=3 page=4 to=2 vpn=0xf00004", // shared object: copy path
			"readp pid=2 vpn=0xf00004 words=16",
			"exit pid=3",
			"exit pid=2",
			"exit pid=1",
		}},
		// Multiprocessor interleaving: two processes pinned to different
		// CPUs by spawn order, with explicit sched migrations between
		// accesses. Dirty lines written on one CPU are read, flushed and
		// purged from the other, so the maintenance and fault paths see
		// Table 2's other-role cells through *real* per-CPU caches and
		// TLBs rather than through same-CPU aliasing. The DMA read at
		// the end stales a frame both CPUs had cached.
		{name: "mp-migrate", cpus: 2, notes: []string{
			"spawn pid=1 img=- text=0 heap=16", // lands on CPU 1 (pid % cpus)
			"spawn pid=2 img=- text=0 heap=16", // lands on CPU 0
			"touch pid=1 page=0 words=64",      // dirty on CPU 1
			"sched pid=1 cpu=0",                // migrate: shootdown + re-home
			"readh pid=1 page=0 words=32",      // aligned snoop pulls CPU 1's dirty line
			"flushp pid=1 vpn=0x10000",         // broadcast flush, remote copy still live
			"sched pid=1 cpu=1",
			"touch pid=1 page=1 words=64", // dirty on CPU 1 again
			"sched pid=1 cpu=0",
			"purgep pid=1 vpn=0x10001", // broadcast purge of a remote dirty line
			// Cross-space sharing with the two sides on different CPUs:
			// sender dirties on CPU 0, receiver reads and maintains on
			// CPU 1 (unaligned placement under config B puts the other
			// side's line in the other-role column of a remote cache).
			"touch pid=1 page=5 words=64",
			"sharep from=1 page=5 to=2 vpn=0xf00005",
			"sched pid=2 cpu=1",
			"readp pid=2 vpn=0xf00005 words=16",
			"touch pid=1 page=5 words=64",
			"flushp pid=2 vpn=0xf00005", // flush with other color dirty on another CPU
			"touch pid=1 page=6 words=64",
			"send from=1 page=6 to=2 vpn=0xf00006",
			"writep pid=2 vpn=0xf00006 words=8", // write-first receive on the other CPU
			"readp pid=2 vpn=0xf00006 words=16",
			// DMA-write stales a frame cached on both CPUs at once.
			"readh pid=1 page=8 words=32",
			"create pid=1 file=sd/m",
			"writec file=sd/m pages=1",
			"sync",
			"sharep from=1 page=8 to=2 vpn=0xf00008",
			"readp pid=2 vpn=0xf00008 words=16",
			"readfd pid=1 file=sd/m page=0 heap=8",
			"sched pid=2 cpu=0",
			"purgep pid=2 vpn=0xf00008", // purge of Stale from a third placement
			"readp pid=2 vpn=0xf00008 words=16",
			"exit pid=2",
			"exit pid=1",
		}},
		// Multi-word line runs: every other seed's and every generator
		// draw's page runs touch at most 64 words a page (a stride of 8
		// words, one word a line); the Unix server's stride-1 channel
		// runs are the only other multi-word line runs, and they rarely
		// meet a peer holding their page. This recipe's
		// 256- and 512-word runs (strides 2 and 1) put several words of
		// one line into a strided run's single line access against peer
		// caches holding all, some or none of the page — shared pages
		// whose two processes migrate between the CPUs.
		{name: "mp-lines", cpus: 2, notes: []string{
			"spawn pid=1 img=- text=0 heap=16", // CPU 1
			"spawn pid=2 img=- text=0 heap=16", // CPU 0
			"touch pid=1 page=0 words=512",     // every line dirty on CPU 1
			"sched pid=1 cpu=0",
			"readh pid=1 page=0 words=256", // CPU 0 reads, peer holds every line dirty
			"touch pid=1 page=0 words=256", // and takes ownership of them
			"sharep from=1 page=0 to=2 vpn=0xf00000",
			"sched pid=2 cpu=1",
			"readp pid=2 vpn=0xf00000 words=512", // CPU 1 reads lines dirty on CPU 0
			"touch pid=1 page=0 words=512",       // CPU 0 writes, peer holds clean lines
			"touch pid=2 page=3 words=64",        // CPU 1: a quarter of the page's lines
			"sharep from=2 page=3 to=1 vpn=0xf00003",
			"readp pid=1 vpn=0xf00003 words=512",  // partial peer residency
			"writep pid=1 vpn=0xf00003 words=256", // peer's lines now clean
			"sched pid=1 cpu=1",
			"readh pid=1 page=0 words=512", // back on CPU 1: CPU 0 holds it dirty
			"sched pid=2 cpu=0",
			"writep pid=2 vpn=0xf00000 words=256",
			"readh pid=2 page=3 words=256",
			"exit pid=2",
			"exit pid=1",
		}},
		// Text execution: two processes sharing one image exercise the
		// instruction-fetch DMA-read transitions against frames in
		// every data-cache state, plus the data-to-instruction copies.
		{name: "text", notes: []string{
			"spawn pid=1 img=- text=0 heap=16",
			"create pid=1 file=sd/img",
			"writec file=sd/img pages=2",
			"sync",
			"spawn pid=2 img=sd/img text=2 heap=8",
			"runtext pid=2 words=8",
			"spawn pid=3 img=sd/img text=2 heap=8",
			"runtext pid=3 words=8", // shared text object, second fetch
			"runtext pid=2 words=8",
			"touch pid=2 page=0 words=64",
			"writef pid=2 file=sd/img page=0 heap=0", // rewrite the image
			"sync",
			"exit pid=3",
			"exit pid=2",
			"exit pid=1",
		}},
	}
}

// SeedPrograms returns every handcrafted recipe under every
// configuration label.
func SeedPrograms(configs []string) []*replay.Program {
	var out []*replay.Program
	for _, cfg := range configs {
		for _, r := range seedRecipes() {
			name := fmt.Sprintf("seed-%s-%s", r.name, cfg)
			var pr *replay.Program
			var err error
			if r.cpus > 0 {
				pr, err = replay.FromNotesMP(name, cfg, r.cpus, r.notes)
			} else {
				pr, err = replay.FromNotes(name, cfg, r.notes)
			}
			if err != nil {
				panic(fmt.Sprintf("fuzz: seed %s: %v", r.name, err))
			}
			out = append(out, pr)
		}
	}
	return out
}
