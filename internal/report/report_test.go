package report

import (
	"strings"
	"testing"

	"vcache/internal/pmap"
	"vcache/internal/policy"
	"vcache/internal/workload"
)

func TestTable2Content(t *testing.T) {
	out := Table2()
	for _, want := range []string{
		"CPU-read", "CPU-write", "DMA-read", "DMA-write", "Purge", "Flush",
		"S → purge→P", // stale CPU-read target requires a purge
		"D → flush→E", // unaligned dirty copy flushed on CPU access
		"D → purge→E", // DMA-write over dirty data purges
		"D → flush→P", // DMA-read over dirty data flushes
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 24 {
		t.Errorf("Table 2 has only %d lines", lines)
	}
}

func TestTable3Content(t *testing.T) {
	out := Table3()
	for _, want := range []string{"empty", "present", "dirty", "stale", "cache_dirty"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
	// Exactly the four states appear as rows.
	for _, state := range []string{"empty", "present", "dirty", "stale"} {
		if strings.Count(out, state+" ")+strings.Count(out, state+"\t") == 0 &&
			!strings.Contains(out, state) {
			t.Errorf("state %s absent", state)
		}
	}
}

func fakeResult(name, label string, secs float64, flushes, purges uint64) workload.Result {
	cfg := policy.ConfigA()
	cfg.Label = label
	return workload.Result{
		Workload: name,
		Config:   cfg,
		Seconds:  secs,
		PM: pmap.Stats{
			DFlushPages: flushes,
			DPurgePages: purges,
		},
	}
}

func TestTable1Formatting(t *testing.T) {
	pairs := [][2]workload.Result{
		{fakeResult("afs-bench", "A", 66.0, 120000, 160000), fakeResult("afs-bench", "F", 59.4, 1000, 2000)},
	}
	out := Table1(pairs)
	for _, want := range []string{"afs-bench", "66.00", "59.40", "10%", "120000", "1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Formatting(t *testing.T) {
	rows := []workload.Result{
		fakeResult("kb", "A", 10, 5, 6),
		fakeResult("kb", "B", 9, 4, 5),
	}
	out := Table4([]string{"kb"}, [][]workload.Result{rows})
	// Configuration names print whole, however long.
	for _, want := range []string{"kb", "elapsed", "consis", "d→i", "A   old (eager, unaligned)  "} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
}

func TestTable5Formatting(t *testing.T) {
	measured := map[string]workload.Result{
		"CMU": fakeResult("stress", "CMU", 1.5, 10, 20),
	}
	out := Table5(measured)
	for _, want := range []string{"CMU", "Utah", "Tut", "Apollo", "Sun", "uncached", "yes", "no"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 missing %q:\n%s", want, out)
		}
	}
}

func TestMicroFormatting(t *testing.T) {
	a := workload.AliasMicroResult{Aligned: true, Writes: 1000, Seconds: 0.001}
	u := workload.AliasMicroResult{Aligned: false, Writes: 1000, Seconds: 1.0, Faults: 2000}
	sun := workload.AliasMicroResult{Config: policy.Sun(), Writes: 1000, Seconds: 0.01, Faults: 4}
	out := Micro(a, u, sun)
	for _, want := range []string{"aligned", "unaligned", "\n  Sun ", "1000x", "slowdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("Micro missing %q:\n%s", want, out)
		}
	}
}

func TestAnalysisFormatting(t *testing.T) {
	normal := []workload.Result{fakeResult("kb", "F", 10, 100, 200)}
	normal[0].Cycles = 500_000_000
	normal[0].PM.NewMappingPurges = 150
	normal[0].PM.DMAWritePurges = 20
	fast := []workload.Result{fakeResult("kb", "F", 9.9, 100, 200)}
	fast[0].Cycles = 495_000_000
	out := Analysis(normal, fast, 50_000_000)
	for _, want := range []string{"new mappings", "DMA-writes", "single-cycle page purge", "10.00 s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Analysis missing %q:\n%s", want, out)
		}
	}
}
