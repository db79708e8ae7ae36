package experiment

import (
	"runtime"
	"testing"
	"time"
)

// setupBytesCeiling bounds what the Table 2 EW-MAC scenario allocates
// when it stops 1 ms after warmup: almost all of it is per-run set-up
// (deployment, channel geometry, modems, MAC cores, neighbour tables,
// RNG streams), since the steady state allocates next to nothing. It
// is the figure measured with Go 1.24 on linux/amd64 (467,672 B) plus
// 5%. Set-up allocated 1,874,680 B before streams were seeded lazily
// and tables presized, 1,409,608 B while every drawn stream still
// built math/rand's 607-word state, and 736,936 B while the channel
// kept every source's first geometry build and gave each broadcast
// its own frame view. Event lanes took it to 440,056 B; the ceiling
// stays.
const setupBytesCeiling = 492_000

func TestHeadlineSetupBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = cfg.Warmup + time.Millisecond
	if _, err := Run(cfg); err != nil { // warm package-level state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("set-up allocated %d B in %d objects", got, after.Mallocs-before.Mallocs)
	if got > setupBytesCeiling {
		t.Errorf("set-up allocated %d B, ceiling %d B", got, setupBytesCeiling)
	}
}

// denseAllocsCeiling bounds the allocations of one 200-sensor, 1.0 kbps
// EW-MAC run of 75 s (the Figure 10b regime the dense benchmark
// workload runs): 7,293 measured with Go 1.24 on linux/amd64, plus 5%.
// Each broadcast in flight is one pooled wave with two engine lanes, so
// the count follows the peak number of broadcasts in flight, not of
// arrivals; with a pooled record and an engine entry per arrival it
// was 12,540, and 9,110 while each modem allocated its energy meter
// and its first arrival records, and each MAC its neighbour table's
// header, apart from itself.
const denseAllocsCeiling = 7_658

// denseBytesCeiling bounds the bytes the same run allocates: 2,092,216
// measured with Go 1.24 on linux/amd64, plus 5%. The 204 neighbour
// tables of 205 slots are about a third of it; with 24-byte entries
// the run allocated 2,535,112 B.
const denseBytesCeiling = 2_197_000

func TestDenseRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	cfg := Default(ProtocolEWMAC)
	cfg.Nodes = 200
	cfg.OfferedLoadKbps = 1.0
	cfg.SimTime = 75 * time.Second
	if _, err := Run(cfg); err != nil { // warm package-level state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("dense run allocated %d objects, %d B", got, bytes)
	if got > denseAllocsCeiling {
		t.Errorf("dense run allocated %d objects, ceiling %d", got, denseAllocsCeiling)
	}
	if bytes > denseBytesCeiling {
		t.Errorf("dense run allocated %d B, ceiling %d B", bytes, denseBytesCeiling)
	}
}
