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
// its own frame view.
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
