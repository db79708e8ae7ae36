package main

import (
	"path/filepath"
	"testing"
)

func TestAllocsRegressed(t *testing.T) {
	for _, tc := range []struct {
		old, cur  int64
		threshold float64
		want      bool
	}{
		{0, 0, 10, false},
		{0, 1, 10, true}, // a zero-alloc row has no percentage to hide behind
		{0, 1, 1000, true},
		{100, 110, 10, false},
		{100, 111, 10, true},
		{100, 50, 10, false},
	} {
		if got := allocsRegressed(tc.old, tc.cur, tc.threshold); got != tc.want {
			t.Errorf("allocsRegressed(%d, %d, %v) = %v, want %v", tc.old, tc.cur, tc.threshold, got, tc.want)
		}
	}
}

func TestCompareGatesZeroAllocBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	base := []result{
		{Name: "engine/schedule-run", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "channel/broadcast-40", NsPerOp: 1000, AllocsPerOp: 1},
	}
	if err := writeResults(path, base); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		engineAllocs   int64
		allocThreshold float64
		want           bool
	}{
		{"still zero", 0, 10, false},
		{"starts allocating", 1, 10, true},
		{"gate disabled", 1, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := []result{
				{Name: "engine/schedule-run", NsPerOp: 1000, AllocsPerOp: tc.engineAllocs},
				{Name: "channel/broadcast-40", NsPerOp: 1000, AllocsPerOp: 1},
			}
			got, err := compareResults(path, cur, 50, tc.allocThreshold)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("regressed = %v, want %v", got, tc.want)
			}
		})
	}
}
