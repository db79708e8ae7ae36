package sim

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// refSeed is the string-building seed derivation streams were created
// with before deriveSeed hashed the bytes in place; every seed must
// still match it.
func refSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(strconv.FormatInt(seed, 16) + ":" + name))
	if d := int64(h.Sum64()); d != 0 { //nolint:gosec // deliberate wraparound
		return d
	}
	return 1
}

func TestDeriveSeedPinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		name string
		want int64
	}{
		{1, "deploy", -2236935066924506303},
		{1, "mac/0", 5102244553921035274},
		{42, "phy/63", -4771643834210499475},
		{-7, "traffic/12", -3440130465567390220},
		{0, "fault/churn/5", -2555339201027980620},
		{1 << 40, "x", 4185776236002275710},
	} {
		if got := deriveSeed(tc.seed, keyOf(tc.name)); got != tc.want {
			t.Errorf("deriveSeed(%d, %q) = %d, want %d", tc.seed, tc.name, got, tc.want)
		}
		if ref := refSeed(tc.seed, tc.name); ref != tc.want {
			t.Errorf("refSeed(%d, %q) = %d, want %d", tc.seed, tc.name, ref, tc.want)
		}
	}
}

// streamNames covers plain names, per-node (kind, id) names with one-
// and multi-segment kinds, and names whose suffix is not a canonical
// id, which stay plain names.
var streamNames = []string{
	"deploy", "fault/select", "mac/0", "mac/1", "mac/63", "saloha/9",
	"phy/7", "traffic/12", "fault/churn/5", "fault/outage/40",
	"x/007", "x/", "a/b", "/3", "x/-1", "x/99999999999999999999",
}

func TestKeyOfRoundTrips(t *testing.T) {
	for _, name := range streamNames {
		k := keyOf(name)
		got := k.kind
		if k.id >= 0 {
			got += "/" + strconv.Itoa(k.id)
		}
		if got != name {
			t.Errorf("keyOf(%q) = %+v, which names %q", name, k, got)
		}
	}
	for _, name := range []string{"x/007", "x/-1", "a/b", "deploy"} {
		if k := keyOf(name); k.id != -1 {
			t.Errorf("keyOf(%q) = %+v, want a plain name", name, k)
		}
	}
}

// TestLazyStreamsMatchEager creates streams lazily, in shuffled order,
// by name or by (kind, id), and draws from them interleaved with every
// method the simulator calls; each draw must equal the same draw on an
// eagerly seeded math/rand source.
func TestLazyStreamsMatchEager(t *testing.T) {
	for _, seed := range []int64{1, 42, -7} {
		e := NewEngine(seed)
		order := rand.New(rand.NewSource(seed)).Perm(len(streamNames))
		lazy := make([]*RNG, len(streamNames))
		eager := make([]*rand.Rand, len(streamNames))
		for n, i := range order {
			name := streamNames[i]
			if k := keyOf(name); k.id >= 0 && n%2 == 0 {
				lazy[i] = e.Stream(k.kind, k.id)
			} else {
				lazy[i] = e.RNG(name)
			}
			eager[i] = rand.New(rand.NewSource(refSeed(seed, name)))
		}
		for step := 0; step < 200; step++ {
			for _, i := range order {
				l, r := lazy[i], eager[i]
				var got, want float64
				switch (step + i) % 5 {
				case 0:
					got, want = l.Float64(), r.Float64()
				case 1:
					got, want = float64(l.Intn(1000)), float64(r.Intn(1000))
				case 2:
					got, want = float64(l.Int63n(1<<40)), float64(r.Int63n(1<<40))
				case 3:
					got, want = l.ExpFloat64(), r.ExpFloat64()
				case 4:
					got, want = l.ExpFloat64Rate(2.5), r.ExpFloat64()/2.5
				}
				if got != want {
					t.Fatalf("seed %d stream %q step %d: draw %v, eager %v", seed, streamNames[i], step, got, want)
				}
			}
		}
	}
}

func TestStreamAndNameAgree(t *testing.T) {
	e := NewEngine(3)
	if e.Stream("mac", 3) != e.RNG("mac/3") {
		t.Error(`Stream("mac", 3) and RNG("mac/3") are different streams`)
	}
	if e.RNG("fault/churn/12") != e.Stream("fault/churn", 12) {
		t.Error(`RNG("fault/churn/12") and Stream("fault/churn", 12) are different streams`)
	}
	if e.RNG("x/007") == e.Stream("x", 7) {
		t.Error(`RNG("x/007") aliases Stream("x", 7)`)
	}
	defer func() {
		if recover() == nil {
			t.Error("Stream with a negative id did not panic")
		}
	}()
	e.Stream("mac", -1)
}

// TestUndrawnStreamCost pins the lazy seeding: a stream nothing draws
// from costs one small object (the map's amortized growth included),
// not a seeded ~5 KB source.
func TestUndrawnStreamCost(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	const n = 1000
	e := NewEngine(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := 0; id < n; id++ {
		e.Stream("mac", id)
	}
	runtime.ReadMemStats(&after)
	if objs := (after.Mallocs - before.Mallocs) / n; objs > 1 {
		t.Errorf("%d objects per undrawn stream, want at most 1", objs)
	}
	if b := (after.TotalAlloc - before.TotalAlloc) / n; b >= 512 {
		t.Errorf("%d B per undrawn stream, want under 512", b)
	}
}
