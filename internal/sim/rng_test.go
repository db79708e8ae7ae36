package sim

import (
	"hash/fnv"
	"math"
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
		for step := 0; step < drawLen; step++ {
			for _, i := range order {
				m := rngMethods[(step+i)%len(rngMethods)]
				if got, want := m.draw(lazy[i], eager[i]); got != want {
					t.Fatalf("seed %d stream %q step %d %s: draw bits %#x, eager %#x", seed, streamNames[i], step, m.name, got, want)
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

// TestUndrawnStreamCost pins the lazy state: a stream nothing draws
// from costs one small object (the map's amortized growth included).
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

// TestDrawnStreamCost pins where a stream's state is built: draws 1 to
// rngTap allocate nothing, and draw rngTap+1 allocates the one
// rngLen-word vector.
func TestDrawnStreamCost(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	const n = 100
	streams := make([]*RNG, n)
	for i := range streams {
		streams[i] = newRNG(int64(i))
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range streams {
		for j := 0; j < rngTap; j++ {
			r.src.Uint64()
		}
	}
	runtime.ReadMemStats(&m1)
	for _, r := range streams {
		r.src.Uint64()
	}
	runtime.ReadMemStats(&m2)
	if objs, b := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc; objs != 0 || b != 0 {
		t.Errorf("%d draws on %d streams allocated %d objects, %d B; want none", rngTap, n, objs, b)
	}
	const vec = rngLen * 8
	if objs, b := (m2.Mallocs-m1.Mallocs)/n, (m2.TotalAlloc-m1.TotalAlloc)/n; objs != 1 || b < vec || b >= vec+vec/16 {
		t.Errorf("draw %d allocated %d objects, %d B per stream; want one %d B vector", rngTap+1, objs, b, vec)
	}
}

// edgeSeeds are the seeds where math/rand's seed reduction changes
// branch: zero and its alias 89482311, the sign boundary, multiples of
// the Lehmer modulus 2³¹−1 and their neighbours, and the int64 limits.
func edgeSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, math.MinInt64, math.MaxInt64}
	for _, k := range []int64{1, 2, 3, -1, -2, math.MaxInt64 / lehmerM, math.MinInt64 / lehmerM} {
		m := k * lehmerM
		seeds = append(seeds, m-1, m, m+1)
	}
	return seeds
}

// testSeeds returns the edge seeds and 2,000 pseudo-random ones.
func testSeeds() []int64 {
	seeds := edgeSeeds()
	g := rand.New(rand.NewSource(20260101))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(g.Uint64()))
	}
	return seeds
}

// drawLen crosses the rngTap/rngTap+1 boundary and wraps the state
// vector three times.
const drawLen = 3*rngLen + 1

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		var s lazySource
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for j := 1; j <= drawLen; j++ {
			if j%2 == 0 {
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, j, got, want)
				}
			} else if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, j, got, want)
			}
		}
	}
}

// rngMethods draws once through each RNG method and through the same
// call on rand.Rand, and returns both draws' bits.
var rngMethods = []struct {
	name string
	draw func(l *RNG, r *rand.Rand) (got, want uint64)
}{
	{"Float64", func(l *RNG, r *rand.Rand) (uint64, uint64) {
		return math.Float64bits(l.Float64()), math.Float64bits(r.Float64())
	}},
	{"Intn(1000)", func(l *RNG, r *rand.Rand) (uint64, uint64) {
		return uint64(l.Intn(1000)), uint64(r.Intn(1000))
	}},
	{"Intn(1<<10)", func(l *RNG, r *rand.Rand) (uint64, uint64) {
		return uint64(l.Intn(1 << 10)), uint64(r.Intn(1 << 10))
	}},
	{"Intn(3<<40)", func(l *RNG, r *rand.Rand) (uint64, uint64) {
		return uint64(l.Intn(3 << 40)), uint64(r.Intn(3 << 40))
	}},
	{"Int63n(1<<62+1)", func(l *RNG, r *rand.Rand) (uint64, uint64) {
		return uint64(l.Int63n(1<<62 + 1)), uint64(r.Int63n(1<<62 + 1))
	}},
	{"ExpFloat64", func(l *RNG, r *rand.Rand) (uint64, uint64) {
		return math.Float64bits(l.ExpFloat64()), math.Float64bits(r.ExpFloat64())
	}},
	{"ExpFloat64Rate(2.5)", func(l *RNG, r *rand.Rand) (uint64, uint64) {
		return math.Float64bits(l.ExpFloat64Rate(2.5)), math.Float64bits(r.ExpFloat64() / 2.5)
	}},
}

// TestRNGMethodsMatchMathRand draws drawLen times through every method
// on the edge seeds, and through one method per pseudo-random seed.
func TestRNGMethodsMatchMathRand(t *testing.T) {
	edge := len(edgeSeeds())
	for i, seed := range testSeeds() {
		for k, m := range rngMethods {
			if i >= edge && k != i%len(rngMethods) {
				continue
			}
			l, r := newRNG(seed), rand.New(rand.NewSource(seed))
			for j := 1; j <= drawLen; j++ {
				if got, want := m.draw(l, r); got != want {
					t.Fatalf("seed %d %s draw %d: bits %#x, want %#x", seed, m.name, j, got, want)
				}
			}
		}
	}
}

// FuzzStreamMatchesMathRand checks n raw draws and n mixed method
// draws on seed against math/rand.
func FuzzStreamMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds() {
		f.Add(seed, uint16(drawLen))
	}
	f.Add(int64(7), uint16(rngTap+1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		var s lazySource
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for j := 1; j <= int(n); j++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, j, got, want)
			}
		}
		l, r := newRNG(seed), rand.New(rand.NewSource(seed))
		for j := 1; j <= int(n); j++ {
			m := rngMethods[(j+int(uint64(seed)%7))%len(rngMethods)]
			if got, want := m.draw(l, r); got != want {
				t.Fatalf("seed %d draw %d %s: bits %#x, want %#x", seed, j, m.name, got, want)
			}
		}
	})
}
