package channel

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/topology"
	"ewmac/internal/vec"
)

// sortedLike checks that s orders keys exactly as slices.Sort does.
// Callers reuse s, so its buffers carry over from call to call.
func sortedLike(t *testing.T, name string, s *raySorter, keys []uint64) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	lo, hi := uint64(0), uint64(0)
	if len(keys) > 0 {
		lo, hi = slices.Min(keys), slices.Max(keys)
	}
	got := s.sort(slices.Clone(keys), lo, hi)
	if !slices.Equal(got, want) {
		t.Errorf("%s: n=%d: sorter order differs from slices.Sort", name, len(keys))
	}
}

// keysFor builds one key per delay, the ray index in the low bits.
func keysFor(delays []time.Duration) []uint64 {
	keys := make([]uint64, len(delays))
	for i, d := range delays {
		keys[i] = rayKey(d, i)
	}
	return keys
}

func TestRaySorterMatchesSlicesSort(t *testing.T) {
	var s raySorter
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2} {
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Int63n(int64(2 * time.Second)))
		}
		sortedLike(t, "tiny", &s, keysFor(delays))
		slices.Reverse(delays)
		sortedLike(t, "tiny reversed", &s, keysFor(delays))
	}
	for _, n := range []int{maxInsertion, maxInsertion + 1, 203, 1000} {
		uniform := make([]time.Duration, n)
		equal := make([]time.Duration, n)
		clustered := make([]time.Duration, n)
		for i := range uniform {
			uniform[i] = time.Duration(rng.Int63n(int64(2 * time.Second)))
			// A few distinct delays, each shared by many rays: ties
			// are broken by the ray alone.
			equal[i] = time.Duration(rng.Intn(3)) * 400 * time.Millisecond
			// All but one ray within 1 µs of each other and the last
			// far away, so nearly every key lands in the first bucket
			// and takes the O(n log n) path.
			clustered[i] = time.Second + time.Duration(rng.Intn(1000))
		}
		clustered[n-1] = 2 * time.Second
		sortedLike(t, "uniform", &s, keysFor(uniform))
		sortedLike(t, "equal delays", &s, keysFor(equal))
		sortedLike(t, "clustered", &s, keysFor(clustered))
		slices.Reverse(uniform)
		sortedLike(t, "uniform reversed", &s, keysFor(uniform))
	}
}

// wantOrder recomputes src's ray keys from the model's own per-pair
// Delay and SurfacePath and sorts them with slices.Sort.
func wantOrder(ch *Channel, src *topology.Node) []uint64 {
	model := ch.net.Model
	var keys []uint64
	for i, g := range ch.scratch {
		dst := ch.net.Node(g.dst)
		d := model.Delay(src.Pos, dst.Pos)
		keys = append(keys, rayKey(d, 2*i))
		if model.SurfaceReflection {
			if rd, _ := model.SurfacePath(src.Pos, dst.Pos); rd > d {
				keys = append(keys, rayKey(rd, 2*i+1))
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// TestBuildGeomsOrderMatchesSlicesSort checks every source's ray order
// over random deployments against slices.Sort of keys built from
// Model.Delay, which also pins the delays computed from each pair's
// distance once to Model.Delay's bits.
func TestBuildGeomsOrderMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ring := func(n int) []vec.V3 {
		// Mirror images about a centre node at equal depth: their
		// delays from it are equal bit for bit.
		pos := []vec.V3{{X: 0, Y: 0, Z: 500}}
		for i := 0; len(pos) < n; i++ {
			r := float64(100 + 50*(i/4))
			for _, p := range []vec.V3{{X: r}, {X: -r}, {Y: r}, {Y: -r}} {
				p.Z = 500
				pos = append(pos, p)
			}
		}
		return pos[:n]
	}
	cluster := func(n int) []vec.V3 {
		// Nearly every node within a metre of the first, one far off.
		pos := make([]vec.V3, n)
		for i := range pos {
			pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: 300 + rng.Float64()}
		}
		pos[n-1] = vec.V3{X: 1900, Z: 300}
		return pos
	}
	cube := func(n int) []vec.V3 {
		pos := make([]vec.V3, n)
		for i := range pos {
			pos[i] = vec.V3{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, Z: 1 + rng.Float64()*1000}
		}
		return pos
	}
	deployments := map[string][]vec.V3{
		"one":     cube(1),
		"two":     cube(2),
		"three":   cube(3),
		"cube-30": cube(30),
		"cube-80": cube(80),
		// 1 km cube at the dense workload's size.
		"cube-201":   cube(201),
		"ring-41":    ring(41),
		"cluster-60": cluster(60),
	}
	for _, surface := range []bool{false, true} {
		model := acoustic.DefaultModel()
		model.SurfaceReflection = surface
		for name, pos := range deployments {
			_, ch, _, _ := channelAt(t, model, pos)
			for _, src := range ch.net.Nodes() {
				ch.buildGeoms(src)
				if want := wantOrder(ch, src); !slices.Equal(ch.order, want) {
					t.Errorf("%s surface=%v src=%v: ray order %v, want %v", name, surface, src.ID, ch.order, want)
				}
				for i, g := range ch.scratch {
					if d := model.Delay(src.Pos, ch.net.Node(g.dst).Pos); g.delay != d {
						t.Errorf("%s src=%v ray %d: delay %v, Model.Delay %v", name, src.ID, i, g.delay, d)
					}
				}
			}
		}
	}
}
