package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestArithmetic(t *testing.T) {
	v := V3{1, 2, 3}
	w := V3{4, -5, 6}
	if got := v.Add(w); got != (V3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (V3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (V3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); !almost(got, 4-10+18) {
		t.Errorf("Dot = %v", got)
	}
}

func TestDist(t *testing.T) {
	a := V3{0, 0, 0}
	b := V3{3, 4, 0}
	if !almost(a.Dist(b), 5) {
		t.Errorf("Dist = %v, want 5", a.Dist(b))
	}
	c := V3{3, 4, 12}
	if !almost(a.Dist(c), 13) {
		t.Errorf("Dist = %v, want 13", a.Dist(c))
	}
}

func TestCube(t *testing.T) {
	b := Cube(1000)
	if !almost(b.Volume(), 1e9) {
		t.Errorf("Volume = %v, want 1e9", b.Volume())
	}
	if b.Min.Z != 0 || b.Max.Z != 1000 {
		t.Errorf("depth bounds = [%v, %v], want [0, 1000]", b.Min.Z, b.Max.Z)
	}
	if !b.Contains(V3{0, 0, 500}) {
		t.Error("center not contained")
	}
	if b.Contains(V3{0, 0, -1}) {
		t.Error("point above surface contained")
	}
}

func TestClamp(t *testing.T) {
	b := Cube(100)
	p := b.Clamp(V3{1000, -1000, 50})
	if p != (V3{50, -50, 50}) {
		t.Errorf("Clamp = %v", p)
	}
	inside := V3{10, -10, 10}
	if b.Clamp(inside) != inside {
		t.Error("Clamp moved an interior point")
	}
}

// Property: WrapXY always lands inside the box and preserves points that
// are already inside.
func TestWrapXYProperty(t *testing.T) {
	b := Cube(1000)
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(z, 0) {
			return true
		}
		x = math.Mod(x, 1e6)
		y = math.Mod(y, 1e6)
		z = math.Mod(z, 1e6)
		p := b.WrapXY(V3{x, y, z})
		if !b.Contains(p) {
			return false
		}
		if b.Contains(V3{x, y, z}) {
			q := V3{x, y, z}
			return almost(p.X, q.X) && almost(p.Y, q.Y) && almost(p.Z, q.Z)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestDistMetricProperty(t *testing.T) {
	gen := func(a, b, c, d, e, f, g, h, i int16) bool {
		p := V3{float64(a), float64(b), float64(c)}
		q := V3{float64(d), float64(e), float64(f)}
		r := V3{float64(g), float64(h), float64(i)}
		if !almost(p.Dist(q), q.Dist(p)) {
			return false
		}
		return p.Dist(r) <= p.Dist(q)+q.Dist(r)+1e-9
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWrapDegenerateSpan(t *testing.T) {
	b := Box{Min: V3{0, 0, 0}, Max: V3{0, 0, 10}}
	p := b.WrapXY(V3{5, 5, 5})
	if p.X != 0 || p.Y != 0 {
		t.Errorf("WrapXY with zero span = %v, want X=Y=0", p)
	}
}
