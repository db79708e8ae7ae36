// Package vec provides the small amount of 3-D geometry the simulator
// needs: positions, displacement, distance, and axis-aligned regions.
//
// Coordinates are in meters. The convention throughout the simulator is
// that Z is depth: Z = 0 is the sea surface and Z grows downward, so a
// "shallower" node has a smaller Z.
package vec

import (
	"fmt"
	"math"
)

// V3 is a point or displacement in meters.
type V3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by k.
func (v V3) Scale(k float64) V3 { return V3{v.X * k, v.Y * k, v.Z * k} }

// Dot returns the dot product of v and w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v V3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between points v and w.
func (v V3) Dist(w V3) float64 { return v.Sub(w).Norm() }

// Depth returns the depth coordinate (Z, meters below surface).
func (v V3) Depth() float64 { return v.Z }

// String formats the point with centimeter precision.
func (v V3) String() string {
	return fmt.Sprintf("(%.2f, %.2f, %.2f)", v.X, v.Y, v.Z)
}

// Box is an axis-aligned region. Min.Z is the shallowest depth covered
// and Max.Z the deepest.
type Box struct {
	Min, Max V3
}

// Cube returns a box with the given side length whose top face sits at
// the surface (Z = 0), centered at the origin in X/Y.
func Cube(side float64) Box {
	h := side / 2
	return Box{
		Min: V3{X: -h, Y: -h, Z: 0},
		Max: V3{X: h, Y: h, Z: side},
	}
}

// Size returns the box edge lengths.
func (b Box) Size() V3 { return b.Max.Sub(b.Min) }

// Volume returns the box volume in cubic meters.
func (b Box) Volume() float64 {
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Contains reports whether p lies inside the box (inclusive bounds).
func (b Box) Contains(p V3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Clamp returns p moved to the nearest point inside the box.
func (b Box) Clamp(p V3) V3 {
	return V3{
		X: clamp(p.X, b.Min.X, b.Max.X),
		Y: clamp(p.Y, b.Min.Y, b.Max.Y),
		Z: clamp(p.Z, b.Min.Z, b.Max.Z),
	}
}

// WrapXY returns p with the horizontal coordinates wrapped torus-style
// into the box and the depth clamped. Mobility models use this so nodes
// drifting with a current re-enter the region instead of piling up at
// a wall (which would skew density).
func (b Box) WrapXY(p V3) V3 {
	s := b.Size()
	return V3{
		X: wrap(p.X, b.Min.X, s.X),
		Y: wrap(p.Y, b.Min.Y, s.Y),
		Z: clamp(p.Z, b.Min.Z, b.Max.Z),
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func wrap(v, lo, span float64) float64 {
	if span <= 0 {
		return lo
	}
	off := math.Mod(v-lo, span)
	if off < 0 {
		off += span
	}
	return lo + off
}
