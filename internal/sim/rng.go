package sim

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// RNG is a deterministic random stream. Distinct subsystems (traffic,
// mobility, per-node contention) draw from distinct streams so that
// adding randomness to one subsystem does not perturb another — a
// prerequisite for meaningful A/B comparisons between protocols on the
// same seed.
//
// A stream's math/rand source (about 5 KB) is seeded on its first
// draw, so a stream a run never draws from costs only this struct.
// Every draw is bit-identical to the same draw on
// rand.New(rand.NewSource(seed)). Like the engine, a stream is not
// safe for concurrent use.
type RNG struct {
	r      rand.Rand // zero until the first draw
	seed   int64
	seeded bool
}

// src returns the generator, seeding it on first use.
func (r *RNG) src() *rand.Rand {
	if !r.seeded {
		r.seedNow()
	}
	return &r.r
}

// seedNow seeds the generator. The rand.Rand lives inside the RNG, so
// this allocates only the source.
func (r *RNG) seedNow() {
	r.r = *rand.New(rand.NewSource(r.seed))
	r.seeded = true
}

// Float64 returns a pseudo-random number in [0.0, 1.0).
func (r *RNG) Float64() float64 { return r.src().Float64() }

// Intn returns a pseudo-random number in [0, n); it panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.src().Intn(n) }

// Int63n returns a pseudo-random number in [0, n); it panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 { return r.src().Int63n(n) }

// ExpFloat64 returns an exponentially distributed variate with rate 1.
func (r *RNG) ExpFloat64() float64 { return r.src().ExpFloat64() }

// ExpFloat64Rate draws an exponential variate with the given rate
// (events per second); it returns +Inf for a non-positive rate, which
// callers use to disable a generator.
func (r *RNG) ExpFloat64Rate(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return r.ExpFloat64() / rate
}

// streamKey identifies a stream: a kind ("mac", "fault/churn") and a
// non-negative per-node id, or id -1 for a stream named by kind alone
// ("deploy"). The stream's name is kind, or "<kind>/<id>".
type streamKey struct {
	kind string
	id   int
}

// keyOf splits a name into its stream key. A name ending in "/<n>",
// with n in canonical decimal form, is the indexed stream (prefix, n),
// so RNG("mac/3") and Stream("mac", 3) are the same stream.
func keyOf(name string) streamKey {
	i := strings.LastIndexByte(name, '/')
	digits := name[i+1:]
	if i < 0 || digits == "" || digits[0] < '0' || digits[0] > '9' ||
		(digits[0] == '0' && len(digits) > 1) {
		return streamKey{kind: name, id: -1}
	}
	id, err := strconv.Atoi(digits)
	if err != nil {
		return streamKey{kind: name, id: -1}
	}
	return streamKey{kind: name[:i], id: id}
}

// RNG returns the stream with the given name, creating it on first
// use. The stream's seed is a stable function of the engine seed and
// the name. Callers request a stream once, at construction, and keep
// the handle.
func (e *Engine) RNG(name string) *RNG { return e.stream(keyOf(name)) }

// Stream returns the per-node stream "<kind>/<id>" without building its
// name: Stream("mac", 3) is RNG("mac/3"). It panics on a negative id.
func (e *Engine) Stream(kind string, id int) *RNG {
	if id < 0 {
		panic("sim: negative stream id")
	}
	return e.stream(streamKey{kind: kind, id: id})
}

func (e *Engine) stream(k streamKey) *RNG {
	if r, ok := e.streams[k]; ok {
		return r
	}
	r := &RNG{seed: deriveSeed(e.seed, k)}
	e.streams[k] = r
	return r
}

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds b into the hash h.
func fnv1a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

// deriveSeed is the FNV-1a hash of "<seed in hex>:<stream name>",
// computed without building the string; zero maps to one.
func deriveSeed(seed int64, k streamKey) int64 {
	var buf [20]byte
	h := fnv1a(fnvOffset, strconv.AppendInt(buf[:0], seed, 16))
	h = fnv1a(h, ":")
	h = fnv1a(h, k.kind)
	if k.id >= 0 {
		h = fnv1a(h, "/")
		h = fnv1a(h, strconv.AppendInt(buf[:0], int64(k.id), 10))
	}
	derived := int64(h) //nolint:gosec // deliberate wraparound
	if derived == 0 {
		derived = 1
	}
	return derived
}
