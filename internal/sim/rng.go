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
// A stream's generator state is built only past draw 273, so a stream
// that draws less costs only this struct. Every draw is bit-identical
// to the same draw on rand.New(rand.NewSource(seed)). Like the engine,
// a stream is not safe for concurrent use.
type RNG struct {
	r   rand.Rand // draws from src
	src lazySource
}

// newRNG returns the stream rand.New(rand.NewSource(seed)) would draw.
func newRNG(seed int64) *RNG {
	r := &RNG{}
	r.src.Seed(seed)
	r.r = *rand.New(&r.src)
	return r
}

// Float64 returns a pseudo-random number in [0.0, 1.0).
func (r *RNG) Float64() float64 { return r.r.Float64() }

// Intn returns a pseudo-random number in [0, n); it panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.r.Intn(n) }

// Int63n returns a pseudo-random number in [0, n); it panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 { return r.r.Int63n(n) }

// ExpFloat64 returns an exponentially distributed variate with rate 1.
func (r *RNG) ExpFloat64() float64 { return r.r.ExpFloat64() }

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
	r := newRNG(deriveSeed(e.seed, k))
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

// lazySource is math/rand's additive lagged-Fibonacci source, the one
// rand.NewSource returns, bit for bit, except that its 607-word state
// is built only when a draw needs it.
//
// math/rand seeds state word i as
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// where x[n] = x[0]·48271ⁿ mod (2³¹−1) is a Lehmer sequence started at
// the reduced seed, so lehmerPow gives any word in one multiply-mod and
// two Lehmer steps. Draw j returns vec[feed]+vec[tap], with feed =
// 334−j and tap = 607−j, and writes the sum back at feed. Until draw
// 273 the tap has not reached a written word, so those draws read
// initial words only; draw 274 builds the vector, replays the 273
// write-backs and carries on as math/rand does.
type lazySource struct {
	x0        uint64 // x[0], the reduced seed
	tap, feed int
	vec       *[rngLen]int64 // nil until draw rngTap+1
}

const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

var (
	lehmerPow [rngLen]uint64 // 48271^(21+3i) mod (2³¹−1)
	rngCooked [rngLen]uint64 // math/rand's seeding constants
)

func init() {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = p * lehmerA % lehmerM
	}
	const a3 = lehmerA * lehmerA % lehmerM * lehmerA % lehmerM
	for i := range lehmerPow {
		lehmerPow[i] = p
		p = p * a3 % lehmerM
	}

	// Recover rngCooked from math/rand's first rngLen draws on seed 1,
	// whose initial state v is lehmerWord(1, i) ^ rngCooked[i]. Past
	// draw rngTap the tap holds draw j−rngTap's sum and the feed an
	// initial word, which gives v[60..0] and v[606..334]; draws 1 to
	// rngTap then give v[333..61].
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64 // out[j] is draw j
	for j := 1; j <= rngLen; j++ {
		out[j] = int64(ref.Uint64())
	}
	var v [rngLen]int64
	for j := rngTap + 1; j <= rngLen; j++ {
		v[(2*rngLen-rngTap-j)%rngLen] = out[j] - out[j-rngTap]
	}
	for j := 1; j <= rngTap; j++ {
		v[rngLen-rngTap-j] = out[j] - v[rngLen-j]
	}
	for i := range v {
		rngCooked[i] = uint64(v[i]) ^ lehmerWord(1, i)
	}
}

// lehmerWord is the Lehmer part of state word i for reduced seed x0.
func lehmerWord(x0 uint64, i int) uint64 {
	x := x0 * lehmerPow[i] % lehmerM
	u := x << 40
	x = x * lehmerA % lehmerM
	u ^= x << 20
	x = x * lehmerA % lehmerM
	return u ^ x
}

// word returns initial state word i.
func (s *lazySource) word(i int) int64 {
	return int64(lehmerWord(s.x0, i) ^ rngCooked[i])
}

// Seed resets the source to math/rand's state for seed.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{x0: uint64(seed), feed: rngLen - rngTap}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.vec == nil {
		if s.tap >= rngLen-rngTap {
			return uint64(s.word(s.feed) + s.word(s.tap))
		}
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// build fills the state as math/rand holds it after rngTap draws.
func (s *lazySource) build() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for t := rngLen - 1; t >= rngLen-rngTap; t-- {
		s.vec[t-rngTap] += s.vec[t]
	}
}
