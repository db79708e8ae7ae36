package obs

import (
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"
)

// Hand-rolled JSON fragment encoders for the trace-v2 fast path and
// the slot profiler's lines. The contract is byte-identity with
// encoding/json (html-escaping on, the json.Encoder default), so the
// golden trace hashes pinned by the determinism suite and every
// tracetool invocation are oblivious to the switch away from
// reflection. jsonl_fidelity_test.go enforces the
// contract against encoding/json itself for every event type and for
// adversarial strings and floats.

const jsonHex = "0123456789abcdef"

// AppendJSONFloat appends f exactly as encoding/json renders a
// float64: shortest round-trip form, 'f' format inside [1e-6, 1e21),
// 'e' outside, with the exponent's leading zero stripped. ok is false
// for NaN/Inf, which encoding/json refuses (UnsupportedValueError).
// Values with 1 <= |f| < 1e15 take an integer-arithmetic search
// (appendShortest); the rest, and the few values it declines, take
// strconv.
func AppendJSONFloat(b []byte, f float64) (_ []byte, ok bool) {
	abs := math.Abs(f)
	if abs >= 1 && abs < 1e15 {
		if out, ok := appendShortest(b, f); ok {
			return out, true
		}
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// pow10 holds the powers of ten the integer float path scales by.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
	1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
}

// appendShortest writes f, with 1 <= |f| < 1e15, as the shortest
// decimal that reads back as f, which is strconv's 'f' form. Write
// f = M·2^-s with M the 53-bit mantissa, so 3 <= s <= 52. For k
// significant digits, of which p = k − (integer digits) are
// fractional, the nearest k-digit decimal is D·10^-p with D the
// rounded quotient M·10^p / 2^s, and D reads back as f iff it lies
// strictly inside f's rounding interval: 2·|D·2^s − M·10^p| < 10^p.
// The nearest (k+1)-digit decimal is at least as close as D·10^-p, so
// once one k fails every shorter k fails too: the search walks k down
// from 16 and keeps the last D that read back, or the 17-digit D when
// 16 fails. ok is false, and nothing is written, when the interval is
// not symmetric (M a power of two) or when the quotient is an exact
// tie between two candidates, which can both read back; strconv
// settles those (DESIGN.md, "cheap observers, second pass").
func appendShortest(b []byte, f float64) (_ []byte, ok bool) {
	fb := math.Float64bits(f)
	frac := fb & (1<<52 - 1)
	if frac == 0 {
		return b, false
	}
	m := frac | 1<<52
	s := uint(1075 - fb>>52&0x7FF)
	ip := uint64(math.Abs(f))
	n := 1
	for n < len(pow10) && ip >= pow10[n] {
		n++
	}
	d, p, found := uint64(0), 0, false
	for k := 16; k >= n; k-- {
		dk, reads, settled := nearestDecimal(m, s, k-n)
		if !settled {
			return b, false
		}
		if !reads {
			break
		}
		d, p, found = dk, k-n, true
	}
	if !found {
		dk, reads, settled := nearestDecimal(m, s, 17-n)
		if !settled || !reads {
			return b, false
		}
		d, p = dk, 17-n
	}
	// D ≥ ip·10^p. Its fraction digits are D − ip·10^p unless rounding
	// carried into the integer part, which a decimal that reads back
	// cannot do (it would end in zeros, so a shorter one reads back).
	fd := d - ip*pow10[p]
	if fd >= pow10[p] {
		return b, false
	}
	if f < 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, ip, 10)
	if p > 0 {
		b = append(b, '.')
		b = appendDigits(b, fd, p)
	}
	return b, true
}

// nearestDecimal returns D, the rounded quotient m·10^p / 2^s: the
// decimal D·10^-p nearest m·2^-s with p fractional digits. reads
// reports whether D·10^-p lies strictly inside the rounding interval
// of m·2^-s, taken as symmetric (m not a power of two). settled is
// false when the quotient is an exact tie, so that two candidates are
// nearest. For s > p, as inside appendShortest's gate, no candidate
// lies on the interval's edge: that would put D·2^s − m·10^p at
// ±10^p/2, whose factor of two is 2^(p−1), while both terms are
// multiples of 2^p.
func nearestDecimal(m uint64, s uint, p int) (d uint64, reads, settled bool) {
	hi, lo := bits.Mul64(m, pow10[p])
	d = lo>>s | hi<<(64-s)
	rem, half := lo&(1<<s-1), uint64(1)<<(s-1)
	dist := rem
	switch {
	case rem == half:
		return 0, false, false
	case rem > half:
		d++
		dist = 1<<s - rem
	}
	return d, 2*dist < pow10[p], true
}

// AppendJSONSeconds appends f, the seconds value of ns nanoseconds,
// exactly as AppendJSONFloat(b, f) does. When f is the float nearest
// ns/1e9 and ns is in [1000, 2^51), it skips the shortest-float search
// and writes ns/1e9 as a trimmed decimal: there an ulp of f is under
// 1e-9, so no other decimal of at most nine places reads back as f
// (DESIGN.md, "cheap observers"). Other input takes AppendJSONFloat,
// which never fails here: a seconds value of ns is finite.
func AppendJSONSeconds(b []byte, ns int64, f float64) []byte {
	if ns < 1000 || ns >= 1<<51 || f != float64(ns)/1e9 {
		b, _ = AppendJSONFloat(b, f)
		return b
	}
	b = strconv.AppendInt(b, ns/1e9, 10)
	if frac := uint64(ns % 1e9); frac != 0 {
		w := 9
		for frac%10 == 0 {
			frac /= 10
			w--
		}
		b = append(b, '.')
		b = appendDigits(b, frac, w)
	}
	return b
}

// digitPairs is "00" through "99", two bytes a pair.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendDigits appends v as exactly w decimal digits, zero-padded on
// the left, two digits per step. v must be below 10^w and w at most
// 20.
func appendDigits(b []byte, v uint64, w int) []byte {
	var buf [20]byte
	i := w
	for ; i >= 2; i -= 2 {
		d := v % 100 * 2
		v /= 100
		buf[i-2], buf[i-1] = digitPairs[d], digitPairs[d+1]
	}
	if i == 1 {
		buf[0] = byte('0' + v)
	}
	return append(b, buf[:w]...)
}

// jsonSafe reports whether a single byte can be copied verbatim into a
// JSON string under encoding/json's html-escaping rules (its
// htmlSafeSet: printable, not a quote or backslash, not <, >, &).
func jsonSafe(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// AppendJSONString appends s as a quoted JSON string, byte-identical
// to encoding/json's encoder with html escaping on: control bytes and
// <, >, & become \u00xx (\n, \r, \t as two-byte escapes), invalid
// UTF-8 becomes �, and U+2028/U+2029 are escaped for the benefit
// of javascript consumers.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendUint/appendInt wrap strconv for symmetry with the helpers
// above; JSON integers have no special cases.
func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }
func appendInt(b []byte, v int64) []byte   { return strconv.AppendInt(b, v, 10) }
