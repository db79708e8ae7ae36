package obs

import (
	"math"
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
func AppendJSONFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
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
	if frac := ns % 1e9; frac != 0 {
		// 1e9+frac is 1 and frac's nine digits; the 1 becomes the point.
		dot := len(b)
		b = strconv.AppendInt(b, 1e9+frac, 10)
		b[dot] = '.'
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
	}
	return b
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
