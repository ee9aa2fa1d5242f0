// Package value defines the dynamic value domain that flows through a KEM
// program: request payloads, variable contents, event payloads, transactional
// rows, and responses.
//
// The domain deliberately mirrors JSON (the paper's applications are
// JavaScript): nil, bool, float64 (the only numeric kind, as in JavaScript),
// string, []V, and map[string]V. Keeping the domain JSON-native means advice
// round-trips through serialization without changing type, which matters
// because the verifier compares replayed values byte-for-byte.
// Values must be deeply comparable and deterministically digestible, because
// the Karousos server computes control-flow tags and handler IDs from value
// digests, and the verifier compares re-executed outputs byte-for-byte
// against the trace.
package value

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// V is a dynamic value. Only the JSON-like kinds listed in the package
// comment are supported; Normalize coerces every Go numeric type into
// float64 so that equality and digests are representation-independent and
// JSON round-trips are exact.
type V = any

// Normalize maps the supported Go representations onto the canonical domain:
// every numeric type becomes float64 (JavaScript semantics), and slices/maps
// are normalized recursively. It returns the input unchanged (no allocation)
// when it is already canonical — the overwhelmingly common case on the
// verifier's hot path — and panics on unsupported kinds, because an
// unsupported value indicates an application bug rather than a recoverable
// condition.
func Normalize(v V) V {
	if isCanonical(v) {
		return v
	}
	return normalizeSlow(v)
}

// isCanonical reports whether v is already entirely in the canonical domain.
func isCanonical(v V) bool {
	switch x := v.(type) {
	case nil, bool, float64, string:
		return true
	case []V:
		for _, e := range x {
			if !isCanonical(e) {
				return false
			}
		}
		return true
	case map[string]V:
		for _, e := range x {
			if !isCanonical(e) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func normalizeSlow(v V) V {
	switch x := v.(type) {
	case nil, bool, float64, string:
		return x
	case int:
		return float64(x)
	case int8:
		return float64(x)
	case int16:
		return float64(x)
	case int32:
		return float64(x)
	case int64:
		return float64(x)
	case uint:
		return float64(x)
	case uint8:
		return float64(x)
	case uint16:
		return float64(x)
	case uint32:
		return float64(x)
	case uint64:
		return float64(x)
	case float32:
		return float64(x)
	case []V:
		out := make([]V, len(x))
		for i, e := range x {
			out[i] = Normalize(e)
		}
		return out
	case map[string]V:
		out := make(map[string]V, len(x))
		for k, e := range x {
			out[k] = Normalize(e)
		}
		return out
	default:
		panic(fmt.Sprintf("value: unsupported kind %T", v))
	}
}

// Equal reports deep equality of two canonical values. Callers should
// Normalize first.
func Equal(a, b V) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case []V:
		y, ok := b.([]V)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]V:
		y, ok := b.(map[string]V)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !Equal(v, w) {
				return false
			}
		}
		return true
	default:
		panic(fmt.Sprintf("value: unsupported kind %T", a))
	}
}

// Same reports whether a and b are one value rather than two equal ones:
// the same map, the same list (the same elements in the same memory), or
// scalars with the same bits. Same implies Equal for everything but NaN,
// and it never walks a container, so it is a constant-time test that a
// value has not been replaced since it was taken.
func Same(a, b V) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case string:
		y, ok := b.(string)
		return ok && x == y
	case []V:
		y, ok := b.([]V)
		return ok && len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
	case map[string]V:
		y, ok := b.(map[string]V)
		return ok && reflect.ValueOf(x).UnsafePointer() == reflect.ValueOf(y).UnsafePointer()
	default:
		return false
	}
}

// Clone returns a deep copy of v. The server and verifier clone values at
// every logging and dictionary boundary so that later in-place mutation by
// application code cannot retroactively change recorded history.
func Clone(v V) V {
	switch x := v.(type) {
	case nil, bool, float64, string:
		return x
	case []V:
		out := make([]V, len(x))
		for i, e := range x {
			out[i] = Clone(e)
		}
		return out
	case map[string]V:
		out := make(map[string]V, len(x))
		for k, e := range x {
			out[k] = Clone(e)
		}
		return out
	default:
		panic(fmt.Sprintf("value: unsupported kind %T", v))
	}
}

// Encode appends a canonical, self-delimiting encoding of v to dst. Map keys
// are emitted in sorted order, so the encoding (and therefore Digest) is
// deterministic across runs and processes. Encoding into a buffer with
// enough capacity does not allocate for maps of up to 16 keys.
func Encode(dst []byte, v V) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, 'n')
	case bool:
		if x {
			return append(dst, 't')
		}
		return append(dst, 'f')
	case float64:
		dst = append(dst, 'd')
		dst = strconv.AppendUint(dst, math.Float64bits(x), 16)
		return append(dst, ';')
	case string:
		return appendString(dst, x)
	case []V:
		dst = appendHeader(dst, '[', len(x))
		for _, e := range x {
			dst = Encode(dst, e)
		}
		return append(dst, ']')
	case map[string]V:
		var kb [16]string
		keys := kb[:0]
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = appendHeader(dst, '{', len(x))
		for _, k := range keys {
			dst = appendString(dst, k)
			dst = Encode(dst, x[k])
		}
		return append(dst, '}')
	default:
		panic(fmt.Sprintf("value: unsupported kind %T", v))
	}
}

// appendString is Encode of a string without boxing it into a V.
func appendString(dst []byte, s string) []byte {
	dst = appendHeader(dst, 's', len(s))
	return append(dst, s...)
}

// appendHeader emits a kind byte and a decimal length followed by ':'.
func appendHeader(dst []byte, kind byte, n int) []byte {
	dst = append(dst, kind)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, ':')
}

// EncodedLen returns len(Encode(nil, v)) without encoding: it walks v once,
// neither sorting map keys nor allocating.
func EncodedLen(v V) int {
	switch x := v.(type) {
	case nil, bool:
		return 1
	case float64:
		return 2 + hexDigits(math.Float64bits(x))
	case string:
		return stringLen(x)
	case []V:
		n := 3 + decDigits(len(x)) // '[' len ':' … ']'
		for _, e := range x {
			n += EncodedLen(e)
		}
		return n
	case map[string]V:
		n := 3 + decDigits(len(x)) // '{' len ':' … '}'
		for k, e := range x {
			n += stringLen(k) + EncodedLen(e)
		}
		return n
	default:
		panic(fmt.Sprintf("value: unsupported kind %T", v))
	}
}

func stringLen(s string) int { return 2 + decDigits(len(s)) + len(s) }

// hexDigits is the length of strconv.AppendUint(nil, u, 16).
func hexDigits(u uint64) int {
	if u == 0 {
		return 1
	}
	return (bits.Len64(u) + 3) / 4
}

// decDigits is the length of strconv.AppendInt(nil, int64(n), 10) for n ≥ 0.
func decDigits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// Digest returns a 64-bit FNV-1a digest of the canonical encoding of v.
// Digests feed handler IDs, control-flow digests, and request tags (§5 of the
// paper); they need to be deterministic and fast, not cryptographic — the
// audit's soundness never depends on digest collision resistance, only its
// batching efficiency does.
func Digest(v V) uint64 {
	h := fnv.New64a()
	h.Write(Encode(nil, v))
	return h.Sum64()
}

// DigestString returns Digest(v) formatted as fixed-width hex, convenient as
// a map key or identifier component.
func DigestString(v V) string {
	return fmt.Sprintf("%016x", Digest(v))
}

// String renders v compactly for error messages and debugging output.
func String(v V) string {
	var b strings.Builder
	writeString(&b, v)
	return b.String()
}

func writeString(b *strings.Builder, v V) {
	switch x := v.(type) {
	case nil:
		b.WriteString("null")
	case bool:
		fmt.Fprintf(b, "%t", x)
	case float64:
		fmt.Fprintf(b, "%g", x)
	case string:
		fmt.Fprintf(b, "%q", x)
	case []V:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			writeString(b, e)
		}
		b.WriteByte(']')
	case map[string]V:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%q:", k)
			writeString(b, x[k])
		}
		b.WriteByte('}')
	default:
		fmt.Fprintf(b, "<%T>", v)
	}
}

// Map is shorthand for building a map value literal.
func Map(kv ...V) map[string]V {
	if len(kv)%2 != 0 {
		panic("value.Map: odd number of arguments")
	}
	m := make(map[string]V, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			panic("value.Map: non-string key")
		}
		m[k] = Normalize(kv[i+1])
	}
	return m
}

// List is shorthand for building a list value literal.
func List(elems ...V) []V {
	out := make([]V, len(elems))
	for i, e := range elems {
		out[i] = Normalize(e)
	}
	return out
}
