// Package jsonw holds append-style JSON writer primitives whose output
// is byte-identical to encoding/json's MarshalIndent(v, prefix, "  ").
// They exist for the service's bulk row shapes — per-edge counters,
// per-class series points, per-trial rows — where the reflection
// encoder's compact → Indent → re-Indent passes cost more host time
// than the simulation that produced the numbers. encoding/json stays
// the schema and the test oracle; these only have to agree with it.
//
// Every member writer leaves a trailing comma and Close takes the last
// one back, so a row appender is a flat list of fields with omitempty
// members as plain ifs. Member names must be plain ASCII literals (they
// are written unescaped); values go through String, which escapes as
// encoding/json does.
package jsonw

import (
	"encoding/json"
	"strconv"
	"strings"
)

// pad is a newline followed by more indent than any document here
// nests; newline slices it rather than looping.
const pad = "\n                                                                "

// Prefix is the MarshalIndent prefix for a value nested depth levels
// deep: two spaces per level.
func Prefix(depth int) string {
	if n := 1 + 2*depth; n <= len(pad) {
		return pad[1:n]
	}
	return strings.Repeat("  ", depth)
}

// newline appends a line break and depth levels of indent.
//
//costsense:hotpath
func newline(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(pad) {
		dst = append(dst, pad[:n]...)
		return dst
	}
	dst = append(dst, '\n')
	for i := 0; i < depth; i++ {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// Key appends the line break, indent and `"name": ` that open a member;
// the caller appends the value and its trailing comma.
//
//costsense:hotpath
func Key(dst []byte, depth int, name string) []byte {
	dst = newline(dst, depth)
	dst = append(dst, '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':', ' ')
	return dst
}

// Int appends the member `"name": v,` at depth.
//
//costsense:hotpath
func Int(dst []byte, depth int, name string, v int64) []byte {
	dst = Key(dst, depth, name)
	dst = strconv.AppendInt(dst, v, 10)
	dst = append(dst, ',')
	return dst
}

// Bool appends the member `"name": true|false,` at depth.
//
//costsense:hotpath
func Bool(dst []byte, depth int, name string, v bool) []byte {
	dst = Key(dst, depth, name)
	dst = strconv.AppendBool(dst, v)
	dst = append(dst, ',')
	return dst
}

// String appends the member `"name": "s",` at depth, s escaped exactly
// as encoding/json escapes it.
//
//costsense:hotpath
func String(dst []byte, depth int, name, s string) []byte {
	dst = Key(dst, depth, name)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			//costsense:alloc-ok cold path: a name outside plain ASCII defers to encoding/json itself, so its escaping rules are never restated here
			return escaped(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	dst = append(dst, '"', ',')
	return dst
}

// escaped is String's cold path for values encoding/json would escape.
func escaped(dst []byte, s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic("jsonw: encoding/json refused a string: " + err.Error()) // Marshal of a string cannot fail
	}
	return append(append(dst, b...), ',')
}

// Raw appends the member `"name": raw,` at depth; raw is an already
// encoded value whose continuation lines carry Prefix(depth).
func Raw(dst []byte, depth int, name string, raw []byte) []byte {
	return append(append(Key(dst, depth, name), raw...), ',')
}

// Null appends the member `"name": null,` at depth.
//
//costsense:hotpath
func Null(dst []byte, depth int, name string) []byte {
	dst = Key(dst, depth, name)
	dst = append(dst, "null,"...)
	return dst
}

// Open appends `"name": ` and the opening bracket of a nested array or
// object member at depth.
//
//costsense:hotpath
func Open(dst []byte, depth int, name string, bracket byte) []byte {
	dst = Key(dst, depth, name)
	dst = append(dst, bracket)
	return dst
}

// Elem opens an object that is an array element at depth.
//
//costsense:hotpath
func Elem(dst []byte, depth int) []byte {
	dst = newline(dst, depth)
	dst = append(dst, '{')
	return dst
}

// Close ends the array or object opened at depth and, like every member
// writer, leaves a trailing comma. The last member's comma goes; an
// empty container closes on the line it opened on, as encoding/json
// writes it.
//
//costsense:hotpath
func Close(dst []byte, depth int, bracket byte) []byte {
	if last := len(dst) - 1; dst[last] == ',' {
		dst = newline(dst[:last], depth)
	}
	dst = append(dst, bracket, ',')
	return dst
}
