package jsonw

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestStringEscapesAsEncodingJSON: every single byte, and the
// multi-byte cases encoding/json singles out, come out as
// json.Marshal writes them.
func TestStringEscapesAsEncodingJSON(t *testing.T) {
	cases := []string{"", "plain", "\u2028", "\u2029", "é", "\xff", "a\xc0b", "\ufffd", "<a href=\"x\">&</a>"}
	for b := 0; b < 256; b++ {
		cases = append(cases, "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(String(nil, 0, "k", s)); got != "\n\"k\": "+string(want)+"," {
			t.Fatalf("String(%q) = %q, want value %s", s, got, want)
		}
	}
}

// TestDocumentShape: a small document with every writer, an empty
// array, an empty object and a nested element reads as MarshalIndent
// writes it, at a depth inside the indent table and at one beyond it.
func TestDocumentShape(t *testing.T) {
	type elem struct {
		A int64 `json:"a"`
	}
	type doc struct {
		N     int64    `json:"n"`
		Ok    bool     `json:"ok"`
		S     string   `json:"s"`
		Nil   []elem   `json:"nil"`
		Empty []elem   `json:"empty"`
		None  struct{} `json:"none"`
		Rows  []elem   `json:"rows"`
		Raw   elem     `json:"raw"`
	}
	v := doc{N: -7, Ok: true, S: "a\"b", Empty: []elem{}, Rows: []elem{{1}, {-2}}, Raw: elem{3}}
	for _, depth := range []int{0, 3, 40} {
		want, err := json.MarshalIndent(v, Prefix(depth), "  ")
		if err != nil {
			t.Fatal(err)
		}
		if Prefix(depth) != strings.Repeat("  ", depth) {
			t.Fatalf("Prefix(%d) = %q", depth, Prefix(depth))
		}
		f := depth + 1
		dst := []byte{'{'}
		dst = Int(dst, f, "n", v.N)
		dst = Bool(dst, f, "ok", v.Ok)
		dst = String(dst, f, "s", v.S)
		dst = Null(dst, f, "nil")
		dst = Close(Open(dst, f, "empty", '['), f, ']')
		dst = Close(Open(dst, f, "none", '{'), f, '}')
		dst = Open(dst, f, "rows", '[')
		for _, r := range v.Rows {
			dst = Close(Int(Elem(dst, f+1), f+2, "a", r.A), f+1, '}')
		}
		dst = Close(dst, f, ']')
		raw, err := json.MarshalIndent(v.Raw, Prefix(f), "  ")
		if err != nil {
			t.Fatal(err)
		}
		dst = Raw(dst, f, "raw", raw)
		dst = Close(dst, depth, '}')
		if got := string(dst[:len(dst)-1]); got != string(want) {
			t.Fatalf("depth %d:\n got  %s\n want %s", depth, got, want)
		}
	}
}
