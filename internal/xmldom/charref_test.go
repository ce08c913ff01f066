package xmldom

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzCharRef checks the entity decoder on its own. FuzzTokenizerVsOracle
// cannot see a decoder bug, because both of its sides call decodeEntityAt.
// An accepted reference must be one of the five predefined entities, or a
// well-formed character reference (XML 1.0 §4.1) that decodes to exactly
// the one rune its digits name, and that rune must be a Char.
func FuzzCharRef(f *testing.F) {
	for _, s := range []string{
		"&#0;", "&#65;", "&#x42;", "&#0000000065;", "&#x10FFFF;", "&#x110000;",
		"&#xD800;", "&#X41;", "&#;", "&amp;", "&quot;x", "&lt", "&#12345678901234567890;",
	} {
		f.Add([]byte(s))
	}
	predefined := map[string]string{"lt": "<", "gt": ">", "amp": "&", "quot": `"`, "apos": "'"}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) == 0 || src[0] != '&' {
			return
		}
		s, next, msg := decodeEntityAt(src, 0)
		if msg != "" {
			return
		}
		if next < 2 || next > len(src) || src[next-1] != ';' {
			t.Fatalf("%q: accepted, but ends at %d", src, next)
		}
		name := string(src[1 : next-1])
		if want, ok := predefined[name]; ok {
			if s != want {
				t.Fatalf("%q decoded to %q, want %q", src, s, want)
			}
			return
		}
		v, ok := charRefValue(name)
		if !ok {
			t.Fatalf("%q: accepted %q, which is neither a predefined entity nor a character reference", src, name)
		}
		r, size := utf8.DecodeRuneInString(s)
		if size == 0 || size != len(s) || int64(r) != v || !xmlChar(r) {
			t.Fatalf("%q decoded to %q, not the one Char U+%X", src, s, v)
		}
	})
}

// charRefValue parses the name of a character reference, '#' [0-9]+ or
// '#x' [0-9a-fA-F]+, saturating the value just above the Unicode range.
func charRefValue(name string) (int64, bool) {
	digits, ok := strings.CutPrefix(name, "#")
	if !ok {
		return 0, false
	}
	base := int64(10)
	if hex, ok := strings.CutPrefix(digits, "x"); ok {
		digits, base = hex, 16
	}
	if digits == "" {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		var d int64
		switch {
		case '0' <= c && c <= '9':
			d = int64(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		v = min(v*base+d, 0x110000)
	}
	return v, true
}

// xmlChar is the XML 1.0 Char production, written out apart from the
// decoder's own check.
func xmlChar(r rune) bool {
	switch {
	case r == '\t', r == '\n', r == '\r':
		return true
	case r < 0x20:
		return false
	case r <= 0xD7FF:
		return true
	case r < 0xE000:
		return false
	case r <= 0xFFFD:
		return true
	case r < 0x10000:
		return false
	default:
		return r <= 0x10FFFF
	}
}
