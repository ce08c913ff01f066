package xsd

import (
	"strconv"
	"testing"
)

// TestNumberVerdictsMatchStrconv checks parseInt and parseFloat against the
// strconv calls they stand for, on the texts their byte filter decides and
// on the ones it passes through, and that a refusal allocates nothing.
func TestNumberVerdictsMatchStrconv(t *testing.T) {
	for _, s := range []string{
		"", "+", "-", "0", "1", "+1", "-1", "x1", "1x", "1 2", "١", "+-1", "--1", "1_000", "0x10",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"1.5", ".5", "5.", "1e5", "1E-5", "1e999", "0x1p-2", "0x_1p0", "inf", "+Inf", "-infinity", "NaN",
		"nan1", "abc", "1,5", "1.5.5", " 1", " 1",
	} {
		n, err := strconv.ParseInt(s, 10, 64)
		if got, ok := parseInt(s); ok != (err == nil) || (ok && got != n) {
			t.Errorf("parseInt(%q) = %d, %v; strconv %d, %v", s, got, ok, n, err)
		}
		f, err := strconv.ParseFloat(s, 64)
		if got, ok := parseFloat(s); ok != (err == nil) || (ok && got != f && f == f) {
			t.Errorf("parseFloat(%q) = %v, %v; strconv %v, %v", s, got, ok, f, err)
		}
	}
	for _, s := range []string{"x1", "zero", "1 2", "abc", "1,5"} {
		if n := testing.AllocsPerRun(10, func() { parseInt(s); parseFloat(s) }); n != 0 {
			t.Errorf("refusing %q: %v allocs, want 0", s, n)
		}
	}
}
