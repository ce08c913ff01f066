package main

import (
	"strings"
	"testing"
)

// TestRun runs the example and checks a routing line and the richer
// expression's count of what it prints.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"message  1: quantity=\"4\" -> http://errors.internal/reject",
		"message 7 has 2 line items priced above 400",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
