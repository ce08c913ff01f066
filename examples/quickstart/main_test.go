package main

import (
	"strings"
	"testing"
)

// TestRun runs the example and checks one line of what it prints.
func TestRun(t *testing.T) {
	const want = "routing: 100 matched //quantity/text()=1, 100 to the error endpoint\n"
	var out strings.Builder
	if err := run(&out); err != nil || !strings.Contains(out.String(), want) {
		t.Fatalf("err %v; output lacks %q:\n%s", err, want, out.String())
	}
}
