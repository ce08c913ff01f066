package poison

import (
	"bytes"
	"testing"
)

// TestBytes checks that a race build fills the whole capacity, past the
// length, and that a default build leaves the bytes alone.
func TestBytes(t *testing.T) {
	b := make([]byte, 3, 8)
	copy(b[:cap(b)], "abcdefgh")
	Bytes(b)
	want := []byte("abcdefgh")
	if Enabled {
		want = bytes.Repeat([]byte{fill}, 8)
	}
	if got := b[:cap(b)]; !bytes.Equal(got, want) {
		t.Fatalf("after Bytes: %q, want %q", got, want)
	}
}
