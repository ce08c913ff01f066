// Package poison scribbles over pooled memory as the pool takes it back,
// in a race-detector build (go test -race), so a zero-copy view that
// outlives its buffer reads 0xDB bytes and fails a byte-exact check
// loudly instead of reading the next owner's data quietly. In any other
// build Enabled is false and every call compiles away.
package poison

// fill is the byte poisoned memory holds.
const fill = 0xDB

// Bytes fills the whole capacity of b with 0xDB when Enabled.
func Bytes(b []byte) {
	if !Enabled {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = fill
	}
}
