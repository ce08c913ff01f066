package wcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/perf/trace"
	"repro/internal/perf/trace/tracetest"
)

// Known-answer tests from FIPS 180-1.
func TestSHA1KnownAnswers(t *testing.T) {
	cases := map[string]string{
		"":    "da39a3ee5e6b4b0d3255bfef95601890afd80709",
		"abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
		"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq": "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
	}
	for in, want := range cases {
		if got := HexSum1([]byte(in)); got != want {
			t.Errorf("SHA1(%q) = %s, want %s", in, got, want)
		}
	}
}

// Property: our implementation agrees with crypto/sha1 on arbitrary input.
func TestAgainstStdlib(t *testing.T) {
	check := func(data []byte) bool {
		want := sha1.Sum(data)
		got := sum1(data)
		return bytes.Equal(got[:], want[:])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: incremental writes produce the same digest as one-shot.
func TestIncrementalWrites(t *testing.T) {
	check := func(a, b, c []byte) bool {
		oneShot := sum1(append(append(append([]byte{}, a...), b...), c...))
		d := newDigest()
		d.Write(a)
		d.Write(b)
		d.Write(c)
		var inc [Size]byte
		copy(inc[:], d.Sum(nil))
		return inc == oneShot
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSumDoesNotMutateState(t *testing.T) {
	d := newDigest()
	d.Write([]byte("hello"))
	s1 := d.Sum(nil)
	s2 := d.Sum(nil)
	if !bytes.Equal(s1, s2) {
		t.Fatal("Sum mutates state")
	}
	d.Write([]byte(" world"))
	want := sum1([]byte("hello world"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("continued write broken after Sum")
	}
}

func TestHMACAgainstStdlib(t *testing.T) {
	check := func(key, data []byte) bool {
		mac := hmac.New(sha1.New, key)
		mac.Write(data)
		want := mac.Sum(nil)
		got := HMAC(key, data, nil, 0)
		return bytes.Equal(got[:], want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHMACLongKey(t *testing.T) {
	key := bytes.Repeat([]byte("k"), 200) // beyond blockSize: pre-hashed
	mac := hmac.New(sha1.New, key)
	mac.Write([]byte("msg"))
	want := mac.Sum(nil)
	got := HMAC(key, []byte("msg"), nil, 0)
	if !bytes.Equal(got[:], want) {
		t.Fatal("long-key HMAC mismatch")
	}
}

func TestInstrumentationEmitsPerBlock(t *testing.T) {
	var one, four trace.Counting
	d1 := newInstrumented(&one, 0x1000)
	d1.Write(make([]byte, 64))
	d1.Sum(nil)
	d4 := newInstrumented(&four, 0x1000)
	d4.Write(make([]byte, 256))
	d4.Sum(nil)
	if one.Instr == 0 {
		t.Fatal("no ops emitted")
	}
	// Four data blocks vs one: roughly (4+1)/(1+1) more compression work.
	if four.Instr <= one.Instr {
		t.Fatalf("instruction stream does not scale: %d vs %d", one.Instr, four.Instr)
	}
	// The kernel must be ALU-dominated (the crypto workload profile).
	if one.Loads*10 > one.Instr {
		t.Fatalf("crypto kernel too load-heavy: %d loads of %d instr", one.Loads, one.Instr)
	}
}

func TestReset(t *testing.T) {
	d := newDigest()
	d.Write([]byte("garbage"))
	d.Reset()
	d.Write([]byte("abc"))
	want := sum1([]byte("abc"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("reset did not restore initial state")
	}
}

// TestEqualHex checks the header-MAC comparison: either case is accepted,
// anything but forty hex digits of the right MAC is refused, and no check
// allocates.
func TestEqualHex(t *testing.T) {
	mac := HMAC([]byte("key"), []byte("message"), nil, 0)
	lower := hex.EncodeToString(mac[:])
	wrong := "00" + lower[2:]
	if lower[:2] == "00" {
		wrong = "11" + lower[2:]
	}
	for _, c := range []struct {
		claimed string
		want    bool
	}{
		{lower, true},
		{strings.ToUpper(lower), true},
		{lower[:20] + strings.ToUpper(lower[20:]), true},
		{wrong, false},
		{lower[:38], false},
		{lower + "00", false},
		{"", false},
		{lower[:38] + "zz", false},
	} {
		if got := EqualHex(mac, c.claimed); got != c.want {
			t.Errorf("EqualHex(%q) = %v, want %v", c.claimed, got, c.want)
		}
		if n := testing.AllocsPerRun(10, func() { EqualHex(mac, c.claimed) }); n != 0 {
			t.Errorf("EqualHex(%q): %v allocs, want 0", c.claimed, n)
		}
	}
}

// TestHMACStreamGolden pins what the simulator's AUTH worker sees: the
// event count and hash of HMAC's emitted stream, and the MAC, for tails
// that pad into one block and into two, a multi-block message and a key
// longer than a block. Recorded before the padding moved onto the stack.
func TestHMACStreamGolden(t *testing.T) {
	for _, c := range []struct {
		key, data string
		events    int
		hash      uint64
		mac       string
	}{
		{"aon-device-key-2007", "", 360, 0x3c843b60711c500e, "cb95421ffe7902c2fe0c54d770f2a149a1e2512e"},
		{"aon-device-key-2007", "abc", 360, 0x3c843b60711c500e, "89c2006f105f4c2bf65f4ff69c013d85f30ea082"},
		{"aon-device-key-2007", strings.Repeat("x", 55), 360, 0x3c843b60711c500e, "dfa58e6080882a2cc1bbd5f0b03a176b3bcbfe7a"},
		{"aon-device-key-2007", strings.Repeat("x", 56), 449, 0xd5f19e5bab4cc8ad, "264e6e586be1e3f7b352b616f62792174f68473f"},
		{"aon-device-key-2007", strings.Repeat("y", 64), 449, 0xf60a67bff5ac5388, "ded0762c4db841cc4dbe4dc03b5b35b7538334f3"},
		{"aon-device-key-2007", strings.Repeat("z", 5000), 7302, 0x648b73b6fc796fa8, "75c36bcc2a85335b5443a998893c9c35bd31bae8"},
		{strings.Repeat("k", 100), "long key", 360, 0x5ca82dd5c50704b5, "20787832fbe1ad68140348ce2ff9cd1af0c1f525"},
	} {
		em := tracetest.NewHashEmitter()
		mac := HMAC([]byte(c.key), []byte(c.data), em, 1<<32)
		if got := hex.EncodeToString(mac[:]); got != c.mac || em.Events() != c.events || em.Sum64() != c.hash {
			t.Errorf("%d-byte message: {%d, %#x, %s}, want {%d, %#x, %s}", len(c.data), em.Events(), em.Sum64(), got, c.events, c.hash, c.mac)
		}
		key, data := []byte(c.key), []byte(c.data)
		if n := testing.AllocsPerRun(10, func() { HMAC(key, data, nil, 0) }); n != 0 {
			t.Errorf("%d-byte message: %v allocs per HMAC, want 0", len(c.data), n)
		}
	}
}
