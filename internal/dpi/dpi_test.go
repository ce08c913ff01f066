package dpi

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/perf/trace"
)

func TestBasicMatching(t *testing.T) {
	m := MustNewMatcher([]string{"he", "she", "his", "hers"})
	matches := m.Scan([]byte("ushers"))
	// "ushers": she@4, he@4, hers@6.
	if len(matches) != 3 {
		t.Fatalf("matches = %+v", matches)
	}
	got := uniquePatterns(matches)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("unique patterns = %v", got)
	}
}

func TestMatchEndOffsets(t *testing.T) {
	m := MustNewMatcher([]string{"abc"})
	matches := m.Scan([]byte("xxabcxxabc"))
	if len(matches) != 2 || matches[0].End != 5 || matches[1].End != 10 {
		t.Fatalf("matches = %+v", matches)
	}
}

func TestOverlappingPatterns(t *testing.T) {
	m := MustNewMatcher([]string{"aa", "aaa"})
	matches := m.Scan([]byte("aaaa"))
	// aa@2, aa@3(+aaa@3), aa@4(+aaa@4) -> 5 matches.
	if len(matches) != 5 {
		t.Fatalf("got %d matches: %+v", len(matches), matches)
	}
}

func TestNoMatch(t *testing.T) {
	m := MustNewMatcher(DefaultSignatures)
	clean := []byte("<order><quantity>1</quantity></order>")
	if got := m.Scan(clean); len(got) != 0 {
		t.Fatalf("false positives: %+v", got)
	}
	if m.Contains(clean) {
		t.Fatal("Contains false positive")
	}
	dirty := []byte(`<a href="javascript:alert(1)">x</a>`)
	if !m.Contains(dirty) {
		t.Fatal("signature missed")
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	if _, err := newMatcher([]string{"ok", ""}); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestInstrumentedScanEmits(t *testing.T) {
	m := MustNewMatcher([]string{"needle"})
	m.SetSimBase(1 << 32)
	var c trace.Counting
	data := []byte(strings.Repeat("hay", 100) + "needle")
	matches := m.ScanInstrumented(data, &c, 0x1000)
	if len(matches) != 1 {
		t.Fatalf("matches = %+v", matches)
	}
	// One table load per byte plus input loads.
	if c.Loads < uint64(len(data)) {
		t.Fatalf("loads = %d for %d bytes", c.Loads, len(data))
	}
	if c.Branches < uint64(len(data)) {
		t.Fatalf("branches = %d", c.Branches)
	}
	if m.SimBytes() == 0 || m.States() < 7 {
		t.Fatalf("automaton shape: states=%d bytes=%d", m.States(), m.SimBytes())
	}
}

// Property: the matcher agrees with strings.Contains for single patterns.
func TestAgainstStringsContains(t *testing.T) {
	check := func(hay []byte, needleSeed uint8) bool {
		needles := []string{"ab", "cab", "abcab", "zz"}
		needle := needles[int(needleSeed)%len(needles)]
		m := MustNewMatcher([]string{needle})
		return m.Contains(hay) == strings.Contains(string(hay), needle)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: every reported match actually occurs at its offset.
func TestMatchesAreReal(t *testing.T) {
	pats := []string{"ab", "ba", "aab", "bbb"}
	m := MustNewMatcher(pats)
	check := func(data []byte) bool {
		// Restrict the alphabet to make matches common.
		for i := range data {
			data[i] = 'a' + data[i]%2
		}
		for _, match := range m.Scan(data) {
			p := pats[match.Pattern]
			start := match.End - len(p)
			if start < 0 || string(data[start:match.End]) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: scan finds every occurrence strings.Index would find.
func TestCompleteness(t *testing.T) {
	pat := "abc"
	m := MustNewMatcher([]string{pat})
	check := func(data []byte) bool {
		for i := range data {
			data[i] = 'a' + data[i]%3
		}
		want := strings.Count(string(data), pat)
		return len(m.Scan(data)) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultSignaturesBuild(t *testing.T) {
	m := MustNewMatcher(DefaultSignatures)
	if len(m.Patterns()) != len(DefaultSignatures) {
		t.Fatal("patterns lost")
	}
}

// uniquePatterns returns the sorted distinct pattern indices in matches.
func uniquePatterns(matches []Match) []int {
	seen := map[int]bool{}
	var out []int
	for _, m := range matches {
		if !seen[m.Pattern] {
			seen[m.Pattern] = true
			out = append(out, m.Pattern)
		}
	}
	sort.Ints(out)
	return out
}
