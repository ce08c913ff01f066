// Package dpi implements deep packet inspection — multi-pattern string
// matching over message payloads with an Aho-Corasick automaton. The
// paper's future work names "crucial AON operations such as deep packet
// inspection" (Section 6); this package provides that operation as a
// fourth use case for the XML server application, with the same dual-use
// design as the rest of the stack: a real matcher that optionally emits
// the micro-op stream of its compiled equivalent.
//
// DPI's performance profile sits between FR and CBR: it touches every
// payload byte exactly once (like a checksum) but chases automaton
// transitions through a table whose footprint grows with the pattern set,
// and its per-byte branch is data-dependent — a distinct point on the
// paper's network-I/O vs CPU spectrum.
package dpi

import (
	"fmt"

	"repro/internal/perf/trace"
)

// Match reports one pattern occurrence.
type Match struct {
	Pattern int // index into the pattern list the matcher was built from
	End     int // byte offset just past the occurrence
}

// Matcher is an Aho-Corasick automaton over byte strings.
type Matcher struct {
	patterns []string
	// goto function: states x 256 -> state; built densely for O(1)
	// transitions like a compiled IDS engine.
	next [][256]int32
	fail []int32
	out  [][]int32 // pattern indices terminating at each state

	// simBase is the automaton's placement in the simulated address
	// space (the transition table is the DPI working set).
	simBase uint64
}

// newMatcher builds an automaton for the given patterns. Empty patterns
// are rejected; duplicates are allowed and report separately.
func newMatcher(patterns []string) (*Matcher, error) {
	for i, p := range patterns {
		if p == "" {
			return nil, fmt.Errorf("dpi: pattern %d is empty", i)
		}
	}
	m := &Matcher{patterns: patterns}
	m.next = append(m.next, [256]int32{})
	m.fail = append(m.fail, 0)
	m.out = append(m.out, nil)

	// Trie construction.
	for idx, p := range patterns {
		state := int32(0)
		for i := 0; i < len(p); i++ {
			c := p[i]
			if m.next[state][c] == 0 {
				m.next = append(m.next, [256]int32{})
				m.fail = append(m.fail, 0)
				m.out = append(m.out, nil)
				m.next[state][c] = int32(len(m.next) - 1)
			}
			state = m.next[state][c]
		}
		m.out[state] = append(m.out[state], int32(idx))
	}

	// BFS failure links, converting to a dense goto function.
	queue := make([]int32, 0, len(m.next))
	for c := 0; c < 256; c++ {
		if s := m.next[0][c]; s != 0 {
			m.fail[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			s := m.next[r][c]
			if s == 0 {
				m.next[r][c] = m.next[m.fail[r]][c]
				continue
			}
			queue = append(queue, s)
			f := m.next[m.fail[r]][c]
			m.fail[s] = f
			m.out[s] = append(m.out[s], m.out[f]...)
		}
	}
	return m, nil
}

// MustNewMatcher panics on error, for init-time pattern sets.
func MustNewMatcher(patterns []string) *Matcher {
	m, err := newMatcher(patterns)
	if err != nil {
		panic(err)
	}
	return m
}

// States returns the automaton size.
func (m *Matcher) States() int { return len(m.next) }

// Patterns returns the pattern list the matcher was built from.
func (m *Matcher) Patterns() []string { return m.patterns }

// SetSimBase places the transition table in the simulated address space;
// instrumented scans emit loads into it.
func (m *Matcher) SetSimBase(base uint64) { m.simBase = base }

// SimBytes returns the simulated footprint of the transition table.
func (m *Matcher) SimBytes() uint64 { return uint64(len(m.next)) * 256 * 4 }

var (
	dpiCode      = trace.NewCodeRegion(512)
	pcStep       = dpiCode.Site()
	pcHit        = dpiCode.Site()
	pcReportLoop = dpiCode.Site()
)

// Scan runs the automaton over data without instrumentation.
func (m *Matcher) Scan(data []byte) []Match {
	return m.ScanInstrumented(data, trace.Nop{}, 0)
}

// ScanInstrumented runs the automaton while emitting the equivalent
// micro-op stream: per input byte, one load of the input word (amortized),
// one load of the transition-table entry (the data-dependent pointer
// chase that defines DPI's cache behaviour), arithmetic, and a
// data-dependent hit-check branch.
func (m *Matcher) ScanInstrumented(data []byte, em trace.Emitter, dataBase uint64) []Match {
	var out []Match
	state := int32(0)
	for i := 0; i < len(data); i++ {
		if i%trace.WordBytes == 0 {
			em.Load(dataBase+uint64(i), 1)
		}
		c := data[i]
		state = m.next[state][c]
		// The transition-table load: 4 bytes at state*1024 + c*4.
		em.Load(m.simBase+uint64(state)*1024+uint64(c)*4, 1)
		em.ALU(2)
		hit := len(m.out[state]) > 0
		em.Branch(pcHit, hit)
		if hit {
			for _, p := range m.out[state] {
				out = append(out, Match{Pattern: int(p), End: i + 1})
				em.ALU(4)
				em.Branch(pcReportLoop, true)
			}
			em.Branch(pcReportLoop, false)
		}
	}
	em.Branch(pcStep, false) // loop exit
	return out
}

// Contains reports whether any pattern occurs in data (early-exit scan).
func (m *Matcher) Contains(data []byte) bool {
	state := int32(0)
	for i := 0; i < len(data); i++ {
		state = m.next[state][data[i]]
		if len(m.out[state]) > 0 {
			return true
		}
	}
	return false
}

// DefaultSignatures is the inspection rule set the DPI use case ships
// with: a small IDS-style mix of exploit markers and policy strings that
// might appear inside XML message payloads.
var DefaultSignatures = []string{
	"<script",
	"DROP TABLE",
	"../../",
	"cmd.exe",
	"/etc/passwd",
	"xp_cmdshell",
	"<!ENTITY",
	"javascript:",
	"UNION SELECT",
	"eval(",
}
