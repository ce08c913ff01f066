package fleet

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/session"
)

// NodeSample is one node's sample inside the merged cross-node session:
// the node identity (role/id), the node-local timestamp it was recorded
// at, the skew-aligned relative timestamp, and the sample itself.
type NodeSample struct {
	// Node is the sample's origin, "role/id" (e.g. "gateway/gw0").
	Node string `json:"node"`
	// Role is the origin's role, denormalized for filtering.
	Role string `json:"role"`
	// TMS is the node's own clock at sample time, in milliseconds: its
	// /stats uptime, a monotonic value. It is NODE-LOCAL: comparing TMS
	// across nodes compares clocks, not events.
	TMS int64 `json:"t_ms"`
	// RelMS is the skew-aligned timeline position: TMS minus the node's
	// epoch (its first sample's TMS). Each node's RelMS advances with its
	// own monotonic clock from a common zero, so cross-node ordering
	// never depends on wall clocks agreeing — the alignment rule for
	// fleets whose machines aren't NTP-disciplined against each other.
	RelMS int64 `json:"rel_ms"`

	Sample session.Sample `json:"sample"`
}

// Merger accumulates per-node samples into one deduplicated, skew-
// aligned session. Safe for concurrent Add (the scraper) and read (the
// report builder). An optional sink observes every accepted sample in
// arrival order — the JSONL persister, so the merged session is on disk
// while the campaign is still running.
type Merger struct {
	mu    sync.Mutex
	epoch map[string]int64              // node key → first-seen TMS
	seen  map[string]map[int64]struct{} // node key → TMS dedup set
	all   []NodeSample
	sink  func(NodeSample) error
	sinkE error
}

// newMerger builds a merger; sink may be nil.
func newMerger(sink func(NodeSample) error) *Merger {
	return &Merger{
		epoch: map[string]int64{},
		seen:  map[string]map[int64]struct{}{},
		sink:  sink,
	}
}

// Add records one sample for node (key "role/id"). Duplicate (node, TMS)
// pairs — two scrapes that read the same uptime millisecond — are
// suppressed; added reports whether the sample was new. The first sample
// a node ever contributes pins that node's epoch; a node joining the
// session late simply starts its RelMS axis at its own first
// observation.
func (m *Merger) Add(node, role string, s session.Sample) (added bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	set, ok := m.seen[node]
	if !ok {
		set = map[int64]struct{}{}
		m.seen[node] = set
		m.epoch[node] = s.TMS
	}
	if _, dup := set[s.TMS]; dup {
		return false
	}
	set[s.TMS] = struct{}{}
	ns := NodeSample{
		Node:   node,
		Role:   role,
		TMS:    s.TMS,
		RelMS:  s.TMS - m.epoch[node],
		Sample: s,
	}
	m.all = append(m.all, ns)
	if m.sink != nil && m.sinkE == nil {
		m.sinkE = m.sink(ns)
	}
	return true
}

// Len is the number of accepted samples so far.
func (m *Merger) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.all)
}

// SinkErr reports the first persistence failure, if any.
func (m *Merger) SinkErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sinkE
}

// Slice returns accepted samples [from, to) in arrival order — the
// report builder's per-load-point window.
func (m *Merger) Slice(from, to int) []NodeSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if to > len(m.all) {
		to = len(m.all)
	}
	if from >= to {
		return nil
	}
	out := make([]NodeSample, to-from)
	copy(out, m.all[from:to])
	return out
}

// Merged returns the full session ordered by aligned time (RelMS), ties
// broken by node key then TMS — the canonical cross-node timeline.
func (m *Merger) Merged() []NodeSample {
	m.mu.Lock()
	out := make([]NodeSample, len(m.all))
	copy(out, m.all)
	m.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].RelMS != out[j].RelMS {
			return out[i].RelMS < out[j].RelMS
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].TMS < out[j].TMS
	})
	return out
}

// PerNode splits the session by node key, each node's samples in
// node-local chronological order.
func (m *Merger) PerNode() map[string][]session.Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string][]session.Sample{}
	for _, ns := range m.all {
		out[ns.Node] = append(out[ns.Node], ns.Sample)
	}
	for _, ss := range out {
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].TMS < ss[j].TMS })
	}
	return out
}

// Nodes lists the node keys that contributed samples, sorted.
func (m *Merger) Nodes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.seen))
	for k := range m.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Epoch returns node's epoch TMS (false when the node never reported).
func (m *Merger) Epoch(node string) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.epoch[node]
	return e, ok
}

// Summary is a one-line accounting for logs and the campaign report.
func (m *Merger) Summary() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fmt.Sprintf("%d samples across %d nodes", len(m.all), len(m.seen))
}
