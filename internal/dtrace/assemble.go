package dtrace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// AssembledTrace is one request's spans gathered from every node that
// saw it, with the parent/child tree resolved and per-span self-time
// computed (own duration minus the sum of direct children, clamped at
// zero — the overlap-free attribution a critical-path report needs).
type AssembledTrace struct {
	TraceID ID
	Spans   []Span
	// SelfUS[i] is Spans[i]'s self-time in microseconds.
	SelfUS []int64
	// Children[i] lists indexes of Spans[i]'s direct children.
	Children [][]int
	// Roots lists indexes of spans with no resolvable parent, in
	// recorded order (a client "request" span, or the gateway root when
	// the client didn't originate the trace).
	Roots []int
	// Nodes is the distinct set of recording nodes, sorted.
	Nodes []string
}

// RootDurUS returns the duration of the outermost span (the first
// root), the trace's end-to-end latency as its originator saw it.
func (t *AssembledTrace) RootDurUS() int64 {
	if len(t.Roots) == 0 {
		return 0
	}
	return t.Spans[t.Roots[0]].DurUS
}

// rootMeta finds the annotated span to describe the trace by: the
// first root carrying a use case or outcome, else the first root.
func (t *AssembledTrace) rootMeta() *Span {
	for _, i := range t.Roots {
		if t.Spans[i].UseCase != "" || t.Spans[i].Outcome != "" {
			return &t.Spans[i]
		}
	}
	for i := range t.Spans {
		if t.Spans[i].UseCase != "" || t.Spans[i].Outcome != "" {
			return &t.Spans[i]
		}
	}
	if len(t.Roots) > 0 {
		return &t.Spans[t.Roots[0]]
	}
	return &t.Spans[0]
}

// Assemble groups spans by trace ID, deduplicates by (trace, span) —
// the same span arrives via both /traces scrapes and JSONL artifacts —
// and resolves each trace's span tree. Traces come back ordered by
// first appearance in the input, so scrape order (roughly arrival
// order) is preserved.
func Assemble(spans []Span) []*AssembledTrace {
	type spanKey struct{ tr, sp ID }
	seen := make(map[spanKey]struct{}, len(spans))
	byTrace := make(map[ID]*AssembledTrace)
	var order []ID
	for _, sp := range spans {
		if sp.TraceID.IsZero() || sp.SpanID.IsZero() {
			continue
		}
		k := spanKey{sp.TraceID, sp.SpanID}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		at := byTrace[sp.TraceID]
		if at == nil {
			at = &AssembledTrace{TraceID: sp.TraceID}
			byTrace[sp.TraceID] = at
			order = append(order, sp.TraceID)
		}
		at.Spans = append(at.Spans, sp)
	}
	out := make([]*AssembledTrace, 0, len(order))
	for _, id := range order {
		at := byTrace[id]
		at.resolve()
		out = append(out, at)
	}
	return out
}

// resolve builds the tree, self-times, roots, and node set.
func (t *AssembledTrace) resolve() {
	idx := make(map[ID]int, len(t.Spans))
	for i := range t.Spans {
		idx[t.Spans[i].SpanID] = i
	}
	t.Children = make([][]int, len(t.Spans))
	t.SelfUS = make([]int64, len(t.Spans))
	nodes := make(map[string]struct{})
	for i := range t.Spans {
		nodes[t.Spans[i].Node] = struct{}{}
		p := t.Spans[i].ParentID
		if !p.IsZero() {
			if pi, ok := idx[p]; ok && pi != i {
				t.Children[pi] = append(t.Children[pi], i)
				continue
			}
		}
		t.Roots = append(t.Roots, i)
	}
	for i := range t.Spans {
		self := t.Spans[i].DurUS
		for _, c := range t.Children[i] {
			self -= t.Spans[c].DurUS
		}
		if self < 0 {
			self = 0
		}
		t.SelfUS[i] = self
	}
	t.Nodes = make([]string, 0, len(nodes))
	for n := range nodes {
		t.Nodes = append(t.Nodes, n)
	}
	sort.Strings(t.Nodes)
}

// quantile returns the q-quantile of sorted int64s (nearest-rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// FormatReport's depth: the slowest spans it ranks and the slowest
// traces it renders as trees.
const (
	reportRankSpans = 10
	reportTopTraces = 3
)

// FormatReport renders the critical-path report: per (node, span-name)
// self-time aggregates with p50/p99 and share of total self-time, a
// slowest-span ranking, and span trees for the slowest traces (the p99
// exemplars the whole tracing plane exists to surface).
func FormatReport(w io.Writer, traces []*AssembledTrace) {
	fmt.Fprintf(w, "assembled traces: %d\n", len(traces))
	if len(traces) == 0 {
		return
	}

	// Fleet-wide latency distribution over root durations.
	rootDur := make([]int64, 0, len(traces))
	multi := 0
	for _, t := range traces {
		rootDur = append(rootDur, t.RootDurUS())
		if len(t.Nodes) > 1 {
			multi++
		}
	}
	sort.Slice(rootDur, func(i, j int) bool { return rootDur[i] < rootDur[j] })
	fmt.Fprintf(w, "cross-node traces: %d/%d   root latency p50=%s p99=%s max=%s\n\n",
		multi, len(traces), fmtUS(quantile(rootDur, 0.50)), fmtUS(quantile(rootDur, 0.99)), fmtUS(rootDur[len(rootDur)-1]))

	// Per (node, name) self-time aggregation — where the fleet's time
	// actually goes, overlap-free.
	type aggKey struct{ node, name string }
	type agg struct {
		key   aggKey
		n     int
		sumUS int64
		durs  []int64
	}
	aggs := make(map[aggKey]*agg)
	var totalSelf int64
	for _, t := range traces {
		for i := range t.Spans {
			k := aggKey{t.Spans[i].Node, t.Spans[i].Name}
			a := aggs[k]
			if a == nil {
				a = &agg{key: k}
				aggs[k] = a
			}
			a.n++
			a.sumUS += t.SelfUS[i]
			a.durs = append(a.durs, t.SelfUS[i])
			totalSelf += t.SelfUS[i]
		}
	}
	rows := make([]*agg, 0, len(aggs))
	for _, a := range aggs {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sumUS > rows[j].sumUS })
	fmt.Fprintf(w, "critical path — self-time by node/stage (share of %s total):\n", fmtUS(totalSelf))
	fmt.Fprintf(w, "  %-24s %-10s %8s %8s %10s %10s %7s\n", "node", "span", "count", "share", "self p50", "self p99", "")
	for _, a := range rows {
		sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
		share := 0.0
		if totalSelf > 0 {
			share = 100 * float64(a.sumUS) / float64(totalSelf)
		}
		fmt.Fprintf(w, "  %-24s %-10s %8d %7.1f%% %10s %10s %s\n",
			a.key.node, a.key.name, a.n, share,
			fmtUS(quantile(a.durs, 0.50)), fmtUS(quantile(a.durs, 0.99)), bar(share))
	}
	fmt.Fprintln(w)

	// Slowest individual spans — the single worst segments fleet-wide.
	type ranked struct {
		t *AssembledTrace
		i int
	}
	var all []ranked
	for _, t := range traces {
		for i := range t.Spans {
			all = append(all, ranked{t, i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].t.SelfUS[all[i].i] > all[j].t.SelfUS[all[j].i]
	})
	n := min(reportRankSpans, len(all))
	fmt.Fprintf(w, "slowest spans (by self-time):\n")
	for _, r := range all[:n] {
		sp := &r.t.Spans[r.i]
		fmt.Fprintf(w, "  %10s  %-24s %-10s trace=%s\n",
			fmtUS(r.t.SelfUS[r.i]), sp.Node, sp.Name, sp.TraceID)
	}
	fmt.Fprintln(w)

	// Slowest-trace exemplar trees.
	byDur := make([]*AssembledTrace, len(traces))
	copy(byDur, traces)
	sort.Slice(byDur, func(i, j int) bool { return byDur[i].RootDurUS() > byDur[j].RootDurUS() })
	n = min(reportTopTraces, len(byDur))
	fmt.Fprintf(w, "slowest traces:\n")
	for _, t := range byDur[:n] {
		m := t.rootMeta()
		fmt.Fprintf(w, "trace %s  %s  uc=%s outcome=%s status=%d  nodes=%s\n",
			t.TraceID, fmtUS(t.RootDurUS()), orDash(m.UseCase), orDash(m.Outcome), m.Status,
			strings.Join(t.Nodes, ","))
		for _, r := range t.Roots {
			t.writeTree(w, r, 1)
		}
	}
}

func (t *AssembledTrace) writeTree(w io.Writer, i, depth int) {
	sp := &t.Spans[i]
	fmt.Fprintf(w, "%s%-*s %10s  (self %s)  [%s]\n",
		strings.Repeat("  ", depth), 24-2*depth, sp.Name, fmtUS(sp.DurUS), fmtUS(t.SelfUS[i]), sp.Node)
	kids := append([]int(nil), t.Children[i]...)
	// Children in start order within one node; cross-node children keep
	// recorded order (clocks are not comparable).
	sort.SliceStable(kids, func(a, b int) bool {
		sa, sb := &t.Spans[kids[a]], &t.Spans[kids[b]]
		return sa.Node == sb.Node && sa.StartUS < sb.StartUS
	})
	for _, c := range kids {
		t.writeTree(w, c, depth+1)
	}
}

func fmtUS(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func bar(pct float64) string {
	n := int(pct / 4)
	if n > 25 {
		n = 25
	}
	return strings.Repeat("#", n)
}
