package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/session"
)

// nodeWindow aggregates one node's samples over a campaign phase:
// total messages, window-weighted throughput and counter metrics, and
// the latency view at the window's close.
type nodeWindow struct {
	Node string `json:"node"`
	Role string `json:"role"`
	// Samples is how many merged-session samples fell in the window.
	Samples  int    `json:"samples"`
	Messages uint64 `json:"messages"`
	// MsgsPerSec is total messages over total sampled window time.
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// P50/P99 are the last sample's view (cumulative histograms — the
	// freshest read wins).
	LatencyP50US uint64 `json:"latency_p50_us"`
	LatencyP99US uint64 `json:"latency_p99_us"`
	// CPI/CacheMPI are window-weighted means over samples that carried
	// counter views; Source is "hw" when any sample was hardware-derived,
	// else "model", else "" (no counter view at all — backends).
	CPI      float64 `json:"cpi,omitempty"`
	CacheMPI float64 `json:"cache_mpi_pct,omitempty"`
	Source   string  `json:"derived_source,omitempty"`
}

// phaseWindow is one campaign phase's per-node windows cut from the
// merged session.
type phaseWindow struct {
	Phase string
	// Nodes are sorted gateway first, then backends, by key.
	Nodes []nodeWindow
	// FleetMsgsPerSec sums the gateway nodes' window throughput — the
	// fleet-total forwarding rate.
	FleetMsgsPerSec float64
}

// windowNodes cuts per-node aggregates from the slice of merged-session
// samples that arrived during one phase.
func windowNodes(samples []NodeSample) []nodeWindow {
	type agg struct {
		w      nodeWindow
		winSec float64
		cpiW   float64 // Σ cpi·window
		mpiW   float64
		cW     float64 // Σ window over counter-bearing samples
		last   session.Sample
	}
	byNode := map[string]*agg{}
	for _, ns := range samples {
		a, ok := byNode[ns.Node]
		if !ok {
			a = &agg{w: nodeWindow{Node: ns.Node, Role: ns.Role}}
			byNode[ns.Node] = a
		}
		s := ns.Sample
		a.w.Samples++
		a.w.Messages += s.Messages
		a.winSec += s.WindowSec
		if s.DerivedSource != "" && s.WindowSec > 0 {
			a.cpiW += s.CPI * s.WindowSec
			a.mpiW += s.CacheMPI * s.WindowSec
			a.cW += s.WindowSec
			if s.DerivedSource == "hw" || a.w.Source == "" {
				a.w.Source = s.DerivedSource
			}
		}
		a.last = s
	}
	out := make([]nodeWindow, 0, len(byNode))
	for _, a := range byNode {
		if a.winSec > 0 {
			a.w.MsgsPerSec = float64(a.w.Messages) / a.winSec
		}
		if a.cW > 0 {
			a.w.CPI = a.cpiW / a.cW
			a.w.CacheMPI = a.mpiW / a.cW
		}
		a.w.LatencyP50US = a.last.LatencyP50US
		a.w.LatencyP99US = a.last.LatencyP99US
		out = append(out, a.w)
	}
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := roleRank(out[i].Role), roleRank(out[j].Role); ri != rj {
			return ri < rj
		}
		return out[i].Node < out[j].Node
	})
	return out
}

func roleRank(role string) int {
	switch role {
	case roleGateway:
		return 0
	case roleBackend:
		return 1
	default:
		return 2
	}
}

// cutPhase assembles one phase's window.
func cutPhase(phase string, samples []NodeSample) phaseWindow {
	pw := phaseWindow{Phase: phase, Nodes: windowNodes(samples)}
	for _, nw := range pw.Nodes {
		if nw.Role == roleGateway {
			pw.FleetMsgsPerSec += nw.MsgsPerSec
		}
	}
	return pw
}

// formatFleetReport renders the per-node view of the campaign: for each
// phase, every node's throughput, p50/p99 and CPI/cache MPI where it
// carried counters, and the fleet-total gateway throughput. The client
// view of the same phases is the campaign's own report.
func formatFleetReport(windows []phaseWindow, merger *Merger) string {
	var b strings.Builder
	b.WriteString("Fleet report (" + merger.Summary() + ")\n")
	b.WriteString("\nPer-node view (merged session windows, per campaign phase):\n")
	fmt.Fprintf(&b, "%-14s %-24s %8s %10s %12s %10s %10s %8s %10s %6s\n",
		"phase", "node", "samples", "msgs", "msgs/s", "p50(us)", "p99(us)", "cpi", "cacheMPI%", "src")
	for _, w := range windows {
		for _, nw := range w.Nodes {
			cpi, mpi, src := "-", "-", nw.Source
			if src == "" {
				src = "-"
			} else {
				cpi = fmt.Sprintf("%.3f", nw.CPI)
				mpi = fmt.Sprintf("%.4f", nw.CacheMPI)
			}
			fmt.Fprintf(&b, "%-14s %-24s %8d %10d %12.1f %10d %10d %8s %10s %6s\n",
				w.Phase, nw.Node, nw.Samples, nw.Messages, nw.MsgsPerSec,
				nw.LatencyP50US, nw.LatencyP99US, cpi, mpi, src)
		}
		fmt.Fprintf(&b, "%-14s %-24s %8s %10s %12.1f\n",
			w.Phase, "fleet-total(gateways)", "", "", w.FleetMsgsPerSec)
	}
	return b.String()
}
