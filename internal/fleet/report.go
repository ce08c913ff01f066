package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/gateway"
	"repro/internal/session"
)

// nodeWindow aggregates one node's samples over a sweep point's window:
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

// pointReport is one sweep point: the client-side load report, the
// per-node windows cut from the merged session, and the gateway's
// capacity-model error view at the point's close.
type pointReport struct {
	Conns int `json:"conns"`
	// Client is the load generator's accounting for this point.
	Client gateway.Report `json:"client"`
	// Nodes are the per-node observability windows, sorted gateway
	// first, then backends, by key.
	Nodes []nodeWindow `json:"nodes"`
	// FleetMsgsPerSec sums the gateway nodes' window throughput — the
	// fleet-total forwarding rate the scaling column compares.
	FleetMsgsPerSec float64 `json:"fleet_msgs_per_sec"`
	// Capacity carries the first gateway's model-error section when
	// adaptive admission runs (nil otherwise).
	Capacity *gateway.CapacitySnapshot `json:"capacity,omitempty"`
}

// windowNodes cuts per-node aggregates from the slice of merged-session
// samples that arrived during one sweep point.
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

// buildPoint assembles one sweep point's report.
func buildPoint(conns int, client gateway.Report, window []NodeSample, snap *gateway.Snapshot) pointReport {
	pr := pointReport{Conns: conns, Client: client, Nodes: windowNodes(window)}
	for _, nw := range pr.Nodes {
		if nw.Role == roleGateway {
			pr.FleetMsgsPerSec += nw.MsgsPerSec
		}
	}
	if snap != nil {
		pr.Capacity = snap.Capacity
	}
	return pr
}

// formatFleetReport renders the campaign as the combined Figure-5/6
// analogue: the client view (throughput, p50/p99, scaling factor vs the
// first point), the per-node windows (per-node and fleet-total
// throughput, CPI and cache MPI where a node carried counters), and the
// capacity model-error columns when adaptive admission ran.
func formatFleetReport(points []pointReport, merger *Merger) string {
	var b strings.Builder
	b.WriteString("Fleet sweep report (" + merger.Summary() + ")\n")
	b.WriteString("\nClient view (per sweep point):\n")
	b.WriteString(fmt.Sprintf("%-6s %12s %10s %10s %10s %8s\n",
		"conns", "msgs/s", "p50(us)", "p99(us)", "errors", "scale"))
	base := 0.0
	for i, p := range points {
		if i == 0 {
			base = p.Client.MsgsPerSec
		}
		scale := 0.0
		if base > 0 {
			scale = p.Client.MsgsPerSec / base
		}
		errs := p.Client.HTTPErrors + p.Client.NetErrors + p.Client.Shed
		b.WriteString(fmt.Sprintf("%-6d %12.1f %10d %10d %10d %7.2fx\n",
			p.Conns, p.Client.MsgsPerSec, p.Client.Latency.P50US,
			p.Client.Latency.P99US, errs, scale))
	}
	b.WriteString("\nPer-node view (merged session windows):\n")
	b.WriteString(fmt.Sprintf("%-6s %-24s %8s %10s %12s %10s %10s %8s %10s %6s\n",
		"conns", "node", "samples", "msgs", "msgs/s", "p50(us)", "p99(us)", "cpi", "cacheMPI%", "src"))
	for _, p := range points {
		for _, nw := range p.Nodes {
			cpi, mpi, src := "-", "-", nw.Source
			if src == "" {
				src = "-"
			} else {
				cpi = fmt.Sprintf("%.3f", nw.CPI)
				mpi = fmt.Sprintf("%.4f", nw.CacheMPI)
			}
			b.WriteString(fmt.Sprintf("%-6d %-24s %8d %10d %12.1f %10d %10d %8s %10s %6s\n",
				p.Conns, nw.Node, nw.Samples, nw.Messages, nw.MsgsPerSec,
				nw.LatencyP50US, nw.LatencyP99US, cpi, mpi, src))
		}
		b.WriteString(fmt.Sprintf("%-6d %-24s %8s %10s %12.1f\n",
			p.Conns, "fleet-total(gateways)", "", "", p.FleetMsgsPerSec))
	}
	if hasCapacity(points) {
		b.WriteString("\nCapacity model error (gateway adaptive admission):\n")
		b.WriteString(fmt.Sprintf("%-6s %10s %10s %10s %14s\n",
			"conns", "bound", "thr_err%", "p99_err%", "admissible/s"))
		for _, p := range points {
			c := p.Capacity
			if c == nil || !c.Enabled {
				continue
			}
			b.WriteString(fmt.Sprintf("%-6d %10d %10.1f %10.1f %14.1f\n",
				p.Conns, c.AdmissionBound, c.ThroughputErrPct, c.P99ErrPct,
				c.AdmissiblePerSec))
		}
	}
	return b.String()
}

func hasCapacity(points []pointReport) bool {
	for _, p := range points {
		if p.Capacity != nil && p.Capacity.Enabled {
			return true
		}
	}
	return false
}
