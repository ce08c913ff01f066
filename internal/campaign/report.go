package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/dtrace"
	"repro/internal/gateway"
	"repro/internal/session"
)

// Result is the campaign's final accounting — aoncamp emits it as JSON
// next to the formatted report.
type Result struct {
	Name        string        `json:"name"`
	Addr        string        `json:"addr"`
	Seed        uint64        `json:"seed,omitempty"`
	DurationSec float64       `json:"duration_sec"`
	Phases      []PhaseReport `json:"phases"`
	Faults      []FaultEvent  `json:"faults,omitempty"`
	Samples     int           `json:"samples"` // rows the recorder landed during the run, every node's
	Artifacts   []string      `json:"artifacts,omitempty"`

	// ClientSpans are the senders' request spans of originated traces
	// (Spec.TraceEvery > 0), every phase's, for a trace plane to join with
	// the gateway and backend spans. Not part of the JSON result.
	ClientSpans []dtrace.Span `json:"-"`
}

// PhaseReport is one phase's Figure-5/6-style row: client-side outcome
// accounting, gateway-side counter deltas, and the per-stage
// service-time window.
type PhaseReport struct {
	Name        string  `json:"name"`
	Shape       string  `json:"shape"`
	UseCase     string  `json:"usecase"`
	DurationSec float64 `json:"duration_sec"`
	PeakConns   int     `json:"peak_conns"`

	// Client-side accounting.
	gateway.Counts

	OfferedPerSec float64 `json:"offered_per_sec"` // sent+shed+errors per second
	OKPerSec      float64 `json:"ok_per_sec"`
	LatencyP50US  uint64  `json:"latency_p50_us"`
	LatencyP99US  uint64  `json:"latency_p99_us"`

	// Gateway-side deltas between the phase's start and end snapshots.
	GwMessages     uint64 `json:"gw_messages"`
	GwShed         uint64 `json:"gw_shed"`
	GwIdleTimeouts uint64 `json:"gw_idle_timeouts"`
	GwUpstreamErrs uint64 `json:"gw_upstream_errors"`

	// Slow-loris accounting (zero for other shapes).
	LorisHeld      uint64 `json:"loris_held,omitempty"`
	LorisReaped    uint64 `json:"loris_reaped,omitempty"`
	LorisCompleted uint64 `json:"loris_completed,omitempty"`

	// Stages is the phase's windowed per-stage service-time view
	// (read/queue/parse/process/forward/write), from the gateway's
	// cumulative stage histograms differenced across the phase. Nil when
	// the gateway runs without tracing.
	Stages map[string]StageWindow `json:"stages,omitempty"`

	// FaultSteps counts the scripted fault posts that fired this phase.
	FaultSteps int `json:"fault_steps,omitempty"`

	// Nodes is every recorded node's phase window, each cut from the
	// phase's start and end reads: the campaign's gateway first, then the
	// other gateways, then the backends. The gateway's row gives the
	// report its procs, cpi, brmpr% and gc% columns. They feed
	// formatReport only; the rows themselves are in session.jsonl.
	Nodes []NodeWindow `json:"-"`
}

// NodeWindow is one node's window over a phase: messages, msgs/s, CPI
// and cache-MPI between the phase's start and end reads, and p50/p99 at
// the end read (cumulative histograms: the freshest read wins).
type NodeWindow struct {
	Node string
	Role string
	session.Sample
}

// gateway is the campaign gateway's window over the phase, the first
// of Nodes; zero when the phase has none.
func (p *PhaseReport) gateway() NodeWindow {
	if len(p.Nodes) == 0 || p.Nodes[0].Role != RoleGateway {
		return NodeWindow{}
	}
	return p.Nodes[0]
}

// StageWindow is one pipeline stage's share of the phase: how many
// traced requests crossed it and their mean service time, computed as a
// windowed mean between the phase's start/end cumulative snapshots.
type StageWindow struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
}

// buildPhaseReport folds the phase's pools and gateway snapshots into
// one report row.
func buildPhaseReport(p *Phase, dur time.Duration, client gateway.Report, lp *lorisPool,
	snapStart, snapEnd *gateway.Snapshot) *PhaseReport {
	rep := &PhaseReport{
		Name:        p.Name,
		Shape:       string(p.Shape),
		UseCase:     p.UseCase,
		DurationSec: dur.Seconds(),
		PeakConns:   p.PeakWidth(),
		Counts:      client.Counts,
		FaultSteps:  len(p.Faults),
	}
	if rep.DurationSec > 0 {
		rep.OfferedPerSec = float64(rep.Sent) / rep.DurationSec
		rep.OKPerSec = float64(rep.OK) / rep.DurationSec
	}
	rep.LatencyP50US, rep.LatencyP99US = client.Latency.P50US, client.Latency.P99US
	if lp != nil {
		rep.LorisHeld = lp.held.Load()
		rep.LorisReaped = lp.reaped.Load()
		rep.LorisCompleted = lp.completed.Load()
	}
	rep.GwMessages = session.Delta(snapEnd.Messages, snapStart.Messages)
	rep.GwShed = session.Delta(snapEnd.Shed, snapStart.Shed)
	rep.GwIdleTimeouts = session.Delta(snapEnd.IdleTimeouts, snapStart.IdleTimeouts)
	rep.GwUpstreamErrs = session.Delta(snapEnd.UpstreamErrs, snapStart.UpstreamErrs)

	rep.Stages = stageWindow(snapStart.Stages[p.UseCase], snapEnd.Stages[p.UseCase])
	return rep
}

// stageWindow differences two cumulative per-stage snapshot maps into
// the phase's own window: count deltas, and the windowed mean
// (c2·m2 − c1·m1)/(c2 − c1) that removes pre-phase history from the
// cumulative means.
func stageWindow(start, end map[string]gateway.HistSnapshot) map[string]StageWindow {
	if len(end) == 0 {
		return nil
	}
	out := map[string]StageWindow{}
	for stage, e := range end {
		s := start[stage] // zero value when the phase is the stage's first
		if e.Count <= s.Count {
			continue
		}
		n := e.Count - s.Count
		mean := (float64(e.Count)*e.MeanUS - float64(s.Count)*s.MeanUS) / float64(n)
		if mean < 0 {
			mean = 0
		}
		out[stage] = StageWindow{Count: n, MeanUS: mean}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Artifact names under a campaign's output directory, beside the
// recorder's session.jsonl.
const (
	reportFile = "campaign-report.txt"
	resultFile = "campaign-result.json"
)

// WriteArtifacts renders res as the formatted report and the indented
// result JSON, writes them into dir as reportFile and resultFile (dir ""
// writes nothing), and returns both.
func WriteArtifacts(dir string, res *Result) (report string, resultJSON []byte, err error) {
	report = formatReport(res)
	if resultJSON, err = json.MarshalIndent(res, "", "  "); err != nil {
		return "", nil, fmt.Errorf("campaign: result: %w", err)
	}
	if dir == "" {
		return report, resultJSON, nil
	}
	if err := os.WriteFile(filepath.Join(dir, reportFile), []byte(report), 0o644); err != nil {
		return "", nil, fmt.Errorf("campaign: report: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, resultFile), append(resultJSON, '\n'), 0o644); err != nil {
		return "", nil, fmt.Errorf("campaign: result: %w", err)
	}
	return report, resultJSON, nil
}

// formatReport renders the human-readable campaign report: the per-phase
// scaling table (scale is ok/s over the first phase's — the paper's
// "performance scalability from one processing unit to two" when the
// phases differ in gomaxprocs — with the counter columns when the
// gateway publishes counters), the per-node phase windows with the
// fleet-total gateway throughput, the per-phase stage tables, and the
// fault log.
func formatReport(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s against %s: %d phases, %.1fs, %d samples",
		res.Name, res.Addr, len(res.Phases), res.DurationSec, res.Samples)
	if res.Seed != 0 {
		fmt.Fprintf(&b, ", seed %d", res.Seed)
	}
	b.WriteString("\n\n")

	counters := slices.ContainsFunc(res.Phases, func(p PhaseReport) bool { return p.gateway().DerivedSource != "" })
	fmt.Fprintf(&b, "%-14s %-9s %-5s %5s %6s %6s %10s %8s %6s %8s %8s %6s %6s %6s",
		"phase", "shape", "uc", "procs", "dur(s)", "peak", "offered/s", "ok/s", "scale",
		"p50us", "p99us", "shed", "idle", "flt")
	if counters {
		fmt.Fprintf(&b, " %8s %8s %6s", "cpi", "brmpr%", "gc%")
	}
	b.WriteByte('\n')
	marked := false
	for i := range res.Phases {
		p := &res.Phases[i]
		g := p.gateway()
		scale := 0.0
		if base := res.Phases[0].OKPerSec; base > 0 {
			scale = p.OKPerSec / base
		}
		fmt.Fprintf(&b, "%-14s %-9s %-5s %5d %6.1f %6d %10.0f %8.0f %6.2f %8d %8d %6d %6d %6d",
			p.Name, p.Shape, p.UseCase, g.GOMAXPROCS, p.DurationSec, p.PeakConns,
			p.OfferedPerSec, p.OKPerSec, scale, p.LatencyP50US, p.LatencyP99US,
			max(p.Shed, p.GwShed), // client and gateway shed views can differ under overlap
			p.GwIdleTimeouts, p.FaultSteps)
		if g.DerivedSource != "" {
			mark := ""
			if g.DerivedSource == "model" {
				mark, marked = "*", true
			}
			fmt.Fprintf(&b, " %8s %8s %6.1f",
				fmt.Sprintf("%.2f%s", g.CPI, mark), fmt.Sprintf("%.2f%s", g.BrMPR, mark), g.GCCPUPct)
		} else if counters {
			fmt.Fprintf(&b, " %8s %8s %6s", "-", "-", "-")
		}
		b.WriteByte('\n')
	}
	if marked {
		b.WriteString("* model prediction — the gateway's counters ran runtime-only (its /stats counters.notice says why)\n")
	}
	formatNodes(&b, res.Phases)

	for i := range res.Phases {
		p := &res.Phases[i]
		if len(p.Stages) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nphase %s stage window (mean us over %d+ traced):\n", p.Name, minStageCount(p.Stages))
		for _, stage := range dtrace.StageNames() {
			w, ok := p.Stages[stage]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-8s %8.0fus  (n=%d)\n", stage, w.MeanUS, w.Count)
		}
		if p.LorisHeld > 0 || p.LorisReaped > 0 {
			fmt.Fprintf(&b, "  loris: held=%d reaped=%d completed=%d (gateway reaped %d by idle deadline)\n",
				p.LorisHeld, p.LorisReaped, p.LorisCompleted, p.GwIdleTimeouts)
		}
	}

	if len(res.Faults) > 0 {
		fmt.Fprintf(&b, "\nfault log (%d steps):\n", len(res.Faults))
		for _, ev := range res.Faults {
			state := "ok"
			if ev.Err != "" {
				state = "ERR " + ev.Err
			} else if ev.State != nil {
				state = fmt.Sprintf("active=%v dropped=%d errored=%d", ev.State.Active, ev.State.Dropped, ev.State.Errored)
			}
			fmt.Fprintf(&b, "  %-14s +%-6dms %-21s %-30s %s\n",
				ev.Phase, ev.AtMS, ev.Backend, describeFault(ev.Fault, nil), state)
		}
	}
	return b.String()
}

// formatNodes renders every phase's per-node windows, gateways first,
// and the fleet-total gateway throughput under each phase.
func formatNodes(b *strings.Builder, phases []PhaseReport) {
	if !slices.ContainsFunc(phases, func(p PhaseReport) bool { return len(p.Nodes) > 0 }) {
		return
	}
	b.WriteString("\nper-node phase windows (start to end reads):\n")
	fmt.Fprintf(b, "%-14s %-24s %10s %12s %10s %10s %8s %10s %6s\n",
		"phase", "node", "msgs", "msgs/s", "p50(us)", "p99(us)", "cpi", "cacheMPI%", "src")
	for i := range phases {
		p := &phases[i]
		var total float64
		for _, n := range p.Nodes {
			cpi, mpi, src := "-", "-", n.DerivedSource
			if src == "" {
				src = "-"
			} else {
				cpi = fmt.Sprintf("%.3f", n.CPI)
				mpi = fmt.Sprintf("%.4f", n.CacheMPI)
			}
			fmt.Fprintf(b, "%-14s %-24s %10d %12.1f %10d %10d %8s %10s %6s\n",
				p.Name, n.Node, n.Messages, n.MsgsPerSec, n.LatencyP50US, n.LatencyP99US, cpi, mpi, src)
			if n.Role == RoleGateway {
				total += n.MsgsPerSec
			}
		}
		fmt.Fprintf(b, "%-14s %-24s %10s %12.1f\n", p.Name, "fleet-total(gateways)", "", total)
	}
}

func minStageCount(stages map[string]StageWindow) uint64 {
	counts := make([]uint64, 0, len(stages))
	for _, w := range stages {
		counts = append(counts, w.Count)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	if len(counts) == 0 {
		return 0
	}
	return counts[0]
}
