// Package campaign is the declarative scenario engine: a JSON spec
// describes a sequence of time-phased traffic shapes — constant,
// linear/diurnal ramps, flash crowds, slow-loris holds — each optionally
// scripting backend fault storms (POST /fault against aonback) at
// offsets within the phase — and, optionally, the topology it runs on:
// gateways and backends that the campaign launches as child processes,
// starts in process, or attaches to by address. The runner brings the
// topology up, drives its first gateway through the phases with
// closed-loop senders whose number the shape's envelope sets, records
// every node's /stats into a phase-tagged session timeline (one
// crash-safe file, session.jsonl), and emits per-phase Figure-5/6-style
// report rows with stage-latency columns and every recorded node's
// window. A spec with nodes and no phases is a passive recording.
//
// A campaign is the one run engine: the paper's scaling question ("how
// does throughput move from one processing unit to two") is a spec of
// constant phases that differ only in gomaxprocs, and a day — warmup,
// diurnal swell, a flash crowd landing while a backend degrades, a
// slow-loris siege against the read path — is a spec of shaped phases.
// RZBENCH's single suite and the stability-campaign literature motivate
// treating both as first-class measurements rather than one-off smokes.
package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/upstream"
	"repro/internal/workload"
)

// Shape names a phase's traffic envelope.
type Shape string

const (
	// ShapeConstant holds Conns senders for the phase.
	ShapeConstant Shape = "constant"
	// ShapeRamp moves linearly from Conns to ConnsTo across the phase.
	ShapeRamp Shape = "ramp"
	// ShapeDiurnal swells sinusoidally Conns→ConnsTo→Conns across the
	// phase — one compressed day.
	ShapeDiurnal Shape = "diurnal"
	// ShapeFlash steps to BurstConns for BurstMS, then decays
	// exponentially (time constant DecayMS) back toward Conns.
	ShapeFlash Shape = "flash"
	// ShapeSlowloris holds Conns trickling connections that drip request
	// bytes slower than the gateway's idle timeout (exercising the
	// read-deadline shed path), with BackgroundConns normal senders
	// alongside to prove the held connections starve no one.
	ShapeSlowloris Shape = "slowloris"
)

// Spec is the campaign document: global knobs, the topology and the
// ordered phases.
type Spec struct {
	// Name labels the campaign in reports and artifacts.
	Name string `json:"name"`
	// Seed perturbs the deterministic message generators and is echoed
	// into reports; same spec + same seed = same traffic.
	Seed uint64 `json:"seed,omitempty"`
	// SizeBytes is the approximate POST body size (default the paper's
	// 5 KB).
	SizeBytes int `json:"size_bytes,omitempty"`
	// SampleIntervalMS is the recording period: every node's /stats is
	// read once per interval, and with TraceEvery > 0 every node's
	// /traces too (default 250ms).
	SampleIntervalMS int `json:"sample_interval_ms,omitempty"`
	// TimeoutMS bounds each request round trip (default 10s).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// TraceEvery originates a distributed trace on every Nth request per
	// sender (0 = never): an X-AON-Trace header is spliced into the
	// pooled request bytes so the gateway adopts the client's trace ID
	// and the whole campaign exemplar is followable across the nodes.
	// Set, it also runs the trace plane: traces.jsonl and
	// trace-report.txt in the run's out directory.
	TraceEvery int `json:"trace_every,omitempty"`
	// Nodes is the topology. Without it the campaign runs against one
	// attached gateway whose address the caller names (aoncamp -addr).
	Nodes []NodeSpec `json:"nodes,omitempty"`
	// Phases run in order against the first gateway. Without nodes at
	// least one is required; a spec with nodes and no phases records
	// until it is stopped.
	Phases []Phase `json:"phases"`
}

// Phase is one scenario segment: a traffic shape over a duration, with
// optional scripted fault steps.
type Phase struct {
	Name    string `json:"name"`
	Shape   Shape  `json:"shape"`
	UseCase string `json:"usecase,omitempty"` // default FR
	// DurationMS is the phase length.
	DurationMS int `json:"duration_ms"`
	// Conns is the base sender width (see each Shape for its role).
	Conns int `json:"conns"`
	// ConnsTo is the ramp/diurnal end/peak width.
	ConnsTo int `json:"conns_to,omitempty"`
	// BurstConns is the flash-crowd step height.
	BurstConns int `json:"burst_conns,omitempty"`
	// BurstMS is how long the flash burst holds before decay (default
	// a quarter of the phase).
	BurstMS int `json:"burst_ms,omitempty"`
	// DecayMS is the flash decay time constant (default BurstMS).
	DecayMS int `json:"decay_ms,omitempty"`
	// BackgroundConns is the slow-loris phase's count of normal senders
	// running alongside the held connections.
	BackgroundConns int `json:"background_conns,omitempty"`
	// TrickleIntervalMS paces slow-loris body bytes (default 400ms;
	// must exceed the gateway's idle timeout for the hold to be reaped).
	TrickleIntervalMS int `json:"trickle_interval_ms,omitempty"`
	// InvalidEvery makes every Nth message schema-invalid (0 = never).
	InvalidEvery int `json:"invalid_every,omitempty"`
	// GOMAXPROCS runs the phase at this scheduler width — the paper's
	// one-unit vs two-unit axis (0 = the width the process started the
	// campaign with). The runner sets it in its own process, so it is
	// meaningful only for an inproc gateway node: the phase is refused
	// unless the gateway's /stats workers reads it.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Faults fire against the spec's backend nodes at offsets within the
	// phase.
	Faults []FaultStep `json:"faults,omitempty"`
}

// FaultStep schedules one POST /fault during a phase.
type FaultStep struct {
	// AtMS is the offset from phase start.
	AtMS int `json:"at_ms"`
	// Backend indexes the spec's backend nodes in spec order, replicas
	// expanded.
	Backend int `json:"backend"`
	// Fault is forwarded verbatim as the POST /fault body.
	Fault upstream.FaultSpec `json:"fault"`
}

// knownShapes gates validation.
var knownShapes = map[Shape]bool{
	ShapeConstant: true, ShapeRamp: true, ShapeDiurnal: true,
	ShapeFlash: true, ShapeSlowloris: true,
}

// Validate checks the whole spec, topology included, and fills defaults
// in place, so that a bad spec is refused before any node starts.
func (s *Spec) Validate() error {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if s.SizeBytes == 0 {
		s.SizeBytes = workload.MessageBytes
	}
	if s.SizeBytes < 0 {
		return fmt.Errorf("campaign: size_bytes must be positive, got %d", s.SizeBytes)
	}
	if s.SampleIntervalMS == 0 {
		s.SampleIntervalMS = 250
	}
	if s.SampleIntervalMS < 0 {
		return fmt.Errorf("campaign: sample_interval_ms must be positive, got %d", s.SampleIntervalMS)
	}
	if s.TimeoutMS == 0 {
		s.TimeoutMS = 10_000
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("campaign: timeout_ms must be positive, got %d", s.TimeoutMS)
	}
	if s.TraceEvery < 0 {
		return fmt.Errorf("campaign: trace_every must be >= 0, got %d", s.TraceEvery)
	}
	backends := 0
	if len(s.Nodes) > 0 {
		var err error
		if backends, err = validateNodes(s.Nodes); err != nil {
			return err
		}
	} else if len(s.Phases) == 0 {
		return fmt.Errorf("campaign: no phases")
	}
	for i := range s.Phases {
		if err := s.Phases[i].validate(i, backends); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one phase and fills its defaults.
func (p *Phase) validate(idx, numBackends int) error {
	where := fmt.Sprintf("campaign: phase %d (%s)", idx, p.Name)
	if p.Name == "" {
		p.Name = fmt.Sprintf("phase-%d", idx)
		where = fmt.Sprintf("campaign: phase %d", idx)
	}
	if p.Shape == "" {
		p.Shape = ShapeConstant
	}
	p.Shape = Shape(strings.ToLower(string(p.Shape)))
	if !knownShapes[p.Shape] {
		return fmt.Errorf("%s: unknown shape %q", where, p.Shape)
	}
	if p.UseCase == "" {
		p.UseCase = "FR"
	}
	uc, err := workload.ParseUseCase(p.UseCase)
	if err != nil {
		return fmt.Errorf("%s: %v", where, err)
	}
	p.UseCase = uc.String()
	if p.DurationMS <= 0 {
		return fmt.Errorf("%s: duration_ms must be positive, got %d", where, p.DurationMS)
	}
	if p.Conns <= 0 {
		return fmt.Errorf("%s: conns must be positive, got %d", where, p.Conns)
	}
	switch p.Shape {
	case ShapeRamp, ShapeDiurnal:
		if p.ConnsTo <= 0 {
			return fmt.Errorf("%s: %s needs conns_to", where, p.Shape)
		}
	case ShapeFlash:
		if p.BurstConns <= p.Conns {
			return fmt.Errorf("%s: flash needs burst_conns > conns (%d <= %d)", where, p.BurstConns, p.Conns)
		}
		if p.BurstMS == 0 {
			p.BurstMS = p.DurationMS / 4
		}
		if p.BurstMS <= 0 || p.BurstMS > p.DurationMS {
			return fmt.Errorf("%s: burst_ms %d outside phase duration %d", where, p.BurstMS, p.DurationMS)
		}
		if p.DecayMS == 0 {
			p.DecayMS = p.BurstMS
		}
		if p.DecayMS < 0 {
			return fmt.Errorf("%s: decay_ms must be positive, got %d", where, p.DecayMS)
		}
	case ShapeSlowloris:
		if p.TrickleIntervalMS == 0 {
			p.TrickleIntervalMS = 400
		}
		if p.TrickleIntervalMS < 0 {
			return fmt.Errorf("%s: trickle_interval_ms must be positive, got %d", where, p.TrickleIntervalMS)
		}
		if p.BackgroundConns < 0 {
			return fmt.Errorf("%s: background_conns must be >= 0, got %d", where, p.BackgroundConns)
		}
	}
	if p.InvalidEvery < 0 {
		return fmt.Errorf("%s: invalid_every must be >= 0, got %d", where, p.InvalidEvery)
	}
	if p.GOMAXPROCS < 0 {
		return fmt.Errorf("%s: gomaxprocs must be >= 0, got %d", where, p.GOMAXPROCS)
	}
	for j, f := range p.Faults {
		if f.AtMS < 0 || f.AtMS > p.DurationMS {
			return fmt.Errorf("%s: fault %d at_ms %d outside phase duration %d", where, j, f.AtMS, p.DurationMS)
		}
		if f.Backend < 0 || f.Backend >= numBackends {
			return fmt.Errorf("%s: fault %d references backend %d, spec has %d backend nodes", where, j, f.Backend, numBackends)
		}
	}
	return nil
}

// Duration returns the phase length.
func (p *Phase) Duration() time.Duration {
	return time.Duration(p.DurationMS) * time.Millisecond
}

// decodeSpec strictly decodes a campaign document, which must hold
// exactly one JSON document, without validating it. Unknown fields — at
// any depth — and anything but white space after the document are
// refused: a typoed knob, or a second document pasted after the first,
// should fail loudly, not silently run defaults.
func decodeSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: bad spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("campaign: bad spec: data after the JSON document")
	}
	return &s, nil
}

// parseSpec decodes and validates a campaign document.
func parseSpec(data []byte) (*Spec, error) {
	s, err := decodeSpec(data)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSpec reads, strictly decodes and validates a campaign document.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	s, err := parseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
