// Package campaign is the declarative scenario engine: a JSON spec
// describes a sequence of time-phased traffic shapes — constant,
// linear/diurnal ramps, flash crowds, slow-loris holds — each optionally
// scripting backend fault storms (POST /fault against aonback) at
// offsets within the phase. The runner drives a live gateway through the
// phases with closed-loop senders whose number the shape's envelope
// sets, samples its /stats surface into a phase-tagged
// session timeline (crash-safe JSONL + CSV the stock readers parse), and
// emits per-phase Figure-5/6-style report rows with stage-latency and
// capacity model-error columns.
//
// Where `aonload` answers "what does the gateway do at constant offered
// load N", a campaign answers "what does it do through a day": warmup,
// diurnal swell, a flash crowd landing while a backend degrades, a
// slow-loris siege against the read path. RZBENCH's structured workload
// suites and the stability-campaign literature motivate treating these
// as first-class measurements rather than one-off smokes.
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

// Spec is the campaign document: global knobs plus the ordered phases.
type Spec struct {
	// Name labels the campaign in reports and artifacts.
	Name string `json:"name"`
	// Addr is the target gateway (host:port). Runner options may
	// override it (aonfleet injects the launched gateway's address).
	Addr string `json:"addr,omitempty"`
	// Backends are aonback control addresses (host:port) that fault
	// steps reference by index.
	Backends []string `json:"backends,omitempty"`
	// Seed perturbs the deterministic message generators and is echoed
	// into reports; same spec + same seed = same traffic.
	Seed uint64 `json:"seed,omitempty"`
	// SizeBytes is the approximate POST body size (default the paper's
	// 5 KB).
	SizeBytes int `json:"size_bytes,omitempty"`
	// SampleIntervalMS is the /stats sampling period for the campaign
	// timeline (default 250ms).
	SampleIntervalMS int `json:"sample_interval_ms,omitempty"`
	// TimeoutMS bounds each request round trip (default 10s).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// TargetP99MS is the latency bound used for capacity model-error
	// reporting (default 100ms).
	TargetP99MS int `json:"target_p99_ms,omitempty"`
	// TraceEvery originates a distributed trace on every Nth request per
	// sender (0 = never): an X-AON-Trace header is spliced into the
	// pooled request bytes so the gateway adopts the client's trace ID
	// and the whole campaign exemplar is followable across the fleet.
	TraceEvery int `json:"trace_every,omitempty"`
	// Phases run in order; at least one is required.
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
	// Faults fire against Spec.Backends at offsets within the phase.
	Faults []FaultStep `json:"faults,omitempty"`
}

// FaultStep schedules one POST /fault during a phase.
type FaultStep struct {
	// AtMS is the offset from phase start.
	AtMS int `json:"at_ms"`
	// Backend indexes Spec.Backends.
	Backend int `json:"backend"`
	// Fault is forwarded verbatim as the POST /fault body.
	Fault upstream.FaultSpec `json:"fault"`
}

// knownShapes gates validation.
var knownShapes = map[Shape]bool{
	ShapeConstant: true, ShapeRamp: true, ShapeDiurnal: true,
	ShapeFlash: true, ShapeSlowloris: true,
}

// Validate checks the spec and fills defaults in place.
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
	if s.TargetP99MS == 0 {
		s.TargetP99MS = 100
	}
	if s.TargetP99MS < 0 {
		return fmt.Errorf("campaign: target_p99_ms must be positive, got %d", s.TargetP99MS)
	}
	if s.TraceEvery < 0 {
		return fmt.Errorf("campaign: trace_every must be >= 0, got %d", s.TraceEvery)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("campaign: no phases")
	}
	for i := range s.Phases {
		if err := s.Phases[i].validate(i, len(s.Backends)); err != nil {
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
	for j, f := range p.Faults {
		if f.AtMS < 0 || f.AtMS > p.DurationMS {
			return fmt.Errorf("%s: fault %d at_ms %d outside phase duration %d", where, j, f.AtMS, p.DurationMS)
		}
		if f.Backend < 0 || f.Backend >= numBackends {
			return fmt.Errorf("%s: fault %d references backend %d, spec has %d", where, j, f.Backend, numBackends)
		}
	}
	return nil
}

// Duration returns the phase length.
func (p *Phase) Duration() time.Duration {
	return time.Duration(p.DurationMS) * time.Millisecond
}

// DecodeStrict decodes data, which must hold exactly one JSON document,
// into v. Unknown fields — at any depth — and anything but white space
// after the document are refused: a typoed knob, or a second document
// pasted after the first, should fail loudly, not silently run defaults.
// Campaign specs and fleet configs (which embed one) both decode here.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON document")
	}
	return nil
}

// decodeSpec strictly decodes a campaign document (see DecodeStrict)
// without validating it. Callers that rewrite the spec before running
// (aoncamp's -selfback swaps in self-hosted backend addresses) decode
// first, rewrite, then Validate.
func decodeSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := DecodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("campaign: bad spec: %w", err)
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

// LoadSpec reads and decodes a campaign document from a file without
// validating it — callers rewrite (or not) and then Validate.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return decodeSpec(data)
}
