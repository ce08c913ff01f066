package harness

// This file closes the loop between the reproduction's two halves: a
// live campaign phase's window over the gateway's perf-counter
// measurement layer is replayed against the simulated machine's model,
// and the per-use-case deltas are written as a calibration artifact the
// simulator side can ingest — live CPI feeding back into the model.

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/perf/counters"
	"repro/internal/workload"
)

// CalibrationEntry is one use case's live-vs-model delta. Scales are
// live/sim ratios; Apply multiplies model predictions by them. When the
// live side itself ran in the model fallback (no perf events), LiveSource
// is "model" and every scale is pinned to 1 — a session cannot calibrate
// the model against itself.
type CalibrationEntry struct {
	Samples    int     `json:"samples"`     // recorder rows behind the live phase window
	LiveSource string  `json:"live_source"` // "hw" or "model"
	SimCPI     float64 `json:"sim_cpi"`
	LiveCPI    float64 `json:"live_cpi"`
	CPIScale   float64 `json:"cpi_scale"`
	SimMPI     float64 `json:"sim_l2mpi_pct"`
	LiveMPI    float64 `json:"live_cache_mpi_pct"`
	MPIScale   float64 `json:"mpi_scale"`
	SimBrMPR   float64 `json:"sim_br_mpr_pct"`
	LiveBrMPR  float64 `json:"live_br_mpr_pct"`
	BrMPRScale float64 `json:"br_mpr_scale"`
	// LiveP50US is the live phase's median end-to-end latency.
	LiveP50US float64 `json:"live_p50_us,omitempty"`
	// LiveMsgsPerSec is the live phase's measured throughput.
	LiveMsgsPerSec float64 `json:"live_msgs_per_sec,omitempty"`
}

// Calibration is the on-disk artifact: one entry per use case measured
// against one simulated configuration, keyed by the use case's name.
type Calibration struct {
	Config  string                      `json:"config"` // simulated machine, e.g. "2CPm"
	Entries map[string]CalibrationEntry `json:"entries"`
}

// NewCalibrationEntry builds one delta from a live phase window's
// metrics and the simulator's predicted ones. Ratios with a zero sim
// denominator, a zero live reading, or a model-sourced live side stay 1.
func NewCalibrationEntry(sim counters.Metrics, liveCPI, liveMPI, liveBrMPR float64, samples int, liveSource string) CalibrationEntry {
	e := CalibrationEntry{
		Samples: samples, LiveSource: liveSource,
		SimCPI: sim.CPI, LiveCPI: liveCPI, CPIScale: 1,
		SimMPI: sim.L2MPI, LiveMPI: liveMPI, MPIScale: 1,
		SimBrMPR: sim.BrMPR, LiveBrMPR: liveBrMPR, BrMPRScale: 1,
	}
	if liveSource != "hw" {
		return e
	}
	if sim.CPI > 0 && liveCPI > 0 {
		e.CPIScale = liveCPI / sim.CPI
	}
	if sim.L2MPI > 0 && liveMPI > 0 {
		e.MPIScale = liveMPI / sim.L2MPI
	}
	if sim.BrMPR > 0 && liveBrMPR > 0 {
		e.BrMPRScale = liveBrMPR / sim.BrMPR
	}
	return e
}

// Apply scales a model prediction by the stored live/sim ratios for uc.
// Unknown use cases and identity entries pass m through unchanged.
func (c *Calibration) Apply(uc workload.UseCase, m counters.Metrics) counters.Metrics {
	if c == nil {
		return m
	}
	e, ok := c.Entries[uc.String()]
	if !ok {
		return m
	}
	if e.CPIScale > 0 {
		m.CPI *= e.CPIScale
	}
	if e.MPIScale > 0 {
		m.L2MPI *= e.MPIScale
	}
	if e.BrMPRScale > 0 {
		m.BrMPR *= e.BrMPRScale
	}
	return m
}

// ApplyMatrix scales every result in a measured matrix by the artifact's
// per-use-case ratios, in place — how cmd/aonsim ingests a live
// calibration before rendering its predicted tables.
func (c *Calibration) ApplyMatrix(amx AONMatrix) {
	if c == nil {
		return
	}
	for uc, byCfg := range amx {
		for id, r := range byCfg {
			r.Metrics = c.Apply(uc, r.Metrics)
			byCfg[id] = r
		}
	}
}

// Identity reports whether applying c would change nothing — every entry
// carries unit scales (e.g. a session recorded in model-fallback mode).
func (c *Calibration) Identity() bool {
	for _, e := range c.Entries {
		if e.CPIScale != 1 || e.MPIScale != 1 || e.BrMPRScale != 1 {
			return false
		}
	}
	return true
}

// WriteFile persists the artifact as indented JSON.
func (c *Calibration) WriteFile(path string) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadCalibration reads an artifact written by WriteFile (aonsim -exp
// live writes one). Every entry key must be a use case's name exactly as
// Apply looks it up, so an entry nothing would read is an error, not a
// silent no-op.
func LoadCalibration(path string) (*Calibration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Calibration
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("harness: bad calibration file %s: %w", path, err)
	}
	if len(c.Entries) == 0 {
		return nil, fmt.Errorf("harness: calibration file %s has no entries", path)
	}
	for k := range c.Entries {
		if uc, err := workload.ParseUseCase(k); err != nil || uc.String() != k {
			return nil, fmt.Errorf("harness: calibration file %s: entry key %q is not a use case name", path, k)
		}
	}
	return &c, nil
}
