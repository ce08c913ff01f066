package harness

// This file closes the loop between the reproduction's two halves: a
// live sampling session (internal/session driven by the gateway's
// perf-counter measurement layer) is replayed against the simulated
// machine's model, and the per-use-case deltas are written as a
// calibration artifact the simulator side can ingest — live CPI feeding
// back into the model. It also hosts the cached model predictions the
// gateway's runtime-only fallback publishes.

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/perf/counters"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// CalibrationEntry is one use case's live-vs-model delta. Scales are
// live/sim ratios; Apply multiplies model predictions by them. When the
// live side itself ran in the model fallback (no perf events), LiveSource
// is "model" and every scale is pinned to 1 — a session cannot calibrate
// the model against itself.
type CalibrationEntry struct {
	Samples    int     `json:"samples"`     // timeline samples averaged
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
	// Width is the GOMAXPROCS the live session ran with (0:
	// width-agnostic, the pre-width artifact format). Width-specific
	// entries live under "UC@N" keys; EntryFor selects or interpolates
	// among them.
	Width int `json:"width,omitempty"`
	// LiveP50US is the live session's median end-to-end latency — the
	// no-contention service-demand seed the capacity model can start
	// from before stage traces land.
	LiveP50US float64 `json:"live_p50_us,omitempty"`
	// LiveMsgsPerSec is the session's measured throughput at this width,
	// the measured side of a predicted-vs-measured capacity table.
	LiveMsgsPerSec float64 `json:"live_msgs_per_sec,omitempty"`
}

// Calibration is the on-disk artifact: one entry per use case measured
// against one simulated configuration.
type Calibration struct {
	Config  string                      `json:"config"` // simulated machine, e.g. "2CPm"
	Entries map[string]CalibrationEntry `json:"entries"`
}

// NewCalibrationEntry builds one delta from a session's mean live
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

// EntryKey names a calibration entry: "UC" for width-agnostic entries,
// "UC@N" for entries recorded at GOMAXPROCS N.
func EntryKey(uc workload.UseCase, width int) string {
	if width > 0 {
		return fmt.Sprintf("%s@%d", uc, width)
	}
	return uc.String()
}

// EntryFor selects the calibration entry for uc at the given width:
// an exact "UC@width" entry wins; otherwise the two nearest recorded
// widths interpolate linearly (clamping outside the recorded range);
// otherwise the width-agnostic "UC" entry stands in. ok is false when
// the artifact knows nothing about uc.
func (c *Calibration) EntryFor(uc workload.UseCase, width int) (CalibrationEntry, bool) {
	if c == nil {
		return CalibrationEntry{}, false
	}
	if width > 0 {
		if e, ok := c.Entries[EntryKey(uc, width)]; ok {
			return e, true
		}
		// Collect this use case's width-specific entries and bracket.
		var lo, hi *CalibrationEntry
		for k := range c.Entries {
			e := c.Entries[k]
			if e.Width <= 0 || k != EntryKey(uc, e.Width) {
				continue
			}
			if e.Width < width {
				if lo == nil || e.Width > lo.Width {
					e := e
					lo = &e
				}
			} else {
				if hi == nil || e.Width < hi.Width {
					e := e
					hi = &e
				}
			}
		}
		switch {
		case lo != nil && hi != nil:
			return interpolateEntries(*lo, *hi, width), true
		case lo != nil:
			return *lo, true
		case hi != nil:
			return *hi, true
		}
	}
	e, ok := c.Entries[uc.String()]
	return e, ok
}

// interpolateEntries blends two width-bracketing entries linearly at
// width w. Source metadata comes from the nearer endpoint.
func interpolateEntries(lo, hi CalibrationEntry, w int) CalibrationEntry {
	span := float64(hi.Width - lo.Width)
	if span <= 0 {
		return lo
	}
	f := (float64(w) - float64(lo.Width)) / span
	lerp := func(a, b float64) float64 { return a + f*(b-a) }
	out := lo
	if f > 0.5 {
		out = hi
	}
	out.Width = w
	out.CPIScale = lerp(lo.CPIScale, hi.CPIScale)
	out.MPIScale = lerp(lo.MPIScale, hi.MPIScale)
	out.BrMPRScale = lerp(lo.BrMPRScale, hi.BrMPRScale)
	out.LiveCPI = lerp(lo.LiveCPI, hi.LiveCPI)
	out.LiveMPI = lerp(lo.LiveMPI, hi.LiveMPI)
	out.LiveBrMPR = lerp(lo.LiveBrMPR, hi.LiveBrMPR)
	out.LiveP50US = lerp(lo.LiveP50US, hi.LiveP50US)
	out.LiveMsgsPerSec = lerp(lo.LiveMsgsPerSec, hi.LiveMsgsPerSec)
	return out
}

// Apply scales a model prediction by the stored live/sim ratios for uc.
// Unknown use cases and identity entries pass m through unchanged.
func (c *Calibration) Apply(uc workload.UseCase, m counters.Metrics) counters.Metrics {
	return c.ApplyWidth(uc, 0, m)
}

// ApplyWidth scales a model prediction by the ratios recorded for uc at
// the given width (see EntryFor for the selection rules).
func (c *Calibration) ApplyWidth(uc workload.UseCase, width int, m counters.Metrics) counters.Metrics {
	e, ok := c.EntryFor(uc, width)
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

// LoadCalibration reads an artifact written by WriteFile (or by
// hwreport -timeline).
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
	return &c, nil
}

// predictedOpts sizes the cached model runs below: long enough for a
// steady window, short enough that a lazy first computation stays
// sub-second.
var predictedOpts = AONOpts{WarmupMsgs: 20, MeasureMsgs: 60, Window: 32}

type predictedKey struct {
	id machine.ConfigID
	uc workload.UseCase
}

type predictedEntry struct {
	once sync.Once
	done atomic.Bool // set when once's body has finished
	m    counters.Metrics
	err  error
}

var (
	predictedMu    sync.Mutex
	predictedCache = map[predictedKey]*predictedEntry{}
)

// PredictedMetrics runs (once per process, then caches) a short
// simulated measurement of uc on configuration id and returns the
// model's predicted counter metrics. It is the source of the per-use-
// case cache-MPI the runtime-only fallback publishes on /stats — the
// paper's tables publish no per-use-case L2MPI, so the calibrated model
// is the best available reference. The first call per key costs a model
// run (~0.5s); callers on a sampling path should use
// TryPredictedMetrics and warm this in the background.
func PredictedMetrics(id machine.ConfigID, uc workload.UseCase) (counters.Metrics, error) {
	key := predictedKey{id, uc}
	predictedMu.Lock()
	e, ok := predictedCache[key]
	if !ok {
		e = &predictedEntry{}
		predictedCache[key] = e
	}
	predictedMu.Unlock()
	e.once.Do(func() {
		defer e.done.Store(true)
		r, err := RunAON(id, uc, predictedOpts)
		if err != nil {
			e.err = err
			return
		}
		e.m = r.Metrics
	})
	return e.m, e.err
}

// TryPredictedMetrics returns the cached prediction without computing:
// ok is false until some PredictedMetrics call for the key has finished
// (successfully). Sampling paths call this so a model run never blocks a
// 100ms sampling tick.
func TryPredictedMetrics(id machine.ConfigID, uc workload.UseCase) (counters.Metrics, bool) {
	predictedMu.Lock()
	e, ok := predictedCache[predictedKey{id, uc}]
	predictedMu.Unlock()
	if !ok || !e.done.Load() || e.err != nil {
		return counters.Metrics{}, false
	}
	return e.m, true
}
