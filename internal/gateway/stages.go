package gateway

import (
	"repro/internal/dtrace"
	"repro/internal/lhist"
	"repro/internal/workload"
)

// numTraceUseCases covers FR/CBR/SV plus the DPI/AUTH/XJ extensions.
const numTraceUseCases = 6

// traceSlotControl is the extra stage-histogram row for control-plane
// GETs (/stats, /traces): they bypass admission but still
// cost read/process/write time on their connection goroutines, so they
// get their own row ("GET") in the stage breakdown.
const traceSlotControl = numTraceUseCases

// numTraceSlots is every use case plus the control-plane slot.
const numTraceSlots = numTraceUseCases + 1

// traceSlotName labels a stage-histogram row for snapshots and tables.
func traceSlotName(slot int) string {
	if slot == traceSlotControl {
		return "GET"
	}
	return workload.UseCase(slot).String()
}

// stageHists aggregates finished requests' stage spans into per-use-case,
// per-stage latency histograms — the /stats "stages" section. There is
// no second clock: every observation is a dtrace span's duration.
type stageHists [numTraceSlots][dtrace.NumStages]lhist.Hist

// observe folds rec's stage spans into row slot.
func (h *stageHists) observe(slot int, rec *dtrace.Recorder) {
	spans := rec.Spans()
	for i := 1; i < len(spans); i++ {
		h[slot][rec.Stage(i)].Observe(spans[i].Dur())
	}
}

// StageSnapshot is the /stats "stages" section: per use case (plus the
// "GET" control-plane row), per stage percentile reads of the traced
// request population.
type StageSnapshot map[string]map[string]lhist.Snapshot

// snapshot renders every row that traced at least one request.
func (h *stageHists) snapshot() StageSnapshot {
	out := StageSnapshot{}
	for slot := range h {
		stages := map[string]lhist.Snapshot{}
		for st := range h[slot] {
			if s := h[slot][st].Snapshot(); s.Count > 0 {
				stages[dtrace.Stage(st).String()] = s
			}
		}
		if len(stages) > 0 {
			out[traceSlotName(slot)] = stages
		}
	}
	return out
}
