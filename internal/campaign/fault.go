package campaign

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/gateway"
	"repro/internal/upstream"
)

// FaultEvent records one scripted fault step as it fired: which phase,
// when, against which backend, and the backend's acknowledged state (or
// the error if the POST failed — a fault storm against a dead backend is
// itself a finding, not a campaign abort).
type FaultEvent struct {
	Phase   string               `json:"phase"`
	AtMS    int                  `json:"at_ms"`
	Backend string               `json:"backend"`
	Fault   upstream.FaultSpec   `json:"fault"`
	State   *upstream.FaultState `json:"state,omitempty"`
	Err     string               `json:"err,omitempty"`
}

// postFault sends one POST /fault to an aonback control plane and
// returns the acknowledged fault state.
func postFault(addr string, spec upstream.FaultSpec, timeout time.Duration) (*upstream.FaultState, error) {
	var st upstream.FaultState
	if err := gateway.PostJSON(addr, "/fault", spec, timeout, &st); err != nil {
		return nil, fmt.Errorf("campaign: fault %s: %w", addr, err)
	}
	return &st, nil
}

// getFault reads a backend's current fault state without changing it.
func getFault(addr string, timeout time.Duration) (*upstream.FaultState, error) {
	var st upstream.FaultState
	if err := gateway.GetJSON(addr, "/fault", timeout, &st); err != nil {
		return nil, fmt.Errorf("campaign: fault %s: %w", addr, err)
	}
	return &st, nil
}

// faultScript runs one phase's fault steps at their offsets, appending
// events to the shared log under mu. It returns when all steps have
// fired or stop closes.
func (r *runner) faultScript(phase *Phase, stop <-chan struct{}) {
	start := time.Now()
	// Steps fire in at_ms order regardless of spec order.
	steps := make([]FaultStep, len(phase.Faults))
	copy(steps, phase.Faults)
	for i := 1; i < len(steps); i++ {
		for j := i; j > 0 && steps[j].AtMS < steps[j-1].AtMS; j-- {
			steps[j], steps[j-1] = steps[j-1], steps[j]
		}
	}
	for _, step := range steps {
		due := time.Duration(step.AtMS)*time.Millisecond - time.Since(start)
		if due > 0 {
			select {
			case <-stop:
				return
			case <-time.After(due):
			}
		}
		addr := r.spec.Backends[step.Backend]
		ev := FaultEvent{Phase: phase.Name, AtMS: step.AtMS, Backend: addr, Fault: step.Fault}
		st, err := postFault(addr, step.Fault, r.timeout)
		if err != nil {
			ev.Err = err.Error()
		} else {
			ev.State = st
		}
		r.mu.Lock()
		r.faultLog = append(r.faultLog, ev)
		r.mu.Unlock()
		r.logf("campaign: phase %s +%dms fault -> %s (%s)", phase.Name, step.AtMS, addr, describeFault(step.Fault, err))
	}
}

// describeFault renders a one-line human summary of a fault step.
func describeFault(f upstream.FaultSpec, err error) string {
	if err != nil {
		return "post failed: " + err.Error()
	}
	var parts []string
	if f.Clear {
		parts = append(parts, "clear")
	}
	if f.FailNext != nil {
		parts = append(parts, fmt.Sprintf("fail_next=%d", *f.FailNext))
	}
	if f.ErrorRate != nil {
		parts = append(parts, fmt.Sprintf("error_rate=%.2f", *f.ErrorRate))
	}
	if f.ExtraDelayMS != nil {
		parts = append(parts, fmt.Sprintf("extra_delay_ms=%.0f", *f.ExtraDelayMS))
	}
	if f.DownMS != nil {
		parts = append(parts, fmt.Sprintf("down_ms=%.0f", *f.DownMS))
	}
	if len(parts) == 0 {
		return "state query"
	}
	return strings.Join(parts, " ")
}
