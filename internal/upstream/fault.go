package upstream

import (
	"encoding/json"
	"math"
	"time"

	"repro/internal/httpmsg"
)

// FaultSpec is the POST /fault request body: each non-nil field replaces
// that dimension of the backend's runtime fault state, nil fields leave
// it alone, and Clear resets everything first. Campaigns script fault
// storms by POSTing a sequence of these at phase boundaries.
type FaultSpec struct {
	// FailNext drops the connection (no response) for the next N message
	// requests.
	FailNext *int64 `json:"fail_next,omitempty"`
	// ErrorRate answers the given fraction [0,1] of message requests
	// with an injected 500. Selection is deterministic: it hashes the
	// request sequence number with the backend seed, so a campaign rerun
	// errors the same requests.
	ErrorRate *float64 `json:"error_rate,omitempty"`
	// ExtraDelayMS inflates every message response by this much on top
	// of the configured service delay.
	ExtraDelayMS *float64 `json:"extra_delay_ms,omitempty"`
	// DownMS drops every message request for this long from now — a
	// scripted outage window. The /stats and /fault control plane stays
	// up throughout.
	DownMS *float64 `json:"down_ms,omitempty"`
	// Clear resets all fault state before applying the other fields.
	Clear bool `json:"clear,omitempty"`
}

// FaultState is the backend's live fault-injection state, returned by
// GET /fault and by every POST /fault (after applying the spec), and
// embedded in /stats.
type FaultState struct {
	FailNext        int64   `json:"fail_next"`
	ErrorRate       float64 `json:"error_rate"`
	ExtraDelayMS    float64 `json:"extra_delay_ms"`
	DownRemainingMS float64 `json:"down_remaining_ms"`
	Active          bool    `json:"active"`
	Dropped         uint64  `json:"dropped"`
	Errored         uint64  `json:"errored"`
}

// ApplyFault folds a fault spec into the runtime state and returns the
// resulting state. The application is timestamped into /stats
// (last_fault_unix_ms) so a post-mortem can tell from the backend side
// when a storm step actually landed.
func (s *BackendServer) ApplyFault(spec FaultSpec) FaultState {
	s.lastFaultMS.Store(time.Now().UnixMilli())
	if spec.Clear {
		s.failNext.Store(0)
		s.errRateBits.Store(0)
		s.extraDelayNS.Store(0)
		s.downUntilNS.Store(0)
	}
	if spec.FailNext != nil {
		n := *spec.FailNext
		if n < 0 {
			n = 0
		}
		s.failNext.Store(n)
	}
	if spec.ErrorRate != nil {
		r := math.Min(math.Max(*spec.ErrorRate, 0), 1)
		s.errRateBits.Store(math.Float64bits(r))
	}
	if spec.ExtraDelayMS != nil && *spec.ExtraDelayMS >= 0 {
		s.extraDelayNS.Store(int64(*spec.ExtraDelayMS * float64(time.Millisecond)))
	}
	if spec.DownMS != nil {
		until := int64(0)
		if *spec.DownMS > 0 {
			until = time.Now().UnixNano() + int64(*spec.DownMS*float64(time.Millisecond))
		}
		s.downUntilNS.Store(until)
	}
	return s.FaultState()
}

// FaultState snapshots the live fault-injection state.
func (s *BackendServer) FaultState() FaultState {
	st := FaultState{
		FailNext:     s.failNext.Load(),
		ErrorRate:    math.Float64frombits(s.errRateBits.Load()),
		ExtraDelayMS: float64(s.extraDelayNS.Load()) / float64(time.Millisecond),
		Dropped:      s.Failed.Load(),
		Errored:      s.Errored.Load(),
	}
	if until := s.downUntilNS.Load(); until > 0 {
		if rem := until - time.Now().UnixNano(); rem > 0 {
			st.DownRemainingMS = float64(rem) / float64(time.Millisecond)
		}
	}
	st.Active = st.FailNext > 0 || st.ErrorRate > 0 || st.ExtraDelayMS > 0 || st.DownRemainingMS > 0
	return st
}

// faultDrop decides whether message request seq is dropped by the active
// fault state (outage window, then the fail-next budget).
func (s *BackendServer) faultDrop(seq uint64) bool {
	if until := s.downUntilNS.Load(); until > 0 && time.Now().UnixNano() < until {
		return true
	}
	for {
		n := s.failNext.Load()
		if n <= 0 {
			return false
		}
		if s.failNext.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// errorHit decides whether message request seq takes the injected-500
// path. The decision hashes (seq, seed) so it is deterministic across
// reruns yet spread uniformly across the stream.
func (s *BackendServer) errorHit(seq uint64) bool {
	rate := math.Float64frombits(s.errRateBits.Load())
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := splitmix64(seq ^ s.cfg.Seed*0x9E3779B97F4A7C15)
	return float64(h>>11)/(1<<53) < rate
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed
// 64-bit hash for the deterministic error-rate draw.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// handleFault serves the POST /fault control request: decode the spec,
// apply it, answer with the resulting state. Malformed JSON is a 400.
func (s *BackendServer) handleFault(body []byte) []byte {
	if len(body) == 0 {
		// Empty POST: a state query, same as GET /fault.
		return httpmsg.JSONResponse(200, s.FaultState())
	}
	var spec FaultSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return httpmsg.JSONResponse(400, map[string]string{"error": "bad fault spec: " + err.Error()})
	}
	return httpmsg.JSONResponse(200, s.ApplyFault(spec))
}
