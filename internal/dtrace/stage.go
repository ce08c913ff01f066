package dtrace

import "slices"

// Stage names one segment of a request's path through the gateway — the
// live analogue of the paper's per-phase VTune breakdown. The five stages
// are defined here once: Recorder.Add/Child take a Stage, its String is
// the span name, and the gateway indexes its per-stage histograms by
// it.
type Stage uint8

const (
	// StageRead: wire→memory — framing the request off the socket, first
	// byte to complete body (keep-alive idle time excluded).
	StageRead Stage = iota
	// StageParse: the full HTTP parse of the framed request.
	StageParse
	// StageProcess: the use-case pipeline — route/validate/inspect.
	StageProcess
	// StageForward: the upstream round trip (forwarding mode only).
	StageForward
	// StageWrite: writing the response to the client.
	StageWrite
	NumStages
)

var stageNames = [NumStages]string{"read", "parse", "process", "forward", "write"}

func (s Stage) String() string {
	if s >= NumStages {
		return "invalid"
	}
	return stageNames[s]
}

// StageNames lists the stages in pipeline order, for table renderers
// that want stable column order.
func StageNames() []string { return slices.Clone(stageNames[:]) }
