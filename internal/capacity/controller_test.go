package capacity

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func testConfig() ControllerConfig {
	return ControllerConfig{
		TargetP99:   100 * time.Millisecond,
		MaxInflight: 256,
		MinInflight: 5,
	}
}

// obsAt builds a healthy observation at the given offered load on four
// Ps whose process stage takes processSec: the goodput is whatever the
// model itself would predict (so divergence never trips by
// construction).
func obsAt(now time.Time, offered, processSec float64) Observation {
	d := StageDemands{Read: 0.0001, Parse: 0.001, Process: processSec, Write: 0.0001}
	m := GatewayModel(d, GatewayTopology{Workers: 4})
	p := m.Predict(offered)
	return Observation{
		At:            now,
		OfferedPerSec: offered,
		GoodputPerSec: p.ThroughputPerSec,
		P99:           time.Duration(p.P99US) * time.Microsecond,
		Demands:       d,
		Workers:       4,
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(ControllerConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := testConfig()
	bad.MaxInflight = 4
	if _, err := NewController(bad); err == nil {
		t.Fatal("MaxInflight < MinInflight accepted")
	}
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Last(); d.Bound != 256 {
		t.Fatalf("initial decision not the ceiling: %+v", d)
	}
}

// TestControllerTracksLoad: a healthy observation produces a model-backed
// decision whose bound respects the clamps and whose reason names the
// admissible load.
func TestControllerTracksLoad(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	d := c.Decide(now, obsAt(now, 500, 0.003))
	if d.Fallback {
		t.Fatalf("healthy observation fell back: %+v", d)
	}
	if d.AdmissibleLoad <= 0 {
		t.Fatalf("no admissible load computed: %+v", d)
	}
	if d.Bound < 5 || d.Bound > 256 {
		t.Fatalf("bound %d outside clamps", d.Bound)
	}
	if !strings.Contains(d.Reason, "model") {
		t.Fatalf("reason %q", d.Reason)
	}
	if got := c.Counters(); got.Decisions != 1 || got.Fallbacks != 0 || got.BoundChanges != 1 {
		t.Fatalf("counters %+v", got)
	}
}

// TestControllerHysteresis: a small demand change holds the bound, a big
// one moves it.
func TestControllerHysteresis(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	first := c.Decide(now, obsAt(now, 500, 0.003))
	// A 2% demand change stays under the 15% hysteresis: nothing moves.
	second := c.Decide(now, obsAt(now, 500, 0.00308))
	if second.Bound != first.Bound {
		t.Fatalf("small change moved the bound: %+v -> %+v", first, second)
	}
	// Doubling the demand halves what the target admits.
	third := c.Decide(now, obsAt(now, 200, 0.007))
	if third.Bound >= second.Bound {
		t.Fatalf("doubled demand did not lower the bound: %+v -> %+v", second, third)
	}
	if cnt := c.Counters(); cnt.BoundChanges != 2 {
		t.Fatalf("bound changes %d, want 2: %+v", cnt.BoundChanges, cnt)
	}
}

// TestControllerClamps: overload never lifts the bound past the ceiling
// and an unmeetable latency target pins it at the floor.
func TestControllerClamps(t *testing.T) {
	cfg := testConfig()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	d := c.Decide(now, obsAt(now, 100000, 0.003))
	if d.Bound > cfg.MaxInflight || d.Bound < cfg.MinInflight {
		t.Fatalf("overload bound %d outside [%d, %d]", d.Bound, cfg.MinInflight, cfg.MaxInflight)
	}

	// Target tighter than the bare service time: bound floors.
	tight := cfg
	tight.TargetP99 = time.Microsecond
	c2, err := NewController(tight)
	if err != nil {
		t.Fatal(err)
	}
	d2 := c2.Decide(now, obsAt(now, 100, 0.003))
	if d2.Bound != c2.Config().MinInflight {
		t.Fatalf("unmeetable target bound %d, want floor %d", d2.Bound, c2.Config().MinInflight)
	}

	// The default floor is every P busy plus one waiting.
	dflt := cfg
	dflt.MinInflight = 0
	c3, err := NewController(dflt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c3.Config().MinInflight, int64(runtime.GOMAXPROCS(0))+1; got != want {
		t.Fatalf("default floor %d, want GOMAXPROCS+1 = %d", got, want)
	}
}

// TestControllerStaleFallback: an observation older than StaleAfter
// falls hard back to MaxInflight.
func TestControllerStaleFallback(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	c.Decide(now, obsAt(now, 900, 0.003)) // move off the ceiling first
	stale := obsAt(now.Add(-10*time.Second), 900, 0.003)
	d := c.Decide(now, stale)
	if !d.Fallback || d.Bound != 256 {
		t.Fatalf("stale observation did not fall back to the ceiling: %+v", d)
	}
	if !strings.Contains(d.Reason, "stale") {
		t.Fatalf("reason %q", d.Reason)
	}
	if got := c.Counters(); got.Fallbacks != 1 {
		t.Fatalf("fallbacks %d, want 1", got.Fallbacks)
	}
}

// TestControllerDivergenceFallback: when measurement contradicts the
// model by more than DivergeFrac, MaxInflight rules.
func TestControllerDivergenceFallback(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	obs := obsAt(now, 500, 0.003)
	obs.GoodputPerSec = obs.GoodputPerSec / 10 // reality far below prediction
	d := c.Decide(now, obs)
	if !d.Fallback || !strings.Contains(d.Reason, "diverged") {
		t.Fatalf("divergence not detected: %+v", d)
	}
	if d.Bound != 256 {
		t.Fatalf("divergence fallback not the ceiling: %+v", d)
	}
	if d.ThroughputErrPct < 100*c.Config().DivergeFrac {
		t.Fatalf("err pct %v under threshold yet fell back", d.ThroughputErrPct)
	}
}

// TestControllerHoldsOnMissingSignal: no demands or an idle window keep
// the previous decision instead of flapping to static and back.
func TestControllerHoldsOnMissingSignal(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	moved := c.Decide(now, obsAt(now, 900, 0.003))

	noDemand := Observation{At: now, OfferedPerSec: 100, GoodputPerSec: 100, Workers: 4}
	d := c.Decide(now, noDemand)
	if d.Bound != moved.Bound || !strings.Contains(d.Reason, "holding") {
		t.Fatalf("missing demands did not hold: %+v vs %+v", d, moved)
	}

	idle := obsAt(now, 0, 0.003)
	idle.GoodputPerSec = 0
	d = c.Decide(now, idle)
	if d.Bound != moved.Bound {
		t.Fatalf("idle window did not hold: %+v vs %+v", d, moved)
	}
	if got := c.Counters(); got.Holds != 2 {
		t.Fatalf("holds %d, want 2", got.Holds)
	}
}

// TestControllerConcurrency exercises Decide/Last/Counters from racing
// goroutines (meaningful under -race).
func TestControllerConcurrency(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			now := time.Now()
			c.Decide(now, obsAt(now, float64(100+i*10), 0.003))
		}
		close(stop)
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Last()
				_ = c.Counters()
			}
		}
	}()
	wg.Wait()
	if got := c.Counters(); got.Decisions != 200 {
		t.Fatalf("decisions %d, want 200", got.Decisions)
	}
}
