package branch

import (
	"testing"
	"testing/quick"
)

func pm() *Predictor {
	return New(Config{Name: "pm", PatternBits: 15, HistoryBits: 14, Chooser: true})
}

func netburst() *Predictor {
	return New(Config{Name: "nb", PatternBits: 11, HistoryBits: 6, Chooser: false})
}

func TestLearnsAlwaysTaken(t *testing.T) {
	for _, p := range []*Predictor{pm(), netburst()} {
		miss := 0
		for i := 0; i < 1000; i++ {
			if p.Predict(0x400, true) {
				miss++
			}
		}
		if miss > 5 {
			t.Errorf("%s: %d mispredicts on an always-taken branch", p.Config().Name, miss)
		}
	}
}

func TestLearnsAlwaysNotTaken(t *testing.T) {
	for _, p := range []*Predictor{pm(), netburst()} {
		miss := 0
		for i := 0; i < 1000; i++ {
			if p.Predict(0x404, false) {
				miss++
			}
		}
		if miss > 5 {
			t.Errorf("%s: %d mispredicts on a never-taken branch", p.Config().Name, miss)
		}
	}
}

func TestLearnsShortLoop(t *testing.T) {
	// A loop that runs 8 iterations then exits: the exit branch is the
	// only hard part; a history-based predictor learns the whole pattern.
	p := pm()
	miss := 0
	for rep := 0; rep < 500; rep++ {
		for i := 0; i < 8; i++ {
			if p.Predict(0x500, i < 7) {
				miss++
			}
		}
	}
	rate := float64(miss) / 4000
	if rate > 0.05 {
		t.Fatalf("loop misprediction rate %.3f", rate)
	}
}

func TestLongHistoryBeatsShort(t *testing.T) {
	// Period-13 pattern: within reach of a 14-bit history, beyond a
	// 6-bit one. This is the structural gap behind the platforms'
	// misprediction difference (Table 6).
	run := func(p *Predictor) float64 {
		miss := 0
		n := 20000
		for i := 0; i < n; i++ {
			if p.Predict(0x600, i%13 == 0) {
				miss++
			}
		}
		return float64(miss) / float64(n)
	}
	pmRate := run(pm())
	nbRate := run(netburst())
	if pmRate >= nbRate {
		t.Fatalf("long history (%.3f) did not beat short history (%.3f)", pmRate, nbRate)
	}
}

// Property: for any outcome stream, a warm predictor mispredicts on at
// most every lookup, and two predictors fed the same stream from the
// same state mispredict on exactly the same branches (a simulated run is
// a pure function of its inputs).
func TestMispredictBoundProperty(t *testing.T) {
	p, q := pm(), pm()
	check := func(pcs []uint16, outcomes []bool) bool {
		n := min(len(pcs), len(outcomes))
		miss := 0
		for i := 0; i < n; i++ {
			m := p.Predict(uint64(pcs[i])*4, outcomes[i])
			if m != q.Predict(uint64(pcs[i])*4, outcomes[i]) {
				return false
			}
			if m {
				miss++
			}
		}
		return miss <= n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Sharing one predictor between two interleaved streams (the SMT model)
// must not mispredict less than the better of the two run in isolation —
// destructive aliasing only hurts.
func TestSharedPredictorInterference(t *testing.T) {
	isolated := func() float64 {
		p := netburst()
		miss := 0
		for i := 0; i < 8000; i++ {
			if p.Predict(0x700, i%2 == 0) {
				miss++
			}
		}
		return float64(miss) / 8000
	}()

	shared := func() float64 {
		p := netburst()
		miss := 0
		for i := 0; i < 8000; i++ {
			if p.Predict(0x700, i%2 == 0) {
				miss++
			}
			// The sibling thread pollutes global history with an
			// uncorrelated stream.
			p.Predict(0x900+uint64(i%16)*4, (i*2654435761)%5 < 2)
		}
		return float64(miss) / 8000
	}()

	if shared < isolated {
		t.Fatalf("sharing improved prediction: %.4f < %.4f", shared, isolated)
	}
}
