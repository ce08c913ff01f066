// Package branch implements the branch-direction predictors of the two
// simulated microarchitectures.
//
// The Pentium M model uses a gshare predictor with a long global history
// and a large pattern table plus a loop-friendly bimodal fallback chooser,
// reflecting the "advanced branch prediction" Intel shipped in Banias/Dothan
// and that the paper credits for the Pentium M's much lower misprediction
// ratios (Table 6). The Xeon (Netburst) model uses a smaller gshare with a
// shorter history.
//
// Hyperthreading is modeled faithfully to the paper's finding 6: the two
// logical CPUs of an HT core share one physical predictor, and the pattern
// tables are indexed without any thread identity, so two instruction streams
// alias destructively. The machine model expresses this simply by handing
// both logical CPUs the same *Predictor.
package branch

// Config sizes a predictor.
type Config struct {
	Name        string
	PatternBits int  // log2 of the two-bit-counter pattern table size
	HistoryBits int  // global history length used in the gshare index
	Chooser     bool // hybrid bimodal/gshare with a chooser table
}

// Predictor is a hybrid gshare/bimodal branch direction predictor with
// two-bit saturating counters.
type Predictor struct {
	cfg      Config
	gshare   []uint8 // 2-bit counters
	bimodal  []uint8 // 2-bit counters (hybrid only)
	chooser  []uint8 // 2-bit chooser: >=2 favors gshare
	mask     uint64
	history  uint64
	histMask uint64
}

// New builds a predictor. Counters start weakly taken, matching hardware
// reset state closely enough for steady-state measurement.
func New(cfg Config) *Predictor {
	size := 1 << cfg.PatternBits
	p := &Predictor{
		cfg:      cfg,
		gshare:   make([]uint8, size),
		mask:     uint64(size - 1),
		histMask: (1 << cfg.HistoryBits) - 1,
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	if cfg.Chooser {
		p.bimodal = make([]uint8, size)
		p.chooser = make([]uint8, size)
		for i := range p.bimodal {
			p.bimodal[i] = 2
			p.chooser[i] = 2
		}
	}
	return p
}

// Config returns the predictor configuration.
func (p *Predictor) Config() Config { return p.cfg }

func (p *Predictor) gshareIdx(pc uint64) uint64 {
	return ((pc >> 2) ^ (p.history & p.histMask)) & p.mask
}

func (p *Predictor) bimodalIdx(pc uint64) uint64 {
	return (pc >> 2) & p.mask
}

// Predict runs one branch through the predictor, updates all tables with
// the actual outcome, and reports whether the prediction was wrong.
func (p *Predictor) Predict(pc uint64, taken bool) (mispredicted bool) {
	gi := p.gshareIdx(pc)
	gPred := p.gshare[gi] >= 2

	pred := gPred
	var bi uint64
	if p.cfg.Chooser {
		bi = p.bimodalIdx(pc)
		bPred := p.bimodal[bi] >= 2
		if p.chooser[bi] < 2 {
			pred = bPred
		}
		// Chooser trains toward whichever component was right.
		if gPred != bPred {
			if gPred == taken {
				if p.chooser[bi] < 3 {
					p.chooser[bi]++
				}
			} else if p.chooser[bi] > 0 {
				p.chooser[bi]--
			}
		}
		p.bimodal[bi] = train(p.bimodal[bi], taken)
	}

	p.gshare[gi] = train(p.gshare[gi], taken)
	p.history = (p.history << 1) | b2u(taken)

	return pred != taken
}

func train(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
