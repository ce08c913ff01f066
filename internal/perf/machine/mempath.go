package machine

import (
	"repro/internal/perf/bus"
	"repro/internal/perf/cache"
	"repro/internal/perf/counters"
)

// memPath implements cpu.Memory for one logical CPU: it walks the TLB, the
// core's L1, the package L2, snoops sibling cores and peer packages, and
// charges front-side-bus transactions. It is where the machine's coherence
// protocol lives:
//
//   - The L2 is the coherence point inside a package; dirty lines move
//     between sibling cores through an intervention at L2-interface speed.
//     On the dual-core Pentium M the intervention additionally pushes the
//     dirty line to memory over the FSB (WritebackOnIntervention), which
//     the paper observes as the 2CPm bus-transaction surge in Table 3.
//   - The FSB is the coherence point between packages; dirty lines move
//     as cache-to-cache transfers with full bus occupancy, the mechanism
//     behind the 2PPx loopback collapse in Figure 2.
type memPath struct {
	m    *Machine
	cu   *CoreUnit
	dtlb *cache.Cache
}

// Access performs one data-word access. It returns the visible stall in
// cycles: overlappable latencies (cache hits, DRAM reads) are discounted
// by the core's memory-level-parallelism factor, while serializing
// latencies (dirty cross-cache transfers, bus queueing) are charged in
// full — a dependent pull of another cache's dirty line cannot be hidden
// by out-of-order execution. Hierarchy events are recorded into cs.
func (p *memPath) Access(now uint64, addr uint64, write bool, cs *counters.Set) float64 {
	m := p.m
	mlp := 1 - m.Spec.Core.MemOverlap
	ov := float64(0)  // overlappable latency
	ser := float64(0) // serializing latency

	if st, _ := p.dtlb.Lookup(addr, false); st == cache.Invalid {
		p.dtlb.Fill(addr, cache.Shared)
		cs.Add(counters.TLBMisses, 1)
		ov += float64(m.Spec.DTLBWalkCycles)
	}

	// L1 lookup.
	st, upgrade := p.cu.L1.Lookup(addr, write)
	if st != cache.Invalid {
		ov += float64(p.cu.L1.Latency())
		if upgrade {
			// S->M upgrade: kill every other copy in the system.
			p.invalidateElsewhere(now, addr, cs)
		}
		return ov * mlp
	}
	cs.Add(counters.L1Misses, 1)

	// Sibling cores inside the package may own the line dirty; the L2
	// copy, if present, would be stale, so the sibling L1s are probed
	// before the L2 is trusted.
	if dirtyDonor := p.siblingDirty(addr); dirtyDonor != nil {
		if write {
			dirtyDonor.Invalidate(addr)
		} else {
			dirtyDonor.Downgrade(addr)
		}
		if !m.Opts.FreeCoherence {
			ser += m.interventionLat
			if m.Spec.WritebackOnIntervention {
				// Cross-core modified data goes through memory on this
				// platform: the donor pushes the dirty line to DRAM over
				// the FSB and the requester re-reads it — two bus
				// transactions plus a memory latency on the critical
				// path. This is the mechanism behind the paper's 2CPm
				// loopback degradation and bus-transaction surge
				// (Figure 2 / Table 3).
				ser += float64(m.Bus.Transact(now, bus.MemWrite))
				ser += float64(m.Bus.Transact(now, bus.MemRead))
				ov += m.dramLat
				cs.Add(counters.BusTxns, 2)
			}
		}
		fillState := cache.Shared
		if write {
			fillState = cache.Modified
		}
		p.fillL1(now, addr, fillState, cs)
		// Keep the L2 coherent with the transferred line.
		p.fillL2(now, addr, fillState, cs)
		return ov*mlp + ser
	}

	// L2 lookup.
	l2st, l2upgrade := p.cu.L2.Lookup(addr, write)
	if l2st != cache.Invalid {
		ov += float64(p.cu.L2.Latency())
		if l2upgrade || (write && l2st != cache.Modified) {
			p.invalidateElsewhere(now, addr, cs)
		}
		l1st := cache.Shared
		switch {
		case write:
			l1st = cache.Modified
		case l2st == cache.Exclusive || l2st == cache.Modified:
			l1st = cache.Exclusive
		}
		p.fillL1(now, addr, l1st, cs)
		return ov*mlp + ser
	}
	cs.Add(counters.L2Misses, 1)
	ov += float64(p.cu.L2.Latency()) // the miss still pays the lookup

	if p.cu.Pkg.pf != nil {
		p.cu.Pkg.pf.onMiss(p, now, addr, cs)
	}

	// Snoop peer packages (and, in the private-L2 ablation, sibling
	// cores' private L2s).
	owner, dirty := p.findRemote(addr)
	switch {
	case owner != nil && dirty:
		if !m.Opts.FreeCoherence {
			txLat := m.Bus.Transact(now, bus.CacheToCache)
			cs.Add(counters.BusTxns, 1)
			ser += m.c2cLat + float64(txLat)
		}
		if write {
			p.invalidateRemote(addr)
		} else {
			p.downgradeRemote(addr)
		}
	case owner != nil: // clean remote copy
		txLat := m.Bus.Transact(now, bus.MemRead)
		cs.Add(counters.BusTxns, 1)
		ov += m.dramLat
		ser += float64(txLat)
		if write {
			p.invalidateRemote(addr)
		} else {
			p.downgradeRemote(addr)
		}
	default: // memory is the only holder
		txLat := m.Bus.Transact(now, bus.MemRead)
		cs.Add(counters.BusTxns, 1)
		ov += m.dramLat
		ser += float64(txLat)
	}

	fillState := cache.Exclusive
	if write {
		fillState = cache.Modified
	} else if owner != nil {
		fillState = cache.Shared
	}
	p.fillL2(now, addr, fillState, cs)
	p.fillL1(now, addr, fillState, cs)
	return ov*mlp + ser
}

// ContextSwitch implements cpu.Memory: a new address space flushes the
// logical CPU's data TLB.
func (p *memPath) ContextSwitch() { p.dtlb.Flush() }

// fillL1 installs a line in the core's L1, spilling any dirty victim into
// the L2.
func (p *memPath) fillL1(now uint64, addr uint64, st cache.State, cs *counters.Set) {
	v := p.cu.L1.Fill(addr, st)
	if v.Valid && v.WriteBack {
		p.fillL2(now, v.Addr, cache.Modified, cs)
	}
}

// fillL2 installs a line in the package L2, writing any dirty victim back
// to memory over the bus (posted: occupies the bus but does not delay the
// requester).
func (p *memPath) fillL2(now uint64, addr uint64, st cache.State, cs *counters.Set) {
	v := p.cu.L2.Fill(addr, st)
	if v.Valid && v.WriteBack {
		p.m.Bus.Transact(now, bus.MemWrite)
		cs.Add(counters.BusTxns, 1)
	}
}

// siblingDirty returns a sibling core's L1 that holds addr Modified, if
// any (same package, different core).
func (p *memPath) siblingDirty(addr uint64) *cache.Cache {
	for _, cu := range p.cu.Pkg.Cores {
		if cu == p.cu {
			continue
		}
		if cu.L1.Probe(addr) == cache.Modified {
			return cu.L1
		}
	}
	return nil
}

// findRemote scans every cache outside this core's package-level domain
// (peer packages; plus sibling cores' private L2s under the PrivateL2
// ablation) for a copy of addr. It reports whether any copy exists and
// whether a dirty one does.
func (p *memPath) findRemote(addr uint64) (ownerPkg *Package, dirty bool) {
	for _, pkg := range p.m.Packages {
		for _, cu := range pkg.Cores {
			if cu == p.cu {
				continue
			}
			samePkg := cu.Pkg == p.cu.Pkg
			if !samePkg || cu.L2 != p.cu.L2 {
				if st := cu.L2.Probe(addr); st != cache.Invalid {
					if st == cache.Modified {
						return pkg, true
					}
					ownerPkg = pkg
				}
			}
			if !samePkg {
				if st := cu.L1.Probe(addr); st != cache.Invalid {
					if st == cache.Modified {
						return pkg, true
					}
					ownerPkg = pkg
				}
			}
		}
	}
	return ownerPkg, false
}

// invalidateRemote kills every copy of addr outside this core.
func (p *memPath) invalidateRemote(addr uint64) {
	for _, pkg := range p.m.Packages {
		for _, cu := range pkg.Cores {
			if cu == p.cu {
				continue
			}
			cu.L1.Invalidate(addr)
			if cu.L2 != p.cu.L2 {
				cu.L2.Invalidate(addr)
			}
		}
	}
}

// downgradeRemote moves every remote copy of addr to Shared.
func (p *memPath) downgradeRemote(addr uint64) {
	for _, pkg := range p.m.Packages {
		for _, cu := range pkg.Cores {
			if cu == p.cu {
				continue
			}
			cu.L1.Downgrade(addr)
			if cu.L2 != p.cu.L2 {
				cu.L2.Downgrade(addr)
			}
		}
	}
}

// invalidateElsewhere handles a write upgrade: sibling L1s and all remote
// copies die; if any copy lived outside the package an address-phase bus
// transaction is charged, as MESI requires the upgrade to be visible on
// the FSB.
func (p *memPath) invalidateElsewhere(now uint64, addr uint64, cs *counters.Set) {
	crossPackage := false
	for _, pkg := range p.m.Packages {
		for _, cu := range pkg.Cores {
			if cu == p.cu {
				continue
			}
			if cu.L1.Invalidate(addr) != cache.Invalid {
				if cu.Pkg != p.cu.Pkg {
					crossPackage = true
				}
			}
			if cu.L2 != p.cu.L2 && cu.L2.Invalidate(addr) != cache.Invalid {
				if cu.Pkg != p.cu.Pkg {
					crossPackage = true
				}
			}
		}
	}
	if crossPackage && !p.m.Opts.FreeCoherence {
		p.m.Bus.Transact(now, bus.Invalidate)
		cs.Add(counters.BusTxns, 1)
	}
}
