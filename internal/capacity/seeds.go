package capacity

import "strings"

// seedTable holds the built-in per-use-case stage-demand seeds: the
// stage p50s of one traced loopback run per use case on the paper's 5 KB
// message at GOMAXPROCS 2, 5000 messages per use case, on a 2-vCPU
// x86-64 guest, 2026-10-15. The stage histograms are log2-bucketed, so each p50 is a
// bucket's upper bound: within 2x above the true median. They exist so
// offline what-if modeling (aonsim -exp capacity, campaign pre-flight)
// has a starting point per use case before any session or calibration
// artifact exists; -csv/-calibration data from the machine being modeled
// replaces them.
//
// FR touches no XML and DPI only scans bytes; CBR, SV and XJ pay for one
// tokenizer pass, and AUTH's HMAC over the body costs about as much.
var seedTable = map[string]StageDemands{
	"FR":   {Read: 1e-6, Parse: 1e-6, Process: 1e-6, Write: 4e-6},
	"CBR":  {Read: 1e-6, Parse: 1e-6, Process: 64e-6, Write: 8e-6},
	"SV":   {Read: 2e-6, Parse: 1e-6, Process: 64e-6, Write: 8e-6},
	"DPI":  {Read: 1e-6, Parse: 1e-6, Process: 32e-6, Write: 4e-6},
	"AUTH": {Read: 2e-6, Parse: 1e-6, Process: 64e-6, Write: 8e-6},
	"XJ":   {Read: 1e-6, Parse: 1e-6, Process: 64e-6, Write: 8e-6},
}

// SeedDemands returns the built-in stage-demand seed for a use-case name
// (case-insensitive), and whether one exists.
func SeedDemands(ucName string) (StageDemands, bool) {
	d, ok := seedTable[strings.ToUpper(strings.TrimSpace(ucName))]
	return d, ok
}

// SeededUseCases lists the use-case names with built-in demand seeds, in
// the paper's network-I/O→CPU-intensive order.
func SeededUseCases() []string {
	return []string{"FR", "CBR", "SV", "DPI", "AUTH", "XJ"}
}
