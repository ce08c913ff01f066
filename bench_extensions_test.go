package repro

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/perf/machine"
	"repro/internal/workload"
)

// BenchmarkExtensionUseCases runs the paper's future-work operations —
// deep packet inspection and HMAC-SHA1 message authentication (Section 6)
// — and XML→JSON translation across the dual-processing transitions,
// extending Figure 3's spectrum beyond SV.
func BenchmarkExtensionUseCases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i > 0 {
			continue
		}
		fmt.Println("Extension: future-work use cases (DPI, AUTH, XJ) on the Figure 3 grid")
		for _, uc := range workload.ExtendedUseCases {
			results := map[machine.ConfigID]harness.AONResult{}
			for _, id := range machine.AllConfigs {
				r, err := harness.RunAON(id, uc, benchAONOpts)
				if err != nil {
					b.Fatal(err)
				}
				results[id] = r
			}
			fmt.Printf("%s throughput (Mbps):", uc)
			for _, id := range machine.AllConfigs {
				fmt.Printf("  %s=%.0f", id, results[id].Mbps)
			}
			fmt.Println()
			for _, p := range harness.ScalingPairs {
				from, to := results[p.From].Mbps, results[p.To].Mbps
				fmt.Printf("  scaling %-12s %.2f\n", p.Name, to/from)
			}
			r := results[machine.OneCPm]
			fmt.Printf("  1CPm metrics: %s\n", r.Metrics)
		}
	}
}

// BenchmarkExtensionMulticore extends the study to a four-core machine
// (the paper's other named future work): SV scaling from one to two to
// four Pentium M cores sharing one L2.
func BenchmarkExtensionMulticore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i > 0 {
			continue
		}
		fmt.Println("Extension: multicore scaling (SV on 1, 2, 4 Pentium M cores)")
		var base float64
		for _, id := range []machine.ConfigID{machine.OneCPm, machine.TwoCPm, machine.FourCPm} {
			r, err := harness.RunAON(id, workload.SV, benchAONOpts)
			if err != nil {
				b.Fatal(err)
			}
			if base == 0 {
				base = r.Mbps
			}
			fmt.Printf("  %-5s %8.0f Mbps  scaling %.2f  CPI=%.2f BTPI=%.2f%%\n",
				id, r.Mbps, r.Mbps/base, r.Metrics.CPI, r.Metrics.BTPI)
		}
		fmt.Println("  (the softirq serialized on CPU0 and the gigabit ingress bound the curve)")
	}
}
