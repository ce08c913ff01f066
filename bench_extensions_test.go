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
		mx, err := harness.RunAONMatrix(workload.ExtendedUseCases, machine.AllConfigs, benchAONOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, uc := range workload.ExtendedUseCases {
			fmt.Printf("%s throughput (Mbps):", uc)
			for _, id := range machine.AllConfigs {
				fmt.Printf("  %s=%.0f", id, mx[uc][id].Mbps)
			}
			fmt.Println()
			for _, p := range harness.ScalingPairs {
				fmt.Printf("  scaling %-12s %.2f\n", p.Name, mx.Scaling(p, uc))
			}
			fmt.Printf("  1CPm metrics: %s\n", mx[uc][machine.OneCPm].Metrics)
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
		configs := []machine.ConfigID{machine.OneCPm, machine.TwoCPm, machine.FourCPm}
		mx, err := harness.RunAONMatrix([]workload.UseCase{workload.SV}, configs, benchAONOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range configs {
			r := mx[workload.SV][id]
			fmt.Printf("  %-5s %8.0f Mbps  scaling %.2f  CPI=%.2f BTPI=%.2f%%\n", id, r.Mbps,
				mx.Scaling(harness.ScalingPair{From: machine.OneCPm, To: id}, workload.SV), r.Metrics.CPI, r.Metrics.BTPI)
		}
		fmt.Println("  (the softirq serialized on CPU0 and the gigabit ingress bound the curve)")
	}
}
